import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owssl.core import PartitionSpec, ShapeMismatch
from owssl.threshold import (
    DegenerateGroup,
    PseudoBatch,
    ThresholdState,
    make_pseudo_batch,
    thresholds,
    update_state,
)

PART = PartitionSpec(4, (0, 1), (2, 3), 10, 30)


def state_with(zeta, eta_seen=0.5, eta_novel=0.3, momentum=0.5, partition=PART):
    return ThresholdState(
        zeta=np.asarray(zeta, dtype=float),
        eta_seen=eta_seen,
        eta_novel=eta_novel,
        momentum=momentum,
        partition=partition,
    )


def batch_for(columns):
    return np.array(columns, dtype=float).T


class TestUpdateState:
    def test_zero_momentum_takes_batch_statistic(self):
        state = state_with([0.25] * 4, momentum=0.0)
        probs = batch_for([[0.9, 0.1, 0.0, 0.0], [0.8, 0.2, 0.0, 0.0]])
        new = update_state(state, probs)
        assert new.zeta[0] == pytest.approx(0.85)
        np.testing.assert_array_equal(new.zeta[1:], state.zeta[1:])

    def test_unit_momentum_is_fixed_point(self):
        state = state_with([0.2, 0.4, 0.6, 0.8], momentum=1.0)
        probs = batch_for([[0.9, 0.1, 0.0, 0.0], [0.0, 0.0, 0.1, 0.9]])
        new = update_state(state, probs)
        np.testing.assert_array_equal(new.zeta, state.zeta)
        assert new.eta_seen == state.eta_seen
        assert new.eta_novel == state.eta_novel

    def test_ema_halfway(self):
        state = state_with([0.4, 0.25, 0.25, 0.25], momentum=0.5)
        probs = batch_for([[0.8, 0.2, 0.0, 0.0]])
        new = update_state(state, probs)
        assert new.zeta[0] == pytest.approx(0.5 * 0.4 + 0.5 * 0.8)

    def test_empty_class_and_group_carry_forward(self):
        state = state_with([0.2, 0.3, 0.4, 0.5], eta_novel=0.37, momentum=0.5)
        probs = batch_for([[0.9, 0.1, 0.0, 0.0]])  # only seen group hit
        new = update_state(state, probs)
        assert new.eta_novel == 0.37
        np.testing.assert_array_equal(new.zeta[2:], state.zeta[2:])

    def test_shape_mismatch(self):
        state = state_with([0.2, 0.3, 0.4, 0.5])
        with pytest.raises(ShapeMismatch):
            update_state(state, np.full((3, 2), 1 / 3))


class TestHierarchicalThreshold:
    def test_single_class_group_gets_group_eta(self):
        part = PartitionSpec(3, (0, 1), (2,), 5, 5)
        state = state_with([0.5, 0.25, 0.7], eta_novel=0.42, partition=part)
        assert thresholds(state)[2] == pytest.approx(0.42)

    def test_worked_seen_group(self):
        state = state_with([0.9, 0.6, 0.5, 0.5], eta_seen=0.8)
        assert thresholds(state)[0] == pytest.approx(0.8, abs=1e-9)
        assert thresholds(state)[1] == pytest.approx(0.6 / 0.9 * 0.8, abs=1e-9)
        assert thresholds(state)[1] == pytest.approx(0.53333333333, abs=1e-9)

    def test_zero_zeta_class_retains_everything(self):
        state = state_with([0.9, 0.0, 0.5, 0.5])
        assert thresholds(state)[1] == 0.0

    def test_degenerate_group(self):
        state = state_with([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(DegenerateGroup):
            thresholds(state)[2]


class TestMakePseudoBatch:
    def test_confident_column_retained(self):
        part = PartitionSpec(2, (0,), (1,), 5, 5)
        state = state_with([0.9, 0.9], eta_seen=0.9, eta_novel=0.9, partition=part)
        # tau = (0.9, 0.9)
        batch = make_pseudo_batch(batch_for([[0.95, 0.05]]), thresholds(state))
        assert batch.labels[0] == 0
        assert bool(batch.mask[0]) is True

    def test_tie_breaks_to_lowest_index(self):
        part = PartitionSpec(2, (0,), (1,), 5, 5)
        state = state_with([0.5, 0.5], eta_seen=0.4, eta_novel=0.4, partition=part)
        batch = make_pseudo_batch(batch_for([[0.5, 0.5]]), thresholds(state))
        assert batch.labels[0] == 0
        assert bool(batch.mask[0]) is True  # 0.5 > 0.4

    def test_strict_inequality_rejects_exact_tie(self):
        part = PartitionSpec(2, (0,), (1,), 5, 5)
        state = state_with([1.0, 1.0], eta_seen=0.5, eta_novel=0.5, partition=part)
        batch = make_pseudo_batch(batch_for([[0.5, 0.5]]), thresholds(state))
        assert bool(batch.mask[0]) is False

    def test_elementwise_comparison(self):
        part = PartitionSpec(2, (0,), (1,), 5, 5)
        state = state_with([1.0, 1.0], eta_seen=0.9, eta_novel=0.8, partition=part)
        # tau = (0.9, 0.8); confidences (0.95, 0.7, 0.85) at classes (0, 1, 1)
        probs = batch_for([[0.95, 0.05], [0.3, 0.7], [0.15, 0.85]])
        batch = make_pseudo_batch(probs, thresholds(state))
        np.testing.assert_array_equal(batch.labels, [0, 1, 1])
        np.testing.assert_array_equal(batch.mask, [True, False, True])

    def test_mask_soundness_recheck(self):
        rng = np.random.default_rng(0)
        part = PartitionSpec(5, (0, 1, 2), (3, 4), 10, 10)
        state = state_with(rng.uniform(0.1, 1.0, size=5), 0.6, 0.4, partition=part)
        probs = rng.dirichlet(np.ones(5), size=40).T
        tau = thresholds(state)
        batch = make_pseudo_batch(probs, tau)
        for i in np.flatnonzero(batch.mask):
            assert batch.confidences[i] > tau[batch.labels[i]]

    def test_constructor_copies_and_leaves_the_caller_writable(self):
        mask, labels, conf = np.array([True, False]), np.array([1, 0]), np.array([0.9, 0.6])
        batch = PseudoBatch(mask, labels, conf)
        mask[0], labels[0], conf[0] = False, 0, 0.1
        assert (batch.mask.tolist(), batch.labels.tolist(), batch.confidences.tolist()) == (
            [True, False], [1, 0], [0.9, 0.6])
        assert not any(a.flags.writeable for a in (batch.mask, batch.labels, batch.confidences))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_pseudo_batch(np.full((3, 2), 1 / 3), np.full(4, 0.5))
        with pytest.raises(ShapeMismatch):  # one column, not a K x B batch
            make_pseudo_batch(np.full(4, 1 / 4), np.full(4, 0.5))


@st.composite
def random_states(draw):
    # subnormal etas make ratio*eta round back to eta, breaking the exact
    # attains-the-max equality; they are not meaningful confidences anyway
    unit = st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False)
    k_seen = draw(st.integers(1, 4))
    k_novel = draw(st.integers(1, 4))
    k = k_seen + k_novel
    zeta = draw(st.lists(unit, min_size=k, max_size=k))
    eta_seen = draw(unit)
    eta_novel = draw(unit)
    part = PartitionSpec(k, tuple(range(k_seen)), tuple(range(k_seen, k)), 1, 1)
    return ThresholdState(np.array(zeta), eta_seen, eta_novel, 0.9, part)


class TestHierarchyProperties:
    @settings(max_examples=200, deadline=None)
    @given(random_states())
    def test_tau_bounded_by_group_eta(self, state):
        groups = ((state.partition.seen, state.eta_seen), (state.partition.novel, state.eta_novel))
        peaks = [state.zeta[list(group)].max() for group, _ in groups]
        if min(peaks) <= 0:
            with pytest.raises(DegenerateGroup):
                thresholds(state)
            return
        tau = thresholds(state)
        for (group, eta), peak in zip(groups, peaks):
            for c in group:
                assert tau[c] <= eta
                if eta > 0:
                    # zeta/peak is exactly 1.0 when attained, strictly below
                    # 1.0 otherwise, so the comparison is exact
                    assert (tau[c] == eta) == (state.zeta[c] == peak)

    @settings(max_examples=100, deadline=None)
    @given(random_states(), st.floats(0.0, 1.0))
    def test_monotone_in_zeta(self, state, bump):
        c = 0
        part = state.partition
        if any(state.zeta[list(group)].max() <= 0 for group in (part.seen, part.novel)):
            return
        before = thresholds(state)[c]
        raised = state.zeta.copy()
        raised[c] = min(1.0, raised[c] + bump)
        bumped = ThresholdState(
            raised, state.eta_seen, state.eta_novel, state.momentum, state.partition
        )
        assert thresholds(bumped)[c] >= before - 1e-12

    def test_group_isolation(self):
        rng = np.random.default_rng(7)
        state = state_with(rng.uniform(0.1, 1, 4), 0.7, 0.5, momentum=0.5)
        # a batch hitting only seen classes must not move novel thresholds
        probs = batch_for([[0.9, 0.1, 0.0, 0.0], [0.6, 0.4, 0.0, 0.0]])
        new = update_state(state, probs)
        for c in state.partition.novel:
            assert thresholds(new)[c] == thresholds(state)[c]

    def test_single_group_identical_zeta_reduces_to_global(self):
        part = PartitionSpec(4, (0, 1, 2, 3), (), 5, 5)
        state = ThresholdState(np.full(4, 0.6), 0.45, 0.1, 0.9, part)
        tau = thresholds(state)
        np.testing.assert_allclose(tau, 0.45)
