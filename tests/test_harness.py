import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owssl import harness
from owssl.core import ClassPrior, LabeledBlock, ProbMatrix, Rng, ShapeMismatch
from owssl.evaluation import manhattan_bias
from owssl.harness import (
    HyperParams,
    InfeasibleSeparation,
    LogitQueue,
    SyntheticConfig,
    ToyModel,
    TrainingDiverged,
    class_sizes,
    empirical_distribution,
    estimate_prior_adaptive,
    generate_dataset,
    local_view,
    self_label_bias,
    strong_view,
    train,
    weak_view,
)

SMALL = SyntheticConfig(
    k_total=4,
    feature_dim=6,
    samples_per_class=30,
    cluster_separation=8.0,
    seed=0,
)


def small_hyper(**kw):
    base = dict(epochs=5, batch_size=32, local_views=1, seed=0)
    base.update(kw)
    return HyperParams(**base)


class TestGenerateDataset:
    def test_half_novel_ratio_splits_classes(self):
        cfg = SyntheticConfig(k_total=10, feature_dim=8, samples_per_class=10, seed=1)
        data = generate_dataset(cfg)
        assert len(data.partition.seen) == 5
        assert len(data.partition.novel) == 5

    def test_balanced_counts(self):
        sizes = class_sizes(SMALL)
        assert np.all(sizes == 30)

    def test_imbalance_profile(self):
        cfg = SyntheticConfig(
            k_total=10, feature_dim=8, samples_per_class=100, imbalance_factor=10.0, seed=0
        )
        sizes = class_sizes(cfg)
        assert sizes[0] == 100 and sizes[-1] == 10
        assert np.all(np.diff(sizes) <= 0)
        assert sizes.max() / sizes.min() == pytest.approx(10.0)

    def test_labeled_block_comes_first_and_is_seen_only(self):
        data = generate_dataset(SMALL)
        nl = data.partition.n_labeled
        assert nl == 2 * 15  # 2 seen classes, half of 30 labeled each
        assert set(data.labels[:nl]) <= set(data.partition.seen)
        np.testing.assert_array_equal(data.labeled.labels, data.labels[:nl])

    def test_cluster_separation_honored(self):
        data = generate_dataset(SMALL)
        centroids = np.stack(
            [data.features[data.labels == c].mean(axis=0) for c in range(4)]
        )
        for i in range(4):
            for j in range(i + 1, 4):
                gap = np.linalg.norm(centroids[i] - centroids[j])
                assert gap > SMALL.cluster_separation - 1.0

    def test_determinism(self):
        a = generate_dataset(SMALL)
        b = generate_dataset(SMALL)
        assert a.features.tobytes() == b.features.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_infeasible_separation(self):
        # placement is rejection-sampled under a proposal budget; a crowded
        # low-dimensional request exhausts it
        from owssl.harness import _place_centroids

        with pytest.raises(InfeasibleSeparation):
            _place_centroids(50, 1, 1e9, Rng(0).generator(), budget=500)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(k_total=4, feature_dim=2, samples_per_class=10, novel_ratio=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(
                k_total=4, feature_dim=2, samples_per_class=10,
                weak_noise_sigma=0.5, strong_noise_sigma=0.1,
            )


class TestViews:
    def test_zero_sigma_is_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        gen = Rng(0).generator()
        assert weak_view(x, 0.0, gen).tobytes() == x.tobytes()

    def test_fresh_noise_per_call(self):
        x = np.zeros((2, 3))
        gen = Rng(1).generator()
        a = strong_view(x, 0.5, gen)
        b = strong_view(x, 0.5, gen)
        assert not np.array_equal(a, b)

    def test_weak_view_mean_within_clt_band(self):
        x = np.array([[1.0, -2.0, 0.5]])
        gen = Rng(2).generator()
        sigma = 0.3
        views = np.concatenate([weak_view(x, sigma, gen) for _ in range(10_000)])
        se = sigma / np.sqrt(10_000)
        assert np.all(np.abs(views.mean(axis=0) - x[0]) <= 4 * se)

    def test_local_view_masks_coordinates(self):
        x = np.ones((200, 10))
        gen = Rng(3).generator()
        out = local_view(x, 0.0, 0.5, gen)
        frac = (out == 0.0).mean()
        assert 0.4 < frac < 0.6


class TestLogitQueue:
    def test_fifo_eviction(self):
        q = LogitQueue(capacity=4)
        q.push(np.tile([[1.0], [0.0]], (1, 3)), np.array([0, 1, -1]))
        q.push(np.tile([[0.0], [1.0]], (1, 3)), np.array([-1, -1, 2]))
        mat, tags = q.matrix()
        assert mat.shape == (2, 4)
        np.testing.assert_array_equal(tags, [-1, -1, -1, 2])  # two oldest evicted

    def test_holds_most_recent_in_order(self):
        q = LogitQueue(capacity=100)
        for step in range(5):
            cols = np.full((3, 2), step / 10.0)
            cols[0] = 1.0 - 2 * step / 10.0
            q.push(cols / cols.sum(axis=0, keepdims=True), np.array([-1, -1]))
        mat, tags = q.matrix()
        assert mat.shape == (3, 10)
        assert len(q) == 10

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 9),
        k=st.integers(1, 3),
        batches=st.lists(st.integers(0, 20), min_size=1, max_size=10),
    )
    def test_matches_deque_model(self, capacity, k, batches):
        # reference: a bounded deque of per-column copies, the queue's contract
        q = LogitQueue(capacity)
        cols, tags = deque(maxlen=capacity), deque(maxlen=capacity)
        start = 0
        for b in batches:
            ids = np.arange(start, start + b)
            start += b
            probs = ids[None, :] + 0.25 * np.arange(k)[:, None]
            batch_tags = np.where(ids % 3 == 0, -1, ids % 5)
            q.push(probs, batch_tags)
            for j in range(b):
                cols.append(probs[:, j].copy())
                tags.append(int(batch_tags[j]))
            assert len(q) == len(cols)
            if not cols:
                with pytest.raises(ValueError):
                    q.matrix()
                continue
            mat, got_tags = q.matrix()
            np.testing.assert_array_equal(mat, np.column_stack(list(cols)))
            np.testing.assert_array_equal(got_tags, list(tags))

    def test_matrix_returns_copies(self):
        q = LogitQueue(capacity=3)
        q.push(np.eye(2)[:, [0, 1, 0]], np.array([0, -1, 1]))
        mat, tags = q.matrix()
        mat[:] = 7.0
        tags[:] = 9
        mat, tags = q.matrix()
        np.testing.assert_array_equal(mat, np.eye(2)[:, [0, 1, 0]])
        np.testing.assert_array_equal(tags, [0, -1, 1])

    def test_push_with_other_class_count_rejected(self):
        q = LogitQueue(capacity=4)
        q.push(np.full((2, 1), 0.5), np.array([-1]))
        with pytest.raises(ShapeMismatch):
            q.push(np.full((3, 1), 1 / 3), np.array([-1]))
        with pytest.raises(ShapeMismatch):
            q.push(np.full((2, 2), 0.5), np.array([-1]))


class TestToyModel:
    def test_predictions_are_column_stochastic(self):
        model = ToyModel(np.array([[0.5, -1.0], [0.2, 0.3]]), np.zeros(2), input_scale=2.0)
        probs = model.predict(np.random.default_rng(0).normal(size=(7, 2)))
        np.testing.assert_allclose(probs.data.sum(axis=0), 1.0, atol=1e-12)


class TestTrain:
    def test_zero_epochs(self):
        data = generate_dataset(SMALL)
        model, log = train(data, small_hyper(epochs=0))
        assert len(log) == 0

    def test_determinism(self):
        data = generate_dataset(SMALL)
        _, log_a = train(data, small_hyper())
        _, log_b = train(data, small_hyper())
        assert log_a.to_dicts() == log_b.to_dicts()

    def test_separable_defaults_reach_high_accuracy(self):
        cfg = SyntheticConfig(
            k_total=10, feature_dim=16, samples_per_class=100,
            cluster_separation=8.0, seed=0,
        )
        data = generate_dataset(cfg)
        _, log = train(data, HyperParams(seed=0))
        assert log.records[-1].acc_all >= 0.95

    def test_loss_breakdown_sums(self):
        data = generate_dataset(SMALL)
        _, log = train(data, small_hyper())
        for r in log.records:
            assert r.loss_total == r.loss_sup + r.loss_cls + r.loss_conf

    def test_queue_capacity_guard(self):
        data = generate_dataset(SMALL)
        with pytest.raises(ValueError):
            train(data, small_hyper(queue_capacity=2))

    def test_threshold_policies_run(self):
        data = generate_dataset(SMALL)
        for policy in ("hierarchical", "static", "adaptive-global"):
            _, log = train(data, small_hyper(threshold_policy=policy))
            assert len(log) == 5

    @pytest.mark.parametrize("policy", ["hierarchical", "static", "adaptive-global"])
    def test_every_policy_pseudo_labels_through_make_pseudo_batch(self, monkeypatch, policy):
        taus = []
        real = harness.make_pseudo_batch

        def spy(probs, tau):
            taus.append(tau)
            return real(probs, tau)

        monkeypatch.setattr(harness, "make_pseudo_batch", spy)
        data = generate_dataset(SMALL)
        train(data, small_hyper(epochs=2, threshold_policy=policy))
        assert len(taus) == 2 * math.ceil(data.n / 32)
        if policy == "static":
            assert all(np.array_equal(tau, np.full(4, 0.95)) for tau in taus)

    def test_both_variants_queue_every_column(self, monkeypatch):
        # conditioning only pins: an unconditional run queues the same columns, tagged -1
        pushes = {}
        real = LogitQueue.push
        data = generate_dataset(SMALL)
        for conditional in (True, False):
            calls = pushes[conditional] = []

            def spy(queue, probs, tags):
                calls.append((np.array(probs), np.array(tags)))
                real(queue, probs, tags)

            monkeypatch.setattr(LogitQueue, "push", spy)
            train(data, small_hyper(epochs=1, conditional=conditional))
        sizes = [min(32, data.n - start) for start in range(0, data.n, 32)]
        for conditional, calls in pushes.items():
            assert [tags.size for _, tags in calls] == sizes
            assert all(probs.shape == (4, tags.size) for probs, tags in calls)
        assert pushes[True][0][0].tobytes() == pushes[False][0][0].tobytes()
        assert all((tags == -1).all() for _, tags in pushes[False])
        assert any((tags >= 0).any() for _, tags in pushes[True])

    @pytest.mark.parametrize(
        "batch_size, where", [(32, "batch 2"), (1000, "evaluation pass")], ids=["batch", "evaluation"]
    )
    def test_divergence_names_epoch_and_step(self, batch_size, where):
        # the first update overflows the weights; the next logits are not finite
        data = generate_dataset(SMALL)
        with pytest.raises(TrainingDiverged, match=f"^training diverged at epoch 1, {where}: "):
            train(data, small_hyper(learning_rate=1e308, batch_size=batch_size))


class TestPriorAdaptation:
    def test_ema_examples(self):
        prior = ClassPrior(np.array([0.5, 0.5]))
        preds_cols = np.array([[0.3, 0.7]] * 4).T
        preds = ProbMatrix(preds_cols)
        updated = estimate_prior_adaptive(prior, preds, momentum=0.9)
        np.testing.assert_allclose(updated.probs, [0.48, 0.52], atol=1e-12)
        frozen = estimate_prior_adaptive(prior, preds, momentum=1 - 1e-12)
        np.testing.assert_allclose(frozen.probs, prior.probs, atol=1e-9)
        hard = estimate_prior_adaptive(prior, preds, momentum=0.0)
        np.testing.assert_allclose(hard.probs, [0.3, 0.7], atol=1e-12)

    def test_adaptive_prior_converges_near_uniform(self):
        for seed in range(5):
            cfg = SyntheticConfig(
                k_total=10, feature_dim=16, samples_per_class=100,
                cluster_separation=8.0, seed=seed,
            )
            data = generate_dataset(cfg)
            _, log = train(data, HyperParams(seed=seed, prior_mode="adaptive"))
            est = ClassPrior(np.array(log.records[-1].prior_estimate))
            assert manhattan_bias(est, ClassPrior.uniform(10)) < 0.1


class TestSelfLabelBias:
    def test_all_labeled_is_exactly_zero(self):
        labels = np.array([0, 1, 1, 0, 2, 2])
        prior = ClassPrior.normalized(np.bincount(labels, minlength=3).astype(float))
        labeled = LabeledBlock(labels)
        assert self_label_bias(labels, prior, labeled) == 0.0

    def test_unconditional_keeps_prior_gap(self):
        labels = np.array([0, 0, 0, 1])
        prior = ClassPrior(np.array([0.5, 0.5]))
        gap = self_label_bias(labels, prior, None)
        assert gap == pytest.approx(0.5)  # (0.75, 0.25) vs (0.5, 0.5)


class TestBiasTrajectory:
    def test_rows_and_epoch_range(self):
        data = generate_dataset(SMALL)
        _, log = train(data, small_hyper())
        assert [r.epoch for r in log.records] == [1, 2, 3, 4, 5]

    def test_conditional_bias_below_unconditional(self):
        gaps = []
        for seed in range(3):
            cfg = SyntheticConfig(
                k_total=6, feature_dim=8, samples_per_class=40,
                cluster_separation=8.0, seed=seed,
            )
            data = generate_dataset(cfg)
            _, cond = train(data, small_hyper(seed=seed))
            _, uncond = train(data, small_hyper(seed=seed, conditional=False))
            gaps.append((cond.records[0].b_s, uncond.records[0].b_s))
        assert np.mean([c for c, _ in gaps]) <= np.mean([u for _, u in gaps])
        for c, u in gaps:
            assert c <= u


class TestValidationBoundary:
    """Only data from outside is validated; results the toolkit builds are not re-checked."""

    @pytest.fixture
    def seen(self, monkeypatch):
        # each ProbMatrix check, tagged with whether a solve was running, and the solve count
        from owssl import sinkhorn

        seen = {"checks": [], "solves": 0, "depth": 0}
        check, solve = ProbMatrix.__post_init__, sinkhorn._solve

        def counted_check(pm):
            seen["checks"].append((pm, seen["depth"] > 0))
            check(pm)

        def counted_solve(*args):
            seen["solves"] += 1
            seen["depth"] += 1
            try:
                return solve(*args)
            finally:
                seen["depth"] -= 1

        monkeypatch.setattr(ProbMatrix, "__post_init__", counted_check)
        monkeypatch.setattr(sinkhorn, "_solve", counted_solve)
        return seen

    @pytest.mark.parametrize("conditional", [True, False], ids=["conditional", "unconditional"])
    @pytest.mark.parametrize("policy", ["hierarchical", "static", "adaptive-global"])
    def test_train_checks_only_solver_plans(self, seen, conditional, policy):
        data = generate_dataset(SMALL)
        train(data, small_hyper(epochs=2, conditional=conditional, threshold_policy=policy,
                                prior_mode="adaptive"))
        assert seen["solves"] > 0
        assert [inside for _, inside in seen["checks"]] == [True] * seen["solves"]

    def test_solve_checks_its_input_once(self, seen):
        from owssl.sinkhorn import SinkhornConfig, solve_conditional

        p = ProbMatrix(np.array([[0.7, 0.9, 0.2], [0.3, 0.1, 0.8]]))
        out = solve_conditional(p, ClassPrior.uniform(2), LabeledBlock(np.array([0])),
                                SinkhornConfig())
        # the caller's matrix, then the plan; the input is not checked again
        assert [(pm is p, inside) for pm, inside in seen["checks"]] == [(True, False), (False, True)]
        assert seen["checks"][1][0] is out.q

    def test_results_are_read_only(self):
        from owssl.sinkhorn import SinkhornConfig, solve_unconditional

        p = ProbMatrix(np.array([[0.7, 0.9, 0.2], [0.3, 0.1, 0.8]]))
        q = solve_unconditional(p, ClassPrior.uniform(2), SinkhornConfig()).q
        pred = ToyModel(np.zeros((2, 3)), np.zeros(2)).predict(np.ones((4, 3)))
        for data in (q.data, pred.data):
            assert not data.flags.writeable
            with pytest.raises(ValueError):
                data[0, 0] = 0.5
