import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owssl.core import (
    ClassPrior,
    ColumnNotNormalized,
    NegativeEntry,
    NonFiniteInput,
    PartitionSpec,
    ProbMatrix,
    Rng,
    ShapeMismatch,
    softmax,
)


class TestValidateProbMatrix:
    def test_identity_columns_valid(self):
        pm = ProbMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert pm.k == 2 and pm.n == 2

    def test_column_sum_violation(self):
        with pytest.raises(ColumnNotNormalized) as err:
            ProbMatrix([[0.5], [0.6]])
        assert err.value.col == 0
        assert err.value.total == pytest.approx(1.1)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry) as err:
            ProbMatrix([[-0.1], [1.1]])
        assert (err.value.row, err.value.col) == (0, 0)

    def test_tolerance_band(self):
        ProbMatrix([[0.5 + 4e-7], [0.5 + 4e-7]])
        with pytest.raises(ColumnNotNormalized):
            ProbMatrix([[0.5 + 2e-6], [0.5]])

    def test_matrix_is_read_only(self):
        pm = ProbMatrix([[1.0], [0.0]])
        with pytest.raises(ValueError):
            pm.data[0, 0] = 0.5


class TestClassPrior:
    def test_uniform(self):
        prior = ClassPrior.uniform(4)
        assert prior.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ClassPrior(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            ClassPrior(np.array([-0.1, 1.1]))

    def test_normalized_external_path(self):
        prior = ClassPrior.normalized([2.0, 6.0])
        np.testing.assert_allclose(prior.probs, [0.25, 0.75])


class TestPartitionAndLabels:
    def test_partition_must_cover_all_classes(self):
        with pytest.raises(ValueError):
            PartitionSpec(3, (0,), (1,), 1, 1)

    def test_partition_disjoint(self):
        with pytest.raises(ValueError):
            PartitionSpec(2, (0, 1), (1,), 1, 1)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_array_equal(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_constant_vector(self):
        for c in (-3.0, 0.0, 17.5):
            np.testing.assert_allclose(softmax([c] * 4), [0.25] * 4, atol=1e-15)

    def test_frozen_reference_values(self):
        # direct exp/normalize evaluated at 40 decimal digits
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), expected, atol=1e-5)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            softmax([np.inf, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=8),
        st.floats(-50, 50),
    )
    def test_shift_invariance_and_order(self, logits, shift):
        base = softmax(logits)
        shifted = softmax(np.asarray(logits) + shift)
        np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-15)
        # order preservation, stated tie-tolerantly: the input argmax always
        # attains the maximal output probability
        assert base[int(np.argmax(logits))] == base.max()
        assert base.sum() == pytest.approx(1.0, abs=1e-12)

    def test_columns_match_vector_form(self):
        mat = np.array([[1.0, 0.0], [2.0, -1.0], [3.0, 0.5]])
        cols = softmax(mat)
        for j in range(2):
            np.testing.assert_allclose(cols[:, j], softmax(mat[:, j]), atol=1e-15)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 2, 2)])
    def test_rejects_empty_or_higher_rank(self, shape):
        with pytest.raises(ShapeMismatch):
            softmax(np.zeros(shape))


class TestRng:
    def test_identical_streams_reproduce(self):
        a = Rng(123, 7).generator().random(100)
        b = Rng(123, 7).generator().random(100)
        np.testing.assert_array_equal(a, b)
        assert a.tobytes() == b.tobytes()

    def test_different_streams_differ(self):
        a = Rng(123, 0).generator().random(10)
        b = Rng(123, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_branching(self):
        base = Rng(9)
        assert base.derive(3, 5) == base.derive(3, 5)
        assert base.derive(3, 5) != base.derive(5, 3)
        assert base.derive(0) != base
