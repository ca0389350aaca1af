import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owssl.core import (
    ClassPrior,
    IndexOutOfRange,
    NonFiniteInput,
    PartitionSpec,
    Rng,
    ShapeMismatch,
)
from owssl.evaluation import (
    EmptySubset,
    _lloyd,
    _plus_plus_seeds,
    clustering_report,
    estimate_num_classes,
    hungarian,
    kmeans,
    manhattan_bias,
)
from owssl.harness import SyntheticConfig, _place_centroids, generate_dataset

from oracles import (
    brute_force_assignment,
    brute_force_match_accuracy,
    lloyd_per_centroid,
    report_per_subset,
)

PART = PartitionSpec(4, (0, 1), (2, 3), 4, 4)


class TestHungarian:
    def test_identity_favoring_cost(self):
        cost = np.ones((3, 3)) - np.eye(3)
        sigma, total = hungarian(cost)
        np.testing.assert_array_equal(sigma, [0, 1, 2])
        assert total == 0.0

    def test_two_by_two_tie_structure(self):
        sigma, total = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_array_equal(sigma, [0, 1])
        assert total == 2.0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            hungarian(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            cost = rng.normal(size=(n, n))
            sigma, total = hungarian(cost)
            _, best = brute_force_assignment(cost)
            assert total == pytest.approx(best, abs=1e-12)
            assert sorted(sigma) == list(range(n))

    def test_matches_scipy_assignment_exactly(self):
        # tied costs are the common case for negated count tables, so the
        # assignment itself, not only its total, must be scipy's
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(6)

        def families(n):
            yield rng.integers(0, 2, (n, n)).astype(float)
            yield rng.integers(0, 3, (n, n)).astype(float)
            yield -rng.integers(0, 6, (n, n)).astype(float)
            yield np.zeros((n, n))
            yield rng.normal(size=(n, n))
            # tenths are inexact in binary: ties then hinge on scipy's float expression order
            yield rng.integers(0, 4, (n, n)) * 0.1
            table = np.zeros((n, n))
            np.add.at(table, (rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)), 1.0)
            yield -table

        checked = 0
        for _ in range(14):
            for n in range(1, 25):
                for cost in families(n):
                    rows, cols = linear_sum_assignment(cost)
                    sigma, total = hungarian(cost)
                    np.testing.assert_array_equal(sigma, cols)
                    assert np.float64(total).tobytes() == cost[rows, cols].sum().tobytes()
                    checked += 1
        assert checked >= 2000

    def test_constant_cost_gives_identity(self):
        for n in (1, 2, 5, 20):
            sigma, total = hungarian(np.full((n, n), 7.0))
            np.testing.assert_array_equal(sigma, np.arange(n))
            assert total == 7.0 * n

    def test_large_instance_is_fast(self):
        rng = np.random.default_rng(1)
        cost = rng.random((200, 200))
        start = time.perf_counter()
        hungarian(cost)
        assert time.perf_counter() - start < 1.0


@st.composite
def labelled_partitions(draw):
    k = draw(st.integers(1, 6))
    seen = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    n = draw(st.integers(1, 40))
    labels = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    part = PartitionSpec(k, [c for c in range(k) if seen[c]], [c for c in range(k) if not seen[c]], 0, n)
    return np.array(draw(labels)), np.array(draw(labels)), part


def float_bits(report: dict) -> dict:
    return {key: value.hex() if isinstance(value, float) else value for key, value in report.items()}


class TestClusteringAccuracy:
    def test_perfect_predictions(self):
        truth = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        report = clustering_report(truth, truth, PART)
        for field in ("seen", "novel", "all", "seen_joint"):
            assert report[field] == 1.0

    def test_novel_permutation_absorbed(self):
        truth = np.array([0, 1, 2, 2, 3, 3])
        pred = np.array([0, 1, 3, 3, 2, 2])
        assert clustering_report(pred, truth, PART)["novel"] == 1.0

    def test_seen_mode_never_matches(self):
        # raw agreement sees the swapped seen classes; the joint mapping absorbs them
        truth = np.array([0, 0, 1, 1, 2])
        pred = np.array([1, 1, 0, 0, 2])
        report = clustering_report(pred, truth, PART)
        assert report["seen"] == 0.0
        assert report["seen_joint"] == 1.0

    def test_worked_six_sample_fixture(self):
        # six novel samples, plus two of the one seen class
        part = PartitionSpec(3, (2,), (0, 1), 0, 8)
        truth = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        pred = np.array([1, 1, 0, 0, 0, 0, 2, 2])
        acc = clustering_report(pred, truth, part)["novel"]
        assert acc == pytest.approx(5 / 6)
        assert acc == pytest.approx(brute_force_match_accuracy(pred[:6], truth[:6], 3))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 4, size=30)
        pred = rng.integers(0, 4, size=30)
        relabel = rng.permutation(4)
        a = clustering_report(pred, truth, PART)
        b = clustering_report(relabel[pred], truth, PART)
        for field in ("novel", "all"):
            assert a[field] == pytest.approx(b[field])

    def test_matches_brute_force_matching(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            truth = rng.integers(0, 4, size=25)
            pred = rng.integers(0, 4, size=25)
            acc = clustering_report(pred, truth, PART)["all"]
            assert acc == pytest.approx(brute_force_match_accuracy(pred, truth, 4))

    def test_empty_subset(self):
        part = PartitionSpec(2, (0,), (1,), 2, 2)
        with pytest.raises(EmptySubset, match="no samples from novel classes"):
            clustering_report(np.array([0]), np.array([0]), part)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            clustering_report(np.array([9]), np.array([0]), PART)

    def test_report_contains_both_seen_readings(self):
        truth = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        pred = np.array([0, 0, 1, 1, 3, 3, 2, 2])
        report = clustering_report(pred, truth, PART)
        assert report["seen"] == 1.0
        assert report["novel"] == 1.0
        assert report["all"] == 1.0
        assert report["seen_joint"] == 1.0
        assert sorted(report["mapping"]) == [0, 1, 2, 3]

    @settings(max_examples=300, deadline=None)
    @given(labelled_partitions())
    # seen_joint 2/3: seen class 1 merged into class 0's cluster
    @example((np.array([0, 0, 0, 1]), np.array([0, 0, 1, 2]), PartitionSpec(3, (0, 1), (2,), 0, 4)))
    @example((np.array([0, 1]), np.array([1, 1]), PartitionSpec(2, (0,), (1,), 0, 2)))
    @example((np.array([0, 1]), np.array([0, 0]), PartitionSpec(2, (0,), (1,), 0, 2)))
    def test_equals_per_subset_reference_bitwise(self, case):
        pred, truth, part = case
        keep = part.is_seen[truth]
        if not keep.any():
            with pytest.raises(EmptySubset, match="no samples from seen classes"):
                clustering_report(pred, truth, part)
        elif keep.all():
            with pytest.raises(EmptySubset, match="no samples from novel classes"):
                clustering_report(pred, truth, part)
        else:
            want = report_per_subset(pred, truth, part.is_seen, hungarian)
            assert float_bits(clustering_report(pred, truth, part)) == float_bits(want)

    def test_error_order(self):
        # where it can, each case also fails a later check
        with pytest.raises(ShapeMismatch):
            clustering_report(np.array([9]), np.array([2, 3]), PART)
        with pytest.raises(EmptySubset, match="no samples to match"):
            clustering_report(np.array([], int), np.array([], int), PART)
        with pytest.raises(IndexOutOfRange):
            clustering_report(np.array([9]), np.array([2]), PART)
        with pytest.raises(EmptySubset, match="no samples from seen classes"):
            clustering_report(np.array([0]), np.array([2]), PART)


class TestManhattanBias:
    def test_identical(self):
        p = ClassPrior.uniform(3)
        assert manhattan_bias(p, p) == 0.0

    def test_worked_value(self):
        a = ClassPrior(np.array([0.5, 0.5]))
        b = ClassPrior(np.array([0.3, 0.7]))
        assert manhattan_bias(a, b) == pytest.approx(0.4, abs=1e-15)

    def test_disjoint_one_hots(self):
        a = ClassPrior(np.array([1.0, 0.0]))
        b = ClassPrior(np.array([0.0, 1.0]))
        assert manhattan_bias(a, b) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            manhattan_bias(ClassPrior.uniform(2), ClassPrior.uniform(3))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10**6))
    def test_metric_properties(self, k, seed):
        rng = np.random.default_rng(seed)
        a = ClassPrior(rng.dirichlet(np.ones(k)))
        b = ClassPrior(rng.dirichlet(np.ones(k)))
        c = ClassPrior(rng.dirichlet(np.ones(k)))
        ab = manhattan_bias(a, b)
        assert 0.0 <= ab <= 2.0
        assert ab == manhattan_bias(b, a)
        assert manhattan_bias(a, c) <= ab + manhattan_bias(b, c) + 1e-12


class TestKmeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        points = np.vstack([c + rng.normal(scale=0.5, size=(30, 2)) for c in centers])
        _, labels, _ = kmeans(points, 3, Rng(0))
        truth = np.repeat([0, 1, 2], 30)
        part = PartitionSpec(3, (0,), (1, 2), 0, truth.size)
        assert clustering_report(labels, truth, part)["all"] == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 3))
        a = kmeans(points, 4, Rng(9))
        b = kmeans(points, 4, Rng(9))
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    @pytest.mark.parametrize("seed", range(3))
    def test_lloyd_matches_per_centroid_oracle_bitwise(self, seed):
        # C13's shape: 10 clusters of 30 points in 8 dims, k from 5 to 15,
        # and a seed set with one unreachable centroid, whose cluster empties
        gen = Rng(113, seed).generator()
        centroids = _place_centroids(10, 8, 6.0, gen)
        points = np.concatenate([c + gen.standard_normal((30, 8)) for c in centroids])
        for k in (5, 10, 15):
            seeds = _plus_plus_seeds(points, k, gen)
            far = seeds.copy()
            far[-1] = 1e6
            for start in (seeds, far):
                got = _lloyd(points, start.copy())
                want = lloyd_per_centroid(points, start.copy())
                assert got[0].tobytes() == want[0].tobytes()
                np.testing.assert_array_equal(got[1], want[1])
                assert got[2] == want[2]


class TestEstimateNumClasses:
    def test_recovers_true_count_on_separable_data(self):
        # labeled samples span every cluster: merges and splits of any
        # cluster then show up in the matched labeled accuracy, which is
        # what lets the grid search pin the true count
        cfg = SyntheticConfig(
            k_total=6,
            feature_dim=8,
            samples_per_class=25,
            cluster_separation=8.0,
            seed=3,
        )
        data = generate_dataset(cfg)
        rng = np.random.default_rng(0)
        labeled_idx = np.concatenate(
            [rng.choice(np.flatnonzero(data.labels == c), size=5, replace=False)
             for c in range(6)]
        )
        guess = estimate_num_classes(
            data.features,
            labeled_idx,
            data.labels[labeled_idx],
            range(3, 10),
            Rng(1),
        )
        assert guess == 6

    def test_identical_features_tie_break_to_smallest(self):
        features = np.zeros((20, 3))
        labels = np.zeros(5, dtype=int)
        guess = estimate_num_classes(
            features, np.arange(5), labels, range(2, 6), Rng(2)
        )
        assert guess == 2

    def test_empty_labeled_subset(self):
        with pytest.raises(EmptySubset):
            estimate_num_classes(
                np.zeros((5, 2)), np.empty(0, int), np.empty(0, int), range(2, 3), Rng(0)
            )
