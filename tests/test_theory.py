import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from owssl import core, theory
from owssl.core import ClassPrior, Rng, ShapeMismatch
from owssl.theory import (
    CountMismatch,
    NonPositiveExpected,
    PopulationSpec,
    ZeroUnlabeledMass,
    chi_square_statistic,
    ecs_con_closed,
    ecs_uncon_closed,
    estimator_con,
    estimator_uncon,
    monte_carlo_ecs,
    ecs_ordering_condition,
)

from oracles import chi_square_by_class, exact_chi_square_sum, monte_carlo_ecs_serial


def spec_of(pl, pu, nl, nu):
    return PopulationSpec(
        ClassPrior(np.asarray(pl, dtype=float)),
        ClassPrior(np.asarray(pu, dtype=float)),
        nl,
        nu,
    )


# the worked two-class population used across several checks:
# Nl=20, Nu=100, labeled prior uniform, unlabeled prior (0.3, 0.7)
WORKED = spec_of([0.5, 0.5], [0.3, 0.7], 20, 100)


class TestPopulationSpec:
    def test_mixture_identity(self):
        np.testing.assert_allclose(WORKED.prior.probs, [1 / 3, 2 / 3], atol=1e-12)
        n = WORKED.n_total
        lhs = n * WORKED.prior.probs
        rhs = 20 * WORKED.prior_labeled.probs + 100 * WORKED.prior_unlabeled.probs
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_matching_priors_stay_bitwise_exact(self):
        spec = spec_of([0.3, 0.7], [0.3, 0.7], 10, 50)
        assert spec.prior.probs.tobytes() == spec.prior_unlabeled.probs.tobytes()

    def test_k_mismatch(self):
        with pytest.raises(ShapeMismatch):
            spec_of([1.0], [0.5, 0.5], 1, 1)


class TestChiSquare:
    def test_exact_match_is_zero(self):
        assert chi_square_statistic([50, 50], [50.0, 50.0]) == 0.0

    def test_worked_value(self):
        assert chi_square_statistic([60, 40], [50.0, 50.0]) == pytest.approx(4.0)

    def test_stack_gives_each_rows_value(self):
        obs = np.array([[60, 40], [50, 50], [45, 55]])
        chis = chi_square_statistic(obs, [50.0, 50.0])
        assert chis.tolist() == [chi_square_statistic(row, [50.0, 50.0]) for row in obs]

    def test_rejects_non_positive_expected(self):
        with pytest.raises(NonPositiveExpected):
            chi_square_statistic([1, 1], [2.0, 0.0])

    def test_null_mean_is_k_minus_one(self):
        # multinomial null: E[chi2] = K - 1 exactly, check by Monte Carlo
        k = 5
        prior = ClassPrior.uniform(k)
        gen = Rng(11).generator()
        counts = gen.multinomial(200, prior.probs, size=100_000)
        expected = 200 * prior.probs
        stats = (np.square(counts - expected) / expected).sum(axis=1)
        assert stats.mean() == pytest.approx(k - 1, rel=0.02)


class TestEstimators:
    def test_uncon_formula(self):
        spec = spec_of([0.5, 0.5], [0.5, 0.5], 0, 100)
        a, mu = estimator_uncon(spec)
        np.testing.assert_allclose(a, [50.0, 50.0])
        np.testing.assert_allclose(mu, [0.5, 0.5])

    def test_uncon_matching_priors_zero_bias(self):
        spec = spec_of([0.2, 0.8], [0.2, 0.8], 10, 90)
        _, mu = estimator_uncon(spec)
        np.testing.assert_array_equal(mu, spec.prior_unlabeled.probs)

    def test_uncon_uniform_four(self):
        spec = spec_of([0.25] * 4, [0.25] * 4, 0, 200)
        a, _ = estimator_uncon(spec)
        np.testing.assert_allclose(a, [50.0] * 4)

    def test_con_worked_example(self):
        a, mu = estimator_con(WORKED, np.array([12, 8]))
        np.testing.assert_allclose(a, [28.0, 72.0], atol=1e-9)
        np.testing.assert_allclose(mu, [0.28, 0.72], atol=1e-12)

    def test_con_expectation_plugin(self):
        counts = (20 * WORKED.prior_labeled.probs).astype(int)  # (10, 10)
        _, mu = estimator_con(WORKED, counts)
        np.testing.assert_allclose(mu, WORKED.prior_unlabeled.probs, atol=1e-12)

    def test_con_no_labels_degenerates_to_prior(self):
        spec = spec_of([0.5, 0.5], [0.3, 0.7], 0, 100)
        _, mu = estimator_con(spec, np.zeros(2, dtype=int))
        np.testing.assert_allclose(mu, spec.prior.probs, atol=1e-15)

    def test_con_counts_must_sum(self):
        with pytest.raises(CountMismatch):
            estimator_con(WORKED, np.array([5, 5]))

    def test_con_stack_is_one_estimate_per_row(self):
        rng = np.random.default_rng(1)
        counts = rng.multinomial(20, WORKED.prior_labeled.probs, size=7)
        a, mu = estimator_con(WORKED, counts)
        assert a.shape == mu.shape == (7, 2)
        for row, a_row, mu_row in zip(counts, a, mu):
            one_a, one_mu = estimator_con(WORKED, row)
            assert one_a.tobytes() == a_row.tobytes() and one_mu.tobytes() == mu_row.tobytes()

    def test_con_stack_names_a_row_that_does_not_sum(self):
        counts = np.array([[12, 8], [10, 9], [20, 0]])
        with pytest.raises(CountMismatch, match="sum to 19, expected 20"):
            estimator_con(WORKED, counts)
        with pytest.raises(ShapeMismatch):
            estimator_con(WORKED, counts[:, :1])
        with pytest.raises(ShapeMismatch):
            estimator_con(WORKED, counts[None])

    def test_con_sums_to_unlabeled_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = rng.multinomial(20, WORKED.prior_labeled.probs)
            a, _ = estimator_con(WORKED, counts)
            assert a.sum() == pytest.approx(100.0, abs=1e-9)


class TestClosedForms:
    def test_uncon_zero_when_matching(self):
        spec = spec_of([0.4, 0.6], [0.4, 0.6], 10, 100)
        assert ecs_uncon_closed(spec) == 0.0

    def test_uncon_worked_value(self):
        # overall prior (0.5, 0.5) realized by Nl=100 labeled at (0.7, 0.3)
        spec = spec_of([0.7, 0.3], [0.3, 0.7], 100, 100)
        np.testing.assert_allclose(spec.prior.probs, [0.5, 0.5], atol=1e-12)
        assert ecs_uncon_closed(spec) == pytest.approx(19.047619047619047, abs=1e-9)

    def test_uncon_linear_in_unlabeled_count(self):
        a = spec_of([0.7, 0.3], [0.3, 0.7], 100, 100)
        b = spec_of([0.7, 0.3], [0.3, 0.7], 200, 200)
        assert ecs_uncon_closed(b) == pytest.approx(2 * ecs_uncon_closed(a), rel=1e-12)

    def test_con_zero_without_labels(self):
        spec = spec_of([0.5, 0.5], [0.3, 0.7], 0, 100)
        assert ecs_con_closed(spec) == 0.0

    def test_con_worked_value(self):
        spec = spec_of([0.5, 0.5], [0.5, 0.5], 20, 100)
        assert ecs_con_closed(spec) == pytest.approx(0.2, abs=1e-12)

    def test_con_one_hot_labeled_prior(self):
        spec = spec_of([1.0, 0.0], [0.5, 0.5], 20, 100)
        assert ecs_con_closed(spec) == 0.0

    def test_zero_unlabeled_mass_detected(self):
        spec = spec_of([0.5, 0.5], [1.0, 0.0], 10, 100)
        with pytest.raises(ZeroUnlabeledMass):
            ecs_uncon_closed(spec)
        with pytest.raises(ZeroUnlabeledMass):
            ecs_con_closed(spec)


class TestEcsOrderingCondition:
    def test_no_labels_is_false(self):
        spec = spec_of([0.5, 0.5], [0.3, 0.7], 0, 10_000)
        assert ecs_ordering_condition(spec) is False

    def test_worked_spec_evaluates_false(self):
        # r = (1/12, 1/12); labeled clause needs sqrt(Nu)*min|r_i - r*pu_i|:
        #   a = (|1/12 - 0.05|, |1/12 - 7/60|) = (1/30, 1/30)
        # sqrt(100)/30 = 1/3 < 1 -> false (the unlabeled clause, min 1/18,
        # also fails at sqrt(100))
        assert ecs_ordering_condition(WORKED) is False

    def test_large_unlabeled_count_turns_true(self):
        spec = spec_of([0.5, 0.5], [0.3, 0.7], 20_000, 100_000)
        assert ecs_ordering_condition(spec) is True

    def test_threshold_scaling(self):
        # same ratios as WORKED; the binding clause is the labeled one at
        # 1/30, so the flip happens beyond Nu = 900
        assert ecs_ordering_condition(spec_of([0.5, 0.5], [0.3, 0.7], 80, 400)) is False
        assert ecs_ordering_condition(spec_of([0.5, 0.5], [0.3, 0.7], 200, 1000)) is True

    def test_labeled_count_dwarfing_unlabeled_count_is_false(self):
        # both deviation clauses hold, yet the ordering fails: Nl*max pl(1-pl) > Nu
        spec = spec_of([0.3858, 0.6142], [0.5317, 0.4683], 411, 65)
        assert ecs_con_closed(spec) == pytest.approx(6.017, abs=1e-3)
        assert ecs_uncon_closed(spec) == pytest.approx(4.143, abs=1e-3)
        assert ecs_ordering_condition(spec) is False


class TestMonteCarloEcs:
    def test_matching_uniform_priors(self):
        spec = spec_of([0.5, 0.5], [0.5, 0.5], 20, 100)
        report = monte_carlo_ecs(spec, 1000, Rng(0))
        assert report.ecs_uncon_empirical == 0.0
        assert report.ecs_uncon_se == 0.0
        np.testing.assert_array_equal(report.bias_uncon, [0.0, 0.0])

    def test_con_matches_closed_form(self):
        spec = spec_of([0.5, 0.5], [0.5, 0.5], 20, 100)
        report = monte_carlo_ecs(spec, 100_000, Rng(1))
        assert report.ecs_con_closed == pytest.approx(0.2, abs=1e-12)
        assert report.ecs_con_empirical == pytest.approx(0.2, rel=0.02)

    def test_unbiasedness_within_four_se(self):
        spec = WORKED
        report = monte_carlo_ecs(spec, 100_000, Rng(2))
        assert np.all(np.abs(report.bias_con) <= 4 * np.maximum(report.bias_con_se, 1e-12))

    def test_deterministic_given_rng(self):
        spec = WORKED
        a = monte_carlo_ecs(spec, 5000, Rng(3))
        b = monte_carlo_ecs(spec, 5000, Rng(3))
        assert a.ecs_con_empirical == b.ecs_con_empirical
        np.testing.assert_array_equal(a.bias_con, b.bias_con)

    def test_chunking_invariant(self):
        spec = WORKED
        # three chunks: two full ones and a partial one
        a = monte_carlo_ecs(spec, 45_000, Rng(4))
        b = monte_carlo_ecs(spec, 45_000, Rng(4))
        assert a.ecs_con_empirical == b.ecs_con_empirical

    def test_con_mean_is_correctly_rounded(self):
        # the `theory` golden population: 20 000 trials fill one chunk, drawn
        # from the stream derived for chunk 0; the mean must not depend on
        # how a numpy build groups the terms of the sum
        trials = 20_000
        report = monte_carlo_ecs(WORKED, trials, Rng(7))
        counts = Rng(7).derive(0).generator().multinomial(
            WORKED.n_labeled, WORKED.prior_labeled.probs, size=trials
        )
        exact_sum = exact_chi_square_sum(
            counts,
            WORKED.n_total * WORKED.prior.probs,
            WORKED.n_unlabeled * WORKED.prior_unlabeled.probs,
        )
        assert report.ecs_con_empirical == float(exact_sum) / trials

    def test_con_mean_adds_classes_in_order(self):
        # K=10: numpy sums ten contiguous terms pairwise, so a C-ordered chunk,
        # or a chunk of one trial, must not be summed with .sum(axis=1). A
        # one-trial report is that trial's statistic, which shows a regrouping
        # in its last digit; 20 000 trials fill one chunk.
        weights = np.arange(1.0, 11.0)
        spec = spec_of(weights[::-1] / weights.sum(), weights / weights.sum(), 300, 700)
        budget = spec.n_total * spec.prior.probs
        expected = spec.n_unlabeled * spec.prior_unlabeled.probs
        for trials, seeds in ((1, range(20)), (20_000, [11])):
            for seed in seeds:
                report = monte_carlo_ecs(spec, trials, Rng(seed))
                counts = Rng(seed).derive(0).generator().multinomial(
                    spec.n_labeled, spec.prior_labeled.probs, size=trials
                )
                chis = chi_square_by_class(counts, budget, expected)
                assert report.ecs_con_empirical == math.fsum(chis) / trials, (trials, seed)

    def test_report_serializes(self):
        report = monte_carlo_ecs(WORKED, 100, Rng(5))
        payload = report.to_dict()
        assert payload["trials"] == 100
        assert isinstance(payload["bias_con"], list)
        assert payload["ordering_condition"] is False


def report_bits(report) -> dict:
    """Each EcsReport field, floats and arrays as their bytes (so -0.0 differs from 0.0)."""
    bits = {}
    for name, value in vars(report).items():
        if isinstance(value, (bool, int)):
            bits[name] = value
        else:
            bits[name] = np.asarray(value, dtype=np.float64).tobytes()
    return bits


class ChunkFailure(Exception):
    pass


# the benchmark's population shape: ten classes, 400 labeled and 1600 unlabeled
TEN_CLASS = spec_of(np.arange(1.0, 11.0) / 55.0, np.arange(10.0, 0.0, -1.0) / 55.0, 400, 1600)


class TestMonteCarloPool:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec, trials", [
        (TEN_CLASS, 1),
        (TEN_CLASS, 19_999),
        (TEN_CLASS, 20_000),
        (TEN_CLASS, 20_001),
        (TEN_CLASS, 250_000),
        (spec_of([0.5, 0.5], [0.3, 0.7], 0, 100), 45_000),
    ], ids=["1", "19999", "20000", "20001", "250000", "no-labeled"])
    def test_same_bits_as_serial_loop(self, monkeypatch, spec, trials, workers):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: workers)
        pooled = monte_carlo_ecs(spec, trials, Rng(13))
        assert report_bits(pooled) == report_bits(monte_carlo_ecs_serial(spec, trials, Rng(13)))

    def test_same_bits_with_more_workers_than_cores(self, monkeypatch):
        # five workers switching every few microseconds finish chunks out of
        # order; the report still adds them in chunk order
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = monte_carlo_ecs(TEN_CLASS, 250_000, Rng(14))
        finally:
            sys.setswitchinterval(interval)
        assert report_bits(pooled) == report_bits(monte_carlo_ecs_serial(TEN_CLASS, 250_000, Rng(14)))

    @pytest.mark.parametrize("chunks", [1, 12])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_holds_small_blocks(self, monkeypatch, workers, chunks):
        # `chunks` 20 000-trial chunks a worker of the ten-class population:
        # each thread keeps its chunk's chi vector (160 KB) and a few
        # 2 000-trial blocks, and each chunk leaves 176 bytes of sums behind;
        # a chunk scored whole holds several 20 000 x 10 arrays of 1.6 MB at
        # once and passes 8 MB, and 12 chunks a worker that each kept their
        # chi vector would hold 1.92 MB a worker more
        monkeypatch.setattr(theory, "_usable_cpus", lambda: workers)
        monte_carlo_ecs(TEN_CLASS, 1, Rng(3))  # imports what a run needs outside the trace
        tracemalloc.start()
        try:
            monte_carlo_ecs(TEN_CLASS, chunks * workers * theory._CHUNK, Rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < workers * 3_000_000, peak

    def test_usable_cpus_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert core._usable_cpus() == 3
        monkeypatch.delattr(core.os, "sched_getaffinity")
        monkeypatch.setattr(core.os, "cpu_count", lambda: None)
        assert core._usable_cpus() == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_thread_outlives_a_call(self, monkeypatch, workers):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: workers)
        before = threading.active_count()
        monte_carlo_ecs(WORKED, 100_000, Rng(8))
        assert threading.active_count() == before

    @pytest.mark.parametrize("trials, threads", [(1000, 0), (theory._CHUNK, 0), (theory._CHUNK + 1, 1)])
    def test_one_chunk_starts_no_thread(self, monkeypatch, trials, threads):
        # on two usable CPUs a run of one chunk runs it on the caller; two
        # chunks start one helper thread
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 2)
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        report = monte_carlo_ecs(WORKED, trials, Rng(8))
        assert len(started) == threads
        assert report_bits(report) == report_bits(monte_carlo_ecs_serial(WORKED, trials, Rng(8)))

    def test_every_thread_runs_its_chunks_under_the_caller_numpy_state(self, monkeypatch):
        # numpy keeps its error state and ufunc buffer size per thread; the
        # helper thread takes the caller's. Each thread waits on its first
        # chunk until both have one, so that the helper surely runs some
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 2)
        first = threading.Barrier(2, timeout=10)
        states = {}  # thread id -> the (error state, buffer size) of each chunk it scored
        real = theory._chi_square

        def recording(obs, exp):
            seen = states.setdefault(threading.get_ident(), [])
            if not seen:
                first.wait()
            seen.append((np.geterr(), np.getbufsize()))
            return real(obs, exp)

        monkeypatch.setattr(theory, "_chi_square", recording)
        bufsize = np.setbufsize(4096)
        try:
            with np.errstate(under="raise"):
                caller = np.geterr(), np.getbufsize()
                monte_carlo_ecs(WORKED, 4 * theory._CHUNK, Rng(8))
        finally:
            np.setbufsize(bufsize)
        assert caller[0]["under"] == "raise" != np.geterr()["under"]
        assert caller[1] == 4096 != np.getbufsize()
        assert len(states) == 2 and all(state == caller for seen in states.values() for state in seen)

    def test_chunks_run_no_public_check(self, monkeypatch):
        # the chunks score counts they drew themselves, through the unchecked
        # formulas; the public functions are for counts from outside
        want = report_bits(monte_carlo_ecs(TEN_CLASS, 45_000, Rng(5)))

        def refuse(*args):
            raise AssertionError("a public check ran on an internal path")

        monkeypatch.setattr(theory, "estimator_con", refuse)
        monkeypatch.setattr(theory, "chi_square_statistic", refuse)
        assert report_bits(monte_carlo_ecs(TEN_CLASS, 45_000, Rng(5))) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_error_reaches_caller_unchanged(self, monkeypatch, workers):
        # the third chi-square call raises; the caller sees that exception, no
        # helper thread is left behind and no chunk starts after it: each
        # thread ends with the chunk it holds (ten 2 000-trial blocks)
        monkeypatch.setattr(theory, "_usable_cpus", lambda: workers)
        real = theory._chi_square
        calls = itertools.count()  # next() is atomic, so two workers never share a number

        def failing(observed, expected):
            if next(calls) == 2:
                raise ChunkFailure("chunk failed")
            return real(observed, expected)

        monkeypatch.setattr(theory, "_chi_square", failing)
        before = threading.active_count()
        with pytest.raises(ChunkFailure, match="^chunk failed$"):
            monte_carlo_ecs(WORKED, 200_000, Rng(9))
        assert threading.active_count() == before
        assert next(calls) <= 10 * workers
