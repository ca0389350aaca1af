import numpy as np
import pytest

from owssl import sinkhorn
from owssl.core import ClassPrior, LabeledBlock, ProbMatrix, ShapeMismatch
from owssl.sinkhorn import (
    Assignment,
    DegeneratePrior,
    InfeasibleResidual,
    NoConvergence,
    SinkhornConfig,
    _EXP_FLOOR,
    _lse,
    marginal_error,
    residual_row_marginals,
    solve_conditional,
    solve_unconditional,
)

from oracles import (
    log_domain_plan,
    lp_assignment_values,
    lse_two_temporaries,
    sinkhorn_extended,
)


def random_instance(rng, k, n, col_alpha=2.0, prior_alpha=10.0):
    p = ProbMatrix(rng.dirichlet(np.full(k, col_alpha), size=n).T)
    prior = ClassPrior(rng.dirichlet(np.full(k, prior_alpha)))
    return p, prior


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SinkhornConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SinkhornConfig(epsilon=0.1, max_iters=0)
        with pytest.raises(ValueError):
            SinkhornConfig(epsilon=0.1, tol=-1.0)

    def test_profiles(self):
        assert SinkhornConfig.training().max_iters == 10
        assert SinkhornConfig.training().tol == 0.0
        assert SinkhornConfig.verification().tol == 1e-9


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("shape", [(7, 301), (40, 1024)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_two_temporary_formula_bitwise(self, axis, shape, order):
        # zero-mass rows enter as -inf, both in the kernel and in the shift;
        # numpy adds the terms of a sum in an order set by the array layout,
        # so the work buffer takes the kernel's
        rng = np.random.default_rng(shape[1] + axis)
        k, n = shape
        p = np.asarray(rng.dirichlet(np.ones(k), size=n).T, order=order)
        log_kernel = np.log(p) / 0.05
        log_kernel[1] = -np.inf
        if axis == 0:
            shift = rng.normal(scale=40.0, size=(k, 1))
            shift[3] = -np.inf
        else:
            shift = rng.normal(scale=40.0, size=(1, n))
        want = lse_two_temporaries(log_kernel + shift, axis)
        got = _lse(log_kernel, shift, axis, np.empty_like(log_kernel))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_floor_edge_cases_bitwise(self, axis, order):
        # the floor is on (the default); each line holds its peak, terms
        # exactly at and just below the floor, terms in the subnormal band and
        # terms that underflow to zero, beside whole -inf kernel lines, -inf
        # shift entries and one line with no finite term
        rng = np.random.default_rng(7 + axis)
        k, n = 9, 40
        offsets = np.array([0.0, _EXP_FLOOR, np.nextafter(_EXP_FLOOR, -np.inf), -720.0, -800.0])
        # the other terms stay below the peak 0, so the offsets are the exact arguments
        log_kernel = -rng.uniform(1.0, 900.0, size=(k, n))
        if axis == 0:
            log_kernel[: offsets.size] = offsets[:, None] + 5.0
            log_kernel[:, 3] = -np.inf  # a line whose every term is -inf
            log_kernel[6] = -np.inf  # a whole -inf kernel line across the reduction
            shift = -rng.uniform(0.0, 5.0, size=(k, 1))
            shift[: offsets.size] = -5.0
            shift[7] = -np.inf
        else:
            log_kernel[:, : offsets.size] = offsets[None, :] + 5.0
            log_kernel[3] = -np.inf
            log_kernel[:, 6] = -np.inf
            shift = -rng.uniform(0.0, 5.0, size=(1, n))
            shift[:, : offsets.size] = -5.0
            shift[:, 7] = -np.inf
        log_kernel = np.asarray(log_kernel, order=order)
        want = lse_two_temporaries(log_kernel + shift, axis)
        got = _lse(log_kernel, shift, axis, np.empty_like(log_kernel))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isneginf(got[3]) and np.isfinite(np.delete(got, 3)).all()

    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.5])
    def test_shifted_arguments_respect_the_floor_bound(self, eps):
        # the solver leaves the floor off when -(2 span + spread) stays above
        # it, which holds only if no shifted argument of any iteration falls
        # below that bound (span: of the log kernel; spread: of the finite log
        # row targets; the zero-target row's arguments are -inf)
        rng = np.random.default_rng(int(100 * eps))
        k, n = 6, 40
        p = rng.dirichlet(np.full(k, 0.3), size=n).T
        targets = rng.dirichlet(np.ones(k)) * n
        targets[2] = 0.0
        log_kernel = np.log(np.clip(p, 1e-12, None)) / eps
        with np.errstate(divide="ignore"):
            log_rows = np.log(targets)
        live = np.isfinite(log_rows)
        bound = -(2 * np.ptp(log_kernel) + np.ptp(log_rows[live]))
        f, g = np.zeros(k), np.zeros(n)
        lowest = np.inf
        for _ in range(30):
            rows = log_kernel + g[None, :]
            lowest = min(lowest, (rows - rows.max(axis=1, keepdims=True)).min())
            f = log_rows - lse_two_temporaries(rows, 1)
            cols = (log_kernel + f[:, None])[live]
            lowest = min(lowest, (cols - cols.max(axis=0)).min())
            g = -lse_two_temporaries(log_kernel + f[:, None], 0)
        assert lowest >= bound * (1 + 1e-12)


class TestMarginalError:
    def test_exact_feasible(self):
        q = ProbMatrix(np.full((2, 4), 0.5))
        row, col = marginal_error(q, np.array([2.0, 2.0]), np.ones(4))
        assert row == 0.0 and col == 0.0

    def test_uniform_vs_skewed_rows(self):
        q = ProbMatrix(np.full((2, 2), 0.5))
        row, col = marginal_error(q, np.array([2.0, 0.0]), np.ones(2))
        assert row == pytest.approx(2.0)
        assert col == 0.0

    def test_identity_columns(self):
        q = ProbMatrix(np.eye(2))
        row, col = marginal_error(q, np.ones(2), np.ones(2))
        assert row == 0.0 and col == 0.0

    def test_shape_mismatch(self):
        q = ProbMatrix(np.eye(2))
        with pytest.raises(ShapeMismatch):
            marginal_error(q, np.ones(3), np.ones(2))


class TestUnconditional:
    def test_uniform_fixed_point(self):
        p = ProbMatrix(np.full((2, 4), 0.5))
        out = solve_unconditional(p, ClassPrior.uniform(2), SinkhornConfig.training())
        np.testing.assert_allclose(out.q.data, 0.5, atol=1e-12)
        assert out.row_marginal_err == pytest.approx(0.0, abs=1e-12)
        assert out.col_marginal_err == pytest.approx(0.0, abs=1e-12)

    def test_near_identity_already_optimal(self):
        d = 1e-6
        p = ProbMatrix(np.array([[1 - d, d], [d, 1 - d]]))
        out = solve_unconditional(p, ClassPrior.uniform(2), SinkhornConfig.verification(epsilon=0.05))
        np.testing.assert_allclose(out.q.data, np.eye(2), atol=1e-4)
        np.testing.assert_allclose(out.q.data.sum(axis=1), [1.0, 1.0], atol=1e-9)

    def test_worked_2x2_against_extended_precision_oracle(self):
        # the solver and the oracle run the same number of update pairs; the
        # instance's kernel contrast makes full convergence impractically slow,
        # so the comparison pins both to 10^4 iterations
        p = ProbMatrix(np.array([[0.9, 0.2], [0.1, 0.8]]))
        prior = ClassPrior.uniform(2)
        cfg = SinkhornConfig(epsilon=0.1, max_iters=10_000, tol=0.0)
        out = solve_unconditional(p, prior, cfg)
        reference = sinkhorn_extended(p.data, prior.probs * 2, epsilon=0.1, iters=10_000)
        np.testing.assert_allclose(out.q.data, reference, atol=1e-8)

    def test_degenerate_prior_rejected(self):
        p = ProbMatrix(np.full((2, 2), 0.5))
        with pytest.raises(DegeneratePrior):
            solve_unconditional(p, ClassPrior(np.array([1.0, 0.0])), SinkhornConfig.training())

    def test_no_convergence_warning_and_fields(self):
        p = ProbMatrix(np.array([[0.9, 0.2], [0.1, 0.8]]))
        cfg = SinkhornConfig(epsilon=0.1, max_iters=3, tol=1e-12)
        with pytest.warns(NoConvergence):
            out = solve_unconditional(p, ClassPrior.uniform(2), cfg)
        assert not out.converged
        assert out.iters_used == 3
        assert out.row_marginal_err > 0

    def test_large_epsilon_columns_approach_prior(self):
        rng = np.random.default_rng(0)
        p, prior = random_instance(rng, 3, 5)
        out = solve_unconditional(p, prior, SinkhornConfig.verification(epsilon=500.0))
        for j in range(p.n):
            np.testing.assert_allclose(out.q.data[:, j], prior.probs, atol=1e-3)

    def test_small_epsilon_reaches_lp_optimum(self):
        # instances are filtered for a clear assignment gap: near-tied optima
        # keep the entropic solution mixed at any representable epsilon
        # (the first instance stalls short of tol; the objective is still checked)
        rng = np.random.default_rng(11)
        checked = 0
        with pytest.warns(NoConvergence, match="after 50000 iterations"):
            while checked < 3:
                p = ProbMatrix(rng.dirichlet(np.ones(3), size=6).T)
                log_p = np.log(np.clip(p.data, 1e-12, None))
                values = lp_assignment_values(log_p, [2, 2, 2])
                if values[0] - values[1] < 0.1:
                    continue
                cfg = SinkhornConfig(epsilon=0.002, max_iters=50_000, tol=1e-11)
                with np.errstate(all="ignore"):
                    out = solve_unconditional(p, ClassPrior.uniform(3), cfg)
                objective = float((out.q.data * log_p).sum())
                assert objective == pytest.approx(values[0], abs=1e-4)
                checked += 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        p, prior = random_instance(rng, 4, 7)
        cfg = SinkhornConfig.verification(epsilon=0.5)
        perm = rng.permutation(7)
        base = solve_unconditional(p, prior, cfg)
        permuted = solve_unconditional(ProbMatrix(p.data[:, perm]), prior, cfg)
        np.testing.assert_allclose(permuted.q.data, base.q.data[:, perm], atol=1e-12)

    def test_oracle_equivalence_small_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 9))
            p, prior = random_instance(rng, k, n)
            eps = float(rng.uniform(0.25, 1.0))
            out = solve_unconditional(p, prior, SinkhornConfig(eps, 100_000, 1e-12))
            reference = sinkhorn_extended(p.data, prior.probs * n, eps, iters=100_000, tol=1e-15)
            np.testing.assert_allclose(out.q.data, reference, atol=1e-6)


class TestResidualRowMarginals:
    def test_no_labels_gives_scaled_prior(self):
        r = residual_row_marginals(ClassPrior.uniform(2), np.zeros(2, dtype=int), 10)
        np.testing.assert_allclose(r, [5.0, 5.0])

    def test_subtracts_counts(self):
        r = residual_row_marginals(ClassPrior.uniform(2), np.array([2, 0]), 10)
        np.testing.assert_allclose(r, [3.0, 5.0])
        assert r.sum() == pytest.approx(8.0)

    def test_clamps_then_renormalizes(self):
        prior = ClassPrior(np.array([0.1, 0.9]))
        r = residual_row_marginals(prior, np.array([4, 0]), 10)
        np.testing.assert_allclose(r, [0.0, 6.0])

    def test_residual_mass_always_covers_unlabeled(self):
        # sum of clamped residuals is >= N - sum(counts) for any normalized
        # prior, so InfeasibleResidual stays a defensive guard; check the
        # invariant on random draws
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            prior = ClassPrior(rng.dirichlet(np.ones(k)))
            n = int(rng.integers(2, 50))
            counts = rng.multinomial(int(rng.integers(0, n)), prior.probs)
            r = residual_row_marginals(prior, counts, n)
            assert r.sum() == pytest.approx(n - counts.sum(), rel=1e-12)
            assert np.all(r >= 0)

    def test_count_exceeding_total(self):
        with pytest.raises(ValueError):
            residual_row_marginals(ClassPrior.uniform(2), np.array([8, 8]), 10)


class TestConditional:
    def test_all_labeled_pins_everything(self):
        rng = np.random.default_rng(1)
        p, prior = random_instance(rng, 3, 6)
        labels = np.array([0, 1, 2, 0, 1, 2])
        out = solve_conditional(p, prior, LabeledBlock(labels), SinkhornConfig.training())
        expected = np.zeros((3, 6))
        expected[labels, np.arange(6)] = 1.0
        np.testing.assert_array_equal(out.q.data, expected)
        assert out.converged

    def test_empty_block_reduces_bitwise_to_unconditional(self):
        rng = np.random.default_rng(2)
        p, prior = random_instance(rng, 4, 9)
        cfg = SinkhornConfig.verification(epsilon=0.4)
        uncond = solve_unconditional(p, prior, cfg)
        cond = solve_conditional(p, prior, LabeledBlock(np.empty(0, dtype=int)), cfg)
        assert uncond.q.data.tobytes() == cond.q.data.tobytes()
        assert uncond.row_marginal_err == cond.row_marginal_err
        assert uncond.iters_used == cond.iters_used

    @pytest.mark.parametrize(
        "labels, clamped",
        [([], False), ([0, 1], False), ([0, 0], False), ([0, 0, 0], True), ([0] * 6, True)],
    )
    def test_reports_residual_clamping(self, labels, clamped):
        # uniform prior over 6 columns: each class has a budget of 2 columns
        p = ProbMatrix(np.full((3, 6), 1 / 3))
        prior = ClassPrior.uniform(3)
        block = LabeledBlock(np.array(labels, dtype=int))
        out = solve_conditional(p, prior, block, SinkhornConfig.training())
        assert out.residual_clamped is clamped
        assert solve_unconditional(p, prior, SinkhornConfig.training()).residual_clamped is False

    def test_labeled_columns_exact_zero_deviation(self):
        rng = np.random.default_rng(3)
        p, prior = random_instance(rng, 3, 8)
        labels = np.array([0, 2, 1])
        out = solve_conditional(p, prior, LabeledBlock(labels), SinkhornConfig.verification(0.3))
        block = out.q.data[:, :3]
        expected = np.zeros((3, 3))
        expected[labels, np.arange(3)] = 1.0
        assert block.tobytes() == expected.tobytes()

    def test_worked_k2_n3_against_reduced_oracle(self):
        p = ProbMatrix(np.array([[0.7, 0.9, 0.2], [0.3, 0.1, 0.8]]))
        prior = ClassPrior.uniform(2)
        cfg = SinkhornConfig(epsilon=0.1, max_iters=10_000, tol=0.0)
        out = solve_conditional(p, prior, LabeledBlock(np.array([0])), cfg)
        np.testing.assert_array_equal(out.q.data[:, 0], [1.0, 0.0])
        # residual marginals: 3 * (0.5, 0.5) minus one labeled class-0 sample
        reference = sinkhorn_extended(
            p.data[:, 1:], np.array([0.5, 1.5]), epsilon=0.1, iters=10_000
        )
        np.testing.assert_allclose(out.q.data[:, 1:], reference, atol=1e-8)

    def test_sharp_epsilon_matches_unfloored_log_domain_bitwise(self, monkeypatch):
        # eps 0.02 on sharply peaked predictions (a scaled-down benchmark
        # solve-b), with class 0 labeled beyond its budget so its residual
        # target is zero: the solver turns the floor on, and the floored exp
        # must leave every plan byte as is
        floors = []

        def recording(*args):
            floors.append(args[4])
            return _lse(*args)

        monkeypatch.setattr(sinkhorn, "_lse", recording)
        rng = np.random.default_rng(0)
        k, n, n_labeled, eps = 12, 300, 80, 0.02
        truth = rng.integers(0, k, size=n)
        truth[: n_labeled // 2] = 0
        logits = 3.0 * rng.standard_normal((k, n))
        logits[truth, np.arange(n)] += 15.0
        p = np.exp(logits - logits.max(axis=0))
        p = ProbMatrix(p / p.sum(axis=0))
        prior = ClassPrior.uniform(k)
        labels = truth[:n_labeled]
        out = solve_conditional(p, prior, LabeledBlock(labels), SinkhornConfig(eps, 100, 0.0))
        assert len(floors) == 201 and all(floors)

        residual = residual_row_marginals(prior, np.bincount(labels, minlength=k), n)
        assert residual[0] == 0.0
        plan, f, g, iters = log_domain_plan(p.data[:, n_labeled:], residual, eps, 100, 0.0)
        assert out.iters_used == iters == 100
        got = np.ascontiguousarray(out.q.data[:, n_labeled:])
        np.testing.assert_array_equal(got.view(np.int64), plan.view(np.int64))

        # the shifted exp arguments of both reductions at the final potentials
        log_kernel = np.log(np.clip(p.data[:, n_labeled:], 1e-12, None)) / eps
        rows = log_kernel + g[None, :]
        cols = log_kernel[1:] + f[1:, None]
        args = np.concatenate([(rows - rows.max(axis=1, keepdims=True)).ravel(),
                               (cols - cols.max(axis=0, keepdims=True)).ravel()])
        assert np.mean((args > -745.0) & (args < _EXP_FLOOR)) > 0.03
        assert np.mean(args <= -745.0) > 0.3

    def test_large_epsilon_unlabeled_columns_approach_residual(self):
        rng = np.random.default_rng(9)
        p, prior = random_instance(rng, 3, 8)
        labels = np.array([0, 1])
        out = solve_conditional(
            p, prior, LabeledBlock(labels), SinkhornConfig.verification(epsilon=800.0)
        )
        counts = np.bincount(labels, minlength=3)
        residual = residual_row_marginals(prior, counts, 8)
        for j in range(2, 8):
            np.testing.assert_allclose(out.q.data[:, j], residual / 6.0, atol=1e-3)

    def test_feasibility_at_tight_tolerance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(6, 40))
            p, prior = random_instance(rng, k, n, prior_alpha=20.0)
            n_lab = int(rng.integers(0, n // 3 + 1))
            labels = rng.integers(0, k, size=n_lab)
            counts = np.bincount(labels, minlength=k)
            if np.any(n * prior.probs - counts < 0.5):
                continue  # keep the residual solidly feasible
            cfg = SinkhornConfig.verification(epsilon=0.6)
            out = solve_conditional(p, prior, LabeledBlock(labels), cfg)
            assert out.row_marginal_err <= 1e-6
            assert out.col_marginal_err <= 1e-6
            assert out.converged
