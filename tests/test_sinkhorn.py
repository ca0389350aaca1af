import json
import queue  # noqa: F401 - imported before any traced solve starts helper threads
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from owssl import sinkhorn
from owssl.core import ClassPrior, LabeledBlock, ProbMatrix, ShapeMismatch, softmax
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

from make_goldens import GOLDEN, build_note, solve_variant_digest, solve_variant_digests, solve_variants
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

    @pytest.mark.parametrize("eps", [1e-320, 1.537e-307])
    def test_epsilon_whose_log_kernel_overflows_is_refused(self, eps):
        # log(PROB_FLOOR) / eps is -inf below about 1.5370266e-307
        with pytest.raises(ValueError, match=f"epsilon {eps!r} is too small"):
            SinkhornConfig(epsilon=eps)
        assert SinkhornConfig(epsilon=1.5371e-307).epsilon == 1.5371e-307

    def test_profiles(self):
        assert SinkhornConfig().max_iters == 10
        assert SinkhornConfig().tol == 0.0
        assert SinkhornConfig.verification().tol == 1e-9


def two_temporary_case(axis, shape, order):
    # zero-mass rows enter as -inf, both in the kernel and in the shift
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
    return log_kernel, shift


def floor_edge_case(axis, order):
    # each line holds its peak, terms exactly at and just below the floor,
    # terms in the subnormal band and terms that underflow to zero, beside
    # whole -inf kernel lines, -inf shift entries and one line with no finite
    # term (line 3)
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
    return np.asarray(log_kernel, order=order), shift


def lse_in_blocks(monkeypatch, log_kernel, shift, axis, cells):
    """`_lse` in blocks of at most `cells` cells through a flat work buffer of
    that size, checked bitwise against the oracle; returns its result and the
    shapes of its blocks."""
    shapes = []
    whole = sinkhorn._lse_whole

    def recording(block, *args):
        shapes.append(block.shape)
        return whole(block, *args)

    monkeypatch.setattr(sinkhorn, "_lse_whole", recording)
    monkeypatch.setattr(sinkhorn, "_BLOCK_CELLS", cells)
    got = _lse(log_kernel, shift, axis, [np.empty(cells)])
    want = lse_two_temporaries(log_kernel + shift, axis)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert all(rows * cols <= cells for rows, cols in shapes)
    return got, shapes


def block_widths(lines, most, threads=1):
    # the fewest blocks of at most `most` lines, their count rounded up to a
    # multiple of `threads` (but no more than the lines), as equal as they can
    # be: the first `lines % blocks` take one line more
    blocks = -(-lines // most)
    blocks = min(-(-blocks // threads) * threads, lines)
    size, wide = divmod(lines, blocks)
    return [size + 1] * wide + [size] * (blocks - wide)


def column_widths(n, cols, threads=1):
    # a one-column block is summed beside the column before it, so it takes a
    # block two columns wide
    return [max(width, 2) for width in block_widths(n, cols, threads)]


def buffer_cells(k, n, threads):
    # each thread's work buffer for a K x N kernel: the largest row or column
    # block, each of at most _BLOCK_CELLS cells (the cases here hold more than
    # one row or two columns)
    cells = sinkhorn._BLOCK_CELLS
    largest = max(max(block_widths(k, cells // n, threads)) * n,
                  max(column_widths(n, cells // k, threads)) * k)
    assert largest <= cells
    return largest


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("shape", [(7, 301), (40, 1024)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_two_temporary_formula_bitwise(self, axis, shape, order):
        # numpy adds the terms of a sum in an order set by the array layout,
        # so the work buffer takes the kernel's
        log_kernel, shift = two_temporary_case(axis, shape, order)
        want = lse_two_temporaries(log_kernel + shift, axis)
        got = _lse(log_kernel, shift, axis, np.empty_like(log_kernel))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("rows", [1, 3, "K-1"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("shape", [(7, 301), (40, 1024)])
    def test_row_blocks_match_two_temporary_formula_bitwise(self, axis, shape, rows, monkeypatch):
        # a work buffer of fewer kernel rows than the C-ordered kernel: the
        # row pass takes the fewest blocks of at most that many rows, as equal
        # as they can be; the column pass blocks of whole columns alike
        k, n = shape
        rows = k - 1 if rows == "K-1" else rows
        log_kernel, shift = two_temporary_case(axis, shape, "C")
        shapes = lse_in_blocks(monkeypatch, log_kernel, shift, axis, rows * n)[1]
        if axis == 1:
            assert shapes == [(width, n) for width in block_widths(k, rows)]
        else:
            assert [cols for _, cols in shapes] == column_widths(n, rows * n // k)

    @pytest.mark.parametrize("cols", [2, 3, "N-1"])
    @pytest.mark.parametrize("shape", [(7, 301), (40, 1024)])
    def test_column_blocks_match_two_temporary_formula_bitwise(self, shape, cols, monkeypatch):
        # a work buffer of `cols` kernel columns; 301 columns in blocks of at
        # most 2 leave one block of one column
        k, n = shape
        cols = n - 1 if cols == "N-1" else cols
        log_kernel, shift = two_temporary_case(0, shape, "C")
        shapes = lse_in_blocks(monkeypatch, log_kernel, shift, 0, cols * k)[1]
        assert shapes == [(k, w) for w in column_widths(n, cols)]

    def test_one_column_remainder_is_not_summed_alone(self, monkeypatch):
        # numpy sums a K x 1 block pairwise, which moves some columns' bits at
        # K=40: cut the kernel after such a column j, j even, so that in
        # blocks of at most 2 columns it is the last block's one column
        log_kernel, shift = two_temporary_case(0, (40, 1024), "C")
        want = lse_two_temporaries(log_kernel + shift, 0)
        j = next(j for j in range(2, 1024, 2) if want[j] != sinkhorn._lse_whole(
            log_kernel[:, j : j + 1], shift, 0, np.empty((40, 1)), True)[0])
        kernel = np.ascontiguousarray(log_kernel[:, : j + 1])
        shapes = lse_in_blocks(monkeypatch, kernel, shift, 0, 2 * 40)[1]
        assert shapes == [(40, 2)] * (j // 2 + 1)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_floor_edge_cases_bitwise(self, axis, order):
        # the floor is on (the default)
        log_kernel, shift = floor_edge_case(axis, order)
        want = lse_two_temporaries(log_kernel + shift, axis)
        got = _lse(log_kernel, shift, axis, np.empty_like(log_kernel))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isneginf(got[3]) and np.isfinite(np.delete(got, 3)).all()

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_floor_edge_cases_in_row_blocks_bitwise(self, axis, rows, monkeypatch):
        # a buffer of 1, 3 and K-1 rows of the 9 x 40 kernel (4, 13 and 35
        # columns), so that the floor-band lines, the -inf kernel line and
        # the -inf shift entry fall in different blocks or share one
        got = lse_in_blocks(monkeypatch, *floor_edge_case(axis, "C"), axis, rows * 40)[0]
        assert np.isneginf(got[3]) and np.isfinite(np.delete(got, 3)).all()

    @pytest.mark.parametrize("cols", [2, 3, 39])
    def test_floor_edge_cases_in_column_blocks_bitwise(self, cols, monkeypatch):
        # 40 columns in 20 blocks of 2, 14 blocks of 3 or 2, or 2 of 20
        got, shapes = lse_in_blocks(monkeypatch, *floor_edge_case(0, "C"), 0, cols * 9)
        assert shapes == [(9, w) for w in column_widths(40, cols)]
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
        out = solve_unconditional(p, ClassPrior.uniform(2), SinkhornConfig())
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
            solve_unconditional(p, ClassPrior(np.array([1.0, 0.0])), SinkhornConfig())

    def test_no_convergence_warning_and_fields(self):
        p = ProbMatrix(np.array([[0.9, 0.2], [0.1, 0.8]]))
        cfg = SinkhornConfig(epsilon=0.1, max_iters=3, tol=1e-12)
        with pytest.warns(NoConvergence):
            out = solve_unconditional(p, ClassPrior.uniform(2), cfg)
        assert not out.converged
        assert out.iters_used == 3
        assert out.row_marginal_err > 0

    def test_tiny_epsilon_warns_only_no_convergence(self):
        # at eps 1e-300 the log kernel's rounding alone pushes the row-error
        # check's exponent past overflow; that inf is the error it reports,
        # not a numpy warning (pytest turns RuntimeWarnings into errors)
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((3, 90))
        logits[rng.integers(0, 3, size=90), np.arange(90)] += 2.0
        p = ProbMatrix(softmax(logits))
        with pytest.warns(NoConvergence):
            out = solve_unconditional(p, ClassPrior.uniform(3), SinkhornConfig(1e-300, 1000, 1e-9))
        assert not out.converged

    def test_near_smallest_epsilon_warns_only_no_convergence(self):
        # at eps 2e-307 a floored entry's log is -1.38e308, so twice the log
        # kernel's span overflows: the floor decision must not compute it
        p = ProbMatrix(np.array([[1.0, 0.6, 0.3], [0.0, 0.4, 0.7]]))
        with pytest.warns(NoConvergence):
            out = solve_unconditional(p, ClassPrior.uniform(2), SinkhornConfig(2e-307, 50, 1e-9))
        assert not out.converged

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


def sharp_epsilon_blocks(monkeypatch, workers=1):
    """Solve a K=12 sharp instance whose 220 unlabeled columns reach the exp
    floor on `workers` threads, check its plan bitwise against the unfloored
    log-domain oracle and return, by axis, the distinct sorted sequences of
    block shapes `_lse` went through in one call (the threads take a call's
    blocks in any order)."""
    calls = []  # (axis, floor, block shapes) of each _lse call
    whole = sinkhorn._lse_whole

    def recording(*args):
        calls.append((args[2], args[4], []))
        return _lse(*args)

    def recording_block(block, *args):
        calls[-1][2].append(block.shape)
        return whole(block, *args)

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
    with monkeypatch.context() as patch:
        patch.setattr(sinkhorn, "_usable_cpus", lambda: workers)
        patch.setattr(sinkhorn, "_lse", recording)
        patch.setattr(sinkhorn, "_lse_whole", recording_block)
        out = solve_conditional(p, prior, LabeledBlock(labels), SinkhornConfig(eps, 100, 0.0))
    assert len(calls) == 201 and all(floor for _, floor, _ in calls)

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
    return {axis: {tuple(sorted(shapes)) for a, _, shapes in calls if a == axis} for axis in (0, 1)}


class TestConditional:
    def test_all_labeled_pins_everything(self):
        rng = np.random.default_rng(1)
        p, prior = random_instance(rng, 3, 6)
        labels = np.array([0, 1, 2, 0, 1, 2])
        out = solve_conditional(p, prior, LabeledBlock(labels), SinkhornConfig())
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
        out = solve_conditional(p, prior, block, SinkhornConfig())
        assert out.residual_clamped is clamped
        assert solve_unconditional(p, prior, SinkhornConfig()).residual_clamped is False

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
        assert sharp_epsilon_blocks(monkeypatch) == {0: {((12, 220),)}, 1: {((12, 220),)}}

    @pytest.mark.parametrize("rows", [1, 3])
    def test_sharp_epsilon_in_row_blocks_matches_unfloored_log_domain_bitwise(self, monkeypatch, rows):
        # the same solve with _WORK_CELLS at 1 or 3 of the kernel's 12 rows
        # (220 or 660 cells) and blocks of at most twice that, as in the
        # module (2 or 6 rows, 36 or 110 of its columns), on one and two
        # threads: the rows go in 6 blocks of 2 or 2 of 6, the 220 columns in
        # 7 blocks of 32 or 31 columns, 8 of 28 or 27 on two threads, or 2 of 110
        monkeypatch.setattr(sinkhorn, "_WORK_CELLS", rows * 220)
        monkeypatch.setattr(sinkhorn, "_BLOCK_CELLS", 2 * rows * 220)
        columns = {(1, 1): ((12, 31),) * 4 + ((12, 32),) * 3,
                   (1, 2): ((12, 27),) * 4 + ((12, 28),) * 4,
                   (3, 1): ((12, 110),) * 2, (3, 2): ((12, 110),) * 2}
        for workers in (1, 2):
            assert sharp_epsilon_blocks(monkeypatch, workers) == {
                0: {columns[rows, workers]}, 1: {((2 * rows, 220),) * (6 // rows)}}

    def test_one_unlabeled_column_is_never_split(self, monkeypatch):
        # numpy sums a K x 1 array pairwise, not row by row, so row blocks of
        # a one-column kernel would add its terms in another order
        monkeypatch.setattr(sinkhorn, "_WORK_CELLS", 3)
        monkeypatch.setattr(sinkhorn, "_BLOCK_CELLS", 3)
        rng = np.random.default_rng(1)
        p, prior = random_instance(rng, 40, 41)
        labels = rng.integers(0, 40, size=40)
        out = solve_conditional(p, prior, LabeledBlock(labels), SinkhornConfig(0.5, 30, 0.0))
        residual = residual_row_marginals(prior, np.bincount(labels, minlength=40), 41)
        plan = log_domain_plan(p.data[:, 40:], residual, 0.5, 30, 0.0)[0]
        np.testing.assert_array_equal(out.q.data[:, 40:].view(np.int64), plan.view(np.int64))

    def test_repeating_potentials_stop_early_with_the_capped_plan(self):
        # at a tiny epsilon the row potentials repeat bit for bit from the
        # second iteration: the state is fixed and the row error stays at 1.0,
        # so every further iteration up to the cap would change nothing
        p = ProbMatrix(np.array([[0.7, 0.9, 0.2], [0.3, 0.1, 0.8]]))
        prior, block = ClassPrior.uniform(2), LabeledBlock(np.array([0]))
        outs = []
        for max_iters in (5, 100_000):
            with pytest.warns(NoConvergence):
                outs.append(solve_conditional(p, prior, block, SinkhornConfig(1e-300, max_iters, 1e-9)))
        five, cap = outs
        assert cap.iters_used <= 10 and not cap.converged
        assert cap.row_marginal_err == five.row_marginal_err == 1.0
        assert cap.q.data.tobytes() == five.q.data.tobytes()

    def test_plan_is_written_into_the_assignment(self, monkeypatch):
        # the solve holds the assignment q and one work buffer per thread, as
        # large as the largest block of whole rows or columns of the log
        # kernel (at most _BLOCK_CELLS float64 cells), plus vectors of length N
        # (potentials, peaks and sums): under a dozen. The log kernel is built
        # in q's unlabeled columns, and ProbMatrix keeps the frozen q rather
        # than copying it; a copy would add another q.nbytes. The K=100 case's
        # unlabeled block is 2.4 MB, so a work array of its size fails.
        for workers in (1, 2):
            monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: workers)
            for k, n, n_labeled in [(50, 2000, 500), (100, 4096, 1024)]:
                rng = np.random.default_rng(4)
                p, prior = random_instance(rng, k, n)
                block = LabeledBlock(rng.integers(0, k, size=n_labeled))
                tracemalloc.start()
                try:
                    out = solve_conditional(p, prior, block, SinkhornConfig())
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                buffers = workers * 8 * buffer_cells(k, n - n_labeled, workers)
                bound = out.q.data.nbytes + buffers + 12 * 8 * n
                assert peak <= bound, (workers, k, n, peak, bound)

    def test_plan_is_built_in_the_unlabeled_columns(self, monkeypatch):
        # the solver takes q's unlabeled columns, a strided view, and builds the
        # log kernel and then the plan there: it leaves the labeled columns as
        # they are and copies no view of q; a copy of the view would add its
        # 2.4 MB, which the bound below does not hold
        k, n, n_labeled = 100, 4096, 1024
        rng = np.random.default_rng(4)
        p, prior = random_instance(rng, k, n)
        labels = rng.integers(0, k, size=n_labeled)
        targets = residual_row_marginals(prior, np.bincount(labels, minlength=k), n)
        p_block, cfg = p.data[:, n_labeled:], SinkhornConfig()
        plan = log_domain_plan(p_block, targets, cfg.epsilon, cfg.max_iters, cfg.tol)[0]
        for workers in (1, 2):
            monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: workers)
            q = np.empty((k, n))
            q[:, :n_labeled] = -7.0
            tracemalloc.start()
            try:
                sinkhorn._entropic_plan(p_block, targets, cfg, q[:, n_labeled:])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (q[:, :n_labeled] == -7.0).all()
            np.testing.assert_array_equal(q[:, n_labeled:].view(np.int64), plan.view(np.int64))
            bound = workers * 8 * buffer_cells(k, n - n_labeled, workers) + 12 * 8 * n
            assert peak <= bound, (workers, peak, bound)

    def test_broadcast_ops_take_no_ufunc_buffer(self, monkeypatch):
        # past q and the work buffers, a solve of the benchmark's solve-a shape
        # traces its vectors over the 3072 unlabeled columns (g, a column
        # pass's sums and their negation) and, on each thread, small
        # temporaries of a block: about 90-110 KB, under five float vectors
        # as wide as the widest column block (its peaks, their finite copy,
        # the floor bound, the sums and their logs) a thread. Under numpy
        # 2.4's default ufunc buffer of 8192 elements each broadcast add,
        # subtract and maximum over a kernel block also allocated a buffer of
        # up to 64 KB, which took the same solve to about 190 KB.
        rng = np.random.default_rng(4)
        p, prior = random_instance(rng, 100, 4096)
        block = LabeledBlock(rng.integers(0, 100, size=1024))
        for workers in (1, 2):
            monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: workers)
            tracemalloc.start()
            try:
                out = solve_conditional(p, prior, block, SinkhornConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra = peak - out.q.data.nbytes - workers * 8 * buffer_cells(100, 3072, workers)
            widest = max(column_widths(3072, sinkhorn._BLOCK_CELLS // 100, workers))
            bound = 3 * 8 * 3072 + workers * 5 * 8 * widest
            assert extra <= bound, (workers, extra, bound)

    def test_wide_training_profile_solve_holds_a_block_per_thread(self, monkeypatch):
        # a 100 x 65536 training-profile kernel goes in blocks of 2 rows, or of
        # 1286 or fewer columns, so each thread's buffer holds _BLOCK_CELLS
        # cells; past them the solve traces its N-length vectors (g, a column
        # pass's sums and their negation), under four
        k, n = 100, 65536
        rng = np.random.default_rng(6)
        p_block = rng.dirichlet(np.full(k, 2.0), size=n).T
        targets = residual_row_marginals(ClassPrior.uniform(k), np.zeros(k, dtype=int), n)
        q = np.empty((k, n))
        for workers in (1, 2):
            monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: workers)
            assert buffer_cells(k, n, workers) == sinkhorn._BLOCK_CELLS
            tracemalloc.start()
            try:
                sinkhorn._entropic_plan(p_block, targets, SinkhornConfig(), q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = workers * 8 * sinkhorn._BLOCK_CELLS + 4 * 8 * n
            assert peak <= bound, (workers, peak, bound)

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


class TestDigestTable:
    def test_solve_variants_reproduce_digest_table(self):
        # the solve golden is one K=2 path; the table pins both budgets, four
        # profiles and conditioning on a K=20 instance, the exp floor at K=100,
        # two K=100 solves over more than 65 536 unlabeled cells and a stalled
        # small-epsilon solve
        fresh = solve_variant_digests()
        golden = json.loads((GOLDEN / "solve_variants.json").read_text())
        moved = sorted(name for name in fresh.keys() | golden.keys() if fresh.get(name) != golden.get(name))
        assert not moved, f"{build_note('solve_variants.json')}; moved: {moved}"

    def test_wide_row_runs_with_the_exp_floor(self, monkeypatch):
        floors = []
        real = sinkhorn._lse

        def spy(*args):
            floors.append(args[4])
            return real(*args)

        monkeypatch.setattr(sinkhorn, "_lse", spy)
        p, prior, labeled, cfg = solve_variants()["K=100,profile=sharp,conditional=True"]
        solve_conditional(p, prior, labeled, cfg)
        assert floors and all(floors)

    def test_wide_row_keeps_its_digest_in_small_blocks(self, monkeypatch):
        # blocks of at most 1125 cells on one thread: 3 of the 375 unlabeled
        # columns' rows or 11 of the 100 rows' columns, so the row pass runs in
        # 34 blocks of 3 or 2 rows and the column pass in 35 of 11 or 10 columns
        monkeypatch.setattr(sinkhorn, "_WORK_CELLS", 1125)
        monkeypatch.setattr(sinkhorn, "_BLOCK_CELLS", 1125)
        monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: 1)
        name = "K=100,profile=sharp,conditional=True"
        golden = json.loads((GOLDEN / "solve_variants.json").read_text())[name]
        assert solve_variant_digest(*solve_variants()[name]) == golden

    @pytest.mark.parametrize("workers, cells", [(1, 1 << 16), (2, 1 << 16), (3, 1 << 16), (3, 1125)])
    def test_wide_rows_keep_their_digests_on_any_number_of_threads(self, workers, cells, monkeypatch):
        # the threads take a pass's blocks in any order, and the block count
        # is a multiple of theirs: with _WORK_CELLS at 1125 cells and blocks
        # of at most twice that, as in the module, the passes run in 18 blocks
        # each on three threads
        monkeypatch.setattr(sinkhorn, "_WORK_CELLS", cells)
        monkeypatch.setattr(sinkhorn, "_BLOCK_CELLS", 2 * cells)
        monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: workers)
        golden = json.loads((GOLDEN / "solve_variants.json").read_text())
        variants = {name: v for name, v in solve_variants().items() if name.startswith("K=100")}
        assert len(variants) == 3
        moved = [name for name, v in variants.items() if solve_variant_digest(*v) != golden[name]]
        assert not moved, moved

    def test_wide_rows_keep_their_digests_when_threads_switch_often(self, monkeypatch):
        # four threads, more than a two-core machine has cores, share each
        # pass's block counter and the queue that reports them done; a block
        # lost or taken twice moves the digests. The interpreter switches
        # threads every 10 us instead of every 5 ms
        monkeypatch.setattr(sinkhorn, "_WORK_CELLS", 1125)
        monkeypatch.setattr(sinkhorn, "_BLOCK_CELLS", 2250)
        monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: 4)
        golden = json.loads((GOLDEN / "solve_variants.json").read_text())
        variants = {name: v for name, v in solve_variants().items() if name.startswith("K=100")}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            moved = [name for name, v in variants.items() if solve_variant_digest(*v) != golden[name]]
        finally:
            sys.setswitchinterval(interval)
        assert not moved, moved

    @pytest.mark.parametrize("bufsize", [16, 8192])
    def test_wide_rows_keep_their_digests_at_any_ufunc_buffer_size(self, bufsize, monkeypatch):
        # 8192 is numpy's default; staging through the buffer changes no byte
        monkeypatch.setattr(sinkhorn, "_UFUNC_BUFSIZE", bufsize)
        golden = json.loads((GOLDEN / "solve_variants.json").read_text())
        variants = {name: v for name, v in solve_variants().items() if name.startswith("K=100")}
        assert len(variants) == 3
        moved = [name for name, v in variants.items() if solve_variant_digest(*v) != golden[name]]
        assert not moved, moved


def small_solve():
    rng = np.random.default_rng(5)
    p, prior = random_instance(rng, 4, 30)
    return p, prior, LabeledBlock(np.array([0, 1, 1])), SinkhornConfig()


class TestUfuncBufferScope:
    # the solver sets numpy's ufunc buffer size for its own thread and gives
    # the caller's back however it leaves

    def test_restored_after_a_solve(self):
        before = np.getbufsize()
        assert before != sinkhorn._UFUNC_BUFSIZE
        solve_conditional(*small_solve())
        assert np.getbufsize() == before

    def test_restored_after_a_solve_that_raises(self, monkeypatch):
        seen = []
        real = sinkhorn._lse

        def failing(*args):
            seen.append(np.getbufsize())
            if len(seen) == 3:
                raise RuntimeError("third _lse call")
            return real(*args)

        monkeypatch.setattr(sinkhorn, "_lse", failing)
        before = np.getbufsize()
        with pytest.raises(RuntimeError, match="third _lse call"):
            solve_conditional(*small_solve())
        assert seen == [sinkhorn._UFUNC_BUFSIZE] * 3
        assert np.getbufsize() == before

    def test_other_threads_keep_theirs_during_a_solve(self, monkeypatch):
        inside, checked = threading.Event(), threading.Event()
        seen, results = [], []
        real = sinkhorn._lse

        def pausing(*args):
            if not inside.is_set():
                seen.append(np.getbufsize())
                inside.set()
                checked.wait(10)
            return real(*args)

        monkeypatch.setattr(sinkhorn, "_lse", pausing)
        solver = threading.Thread(target=lambda: results.append(solve_conditional(*small_solve())))
        before = np.getbufsize()
        solver.start()
        try:
            assert inside.wait(10)
            here = np.getbufsize()
        finally:
            checked.set()
            solver.join()
        assert seen == [sinkhorn._UFUNC_BUFSIZE] and len(results) == 1
        assert here == before != sinkhorn._UFUNC_BUFSIZE


def training_profile_solve():
    # the shape `train` solves: K=20, a queue of 1024 columns, 256 labeled
    rng = np.random.default_rng(6)
    p, prior = random_instance(rng, 20, 1024)
    return p, prior, LabeledBlock(rng.integers(0, 20, size=256)), SinkhornConfig(epsilon=0.5)


def blocked_solve():
    # solve-a's shape: a 100 x 3072 kernel, more than four work buffers
    rng = np.random.default_rng(4)
    p, prior = random_instance(rng, 100, 4096)
    return p, prior, LabeledBlock(rng.integers(0, 100, size=1024)), SinkhornConfig()


class HelperFailure(Exception):
    pass


class TestThreads:
    # a kernel larger than one work buffer goes through the buffers of a few
    # threads, the caller among them; the solve starts the others and ends them

    def test_every_thread_runs_its_blocks_under_the_solver_ufunc_buffer(self, monkeypatch):
        # each thread waits on its first block until all three have one, so
        # that every helper thread runs some
        monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: 3)
        first = threading.Barrier(3, timeout=10)
        sizes = {}  # thread id -> the ufunc buffer sizes it ran blocks under
        whole = sinkhorn._lse_whole

        def recording(*args):
            seen = sizes.setdefault(threading.get_ident(), set())
            if not seen:
                first.wait()
            seen.add(np.getbufsize())
            return whole(*args)

        monkeypatch.setattr(sinkhorn, "_lse_whole", recording)
        before = np.getbufsize()
        solve_conditional(*blocked_solve())
        assert len(sizes) == 3 and all(seen == {sinkhorn._UFUNC_BUFSIZE} for seen in sizes.values())
        assert np.getbufsize() == before

    def test_every_thread_runs_its_blocks_under_the_caller_error_state(self, monkeypatch):
        # numpy keeps its error state per thread; the helper threads take the
        # caller's, as they take the solver's ufunc buffer size
        monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: 3)
        first = threading.Barrier(3, timeout=10)
        states = {}  # thread id -> the error states it ran blocks under
        whole = sinkhorn._lse_whole

        def recording(*args):
            seen = states.setdefault(threading.get_ident(), [])
            if not seen:
                first.wait()
            seen.append(np.geterr())
            return whole(*args)

        monkeypatch.setattr(sinkhorn, "_lse_whole", recording)
        with np.errstate(under="raise"):
            caller = np.geterr()
            solve_conditional(*blocked_solve())
        assert caller["under"] == "raise" != np.geterr()["under"]
        assert len(states) == 3 and all(state == caller for seen in states.values() for state in seen)

    @pytest.mark.parametrize("n, n_labeled, blocks", [(2048, 512, 2), (4096, 1024, 4)],
                             ids=["solve-b", "solve-a"])
    def test_benchmark_solves_take_one_or_two_blocks_a_thread(self, monkeypatch, n, n_labeled, blocks):
        # on two threads the 100 x 1536 kernel of solve-b goes in 2 blocks a
        # pass (50 rows or 768 columns, 76 800 cells each) and the 100 x 3072
        # kernel of solve-a in 4 (25 rows or 768 columns): the fewest blocks
        # of at most _BLOCK_CELLS cells, 2 or 3, rounded up to a multiple of 2
        monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: 2)
        calls = []
        real, whole = sinkhorn._lse, sinkhorn._lse_whole

        def recording(*args):
            calls.append((args[2], [len(w) for w in args[3]], []))
            return real(*args)

        def recording_block(block, *args):
            calls[-1][2].append(block.shape)
            return whole(block, *args)

        monkeypatch.setattr(sinkhorn, "_lse", recording)
        monkeypatch.setattr(sinkhorn, "_lse_whole", recording_block)
        rng = np.random.default_rng(4)
        p, prior = random_instance(rng, 100, n)
        solve_conditional(p, prior, LabeledBlock(rng.integers(0, 100, size=n_labeled)), SinkhornConfig())
        width = n - n_labeled
        assert len(calls) == 21
        for axis, buffers, shapes in calls:
            assert buffers == [76_800, 76_800]
            want = (100, width // blocks) if axis == 0 else (100 // blocks, width)
            assert shapes == [want] * blocks

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # a helper thread's first block raises; the caller's first block waits
        # until it has, so that the helper thread surely takes one
        monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: 2)
        caller, raised = threading.get_ident(), threading.Event()
        whole = sinkhorn._lse_whole

        def failing(*args):
            if threading.get_ident() == caller:
                assert raised.wait(10)
                return whole(*args)
            raised.set()
            raise HelperFailure("helper block failed")

        monkeypatch.setattr(sinkhorn, "_lse_whole", failing)
        bufsize, threads = np.getbufsize(), threading.active_count()
        with pytest.raises(HelperFailure, match="^helper block failed$"):
            solve_conditional(*blocked_solve())
        assert np.getbufsize() == bufsize
        assert threading.active_count() == threads

    def test_training_profile_solve_starts_no_thread(self, monkeypatch):
        # its 20 x 768 kernel holds at most _WORK_CELLS cells, so it runs whole
        # on the caller; solve-a's 100 x 3072 kernel on 64 usable CPUs has a
        # thread for each block of at most _WORK_CELLS cells that its passes
        # would take (5: of 21 rows or 655 columns), the caller among them, so
        # it starts 4. Its passes then go in 5 blocks each, the fewest of at
        # most _BLOCK_CELLS cells (3) rounded up to a multiple of 5.
        monkeypatch.setattr(sinkhorn, "_usable_cpus", lambda: 64)
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        solve_conditional(*training_profile_solve())
        assert started == []
        blocks = []
        whole = sinkhorn._lse_whole

        def recording(block, *args):
            blocks.append(block.shape)
            return whole(block, *args)

        monkeypatch.setattr(sinkhorn, "_lse_whole", recording)
        solve_conditional(*blocked_solve())
        assert len(started) == 4
        assert len(blocks) == 21 * 5
