"""Entropy-regularized self-label assignment solved by log-domain scaling iterations.

Solves for a K x N assignment Q with unit column sums and prescribed row
marginals (N times the class prior), maximizing agreement with the model's
predicted probabilities under an entropy term that smooths the solution.
The conditional variant pins labeled columns to their one-hot ground truth
and solves the reduced problem on the remaining columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    PROB_FLOOR,
    ClassPrior,
    IndexOutOfRange,
    LabeledBlock,
    OwsslError,
    ProbMatrix,
    ShapeMismatch,
    _Helpers,
    _usable_cpus,
)


class DegeneratePrior(OwsslError):
    pass


class InfeasibleResidual(OwsslError):
    pass


class NoConvergence(UserWarning):
    """Marginal tolerance not reached within the iteration budget (non-fatal)."""


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver settings: entropy weight, iteration budget, L1 marginal tolerance.

    `epsilon` multiplies the entropy term; larger values smooth the
    assignment toward the row-marginal distribution. `tol` = 0 runs a fixed
    number of iterations; a positive `tol` early-stops once the L1
    row-marginal error falls below it. The defaults, 10 iterations without
    an early stop, are the training profile.
    """

    epsilon: float = 0.1
    max_iters: int = 10
    tol: float = 0.0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if math.log(PROB_FLOOR) / float(self.epsilon) == -math.inf:
            raise ValueError(
                f"epsilon {self.epsilon!r} is too small: log({PROB_FLOOR}) / epsilon overflows")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.tol >= 0):
            raise ValueError("tol must be non-negative")

    @classmethod
    def verification(cls, epsilon: float = 0.1) -> "SinkhornConfig":
        return cls(epsilon=epsilon, max_iters=100_000, tol=1e-9)


@dataclass(frozen=True)
class Assignment:
    """Optimized assignment plus feasibility diagnostics.

    `row_marginal_err` is the L1 deviation of row sums from N * prior;
    `col_marginal_err` the L1 deviation of column sums from 1. A failed
    early stop is reported through `converged` and a NoConvergence warning
    rather than an exception; the assignment is still returned.
    `residual_clamped` is True when some labeled class count exceeds its
    N * p_i budget, so its residual marginal was clamped to zero.
    """

    q: ProbMatrix
    row_marginal_err: float
    col_marginal_err: float
    iters_used: int
    converged: bool
    residual_clamped: bool = False


def marginal_error(q: ProbMatrix, target_rows, target_cols) -> tuple[float, float]:
    """L1 norms of (row sums - target_rows) and (column sums - target_cols)."""
    rows = np.asarray(target_rows, dtype=np.float64)
    cols = np.asarray(target_cols, dtype=np.float64)
    if rows.shape != (q.k,) or cols.shape != (q.n,):
        raise ShapeMismatch(
            f"targets of shape {rows.shape}/{cols.shape} do not match a {q.k} x {q.n} matrix"
        )
    row_err = float(np.abs(q.data.sum(axis=1) - rows).sum())
    col_err = float(np.abs(q.data.sum(axis=0) - cols).sum())
    return row_err, col_err


def residual_row_marginals(prior: ClassPrior, labeled_counts, n_total: int) -> np.ndarray:
    """Row-marginal budget left for the unlabeled columns.

    Computes max(N * p_i - n_i_labeled, 0) and renormalizes so the entries
    sum exactly to the unlabeled count. Negative residuals (a class already
    over-represented among the labels) clamp to zero before renormalizing.
    """
    counts = np.asarray(labeled_counts)
    if counts.shape != (prior.k,):
        raise ShapeMismatch(f"labeled_counts shape {counts.shape} does not match K={prior.k}")
    if np.any(counts < 0):
        raise ValueError("labeled_counts must be non-negative")
    n_labeled = int(counts.sum())
    if n_labeled > n_total:
        raise ValueError(f"labeled count {n_labeled} exceeds total {n_total}")
    residual = np.maximum(n_total * prior.probs - counts, 0.0)
    n_unlabeled = n_total - n_labeled
    if n_unlabeled == 0:
        return np.zeros(prior.k)
    mass = residual.sum()
    if mass <= 0:
        raise InfeasibleResidual("all residual marginals are zero but unlabeled samples remain")
    return residual * (n_unlabeled / mass)


# np.exp is tens of times slower on arguments whose result is subnormal
# (below about -708); exp(-700) is still normal. Every finite line holds its
# peak term exp(0) = 1, so terms raised to this floor stay below 1e-304 and
# vanish when added to it: the sums keep their bytes.
_EXP_FLOOR = -700.0

# a kernel of at most this many float64 cells (512 KiB) goes through one
# buffer of its own shape on the calling thread; a larger one gets a thread
# for each block of at most this many cells that its passes would need, up to
# the usable CPUs
_WORK_CELLS = 1 << 16

# a larger kernel's blocks hold at most this many cells (1 MiB), unless one
# kernel row or two kernel columns are more
_BLOCK_CELLS = 1 << 17

# numpy's ufunc buffer size, in elements, while the solver runs: numpy 2.4
# stages a broadcast add, subtract or maximum whose lines are shorter than
# its buffer through it (a third of the solver's time at the default 8192)
_UFUNC_BUFSIZE = 256


def _block_count(lines: int, line_cells: int, least: int, cells: int, threads: int = 1) -> int:
    # the fewest blocks of `lines` lines of `line_cells` cells each that hold at
    # most `cells` cells, but at least `least` lines, their count rounded up to
    # a multiple of `threads` but no more than the lines
    fewest = -(-lines // max(cells // line_cells, least))
    return min(-(-fewest // threads) * threads, lines)


def _lse(log_kernel: np.ndarray, shift: np.ndarray, axis: int, work, floor: bool = True,
         helpers: _Helpers = _Helpers(0)) -> np.ndarray:
    # log-sum-exp of log_kernel + shift through `work`: whole if `work` is an
    # array (of the kernel's shape), else in blocks of whole rows (axis 1) or
    # columns (axis 0) of the row-major kernel view, through the list `work` of
    # flat buffers, each as large as the largest block: the calling thread's,
    # then one for each of `helpers`' threads. The block count is the fewest
    # of at most _BLOCK_CELLS cells (one row or two columns at least), rounded
    # up to a multiple of the threads but no more than the lines; the first
    # `lines % blocks` blocks take one line more. Threads take blocks in any
    # order. numpy sums a row, and a K x c block's columns row by row, whichever
    # block holds them, but a K x 1 block pairwise: a one-column block takes the
    # column before.
    if isinstance(work, np.ndarray):
        return _lse_whole(log_kernel, shift, axis, work, floor)
    lines = log_kernel.shape[1 - axis]
    blocks = _block_count(lines, log_kernel.shape[axis], 2 - axis, _BLOCK_CELLS, len(work))
    size, wide = divmod(lines, blocks)
    out = np.empty(lines)

    def lse_block(i, w):
        s = i * size + min(i, wide)
        e = s + size + (i < wide)
        lo = s - 1 if axis == 0 and e - s == 1 and s else s
        block = log_kernel[:, lo:e] if axis == 0 else log_kernel[lo:e]
        buffer = w[: block.size].reshape(block.shape)
        out[s:e] = _lse_whole(block, shift, axis, buffer, floor)[s - lo :]

    helpers.run(blocks, lse_block, work)
    return out


def _lse_whole(log_kernel: np.ndarray, shift: np.ndarray, axis: int, work: np.ndarray,
               floor: bool) -> np.ndarray:
    # `_lse` with `work` the kernel's size, tolerating -inf entries (zero
    # mass): the sum, its shifted copy and their exponentials are written into
    # `work` in turn, so an iteration allocates no K x N temporaries. With
    # `floor`, shifted arguments below _EXP_FLOOR are raised to it.
    np.add(log_kernel, shift, out=work)
    peak = np.maximum.reduce(work, axis=axis, keepdims=True)
    finite = np.isfinite(peak)
    safe = np.where(finite, peak, 0.0)
    np.subtract(work, safe, out=work)
    if floor:
        np.maximum(work, np.where(finite, _EXP_FLOOR, -np.inf), out=work)
    np.exp(work, out=work)
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduce(work, axis=axis)) + np.squeeze(safe, axis=axis)


def _entropic_plan(
    p_block: np.ndarray, row_targets: np.ndarray, cfg: SinkhornConfig, out: np.ndarray
) -> tuple[int, float]:
    """Scale exp(log(p)/epsilon) to match row_targets / unit column sums.

    Dual potentials are iterated with log-sum-exp reductions so small
    epsilon values cannot underflow. Zero row targets are honored exactly
    (the corresponding rows of the plan are zero). Builds the log kernel in
    `out`, a row-major view of p_block's shape, and turns it into the plan
    there. A kernel of at most _WORK_CELLS cells goes through one buffer of
    its own shape, on this thread. A larger one runs on one thread per usable
    CPU, this thread among them, but no more than either pass would have
    blocks of _WORK_CELLS cells. Rows go through row blocks and columns
    through column blocks: each pass is cut into the fewest blocks of at most
    _BLOCK_CELLS cells (one row or two columns at least) whose count is a
    multiple of the threads, each thread has one buffer as large as the
    largest block, and each takes the next block of a pass when it is done
    with one. The helper threads (`core._Helpers`, as in the Monte Carlo)
    start once, take each pass's blocks by index, and end with the call.
    Every row is summed whole within one block and every column row by
    row, so the bytes do not depend on the thread count, the block sizes or
    the order in which the blocks run. Every thread runs under the caller's
    numpy error state and a ufunc buffer of _UFUNC_BUFSIZE elements, set
    before the helpers start; the caller's size comes back however the
    call leaves, and the bytes do not depend on it.
    Returns the number of row+column update pairs performed and the final L1
    row error (columns are exact by construction after every column update).
    """
    old_bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    helpers = _Helpers(0)
    try:
        k, n = p_block.shape
        log_kernel = np.clip(p_block, PROB_FLOOR, None, out=out)
        np.log(log_kernel, out=log_kernel)
        log_kernel /= cfg.epsilon
        with np.errstate(divide="ignore"):
            log_rows = np.log(row_targets)
        # g differs between columns by at most the kernel's span, and the finite f
        # between rows by that plus the spread of the log targets, so no shifted
        # argument falls below -(2 span + spread): floor only if that reaches it
        # (compared in halves, which cannot overflow)
        live = log_rows[np.isfinite(log_rows)]
        floor = np.ptp(log_kernel) + np.ptp(live) / 2 > -_EXP_FLOOR / 2
        f = np.zeros(k)
        g = np.zeros(n)
        if k * n <= _WORK_CELLS:
            work = np.empty((k, n))
        else:
            threads = min(_usable_cpus(), _block_count(k, n, 1, _WORK_CELLS),
                          _block_count(n, k, 2, _WORK_CELLS))
            rows = -(-k // _block_count(k, n, 1, _BLOCK_CELLS, threads))
            cols = max(-(-n // _block_count(n, k, 2, _BLOCK_CELLS, threads)), min(n, 2))
            work = [np.empty(max(rows * n, cols * k)) for _ in range(threads)]
            helpers = _Helpers(threads - 1)
        iters = 0
        while True:
            row_lse = _lse(log_kernel, g[None, :], 1, work, floor, helpers)
            last = iters == cfg.max_iters
            checked = last or (iters > 0 and cfg.tol > 0)
            if checked:
                with np.errstate(over="ignore"):  # at a tiny epsilon rounding alone can reach inf
                    row_err = float(np.abs(np.exp(f + row_lse) - row_targets).sum())
                if last or row_err <= cfg.tol:
                    break
            f_next = log_rows - row_lse
            if checked and np.array_equal(f_next, f):
                break  # f, and so g, would repeat bit for bit up to the cap
            f = f_next
            g = -_lse(log_kernel, f[:, None], 0, work, floor, helpers)
            iters += 1
        log_kernel += f[:, None]
        log_kernel += g[None, :]
        np.exp(log_kernel, out=log_kernel)
        return iters, row_err
    finally:
        helpers.close()
        np.setbufsize(old_bufsize)


def _solve(p: ProbMatrix, prior: ClassPrior, labels: np.ndarray, cfg: SinkhornConfig) -> Assignment:
    k, n = p.k, p.n
    if prior.k != k:
        raise ShapeMismatch(f"prior has {prior.k} classes, matrix has {k} rows")
    floor = np.min(prior.probs) * n
    if floor < PROB_FLOOR:
        raise DegeneratePrior(
            f"smallest row marginal {floor!r} is below the {PROB_FLOOR} floor"
        )
    n_labeled = labels.size
    if n_labeled > n:
        raise ShapeMismatch(f"{n_labeled} labels for only {n} columns")
    if n_labeled and labels.max() >= k:  # LabeledBlock holds no negative index
        raise IndexOutOfRange("labeled class index outside 0..K-1")
    counts = np.bincount(labels, minlength=k)
    # the deficit that residual_row_marginals clamps to zero
    clamped = bool(np.any(n * prior.probs - counts < 0))

    q = np.empty((k, n))
    n_unlabeled = n - n_labeled
    iters_used = 0
    solver_err = 0.0
    if n_unlabeled > 0:
        residual = residual_row_marginals(prior, counts, n)
        iters_used, solver_err = _entropic_plan(p.data[:, n_labeled:], residual, cfg, q[:, n_labeled:])
    q[:, :n_labeled] = 0.0
    q[labels, np.arange(n_labeled)] = 1.0
    q.flags.writeable = False  # so ProbMatrix keeps it instead of copying it

    assignment = ProbMatrix(q)
    row_err, col_err = marginal_error(assignment, n * prior.probs, np.ones(n))
    converged = n_unlabeled == 0 or solver_err <= cfg.tol
    if cfg.tol > 0 and not converged:
        warnings.warn(
            NoConvergence(f"row error {solver_err!r} > tol {cfg.tol!r} after {iters_used} iterations")
        )
    return Assignment(assignment, row_err, col_err, iters_used, converged, clamped)


def solve_unconditional(p: ProbMatrix, prior: ClassPrior, cfg: SinkhornConfig) -> Assignment:
    """Assignment over all columns constrained only by the prior row marginals."""
    return _solve(p, prior, np.empty(0, dtype=np.int64), cfg)


def solve_conditional(
    p: ProbMatrix, prior: ClassPrior, labeled: LabeledBlock, cfg: SinkhornConfig
) -> Assignment:
    """Assignment with columns 0..N_labeled-1 pinned to one-hot ground truth.

    The labeled columns are written, not iterated, so they carry zero
    floating-point deviation; the unlabeled block is solved against the
    residual row marginals. With an empty labeled block this reduces
    bitwise to `solve_unconditional`.
    """
    return _solve(p, prior, labeled.labels, cfg)
