"""Entropy-regularized self-label assignment solved by log-domain scaling iterations.

Solves for a K x N assignment Q with unit column sums and prescribed row
marginals (N times the class prior), maximizing agreement with the model's
predicted probabilities under an entropy term that smooths the solution.
The conditional variant pins labeled columns to their one-hot ground truth
and solves the reduced problem on the remaining columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    PROB_FLOOR,
    ClassPrior,
    LabeledBlock,
    OwsslError,
    ProbMatrix,
    ShapeMismatch,
    LabelOutOfSeenSet,
    validate_prob_matrix,
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
    number of iterations (training profile); a positive `tol` early-stops
    once the L1 row-marginal error falls below it.
    """

    epsilon: float = 0.1
    max_iters: int = 10
    tol: float = 0.0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")

    @classmethod
    def training(cls, epsilon: float = 0.1) -> "SinkhornConfig":
        # 10 fixed iterations, no early stop
        return cls(epsilon=epsilon, max_iters=10, tol=0.0)

    @classmethod
    def verification(cls, epsilon: float = 0.1, tol: float = 1e-9) -> "SinkhornConfig":
        return cls(epsilon=epsilon, max_iters=100_000, tol=tol)


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


def _lse(log_kernel: np.ndarray, shift: np.ndarray, axis: int, work: np.ndarray,
         floor: bool = True) -> np.ndarray:
    # log-sum-exp of log_kernel + shift that tolerates -inf entries (zero
    # mass); the sum, its shifted copy and their exponentials are written
    # into `work` in turn, so an iteration allocates no K x N temporaries.
    # With `floor`, shifted arguments below _EXP_FLOOR are raised to it.
    np.add(log_kernel, shift, out=work)
    peak = np.max(work, axis=axis, keepdims=True)
    finite = np.isfinite(peak)
    safe = np.where(finite, peak, 0.0)
    np.subtract(work, safe, out=work)
    if floor:
        np.maximum(work, np.where(finite, _EXP_FLOOR, -np.inf), out=work)
    np.exp(work, out=work)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(work, axis=axis)) + np.squeeze(safe, axis=axis)
    return out


def _entropic_plan(
    p_block: np.ndarray, row_targets: np.ndarray, cfg: SinkhornConfig
) -> tuple[np.ndarray, int, float]:
    """Scale exp(log(p)/epsilon) to match row_targets / unit column sums.

    Dual potentials are iterated with log-sum-exp reductions so small
    epsilon values cannot underflow. Zero row targets are honored exactly
    (the corresponding rows of the plan are zero). Returns the plan, the
    number of row+column update pairs performed, and the final L1 row error
    (columns are exact by construction after every column update).
    """
    k, n = p_block.shape
    log_kernel = np.log(np.clip(p_block, PROB_FLOOR, None)) / cfg.epsilon
    with np.errstate(divide="ignore"):
        log_rows = np.log(row_targets)
    # g differs between columns by at most the kernel's span, and the finite f
    # between rows by that plus the spread of the log targets, so no shifted
    # argument falls below -(2 span + spread): floor only if that reaches it
    live = log_rows[np.isfinite(log_rows)]
    floor = 2 * np.ptp(log_kernel) + np.ptp(live) > -_EXP_FLOOR
    f = np.zeros(k)
    g = np.zeros(n)
    work = np.empty_like(log_kernel)  # same layout, so the sums add in the same order
    iters = 0
    while True:
        row_lse = _lse(log_kernel, g[None, :], 1, work, floor)
        last = iters == cfg.max_iters
        if last or (iters > 0 and cfg.tol > 0):
            row_err = float(np.abs(np.exp(f + row_lse) - row_targets).sum())
            if last or row_err <= cfg.tol:
                break
        f = log_rows - row_lse
        g = -_lse(log_kernel, f[:, None], 0, work, floor)
        iters += 1
    np.add(log_kernel, f[:, None], out=work)
    work += g[None, :]
    return np.exp(work, out=work), iters, row_err


def _check_prior(p: ProbMatrix, prior: ClassPrior) -> None:
    if prior.k != p.k:
        raise ShapeMismatch(f"prior has {prior.k} classes, matrix has {p.k} rows")
    floor = np.min(prior.probs) * p.n
    if floor < PROB_FLOOR:
        raise DegeneratePrior(
            f"smallest row marginal {floor!r} is below the {PROB_FLOOR} floor"
        )


def _solve(p: ProbMatrix, prior: ClassPrior, labels: np.ndarray, cfg: SinkhornConfig) -> Assignment:
    k, n = p.k, p.n
    n_labeled = labels.size
    if n_labeled > n:
        raise ShapeMismatch(f"{n_labeled} labels for only {n} columns")
    if n_labeled and (labels.min() < 0 or labels.max() >= k):
        raise LabelOutOfSeenSet("labeled class index outside 0..K-1")
    counts = np.bincount(labels, minlength=k) if n_labeled else np.zeros(k, dtype=np.int64)
    # the deficit that residual_row_marginals clamps to zero
    clamped = bool(np.any(n * prior.probs - counts < 0))

    q = np.zeros((k, n))
    if n_labeled:
        q[labels, np.arange(n_labeled)] = 1.0

    n_unlabeled = n - n_labeled
    iters_used = 0
    solver_err = 0.0
    if n_unlabeled > 0:
        residual = residual_row_marginals(prior, counts, n)
        plan, iters_used, solver_err = _entropic_plan(p.data[:, n_labeled:], residual, cfg)
        q[:, n_labeled:] = plan

    assignment = validate_prob_matrix(q)
    row_err, col_err = marginal_error(assignment, n * prior.probs, np.ones(n))
    converged = n_unlabeled == 0 or solver_err <= cfg.tol
    if cfg.tol > 0 and not converged:
        warnings.warn(
            NoConvergence(f"row error {solver_err!r} > tol {cfg.tol!r} after {iters_used} iterations")
        )
    return Assignment(assignment, row_err, col_err, iters_used, converged, clamped)


def solve_unconditional(p: ProbMatrix, prior: ClassPrior, cfg: SinkhornConfig) -> Assignment:
    """Assignment over all columns constrained only by the prior row marginals."""
    _check_prior(p, prior)
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
    _check_prior(p, prior)
    return _solve(p, prior, labeled.labels, cfg)
