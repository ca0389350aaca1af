"""Independent reference implementations used only to check the package.

Kept deliberately separate from the library code paths: extended-precision
multiplicative scaling instead of log-domain float64, factorial brute force
instead of the assignment solver, exhaustive enumeration instead of the
entropic relaxation, finite differences instead of the analytic gradient,
exact rational sums instead of numpy's floating-point reductions, a serial
loop instead of the Monte Carlo thread pool.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

LONG = np.longdouble


def sinkhorn_extended(
    p: np.ndarray,
    row_targets: np.ndarray,
    epsilon: float,
    iters: int = 10_000,
    tol: float = 0.0,
) -> np.ndarray:
    """Alternate exact scaling in extended precision; returns a float64 plan.

    Column targets are all ones. Zero row targets are honored (their scaling
    factors are identically zero). With tol=0 runs exactly `iters` row+column
    update pairs, mirroring a fixed-iteration solver run.
    """
    kernel = np.clip(np.asarray(p, dtype=LONG), LONG(1e-12), None) ** (LONG(1) / LONG(epsilon))
    a = np.asarray(row_targets, dtype=LONG)
    b = np.ones(kernel.shape[1], dtype=LONG)
    u = np.ones(kernel.shape[0], dtype=LONG)
    v = np.ones(kernel.shape[1], dtype=LONG)
    for _ in range(iters):
        u = np.where(a > 0, a / (kernel @ v), LONG(0))
        v = b / (kernel.T @ u)
        if tol > 0:
            plan = u[:, None] * kernel * v[None, :]
            if float(np.abs(plan.sum(axis=1) - a).sum()) <= tol:
                break
    plan = u[:, None] * kernel * v[None, :]
    return np.asarray(plan, dtype=np.float64)


def lp_assignment_values(log_p: np.ndarray, row_counts) -> list[float]:
    """All values of sum_i log_p[c_i, i] over assignments with exact class counts."""
    k, n = log_p.shape
    target = list(int(c) for c in row_counts)
    values = []
    for assign in itertools.product(range(k), repeat=n):
        if np.bincount(assign, minlength=k).tolist() != target:
            continue
        values.append(float(sum(log_p[c, i] for i, c in enumerate(assign))))
    values.sort(reverse=True)
    return values


def brute_force_assignment(cost: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Minimum-cost permutation by exhaustive enumeration (n <= 8 or so)."""
    n = cost.shape[0]
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(n)):
        total = float(sum(cost[i, perm[i]] for i in range(n)))
        if total < best_cost:
            best_cost = total
            best_perm = perm
    return best_perm, best_cost


def brute_force_match_accuracy(pred: np.ndarray, truth: np.ndarray, size: int) -> float:
    """Best relabeling agreement by enumerating all permutations of size indices."""
    table = np.zeros((size, size))
    for p, t in zip(pred, truth):
        table[p, t] += 1
    best = max(
        sum(table[i, perm[i]] for i in range(size))
        for perm in itertools.permutations(range(size))
    )
    return best / pred.size


def report_per_subset(pred: np.ndarray, truth: np.ndarray, is_seen: np.ndarray, match) -> dict:
    """A clustering report with every field computed on its own subset.

    Each matched accuracy builds an `np.add.at` count table of its subset at
    full size and matches it alone through `match`, a minimizing assignment
    solver returning (sigma, total); `seen` and `seen_joint` are boolean
    means over the seen subset. Both subsets must be non-empty.
    """
    size = is_seen.size

    def matched(p, t):
        table = np.zeros((size, size))
        np.add.at(table, (p, t), 1.0)
        sigma, neg_total = match(-table)
        return sigma, -neg_total / p.size

    keep = is_seen[truth]
    mapping, acc_all = matched(pred, truth)
    _, acc_novel = matched(pred[~keep], truth[~keep])
    return {
        "seen": float((pred[keep] == truth[keep]).mean()),
        "novel": acc_novel,
        "all": acc_all,
        "seen_joint": float((mapping[pred][keep] == truth[keep]).mean()),
        "mapping": [int(c) for c in mapping],
    }


def chi_square_by_class(labeled_counts, budget, expected) -> list[float]:
    """Each trial's float64 chi-square, added class by class in index order.

    Row t of labeled_counts gives the conditional estimate budget - counts;
    its statistic sum_j (estimate_j - expected_j)^2 / expected_j is formed in
    float64, one term at a time.
    """
    chis = []
    for counts in np.asarray(labeled_counts).tolist():
        chi = 0.0
        for b, c, e in zip(budget.tolist(), counts, expected.tolist()):
            d = (b - c) - e
            chi += d * d / e
        chis.append(chi)
    return chis


def exact_chi_square_sum(labeled_counts, budget, expected) -> Fraction:
    """Exact rational sum over trials of each trial's float64 chi-square."""
    return sum(map(Fraction, chi_square_by_class(labeled_counts, budget, expected)), Fraction(0))


def monte_carlo_ecs_serial(spec, trials: int, rng):
    """`theory.monte_carlo_ecs` as one loop over its chunks, in chunk order.

    The package computes the chunks on a thread pool and adds their partial
    sums in chunk order on the calling thread; this serial loop adds the
    same partial sums in the same order, so every report field must match
    it bit for bit, whatever the number of workers.
    """
    from owssl.theory import (
        EcsReport, chi_square_statistic, ecs_con_closed, ecs_ordering_condition,
        ecs_uncon_closed, estimator_uncon,
    )

    chunk = 20_000
    pu = spec.prior_unlabeled.probs
    live = pu > 0
    expected_u = spec.n_unlabeled * pu[live]
    budget = spec.n_total * spec.prior.probs
    chi_sum = 0.0
    chi_sq_sum = 0.0
    mu_sum = np.zeros(spec.k)
    mu_sq_sum = np.zeros(spec.k)
    for index, start in enumerate(range(0, trials, chunk)):
        m = min(chunk, trials - start)
        gen = rng.derive(index).generator()
        if spec.n_labeled == 0:
            counts = np.zeros((m, spec.k))
        else:
            counts = gen.multinomial(spec.n_labeled, spec.prior_labeled.probs, size=m)
        a_con = budget[None, :] - counts
        chi = chi_square_statistic(a_con[:, live], expected_u)
        mu = a_con / spec.n_unlabeled
        chi_sum += math.fsum(chi.tolist())
        chi_sq_sum += math.fsum(np.square(chi).tolist())
        mu_sum += mu.sum(axis=0)
        mu_sq_sum += np.square(mu).sum(axis=0)

    ecs_con_emp = chi_sum / trials
    ecs_con_se = 0.0
    if trials > 1:
        var = max((chi_sq_sum - trials * ecs_con_emp * ecs_con_emp) / (trials - 1), 0.0)
        ecs_con_se = math.sqrt(var / trials)
    mu_mean = mu_sum / trials
    if trials > 1:
        mu_var = np.maximum((mu_sq_sum - trials * np.square(mu_mean)) / (trials - 1), 0.0)
        mu_se = np.sqrt(mu_var / trials)
    else:
        mu_se = np.zeros(spec.k)
    a_uncon, _ = estimator_uncon(spec)
    return EcsReport(
        ecs_uncon_closed=ecs_uncon_closed(spec),
        ecs_con_closed=ecs_con_closed(spec),
        ecs_uncon_empirical=chi_square_statistic(a_uncon[live], expected_u),
        ecs_uncon_se=0.0,
        ecs_con_empirical=ecs_con_emp,
        ecs_con_se=ecs_con_se,
        bias_uncon=spec.prior.probs - pu,
        bias_con=mu_mean - pu,
        bias_con_se=mu_se,
        ordering_condition=ecs_ordering_condition(spec),
        trials=trials,
    )


def lse_two_temporaries(arr: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp along `axis` with fresh temporaries, tolerating -inf entries.

    The formula the solver's buffer-reusing `_lse` must match bit for bit.
    """
    peak = np.max(arr, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(arr - safe), axis=axis)) + np.squeeze(safe, axis=axis)


def log_domain_plan(
    p_block: np.ndarray, row_targets: np.ndarray, epsilon: float, max_iters: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Log-domain Sinkhorn plan on `lse_two_temporaries`, with no floor under exp.

    The solver's update order and stopping rule, written with fresh
    temporaries: the plan the solver's buffer-reusing, exp-floored iteration
    must match bit for bit. Returns the plan, the row and column potentials
    f, g and the number of update pairs.
    """
    k, n = p_block.shape
    log_kernel = np.log(np.clip(p_block, 1e-12, None)) / epsilon
    with np.errstate(divide="ignore"):
        log_rows = np.log(row_targets)
    f = np.zeros(k)
    g = np.zeros(n)
    iters = 0
    while iters < max_iters:
        row_lse = lse_two_temporaries(log_kernel + g[None, :], 1)
        if iters > 0 and tol > 0 and np.abs(np.exp(f + row_lse) - row_targets).sum() <= tol:
            break
        f = log_rows - row_lse
        g = -lse_two_temporaries(log_kernel + f[:, None], 0)
        iters += 1
    return np.exp(log_kernel + f[:, None] + g[None, :]), f, g, iters


def central_difference_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        up = x.copy()
        down = x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


def lloyd_per_centroid(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations that average each centroid's members with its own mean() call.

    The same steps, stopping rule and empty-cluster relocation as
    `evaluation._lloyd`, which forms every centroid's member sum at once.
    """
    sq_norms = np.square(points).sum(axis=1)
    for _ in range(100):
        dists = (
            sq_norms[:, None]
            - 2.0 * points @ centroids.T
            + np.square(centroids).sum(axis=1)[None, :]
        )
        labels = dists.argmin(axis=1)
        new_centroids = centroids.copy()
        empties = []
        for j in range(centroids.shape[0]):
            members = labels == j
            if members.any():
                new_centroids[j] = points[members].mean(axis=0)
            else:
                empties.append(j)
        if empties:
            order = np.argsort(-dists[np.arange(points.shape[0]), labels])
            for j, worst in zip(empties, order):
                new_centroids[j] = points[worst]
        shift = float(np.sqrt(np.square(new_centroids - centroids).sum(axis=1)).max())
        centroids = new_centroids
        if shift < 1e-6:
            break
    dists = (
        sq_norms[:, None]
        - 2.0 * points @ centroids.T
        + np.square(centroids).sum(axis=1)[None, :]
    )
    labels = dists.argmin(axis=1)
    inertia = float(np.maximum(dists[np.arange(points.shape[0]), labels], 0.0).sum())
    return centroids, labels, inertia
