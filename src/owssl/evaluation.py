"""Hungarian-matched clustering accuracy, distribution bias, and class-count estimation."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .core import (
    ClassPrior,
    IndexOutOfRange,
    NonFiniteInput,
    OwsslError,
    PartitionSpec,
    Rng,
    ShapeMismatch,
)


class EmptySubset(OwsslError):
    pass


def _lsap(cost: np.ndarray) -> list[int]:
    """Column assigned to each row of a finite square cost matrix, by shortest augmenting paths.

    A line-for-line port of scipy's `rectangular_lsap` for square input,
    keeping its float expression order and its tie rules, so it picks the
    same assignment as `scipy.optimize.linear_sum_assignment` on every input.
    """
    c = cost.tolist()
    n = len(c)
    u = [0.0] * n  # row duals
    v = [0.0] * n  # column duals
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        # Dijkstra over reduced costs from cur_row until it reaches a free column
        spc = [math.inf] * n  # shortest path cost to each column
        # reverse order: a constant cost matrix is matched to the identity
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [], []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            rows_seen.append(i)
            ci, ui = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                # scipy's order, ((min_val + c) - u) - v: regrouping moves near-ties
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                else:
                    r = spc[j]
                # among equal costs an unassigned column wins: it ends the path
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest, index = r, it
            min_val = lowest
            if min_val == math.inf:
                raise NonFiniteInput("cost matrix entries too large to match")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        # flip the path's matched and unmatched edges back to cur_row
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def hungarian(cost) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect assignment on a square cost matrix.

    Returns (sigma, total) where sigma[i] is the column assigned to row i
    and total = sum_i cost[i, sigma[i]] is minimal over all permutations.

    The solver is the shortest augmenting path method of Crouse (2016), "On
    implementing 2D rectangular assignment algorithms" (IEEE TAES), as in
    scipy's `linear_sum_assignment`, in pure Python. It shares scipy's tie
    rules (columns scanned in reverse order, an unassigned column wins a
    tied shortest path), so it returns scipy's sigma even on tied costs. It
    takes O(K^3) Python steps. On a 2-core x86_64 VM (Python 3.11.7) one call
    took 0.1-0.2 ms at K=20, 2-7 ms at K=100 and 13-90 ms at K=300, from a
    near-permutation count table to uniform random costs; scipy's compiled
    solver took 0.005 ms, 0.1-0.4 ms and 0.6-3 ms.
    """
    mat = np.asarray(cost, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ShapeMismatch(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NonFiniteInput("cost matrix contains non-finite entries")
    sigma = np.array(_lsap(mat), dtype=np.int64)
    return sigma, float(mat[np.arange(mat.shape[0]), sigma].sum())


def _as_index_vector(values, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=np.int64)
    if vec.ndim != 1:
        raise ShapeMismatch(f"{name} must be a 1-D index vector")
    return vec


def _count_table(pred: np.ndarray, truth: np.ndarray, size: int) -> np.ndarray:
    """table[p, t]: the number of samples predicted p with truth t, as exact float counts."""
    return np.bincount(pred * size + truth, minlength=size * size).reshape(size, size).astype(np.float64)


def _best_match(table: np.ndarray) -> tuple[np.ndarray, float]:
    """The relabelling of the prediction rows that agrees with the most samples, and that count.

    The maximization runs through the minimizing solver on negated counts.
    """
    mapping, neg_total = hungarian(-table)
    return mapping, -neg_total


def clustering_report(pred, truth, partition: PartitionSpec) -> dict:
    """Seen, novel and all-class accuracies plus the joint mapping, from one count table.

    `seen` is raw index agreement on samples of seen classes (no matching).
    `all` and `mapping` come from the Hungarian matching of the whole table;
    `novel` from the matching of the table restricted to novel-class samples,
    which is the whole table with its seen-class columns zeroed. `seen_joint`
    re-scores the seen subset under the joint mapping, since either reading
    of the seen metric is defensible. Every count is an exact integer, so
    each accuracy is one correctly rounded division.
    """
    pred = _as_index_vector(pred, "pred")
    truth = _as_index_vector(truth, "truth")
    if pred.shape != truth.shape:
        raise ShapeMismatch("pred and truth must have equal length")
    if pred.size == 0:
        raise EmptySubset("no samples to match")
    k = partition.k_total
    if pred.min() < 0 or truth.min() < 0 or max(pred.max(), truth.max()) >= k:
        raise IndexOutOfRange("cluster/class index outside 0..size-1")
    table = _count_table(pred, truth, k)
    seen = partition.is_seen
    n_seen = table[:, seen].sum()
    if n_seen == 0:
        raise EmptySubset("no samples from seen classes")
    if n_seen == pred.size:
        raise EmptySubset("no samples from novel classes")
    mapping, hits = _best_match(table)
    _, novel_hits = _best_match(np.where(seen, 0.0, table))  # seen-class columns zeroed
    matched = table[np.arange(k), mapping]  # samples whose truth is their prediction's match
    return {
        "seen": float(table.diagonal()[seen].sum() / n_seen),
        "novel": float(novel_hits / (pred.size - n_seen)),
        "all": hits / pred.size,
        "seen_joint": float(matched[seen[mapping]].sum() / n_seen),
        "mapping": [int(c) for c in mapping],
    }


def manhattan_bias(dist_a: ClassPrior, dist_b: ClassPrior) -> float:
    """Sum of absolute per-class probability differences, in [0, 2]."""
    if dist_a.k != dist_b.k:
        raise ShapeMismatch(f"distributions have {dist_a.k} vs {dist_b.k} classes")
    return float(np.abs(dist_a.probs - dist_b.probs).sum())


def _plus_plus_seeds(points: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[gen.integers(n)]
    dist_sq = np.square(points - centroids[0]).sum(axis=1)
    for j in range(1, k):
        total = dist_sq.sum()
        if total <= 0:
            # all remaining mass on existing centroids; reuse any point
            centroids[j] = points[gen.integers(n)]
            continue
        idx = gen.choice(n, p=dist_sq / total)
        centroids[j] = points[idx]
        dist_sq = np.minimum(dist_sq, np.square(points - centroids[j]).sum(axis=1))
    return centroids


_RESTARTS = 10  # k-means seedings per call


def _lloyd(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    # at most 100 Lloyd steps, stopping once no centroid moves by 1e-6
    k = centroids.shape[0]
    sq_norms = np.square(points).sum(axis=1)

    def sq_dists(centroids):
        return sq_norms[:, None] - 2.0 * points @ centroids.T + np.square(centroids).sum(axis=1)[None, :]

    for _ in range(100):
        dists = sq_dists(centroids)
        labels = dists.argmin(axis=1)
        # every centroid's members summed row by row in index order: for D >= 2
        # the bits of points[labels == j].mean(axis=0), without a loop over j
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in points.T], axis=1)
        new_centroids = sums / np.maximum(counts, 1)[:, None]
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # relocate empty centroids to distinct worst-fit points
            order = np.argsort(-dists[np.arange(points.shape[0]), labels])
            for j, worst in zip(empties, order):
                new_centroids[j] = points[worst]
        shift = float(np.sqrt(np.square(new_centroids - centroids).sum(axis=1)).max())
        centroids = new_centroids
        if shift < 1e-6:
            break
    dists = sq_dists(centroids)
    labels = dists.argmin(axis=1)
    inertia = float(np.maximum(dists[np.arange(points.shape[0]), labels], 0.0).sum())
    return centroids, labels, inertia


def kmeans(points, k: int, rng: Rng) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations with distance-squared seeding and multiple restarts.

    Each restart draws its seeds from an independent derived stream; the
    restart with the lowest within-cluster sum of squares wins.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ShapeMismatch("points must be a non-empty M x D matrix")
    if not (1 <= k <= pts.shape[0]):
        raise ValueError(f"k={k} must lie in 1..{pts.shape[0]}")
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for restart in range(_RESTARTS):
        gen = rng.derive(restart).generator()
        seeds = _plus_plus_seeds(pts, k, gen)
        centroids, labels, inertia = _lloyd(pts, seeds)
        if best is None or inertia < best[2]:
            best = (centroids, labels, inertia)
    return best


def estimate_num_classes(
    features,
    labeled_indices,
    labeled_labels,
    k_candidates: Iterable[int],
    rng: Rng,
) -> int:
    """Pick the cluster count whose clustering best matches the labeled subset.

    Runs k-means on all features for every candidate k and scores the
    number of labeled samples its Hungarian matching agrees with; ties break
    toward the smaller k.
    """
    pts = np.asarray(features, dtype=np.float64)
    idx = _as_index_vector(labeled_indices, "labeled_indices")
    lab = _as_index_vector(labeled_labels, "labeled_labels")
    if idx.shape != lab.shape:
        raise ShapeMismatch("labeled indices and labels must have equal length")
    if idx.size == 0:
        raise EmptySubset("need at least one labeled sample")
    if idx.min() < 0 or idx.max() >= pts.shape[0]:
        raise IndexOutOfRange("labeled index outside the feature matrix")
    if lab.min() < 0:
        raise IndexOutOfRange("labeled class index is negative")
    candidates = sorted(set(int(k) for k in k_candidates))
    if not candidates:
        raise ValueError("k_candidates is empty")
    best_k = candidates[0]
    best_hits = -1.0
    for pos, k in enumerate(candidates):
        _, labels, _ = kmeans(pts, k, rng.derive(pos))
        size = max(k, int(lab.max()) + 1)
        _, hits = _best_match(_count_table(labels[idx], lab, size))
        if hits > best_hits:
            best_hits = hits
            best_k = k
    return best_k
