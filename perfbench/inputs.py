"""Seed-driven inputs for the benchmark workloads, and writers for the CLI file formats.

Everything here depends on numpy only. Each problem draws from its own
stream of `--seed`, so the same seed always gives the same files, and two
seeds give different files, so no check can pass by remembering an output.
Shapes, priors and noise levels are fixed, which keeps the work of a run
about the same on every seed; the solve cases go further and only permute
one fixed instance (see make_solve_case), and the theory population keeps
one labeled prior (see population).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STREAM_TRAIN, STREAM_SOLVE_A, STREAM_SOLVE_B, STREAM_THEORY, STREAM_EVAL, STREAM_LABELED_PRIOR = range(6)


def _gen(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total`, proportional to `weights` (largest remainder)."""
    share = total * np.asarray(weights, dtype=np.float64) / float(np.sum(weights))
    counts = np.floor(share).astype(np.int64)
    short = total - int(counts.sum())
    counts[np.argsort(-(share - counts), kind="stable")[:short]] += 1
    return counts


def _softmax_columns(logits: np.ndarray) -> np.ndarray:
    expd = np.exp(logits - logits.max(axis=0, keepdims=True))
    return expd / expd.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# train / gen-data: one run config


def train_config(seed: int) -> dict:
    """K=20 (10 seen, 10 novel), d=32, 200 per class, 15 epochs, queue 1024."""
    ds_seed, tr_seed = (int(v) for v in _gen(seed, STREAM_TRAIN).integers(0, 2**31, size=2))
    return {
        "schema_version": 1,
        "dataset": {
            "k_total": 20,
            "feature_dim": 32,
            "samples_per_class": 200,
            "novel_ratio": 0.5,
            "label_ratio": 0.5,
            "cluster_separation": 8.0,
            "seed": ds_seed,
        },
        "train": {
            "epochs": 15,
            "batch_size": 256,
            "local_views": 4,
            "queue_capacity": 1024,
            "conditional": True,
            "confidence": True,
            "threshold_policy": "hierarchical",
            "sinkhorn": {"epsilon": 0.5, "max_iters": 10, "tol": 0.0},
            "seed": tr_seed,
        },
    }


# ---------------------------------------------------------------------------
# solve: conditional assignment problems


@dataclass(frozen=True)
class SolveCase:
    """A K x N prediction matrix whose leading columns carry labels."""

    name: str
    p: np.ndarray
    prior: np.ndarray
    labels: np.ndarray
    epsilon: float
    iters: int
    tol: float


def make_solve_case(
    name: str, seed: int, stream: int, k: int, n: int, n_labeled: int, skew: float,
    clamp_factor: float, noise: float, peak: float, epsilon: float, iters: int, tol: float,
) -> SolveCase:
    """A fixed instance under a seed-drawn relabeling of classes and reordering of columns.

    The instance: prior exp(-skew i / K), labels apportioned to it, and noisy
    predictions peaked on each column's class. With clamp_factor > 1 the
    smallest class gets more labels than its whole budget N * p. The solver
    is equivariant under these permutations, so its work (iterations to
    tolerance) is the same on every seed.
    """
    base = _gen(0, stream)
    prior = np.exp(-skew * np.arange(k) / k)
    prior /= prior.sum()
    over = int(np.ceil(clamp_factor * n * prior[-1]))
    weights = prior.copy()
    weights[-1] = 0.0 if over else weights[-1]
    counts = apportion(weights, n_labeled - over)
    counts[-1] += over
    labels = base.permutation(np.repeat(np.arange(k), counts))
    residual = np.maximum(n * prior - counts, 0.0)
    truth = np.concatenate(
        [labels, base.permutation(np.repeat(np.arange(k), apportion(residual, n - n_labeled)))]
    )
    logits = noise * base.standard_normal((k, n))
    logits[truth, np.arange(n)] += peak
    p = _softmax_columns(logits)

    gen = _gen(seed, stream)
    relabel = gen.permutation(k)
    cols = np.concatenate([gen.permutation(n_labeled), n_labeled + gen.permutation(n - n_labeled)])
    p_seed = np.empty_like(p)
    p_seed[relabel] = p[:, cols]
    prior_seed = np.empty_like(prior)
    prior_seed[relabel] = prior
    return SolveCase(name, p_seed, prior_seed, relabel[labels[cols[:n_labeled]]], epsilon, iters, tol)


def solve_case_a(seed: int) -> SolveCase:
    """100 x 4096, a quarter labeled, one class over budget, to tolerance 1e-9 at eps 0.1."""
    return make_solve_case("solve-a", seed, STREAM_SOLVE_A, 100, 4096, 1024, skew=2.0,
                           clamp_factor=3.0, noise=1.0, peak=2.0, epsilon=0.1, iters=100_000,
                           tol=1e-9)


def solve_case_b(seed: int) -> SolveCase:
    """100 x 2048, sharply peaked, 100 fixed iterations at eps 0.02.

    About half the entries of p**(1/eps) underflow float64 here.
    """
    return make_solve_case("solve-b", seed, STREAM_SOLVE_B, 100, 2048, 512, skew=1.0,
                           clamp_factor=0.0, noise=3.0, peak=15.0, epsilon=0.02, iters=100,
                           tol=0.0)


# ---------------------------------------------------------------------------
# theory: a 10-class multinomial population


@dataclass(frozen=True)
class Population:
    prior_labeled: np.ndarray
    prior_unlabeled: np.ndarray
    n_labeled: int
    n_unlabeled: int
    trials: int
    mc_seed: int


def ordering_margins(pl: np.ndarray, pu: np.ndarray, nl: int, nu: int) -> tuple[float, float]:
    """The two sides of the ECS ordering condition; each must exceed 1."""
    n = nl + nu
    p = (nl * pl + nu * pu) / n
    r_i = nl * pl / n
    r = r_i.sum()
    root = np.sqrt(nu)
    return (root * float(np.abs(r_i - r * pu)[pl > 0].min()),
            root * float((r * p)[pu > 0].min()))


def population(seed: int) -> Population:
    """Dirichlet(5) labeled and unlabeled priors, 400 + 1600 samples, 500 000 trials.

    The labeled prior is one fixed draw, the same on every seed: the Monte
    Carlo draws labeled counts with numpy's multinomial, whose cost depends on
    that prior (with a drawn one it ranged over 30 % between seeds). The seed
    draws the unlabeled prior and the Monte Carlo seed. Unlabeled priors whose
    ordering-condition sides lie within 1 % of 1 are redrawn, so recomputing
    the condition cannot flip on rounding.
    """
    pl = _gen(0, STREAM_LABELED_PRIOR).dirichlet(np.full(10, 5.0))
    gen = _gen(seed, STREAM_THEORY)
    while True:
        pu = gen.dirichlet(np.full(10, 5.0))
        if min(abs(m - 1.0) for m in ordering_margins(pl, pu, 400, 1600)) > 0.01:
            break
    return Population(pl, pu, 400, 1600, 500_000, int(gen.integers(0, 2**31)))


# ---------------------------------------------------------------------------
# eval: label files with a known answer


@dataclass(frozen=True)
class EvalCase:
    """Predictions that are a relabeling of the truth with a known share corrupted."""

    pred: np.ndarray
    truth: np.ndarray
    k: int
    seen: tuple[int, ...]
    expected: dict


def eval_case(seed: int, k: int = 8, n_seen: int = 4, n: int = 20_000) -> EvalCase:
    """Seen classes keep their index, novel ones are permuted; 5-20 % per class corrupted.

    A corrupted sample moves to another cluster than its class's own, so every
    class keeps at least 80 % of its samples on one cluster. That cluster is
    then the largest entry of the class's column of the contingency table,
    which makes the relabeling the unique best matching and fixes the answer.
    """
    gen = _gen(seed, STREAM_EVAL)
    truth = gen.integers(0, k, size=n)
    sigma = np.arange(k)
    sigma[n_seen:] = n_seen + gen.permutation(k - n_seen)
    pred = sigma[truth]
    kept = np.zeros(k, dtype=np.int64)
    sizes = np.bincount(truth, minlength=k)
    for c in range(k):
        members = np.flatnonzero(truth == c)
        m = int(round(gen.uniform(0.05, 0.2) * members.size))
        moved = gen.choice(members, size=m, replace=False)
        pred[moved] = (sigma[c] + gen.integers(1, k, size=m)) % k
        kept[c] = members.size - m
    seen = tuple(range(n_seen))
    seen_acc = int(kept[:n_seen].sum()) / int(sizes[:n_seen].sum())
    mapping = np.empty(k, dtype=np.int64)
    mapping[sigma] = np.arange(k)
    expected = {
        "schema_version": 1,
        "seen": seen_acc,
        "novel": int(kept[n_seen:].sum()) / int(sizes[n_seen:].sum()),
        "all": int(kept.sum()) / n,
        "seen_joint": seen_acc,
        "mapping": [int(c) for c in mapping],
    }
    return EvalCase(pred, truth, k, seen, expected)


# ---------------------------------------------------------------------------
# writers for the formats the CLI reads


def write_matrix(path: Path, data: np.ndarray) -> None:
    k, n = data.shape
    lines = [f"# k={k} n={n} layout=class-rows"]
    lines += [",".join(repr(float(v)) for v in row) for row in data]
    Path(path).write_text("\n".join(lines) + "\n")


def write_prior(path: Path, prior: np.ndarray) -> None:
    body = ",".join(repr(float(v)) for v in prior)
    Path(path).write_text(f"# k={prior.size} layout=prior\n{body}\n")


def write_labels(path: Path, labels: np.ndarray) -> None:
    body = ",".join(str(int(v)) for v in labels)
    Path(path).write_text(f"# n={labels.size} layout=labels indexing=0-based\n{body}\n")


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def vector_arg(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in values)
