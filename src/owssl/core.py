"""Shared domain types, probability validation, and deterministic RNG streams."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

# Probabilities are 64-bit floats everywhere.  External inputs are accepted
# within 1e-6 of normalization; internally constructed vectors must hold 1e-9.
EXTERNAL_TOL = 1e-6
INTERNAL_TOL = 1e-9
# Floor applied to probabilities before any log.
PROB_FLOOR = 1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class OwsslError(Exception):
    """Base class for toolkit errors."""


class ShapeMismatch(OwsslError):
    pass


class NonFiniteInput(OwsslError):
    pass


class NegativeEntry(OwsslError):
    def __init__(self, row: int, col: int):
        self.row = int(row)
        self.col = int(col)
        super().__init__(f"negative entry at ({self.row}, {self.col})")


class ColumnNotNormalized(OwsslError):
    def __init__(self, col: int, total: float):
        self.col = int(col)
        self.total = float(total)
        super().__init__(f"column {self.col} sums to {self.total!r}, expected 1")


class IndexOutOfRange(OwsslError):
    pass


def _as_float_vector(values, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.size < 1:
        raise ShapeMismatch(f"{name} must be a non-empty 1-D vector, got shape {vec.shape}")
    return vec


@dataclass(frozen=True)
class ClassPrior:
    """Length-K class probability vector; entries >= 0 and summing to 1 (1e-9)."""

    probs: np.ndarray

    def __post_init__(self):
        vec = _as_float_vector(self.probs, "prior").copy()
        if np.any(vec < 0):
            i = int(np.argmax(vec < 0))
            raise NegativeEntry(i, 0)
        if not np.all(np.isfinite(vec)):
            raise NonFiniteInput("prior contains non-finite entries")
        total = float(vec.sum())
        if abs(total - 1.0) > INTERNAL_TOL:
            raise ValueError(f"prior sums to {total!r}, expected 1 within {INTERNAL_TOL}")
        vec.flags.writeable = False
        object.__setattr__(self, "probs", vec)

    @property
    def k(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, k: int) -> "ClassPrior":
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def normalized(cls, values) -> "ClassPrior":
        """Build a prior from an unnormalized non-negative vector (external path)."""
        vec = _as_float_vector(values, "prior")
        total = float(vec.sum())
        if total <= 0:
            raise ValueError("cannot normalize a vector with non-positive mass")
        return cls(vec / total)


@dataclass(frozen=True)
class ProbMatrix:
    """K x N column-stochastic matrix; each column is a distribution over K classes."""

    data: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.data, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ShapeMismatch(f"expected a K x N matrix with K,N >= 1, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise NonFiniteInput("matrix contains non-finite entries")
        neg = mat < 0
        if neg.any():
            row, col = np.argwhere(neg)[0]
            raise NegativeEntry(row, col)
        sums = mat.sum(axis=0)
        bad = np.abs(sums - 1.0) > EXTERNAL_TOL
        if bad.any():
            col = int(np.argmax(bad))
            raise ColumnNotNormalized(col, sums[col])
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "data", mat)

    @classmethod
    def _trusted(cls, data: np.ndarray) -> "ProbMatrix":
        # a float64 K x N array of column distributions that the toolkit
        # computed itself: frozen in place, neither checked nor copied
        data.flags.writeable = False
        pm = object.__new__(cls)
        object.__setattr__(pm, "data", data)
        return pm

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class PartitionSpec:
    """Seen/novel class split plus labeled/unlabeled sample counts."""

    k_total: int
    seen: tuple[int, ...]
    novel: tuple[int, ...]
    n_labeled: int
    n_unlabeled: int

    def __post_init__(self):
        seen = tuple(int(c) for c in self.seen)
        novel = tuple(int(c) for c in self.novel)
        object.__setattr__(self, "seen", seen)
        object.__setattr__(self, "novel", novel)
        if set(seen) & set(novel):
            raise ValueError("seen and novel class sets overlap")
        if set(seen) | set(novel) != set(range(self.k_total)):
            raise ValueError("seen and novel sets must partition 0..k_total-1")
        if self.n_labeled < 0 or self.n_unlabeled < 1:
            raise ValueError("need n_labeled >= 0 and n_unlabeled >= 1")

    @cached_property
    def is_seen(self) -> np.ndarray:
        mask = np.zeros(self.k_total, dtype=bool)
        mask[list(self.seen)] = True
        mask.flags.writeable = False
        return mask


@dataclass(frozen=True)
class LabeledBlock:
    """Ground-truth class indices for the labeled samples, in column order."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ShapeMismatch("labels must be a 1-D vector of class indices")
        if labels.size and labels.min() < 0:
            raise IndexOutOfRange("negative class index in labeled block")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size


def _mix64(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Rng:
    """Counter-based random stream keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce identical draw sequences;
    `derive` yields statistically independent sibling streams, so each
    consumer (a Monte Carlo chunk, a k-means restart, a training noise
    source) draws from its own stream, whatever the others drew.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *ids: int) -> "Rng":
        stream = self.stream
        for i in ids:
            stream = _mix64(stream ^ ((int(i) + 1) * _GOLDEN & _MASK64))
        return Rng(self.seed, stream)


def softmax(logits) -> np.ndarray:
    """Shift-invariant softmax along axis 0: of a logit vector, or of each K x N matrix column."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[0] < 1:
        raise ShapeMismatch(f"logits must be a non-empty vector or K x N matrix, not {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NonFiniteInput("logits contain non-finite entries")
    expd = np.exp(z - z.max(axis=0))
    return expd / expd.sum(axis=0)
