"""Shared domain types, probability validation, and deterministic RNG streams."""

from __future__ import annotations

import os
import threading
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
        if (mat < 0).any():
            row, col = np.argwhere(mat < 0)[0]
            raise NegativeEntry(row, col)
        sums = mat.sum(axis=0)
        bad = np.abs(sums - 1.0) > EXTERNAL_TOL
        if bad.any():
            col = int(np.argmax(bad))
            raise ColumnNotNormalized(col, sums[col])
        # a frozen array that owns its data is kept; what a caller could still write to is copied
        if mat.flags.writeable or not mat.flags.owndata:
            mat = mat.copy()
            mat.flags.writeable = False
        object.__setattr__(self, "data", mat)

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
        labels = np.array(self.labels, dtype=np.int64)  # a copy: the caller keeps theirs
        if labels.ndim != 1:
            raise ShapeMismatch("labels must be a 1-D vector of class indices")
        if labels.size and labels.min() < 0:
            raise IndexOutOfRange("negative class index in labeled block")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size


def _trusted(cls, **fields):
    # a frozen `cls` of values the toolkit computed: not checked, not copied, arrays frozen in place
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


class _Helpers:
    # `count` threads that run tasks beside the caller, each under the numpy
    # error state and ufunc buffer size (both per thread) the caller has when
    # it builds them, until `close`; with none, nothing starts or is imported

    def __init__(self, count: int):
        self._inboxes, self._threads = [], []
        if count < 1:
            return
        # imported here: `import owssl.cli`, which every command pays, does not need it
        from queue import SimpleQueue

        state = np.geterr(), np.getbufsize()
        self._done = SimpleQueue()
        self._inboxes = [SimpleQueue() for _ in range(count)]
        try:
            for inbox in self._inboxes:
                thread = threading.Thread(target=self._serve, args=(inbox, *state))
                thread.start()
                self._threads.append(thread)
        except BaseException:
            self.close()
            raise

    def _serve(self, inbox, err, bufsize) -> None:
        np.seterr(**err)
        np.setbufsize(bufsize)
        for drain, w in iter(inbox.get, None):
            try:
                drain(w)
            except BaseException as error:  # raised again on the caller
                self._done.put(error)
            else:
                self._done.put(None)

    def run(self, count: int, task, work) -> None:
        # task(i, work[j]) for each i in range(count), taken once by one thread
        # j: the caller is thread 0, the helpers 1 on. Threads take the next i
        # when done with one; after an error they take no more. Returns when
        # all are done, raising the caller's error or else the first helper's.
        indices = iter(range(count))  # shared: next() on a range iterator is atomic

        def drain(w):
            try:
                for i in indices:
                    task(i, w)
            except BaseException:
                for _ in indices:
                    pass
                raise

        handed = list(zip(self._inboxes, work[1:]))
        for inbox, w in handed:
            inbox.put((drain, w))
        drain(work[0])
        for error in [self._done.get() for _ in handed]:
            if error is not None:
                raise error

    def close(self) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join()


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
    expd = z - z.max(axis=0)
    np.exp(expd, out=expd)
    expd /= expd.sum(axis=0)
    return expd
