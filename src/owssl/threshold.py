"""EMA learning-status tracking and hierarchical confidence thresholds.

Classes are grouped into seen and novel sets whose learning paces differ;
each group tracks its own mean confidence (eta) and every class its own
(zeta). The threshold for a class is its group's eta scaled by the ratio
of the class zeta to the group's best zeta, so weak classes inside a group
get proportionally lower cutoffs while the two groups stay isolated.
`make_pseudo_batch` applies any per-class threshold vector, this rule's or
a constant one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OwsslError, PartitionSpec, ShapeMismatch, _trusted


class DegenerateGroup(OwsslError):
    pass


@dataclass(frozen=True)
class ThresholdState:
    """Per-class and per-group learning-status estimates tracked by EMA."""

    zeta: np.ndarray
    eta_seen: float
    eta_novel: float
    momentum: float
    partition: PartitionSpec

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=np.float64)
        if zeta.shape != (self.partition.k_total,):
            raise ShapeMismatch(f"zeta shape {zeta.shape} does not match K={self.partition.k_total}")
        if np.any(zeta < 0) or np.any(zeta > 1):
            raise ValueError("zeta entries must lie in [0, 1]")
        if not (0 <= self.eta_seen <= 1 and 0 <= self.eta_novel <= 1):
            raise ValueError("eta values must lie in [0, 1]")
        if not (0.0 <= self.momentum <= 1.0):
            raise ValueError("momentum must lie in [0, 1]")
        zeta = zeta.copy()
        zeta.flags.writeable = False
        object.__setattr__(self, "zeta", zeta)

    @classmethod
    def initial(cls, partition: PartitionSpec) -> "ThresholdState":
        # uniform-confidence start: 1/K for every class and group
        start = 1.0 / partition.k_total
        return cls(
            zeta=np.full(partition.k_total, start),
            eta_seen=start,
            eta_novel=start,
            momentum=0.9,
            partition=partition,
        )

    def to_dict(self) -> dict:
        return {
            "zeta": [float(z) for z in self.zeta],
            "eta_seen": float(self.eta_seen),
            "eta_novel": float(self.eta_novel),
            "momentum": float(self.momentum),
        }


@dataclass(frozen=True)
class PseudoBatch:
    """Confidence-filtered pseudo-labels: mask[i] is true iff conf[i] > tau(label[i])."""

    mask: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)  # copies: the caller keeps theirs
        labels = np.array(self.labels, dtype=np.int64)
        conf = np.array(self.confidences, dtype=np.float64)
        if not (mask.shape == labels.shape == conf.shape) or mask.ndim != 1:
            raise ShapeMismatch("mask, labels, and confidences must be equal-length vectors")
        for arr, name in ((mask, "mask"), (labels, "labels"), (conf, "confidences")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def retained_fraction(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0


def update_state(state: ThresholdState, probs: np.ndarray) -> ThresholdState:
    """Fold a K x B batch of predictions into the EMA learning statuses.

    Batch statistics are means of the top confidence over samples whose
    argmax falls in each class/group; classes or groups that receive no
    samples keep their previous value unchanged.
    """
    k = state.partition.k_total
    if probs.shape[0] != k:
        raise ShapeMismatch(f"matrix has {probs.shape[0]} rows, partition expects {k}")
    conf = probs.max(axis=0)
    pred = probs.argmax(axis=0)
    m = state.momentum

    counts = np.bincount(pred, minlength=k)
    sums = np.bincount(pred, weights=conf, minlength=k)
    hit = counts > 0
    batch_zeta = np.where(hit, sums / np.maximum(counts, 1), 0.0)
    zeta = np.where(hit, m * state.zeta + (1.0 - m) * batch_zeta, state.zeta)

    seen_samples = state.partition.is_seen[pred]
    eta_seen = state.eta_seen
    if seen_samples.any():
        eta_seen = m * eta_seen + (1.0 - m) * float(conf[seen_samples].mean())
    eta_novel = state.eta_novel
    if (~seen_samples).any():
        eta_novel = m * eta_novel + (1.0 - m) * float(conf[~seen_samples].mean())

    return _trusted(ThresholdState, zeta=zeta, eta_seen=eta_seen, eta_novel=eta_novel,
                    momentum=m, partition=state.partition)


def thresholds(state: ThresholdState) -> np.ndarray:
    """Per-class thresholds: (zeta_c / max zeta in c's group) * the group's eta."""
    part = state.partition
    tau = np.zeros(part.k_total)
    for members, eta in ((part.seen, state.eta_seen), (part.novel, state.eta_novel)):
        if members:
            idx = list(members)
            zeta = state.zeta[idx]
            peak = float(zeta.max())
            if peak <= 0:
                raise DegenerateGroup("every zeta in the group is zero")
            tau[idx] = zeta / peak * eta
    return tau


def make_pseudo_batch(probs: np.ndarray, tau: np.ndarray) -> PseudoBatch:
    """Argmax pseudo-labels of a K x B batch (ties to the lowest index), kept where conf > tau[label]."""
    if probs.ndim != 2 or probs.shape[0] != tau.size:
        raise ShapeMismatch(f"need a K x B matrix with K = {tau.size} thresholds, got shape {probs.shape}")
    conf = probs.max(axis=0)
    labels = probs.argmax(axis=0)
    return _trusted(PseudoBatch, mask=conf > tau[labels], labels=labels, confidences=conf)
