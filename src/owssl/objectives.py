"""The training loss terms; each returns its value and its gradient with respect to the logits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    PROB_FLOOR,
    NonFiniteInput,
    OwsslError,
    ShapeMismatch,
    softmax,
    _as_float_vector,
)


class NonFiniteComponent(OwsslError):
    pass


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term losses; `total` is their exact sum."""

    sup: float
    cls: float
    conf: float
    total: float
    retained_fraction: float = 0.0


def cross_entropy(target, pred) -> float:
    """H(t, p) = -sum t_i log p_i with predictions floored at 1e-12."""
    t, p = _as_float_vector(target, "target"), _as_float_vector(pred, "pred")
    return float(_colwise_cross_entropy(t, p))


def _colwise_cross_entropy(targets: np.ndarray, preds: np.ndarray) -> np.ndarray:
    if targets.shape != preds.shape:
        raise ShapeMismatch(f"target shape {targets.shape} != pred shape {preds.shape}")
    return -(targets * np.log(np.maximum(preds, PROB_FLOOR))).sum(axis=0)


def supervised_loss(labels, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of K x B predictions against one-hot labels, and its gradient.

    An empty label vector gives (0.0, zeros).
    """
    idx = np.asarray(labels, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatch("labels must be a 1-D vector of class indices")
    if idx.size == 0:
        return 0.0, np.zeros_like(probs)
    k, n = probs.shape
    if idx.size != n:
        raise ShapeMismatch(f"{idx.size} labels for {n} prediction columns")
    if idx.min() < 0 or idx.max() >= k:
        raise ShapeMismatch("label index outside 0..K-1")
    cols = np.arange(n)
    value = float(-np.log(np.maximum(probs[idx, cols], PROB_FLOOR)).mean())
    grad = probs.copy()
    grad[idx, cols] -= 1.0
    grad /= n
    return value, grad


def clustering_loss(q: np.ndarray, views: Sequence[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Self-label cross-entropy averaged over V views of the same K x n columns.

    `views` holds the weak view first, then the local views. Returns the
    value and, per view, its logit gradient (p - q) / (V n).
    """
    if not views:
        raise ShapeMismatch("clustering_loss needs at least one view")
    denom = len(views) * q.shape[1]
    # per-view sums added in view order, then one division: the `train`
    # golden holds the bytes of exactly this order
    total = float(_colwise_cross_entropy(q, views[0]).sum())
    for p in views[1:]:
        total += float(_colwise_cross_entropy(q, p).sum())
    return total / denom, [(p - q) / denom for p in views]


def confidence_loss(pseudo, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Masked cross-entropy of K x B strong-view predictions and pseudo-labels, and its gradient.

    Normalizes by the total sample count, not the retained count, so
    raising a threshold can only remove non-negative terms.
    """
    n = probs.shape[1]
    if pseudo.labels.size != n:
        raise ShapeMismatch(f"{pseudo.labels.size} pseudo-labels for {n} columns")
    if not pseudo.mask.any():
        return 0.0, np.zeros_like(probs)
    cols = np.arange(n)
    losses = -np.log(np.maximum(probs[pseudo.labels, cols], PROB_FLOOR))
    grad = probs.copy()
    grad[pseudo.labels, cols] -= 1.0
    grad *= pseudo.mask / n
    return float((losses * pseudo.mask).sum() / n), grad


def total_loss(sup: float, cls: float, conf: float, retained_fraction: float = 0.0
               ) -> LossBreakdown:
    """Combine the three terms into their plain sum."""
    parts = (sup, cls, conf)
    if not all(np.isfinite(parts)):
        raise NonFiniteComponent(f"non-finite loss component in {parts}")
    return LossBreakdown(sup, cls, conf, sup + cls + conf, retained_fraction)


def ce_logit_gradient(target, logits) -> np.ndarray:
    """Gradient of H(target, softmax(logits)) with respect to the logits."""
    t = _as_float_vector(target, "target")
    z = _as_float_vector(logits, "logits")
    if t.shape != z.shape:
        raise ShapeMismatch(f"target shape {t.shape} != logits shape {z.shape}")
    if not np.all(np.isfinite(t)):
        raise NonFiniteInput("target contains non-finite entries")
    return softmax(z) - t
