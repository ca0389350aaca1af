"""The training loss terms; each returns its value and its gradient with respect to the logits."""

from __future__ import annotations

import functools
import operator
from typing import Sequence

import numpy as np

from .core import PROB_FLOOR, IndexOutOfRange, ShapeMismatch


def _colwise_cross_entropy(targets: np.ndarray, preds: np.ndarray) -> np.ndarray:
    if targets.shape != preds.shape:
        raise ShapeMismatch(f"target shape {targets.shape} != pred shape {preds.shape}")
    return -(targets * np.log(np.maximum(preds, PROB_FLOOR))).sum(axis=0)


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    targets = np.zeros((k, labels.size))
    targets[labels, np.arange(labels.size)] = 1.0
    return targets


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
        raise IndexOutOfRange("label index outside 0..K-1")
    targets = _one_hot(idx, k)
    return float(_colwise_cross_entropy(targets, probs).mean()), (probs - targets) / n


def clustering_loss(q: np.ndarray, views: Sequence[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Self-label cross-entropy averaged over V views of the same K x n columns.

    `views` holds the weak view first, then the local views. Returns the
    value and, per view, its logit gradient (p - q) / (V n).
    """
    if not views:
        raise ShapeMismatch("clustering_loss needs at least one view")
    denom = len(views) * q.shape[1]
    # per-view sums added in view order, then one division: the `train`
    # golden holds the bytes of exactly this order, which built-in sum() does
    # not keep from Python 3.12 on (it compensates its float additions)
    sums = (float(_colwise_cross_entropy(q, p).sum()) for p in views)
    return functools.reduce(operator.add, sums) / denom, [(p - q) / denom for p in views]


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
    targets = _one_hot(pseudo.labels, probs.shape[0])
    losses = _colwise_cross_entropy(targets, probs)
    return float((losses * pseudo.mask).sum() / n), (probs - targets) * (pseudo.mask / n)
