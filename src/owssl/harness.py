"""Synthetic open-world SSL experiments end to end.

Gaussian-mixture data with seen/novel splits and class imbalance, a
linear-softmax model trained on the combined supervised + clustering +
confidence objective, a FIFO queue of recent prediction columns feeding the
self-label solver, and per-epoch bias/accuracy logging.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import (
    ClassPrior,
    LabeledBlock,
    NonFiniteInput,
    OwsslError,
    PartitionSpec,
    ProbMatrix,
    Rng,
    ShapeMismatch,
    _trusted,
    softmax,
)
from .evaluation import clustering_report, manhattan_bias
from .objectives import clustering_loss, confidence_loss, supervised_loss
from .sinkhorn import (
    SinkhornConfig,
    residual_row_marginals,
    solve_conditional,
)
from .threshold import ThresholdState, make_pseudo_batch, thresholds, update_state


class InfeasibleSeparation(OwsslError):
    pass


class TrainingDiverged(OwsslError):
    pass


@dataclass(frozen=True)
class SyntheticConfig:
    """Gaussian-mixture benchmark settings (cluster noise has unit variance)."""

    k_total: int
    feature_dim: int
    samples_per_class: int
    imbalance_factor: float = 1.0
    novel_ratio: float = 0.5
    label_ratio: float = 0.5
    cluster_separation: float = 8.0
    weak_noise_sigma: float = 0.1
    strong_noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.k_total < 2:
            raise ValueError("need at least two classes")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if self.imbalance_factor < 1:
            raise ValueError("imbalance_factor must be >= 1")
        if round(self.samples_per_class / self.imbalance_factor) < 1:
            raise ValueError("imbalance_factor too large for samples_per_class")
        if not (0 < self.novel_ratio < 1):
            raise ValueError("novel_ratio must lie in (0, 1)")
        if not (0 < self.label_ratio <= 1):
            raise ValueError("label_ratio must lie in (0, 1]")
        if self.cluster_separation <= 0:
            raise ValueError("cluster_separation must be positive")
        if not (0 <= self.weak_noise_sigma <= self.strong_noise_sigma):
            raise ValueError("need 0 <= weak_noise_sigma <= strong_noise_sigma")
        if self.n_seen >= self.k_total:
            raise ValueError("novel_ratio leaves no novel classes")

    @property
    def n_seen(self) -> int:
        return math.ceil((1.0 - self.novel_ratio) * self.k_total)


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated benchmark: labeled samples occupy the leading rows."""

    features: np.ndarray
    labels: np.ndarray
    partition: PartitionSpec
    labeled: LabeledBlock
    config: SyntheticConfig

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def class_sizes(cfg: SyntheticConfig) -> np.ndarray:
    """Per-class sample counts, geometric from the base count down by 1/IF."""
    k = cfg.k_total
    exponents = np.arange(k) / max(k - 1, 1)
    raw = cfg.samples_per_class * cfg.imbalance_factor ** (-exponents)
    return np.round(raw).astype(np.int64)


def _place_centroids(
    k: int, dim: int, separation: float, gen: np.random.Generator, budget: int = 50_000
) -> np.ndarray:
    side = separation * (k ** (1.0 / dim) + 1.0)
    while True:  # `budget` ends a search that cannot succeed
        if not math.isfinite(side):
            raise InfeasibleSeparation(
                f"no finite cube holds {k} centroids at separation {separation} in {dim} dims"
            )
        centroids = np.empty((k, dim))
        placed = 0
        attempts = 0
        while placed < k and attempts < 2000:
            candidate = gen.uniform(-side / 2, side / 2, size=dim)
            attempts += 1
            budget -= 1
            if budget <= 0:
                raise InfeasibleSeparation(
                    f"cannot place {k} centroids at separation {separation} in {dim} dims"
                )
            gaps = np.sqrt(np.square(centroids[:placed] - candidate).sum(axis=1))
            if placed == 0 or gaps.min() >= separation:
                centroids[placed] = candidate
                placed += 1
        if placed == k:
            return centroids
        side *= 1.3


def generate_dataset(cfg: SyntheticConfig) -> SyntheticDataset:
    """Sample the mixture, split seen/novel classes, and label the seen portion.

    The first ceil((1-novel_ratio)*K) classes are seen; label_ratio of each
    seen class is labeled. Labeled samples come first, the unlabeled pool
    (rest of seen plus all novel) is shuffled behind them.
    """
    rng = Rng(cfg.seed)
    gen = rng.derive(0).generator()
    sizes = class_sizes(cfg)
    centroids = _place_centroids(cfg.k_total, cfg.feature_dim, cfg.cluster_separation, gen)

    features = np.empty((int(sizes.sum()), cfg.feature_dim))
    labels = np.repeat(np.arange(cfg.k_total, dtype=np.int64), sizes)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    for c in range(cfg.k_total):
        block = features[bounds[c] : bounds[c + 1]]
        gen.standard_normal(out=block)
        block += centroids[c]

    n_seen = cfg.n_seen
    seen = tuple(range(n_seen))
    novel = tuple(range(n_seen, cfg.k_total))

    labeled_mask = np.zeros(labels.size, dtype=bool)
    for c in range(n_seen):
        labeled_mask[bounds[c] : bounds[c] + int(round(cfg.label_ratio * sizes[c]))] = True

    lab_idx = np.flatnonzero(labeled_mask)
    unlab_idx = np.flatnonzero(~labeled_mask)
    unlab_idx = gen.permutation(unlab_idx)
    order = np.concatenate([lab_idx, unlab_idx])
    features = features[order]
    labels = labels[order]

    n_labeled = lab_idx.size
    n_unlabeled = unlab_idx.size
    partition = PartitionSpec(cfg.k_total, seen, novel, n_labeled, n_unlabeled)
    labeled = _trusted(LabeledBlock, labels=labels[:n_labeled])
    return SyntheticDataset(features, labels, partition, labeled, cfg)


def weak_view(x: np.ndarray, sigma: float, gen: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise at the weak magnitude (identity when sigma=0)."""
    return x + sigma * gen.standard_normal(x.shape)


def strong_view(x: np.ndarray, sigma: float, gen: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise at the strong magnitude."""
    return x + sigma * gen.standard_normal(x.shape)


def local_view(
    x: np.ndarray, sigma: float, mask_fraction: float, gen: np.random.Generator
) -> np.ndarray:
    """Strong noise plus random zero-masking of a fraction of coordinates."""
    noisy = x + sigma * gen.standard_normal(x.shape)
    keep = gen.random(x.shape) >= mask_fraction
    return noisy * keep


@dataclass
class ToyModel:
    """Linear-softmax classifier: predictions are softmax(W x/s + b) per column.

    `input_scale` standardizes raw features to unit-ish magnitude so the
    logit scale is set by the weights, not by the feature geometry.
    """

    weights: np.ndarray
    bias: np.ndarray
    input_scale: float = 1.0

    def logits(self, x: np.ndarray) -> np.ndarray:
        out = self.weights @ (x / self.input_scale).T
        out += self.bias[:, None]
        return out

    def predict(self, x: np.ndarray) -> ProbMatrix:
        return _trusted(ProbMatrix, data=softmax(self.logits(x)))


class LogitQueue:
    """FIFO buffer of recent prediction columns with labeled/unlabeled tags.

    The columns live in a K x capacity ring allocated at the first push;
    column number `_pushed` (counting from 0) goes to slot `_pushed % capacity`.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._cols: np.ndarray | None = None
        self._tags = np.empty(capacity, dtype=np.int64)
        self._pushed = 0

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, probs: np.ndarray, tags: np.ndarray) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        tags = np.asarray(tags, dtype=np.int64)
        if probs.ndim != 2 or probs.shape[1] != tags.size:
            raise ShapeMismatch("probs must be K x B with one tag per column")
        if self._cols is None:
            self._cols = np.empty((probs.shape[0], self.capacity))
        elif probs.shape[0] != self._cols.shape[0]:
            raise ShapeMismatch(f"queue holds {self._cols.shape[0]} classes, got {probs.shape[0]}")
        b = min(tags.size, self.capacity)  # a batch past capacity keeps its newest columns
        slots = (self._pushed + np.arange(b)) % self.capacity
        self._cols[:, slots] = probs[:, tags.size - b :]
        self._tags[slots] = tags[tags.size - b :]
        self._pushed += b

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the stored columns in insertion order plus their tags (-1 = unlabeled)."""
        size = len(self)
        if not size:
            raise ValueError("queue is empty")
        slots = (self._pushed - size + np.arange(size)) % self.capacity
        return np.take(self._cols, slots, axis=1), self._tags[slots]


@dataclass(frozen=True)
class HyperParams:
    """Training-loop settings for the synthetic harness."""

    learning_rate: float = 0.5
    epochs: int = 50
    batch_size: int = 256
    sinkhorn: SinkhornConfig = field(default_factory=lambda: SinkhornConfig(epsilon=0.5))
    local_views: int = 4
    prior_mode: str = "true"
    queue_capacity: int = 1024
    conditional: bool = True
    confidence: bool = True
    threshold_policy: str = "hierarchical"
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.prior_mode not in ("true", "adaptive"):
            raise ValueError("prior_mode must be 'true' or 'adaptive'")
        if self.threshold_policy not in ("hierarchical", "static", "adaptive-global"):
            raise ValueError("threshold_policy must be hierarchical, static, or adaptive-global")
        if self.local_views < 0:
            raise ValueError("local_views must be non-negative")

    def check_queue(self, k: int, n: int) -> None:
        """Refuse a queue too short for one column per class or for the first
        batch of a run on `n` samples; `train` and the CLI both ask."""
        if self.queue_capacity < k:
            raise ValueError("queue capacity must be at least the class count")
        first_batch = min(self.batch_size, n)
        if self.queue_capacity < first_batch:
            raise ValueError(
                f"queue capacity must be at least the first batch, min(batch_size, N) = {first_batch}"
            )


@dataclass(frozen=True)
class EpochRecord:
    """One run-log line: the field names are the JSON keys, in output order."""

    epoch: int
    loss_sup: float
    loss_cls: float
    loss_conf: float
    loss_total: float
    retained_fraction: float
    acc_seen: float
    acc_novel: float
    acc_all: float
    b_m: float
    b_s: float
    b_gap: float
    prior_estimate: tuple[float, ...]
    thresholds: dict | None


@dataclass
class RunLog:
    """One record per epoch, in epoch order."""

    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def to_dicts(self) -> list[dict]:
        return [asdict(r) for r in self.records]


def estimate_prior_adaptive(
    current_prior: ClassPrior, preds: ProbMatrix, momentum: float
) -> ClassPrior:
    """EMA of the mean predicted distribution, renormalized."""
    if not (0 <= momentum < 1):
        raise ValueError("momentum must lie in [0, 1)")
    if preds.k != current_prior.k:
        raise ShapeMismatch(f"predictions have {preds.k} rows, prior has {current_prior.k}")
    batch_mean = preds.data.mean(axis=1)
    mixed = momentum * current_prior.probs + (1.0 - momentum) * batch_mean
    return ClassPrior.normalized(mixed)


def empirical_distribution(labels: np.ndarray, k: int) -> ClassPrior:
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=k)
    return ClassPrior.normalized(counts.astype(np.float64))


def self_label_bias(
    truth_labels: np.ndarray,
    prior: ClassPrior,
    labeled: LabeledBlock | None = None,
) -> float:
    """Distance between the self-label class distribution and the ground truth.

    The assignment's column mean converges to its row-marginal budget, so the
    bias is computed from that limit directly: pinned labeled counts plus the
    clamped residual marginals for the conditional route, the bare prior for
    the unconditional route. The reference is the ground truth of
    `truth_labels`: `train` passes every label for the conditional route and
    the unlabeled ones for the unconditional route. This is the
    estimator-bias view of the assignment: the conditional route is unbiased
    when the prior matches the data, while the unconditional route keeps the
    full prior-vs-unlabeled gap.
    """
    truth_labels = np.asarray(truth_labels, dtype=np.int64)
    if labeled is None or labeled.n == 0:
        q_dist = prior
    else:
        counts = np.bincount(labeled.labels, minlength=prior.k)
        residual = residual_row_marginals(prior, counts, truth_labels.size)
        q_dist = ClassPrior.normalized(counts + residual)
    truth_dist = empirical_distribution(truth_labels, prior.k)
    return manhattan_bias(q_dist, truth_dist)


def _solve_queue(queue: LogitQueue, prior: ClassPrior, cfg: SinkhornConfig, n_batch: int) -> np.ndarray:
    """Self-labels for the newest `n_batch` queue columns, in insertion order.

    Labeled columns (tag >= 0) are pinned; a queue of unlabeled columns only
    (every column of an unconditional run) gets an empty block, which solves
    bitwise as the unconditional problem.
    """
    p_q, tags_q = queue.matrix()
    order = np.argsort(tags_q < 0, kind="stable")  # labeled first, order preserved
    n_lab = int((tags_q >= 0).sum())
    block = _trusted(LabeledBlock, labels=tags_q[order[:n_lab]])
    p_sorted = _trusted(ProbMatrix, data=np.take(p_q, order, axis=1))
    assignment = solve_conditional(p_sorted, prior, block, cfg)
    newest = np.argsort(order)[-n_batch:]  # where the batch's columns went
    return np.take(assignment.q.data, newest, axis=1)


def _step(model, dataset, batch, queue, prior, state, hyper, gen_noise):
    """One batch: the loss terms (sup, cls, conf, retained fraction), the
    threshold state after the batch, and the weight and bias gradients
    (weight decay included). A None state pseudo-labels at the fixed cutoff.
    """
    x = dataset.features[batch]
    tags = np.where(batch < dataset.partition.n_labeled, dataset.labels[batch], -1)
    is_lab = tags >= 0
    sigma_strong = dataset.config.strong_noise_sigma
    xw = weak_view(x, dataset.config.weak_noise_sigma, gen_noise)
    probs_w = softmax(model.logits(xw))

    # clustering term against queue-derived self-labels, on the weak view and
    # the local views of the whole batch; an unconditional run queues its
    # labeled columns as unlabeled, so nothing is pinned
    queue.push(probs_w, tags if hyper.conditional else np.full(batch.size, -1))
    q_batch = _solve_queue(queue, prior, hyper.sinkhorn, batch.size)
    xls = [local_view(x, sigma_strong, 0.5, gen_noise) for _ in range(hyper.local_views)]
    cls, g_cls = clustering_loss(q_batch, [probs_w] + [softmax(model.logits(xl)) for xl in xls])
    pairs = list(zip(g_cls[1:], xls))  # (logit gradient, view), backpropagated in this order

    # supervised term on the labeled part of the batch
    sup, g_sup = supervised_loss(tags[is_lab], probs_w[:, is_lab])
    g_cls[0][:, is_lab] += g_sup

    # confidence term on strong views of the whole batch
    conf = retained = 0.0
    if hyper.confidence:
        if state is None:
            tau = np.full(probs_w.shape[0], 0.95)  # FixMatch's fixed cutoff
        else:
            state = update_state(state, probs_w)
            tau = thresholds(state)
        pseudo = make_pseudo_batch(probs_w, tau)
        retained = pseudo.retained_fraction
        if pseudo.mask.any():
            xs = strong_view(x, sigma_strong, gen_noise)
            conf, g_s = confidence_loss(pseudo, softmax(model.logits(xs)))
            pairs.append((g_s, xs))
    pairs.append((g_cls[0], xw))

    d_weights = np.zeros_like(model.weights)
    d_bias = np.zeros_like(model.bias)
    for g, view in pairs:
        d_weights += g @ (view / model.input_scale)
        d_bias += g.sum(axis=1)
    d_weights += 0.02 * model.weights  # weight decay
    return (sup, cls, conf, retained), state, d_weights, d_bias


def _record(epoch, means, probs, dataset, prior, state, conditional) -> EpochRecord:
    """The epoch's record from its mean loss terms and its predictions on clean features."""
    part = dataset.partition
    pred_hard = probs.data.argmax(axis=0)
    b_m = manhattan_bias(empirical_distribution(pred_hard, part.k_total),
                         empirical_distribution(dataset.labels, part.k_total))
    if conditional:
        b_s = self_label_bias(dataset.labels, prior, dataset.labeled)
    else:
        b_s = self_label_bias(dataset.labels[part.n_labeled :], prior, None)
    sup, cls, conf, retained = means
    acc = clustering_report(pred_hard, dataset.labels, part)
    return EpochRecord(
        epoch=epoch,
        loss_sup=sup,
        loss_cls=cls,
        loss_conf=conf,
        loss_total=sup + cls + conf,
        retained_fraction=retained,
        acc_seen=acc["seen"],
        acc_novel=acc["novel"],
        acc_all=acc["all"],
        b_m=b_m,
        b_s=b_s,
        b_gap=abs(b_m - b_s),
        prior_estimate=tuple(float(p) for p in prior.probs),
        thresholds=None if state is None else state.to_dict(),
    )


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: SyntheticDataset, hyper: HyperParams) -> tuple[ToyModel, RunLog]:
    """Run the full training loop and log per-epoch metrics.

    The weak and strong view sigmas come from the dataset's generation config.
    Raises TrainingDiverged, naming the epoch and batch, once the model's
    logits stop being finite; numpy's overflow and invalid-value warnings on
    the way there are silenced, since the error names where it happened.
    """
    part = dataset.partition
    k, dim, n = part.k_total, dataset.dim, dataset.n
    hyper.check_queue(k, n)

    rng = Rng(hyper.seed)
    gen_batch = rng.derive(1).generator()
    gen_noise = rng.derive(2).generator()
    # symmetry breaking: distinct novel heads must start distinct, or tied
    # argmaxes funnel every novel sample onto one head
    model = ToyModel(
        weights=0.1 * rng.derive(0).generator().standard_normal((k, dim)) / math.sqrt(dim),
        bias=np.zeros(k),
        input_scale=float(np.sqrt(np.square(dataset.features).mean())) or 1.0,
    )
    prior = empirical_distribution(dataset.labels, k) if hyper.prior_mode == "true" else ClassPrior.uniform(k)

    # the threshold policy, decided once: no state means the fixed cutoff
    # (`static`) or no confidence term at all
    state = None
    if hyper.confidence and hyper.threshold_policy == "hierarchical":
        state = ThresholdState.initial(part)
    elif hyper.confidence and hyper.threshold_policy == "adaptive-global":
        # one group holding every class: the scheme collapses to a single
        # global status scaled by per-class ratios
        state = ThresholdState.initial(replace(part, seen=tuple(range(k)), novel=()))

    queue = LogitQueue(hyper.queue_capacity)
    log = RunLog()
    n_batches = math.ceil(n / hyper.batch_size)
    total_steps = max(hyper.epochs * n_batches, 1)

    for epoch in range(1, hyper.epochs + 1):
        perm = gen_batch.permutation(n)
        sums = [0.0] * 4  # sup, cls, conf, retained fraction
        for i in range(n_batches):
            batch = perm[i * hyper.batch_size : (i + 1) * hyper.batch_size]
            # softmax only sees logits the run computed, so a non-finite one
            # means the run diverged: a computation failure, not malformed input
            try:
                terms, state, d_weights, d_bias = _step(
                    model, dataset, batch, queue, prior, state, hyper, gen_noise
                )
            except NonFiniteInput as exc:
                raise TrainingDiverged(f"training diverged at epoch {epoch}, batch {i + 1}: {exc}") from exc
            step = (epoch - 1) * n_batches + i
            lr = hyper.learning_rate * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
            model.weights -= lr * d_weights
            model.bias -= lr * d_bias
            sums = [s + t for s, t in zip(sums, terms)]

        try:  # epoch metrics on clean features
            probs = model.predict(dataset.features)
        except NonFiniteInput as exc:
            raise TrainingDiverged(f"training diverged at epoch {epoch}, evaluation pass: {exc}") from exc
        means = [s / n_batches for s in sums]
        log.records.append(_record(epoch, means, probs, dataset, prior, state, hyper.conditional))
        if hyper.prior_mode == "adaptive":
            prior = estimate_prior_adaptive(prior, probs, 0.98)

    return model, log
