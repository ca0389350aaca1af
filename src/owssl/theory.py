"""Statistical analysis of the two self-label class-distribution estimators.

Populations are multinomial: N_labeled draws from the labeled prior and
N_unlabeled draws from the unlabeled prior, with the overall prior derived
from the mixture identity N*p = Nl*pl + Nu*pu. The unconditional estimator
is the constant overall prior; the conditional estimator subtracts the
observed labeled counts from the overall budget. Reliability is measured by
the expectation of the chi-square statistic (ECS) of the implied unlabeled
counts against their true expectation - closed forms here, Monte Carlo
verification in `monte_carlo_ecs`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ClassPrior, OwsslError, Rng, ShapeMismatch


class NonPositiveExpected(OwsslError):
    pass


class CountMismatch(OwsslError):
    pass


class ZeroUnlabeledMass(OwsslError):
    pass


@dataclass(frozen=True)
class PopulationSpec:
    """Multinomial population: labeled/unlabeled priors and sample counts.

    The overall prior is always derived from the mixture identity, never
    supplied, so the consistency invariant holds by construction.
    """

    prior_labeled: ClassPrior
    prior_unlabeled: ClassPrior
    n_labeled: int
    n_unlabeled: int
    prior: ClassPrior = field(init=False)

    def __post_init__(self):
        if self.prior_labeled.k != self.prior_unlabeled.k:
            raise ShapeMismatch("labeled and unlabeled priors must share K")
        if self.n_labeled < 0:
            raise ValueError("n_labeled must be non-negative")
        if self.n_unlabeled < 1:
            raise ValueError("n_unlabeled must be at least 1")
        pl = self.prior_labeled.probs
        pu = self.prior_unlabeled.probs
        if self.n_labeled == 0 or np.array_equal(pl, pu):
            # mixture equals the unlabeled prior exactly; skip the arithmetic
            # so matching-prior specs stay bitwise exact
            mixed = pu.copy()
        else:
            n = self.n_labeled + self.n_unlabeled
            mixed = (self.n_labeled * pl + self.n_unlabeled * pu) / n
        object.__setattr__(self, "prior", ClassPrior(mixed))

    @property
    def k(self) -> int:
        return self.prior_labeled.k

    @property
    def n_total(self) -> int:
        return self.n_labeled + self.n_unlabeled


@dataclass(frozen=True)
class EcsReport:
    """Closed-form and empirical ECS values plus bias diagnostics."""

    ecs_uncon_closed: float
    ecs_con_closed: float
    ecs_uncon_empirical: float
    ecs_uncon_se: float
    ecs_con_empirical: float
    ecs_con_se: float
    bias_uncon: np.ndarray  # overall prior minus unlabeled prior, exact
    bias_con: np.ndarray    # Monte Carlo mean of the conditional estimator minus truth
    bias_con_se: np.ndarray
    ordering_condition: bool
    trials: int

    def to_dict(self) -> dict:
        return {
            "ecs_uncon_closed": self.ecs_uncon_closed,
            "ecs_con_closed": self.ecs_con_closed,
            "ecs_uncon_empirical": self.ecs_uncon_empirical,
            "ecs_uncon_se": self.ecs_uncon_se,
            "ecs_con_empirical": self.ecs_con_empirical,
            "ecs_con_se": self.ecs_con_se,
            "bias_uncon": [float(b) for b in self.bias_uncon],
            "bias_con": [float(b) for b in self.bias_con],
            "bias_con_se": [float(b) for b in self.bias_con_se],
            "ordering_condition": self.ordering_condition,
            "trials": self.trials,
        }


def chi_square_statistic(observed, expected):
    """Sum of (observed - expected)^2 / expected over the classes, the last axis.

    `observed` is one count vector (the result is a float) or a stack of
    them (an array, one value per vector). The classes are added one at a
    time in index order, not by `.sum(axis=-1)`: numpy groups the terms of a
    contiguous row pairwise, so the value would depend on the array layout.
    """
    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    if exp.ndim != 1 or obs.shape[-1:] != exp.shape:
        raise ShapeMismatch(f"observed shape {obs.shape} does not end in expected shape {exp.shape}")
    if np.any(exp <= 0):
        raise NonPositiveExpected("expected counts must be strictly positive")
    chi = functools.reduce(np.add, np.moveaxis(np.square(obs - exp) / exp, -1, 0))
    return float(chi) if chi.ndim == 0 else chi


def estimator_uncon(spec: PopulationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Constant estimate: implied counts Nu * prior and distribution = prior."""
    a = spec.n_unlabeled * spec.prior.probs
    return a, spec.prior.probs.copy()


def estimator_con(spec: PopulationSpec, labeled_counts) -> tuple[np.ndarray, np.ndarray]:
    """Counts N * prior minus the observed labeled counts; may go negative.

    The raw linear estimator is reported unclamped - the distribution
    estimate is its scaling by 1/Nu, negative components included.
    """
    counts = np.asarray(labeled_counts)
    if counts.shape != (spec.k,):
        raise ShapeMismatch(f"labeled_counts shape {counts.shape} does not match K={spec.k}")
    if int(counts.sum()) != spec.n_labeled:
        raise CountMismatch(
            f"labeled counts sum to {int(counts.sum())}, expected {spec.n_labeled}"
        )
    a = spec.n_total * spec.prior.probs - counts
    return a, a / spec.n_unlabeled


def ecs_uncon_closed(spec: PopulationSpec) -> float:
    """Closed-form ECS of the constant estimator: sum Nu (p - pu)^2 / pu."""
    p = spec.prior.probs
    pu = spec.prior_unlabeled.probs
    diff = p - pu
    dead = pu <= 0
    if np.any(dead & (diff != 0)):
        raise ZeroUnlabeledMass("prior deviates on a class with zero unlabeled mass")
    live = ~dead
    return float((spec.n_unlabeled * np.square(diff[live]) / pu[live]).sum())


def ecs_con_closed(spec: PopulationSpec) -> float:
    """Closed-form ECS of the count-subtraction estimator: sum Nl pl (1-pl) / (Nu pu)."""
    pl = spec.prior_labeled.probs
    pu = spec.prior_unlabeled.probs
    var = spec.n_labeled * pl * (1.0 - pl)
    dead = pu <= 0
    if np.any(dead & (var > 0)):
        raise ZeroUnlabeledMass("labeled variance on a class with zero unlabeled mass")
    live = ~dead
    return float((var[live] / (spec.n_unlabeled * pu[live])).sum())


def ecs_ordering_condition(spec: PopulationSpec) -> bool:
    """Sufficient condition for the conditional ECS to be the smaller one.

    With r_i = Nl*pl_i/N and r = sum r_i, requires ALL of
    sqrt(Nu) * |r_i - r*pu_i| > 1 for every labeled class i,
    sqrt(Nu) * r*p_j > 1 for every class j present in the unlabeled data, and
    Nl * max_i pl_i*(1 - pl_i) <= Nu (implied by Nl <= 4*Nu).
    False whenever Nl = 0 (the reciprocal diverges).

    Proof that these suffice: p_i - pu_i = r_i - r*pu_i exactly, so
    ECS_uncon = Nu * sum (r_i - r*pu_i)^2 / pu_i, and the labeled clause
    gives ECS_uncon > sum over labeled i of 1/pu_i. ECS_con =
    sum Nl*pl_i*(1 - pl_i) / (Nu*pu_i) is at most
    (Nl * max_i pl_i*(1 - pl_i) / Nu) * sum over labeled i of 1/pu_i, and
    the last hypothesis keeps that factor at most 1, so ECS_con < ECS_uncon.
    Without it the clauses do not suffice when Nl dwarfs Nu:
    pl = (0.3858, 0.6142), pu = (0.5317, 0.4683), Nl = 411, Nu = 65 meets
    both clauses, yet ECS_con = 6.017 > ECS_uncon = 4.143.

    Reading the quantifier as "for every (i, j) pair, the max beats the
    threshold" would only require one of the two clauses, which admits
    orderings the bound does not cover (labeled classes certify only their
    own deviation terms); the conjunction is the conservative reading that
    the per-class deviation argument actually needs.
    """
    if spec.n_labeled == 0:
        return False
    pl = spec.prior_labeled.probs
    pu = spec.prior_unlabeled.probs
    p = spec.prior.probs
    r_i = spec.n_labeled * pl / spec.n_total
    r = r_i.sum()
    labeled_set = pl > 0
    unlabeled_set = pu > 0
    if not labeled_set.any():
        return False
    a = np.abs(r_i - r * pu)[labeled_set]
    b = (r * p)[unlabeled_set]
    root = math.sqrt(spec.n_unlabeled)
    return (
        root * float(a.min()) > 1.0
        and root * float(b.min()) > 1.0
        and spec.n_labeled * float((pl * (1.0 - pl)).max()) <= spec.n_unlabeled
    )


_CHUNK = 20_000  # Monte Carlo trials per derived random stream


def monte_carlo_ecs(spec: PopulationSpec, trials: int, rng: Rng) -> EcsReport:
    """Monte Carlo check of unbiasedness and of the closed-form ECS values.

    Each trial draws labeled counts from the labeled prior, forms both
    estimators, and scores their implied unlabeled counts against the true
    expectation Nu * pu. Trials are split into fixed chunks, each on its own
    derived random stream, so results do not depend on execution order.
    The chi-square sums of each chunk are correctly rounded (`math.fsum`),
    so the ECS mean and its standard error do not depend on the order in
    which a numpy build reduces an array either.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    closed_uncon = ecs_uncon_closed(spec)
    closed_con = ecs_con_closed(spec)

    pu = spec.prior_unlabeled.probs
    live = pu > 0
    expected_u = spec.n_unlabeled * pu[live]
    budget = spec.n_total * spec.prior.probs

    chi_sum = 0.0
    chi_sq_sum = 0.0
    mu_sum = np.zeros(spec.k)
    mu_sq_sum = np.zeros(spec.k)

    done = 0
    chunk_index = 0
    while done < trials:
        m = min(_CHUNK, trials - done)
        gen = rng.derive(chunk_index).generator()
        if spec.n_labeled == 0:
            counts = np.zeros((m, spec.k))
        else:
            counts = gen.multinomial(spec.n_labeled, spec.prior_labeled.probs, size=m)
        a_con = budget[None, :] - counts
        chi = chi_square_statistic(a_con[:, live], expected_u)
        mu = a_con / spec.n_unlabeled
        # not chi.sum(): numpy groups the terms of a contiguous sum by build
        # and CPU, which can move the last digit of the mean
        chi_sum += math.fsum(chi.tolist())
        chi_sq_sum += math.fsum(np.square(chi).tolist())
        mu_sum += mu.sum(axis=0)
        mu_sq_sum += np.square(mu).sum(axis=0)
        done += m
        chunk_index += 1

    def _mean_se(total: float, total_sq: float, count: int) -> tuple[float, float]:
        mean = total / count
        if count < 2:
            return mean, 0.0
        var = max((total_sq - count * mean * mean) / (count - 1), 0.0)
        return mean, math.sqrt(var / count)

    ecs_con_emp, ecs_con_se = _mean_se(chi_sum, chi_sq_sum, trials)
    mu_mean = mu_sum / trials
    if trials > 1:
        mu_var = np.maximum((mu_sq_sum - trials * np.square(mu_mean)) / (trials - 1), 0.0)
        mu_se = np.sqrt(mu_var / trials)
    else:
        mu_se = np.zeros(spec.k)

    # the unconditional estimate is a constant vector: its chi-square is
    # deterministic, equal to the closed form, with zero standard error
    a_uncon, _ = estimator_uncon(spec)
    ecs_uncon_emp = chi_square_statistic(a_uncon[live], expected_u)

    return EcsReport(
        ecs_uncon_closed=closed_uncon,
        ecs_con_closed=closed_con,
        ecs_uncon_empirical=ecs_uncon_emp,
        ecs_uncon_se=0.0,
        ecs_con_empirical=ecs_con_emp,
        ecs_con_se=ecs_con_se,
        bias_uncon=spec.prior.probs - pu,
        bias_con=mu_mean - pu,
        bias_con_se=mu_se,
        ordering_condition=ecs_ordering_condition(spec),
        trials=trials,
    )
