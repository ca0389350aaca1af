"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time
import warnings

import numpy as np
import pytest

from owssl.core import ClassPrior, LabeledBlock, PartitionSpec, ProbMatrix, Rng, softmax
from owssl.evaluation import estimate_num_classes, hungarian
from owssl.harness import (
    HyperParams,
    SyntheticConfig,
    _place_centroids,
    generate_dataset,
    train,
)
from owssl.objectives import _colwise_cross_entropy, clustering_loss, confidence_loss, supervised_loss
from owssl.sinkhorn import SinkhornConfig, solve_conditional, solve_unconditional
from owssl.theory import (
    PopulationSpec,
    ecs_con_closed,
    ecs_uncon_closed,
    monte_carlo_ecs,
    ecs_ordering_condition,
)
from owssl.threshold import (
    PseudoBatch,
    ThresholdState,
    make_pseudo_batch,
    thresholds,
)

from make_goldens import GOLDEN, GOLDENS, build_note, differing_keys, run_golden
from oracles import (
    brute_force_assignment,
    lp_assignment_values,
    sinkhorn_extended,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def moving_average(xs, window=5):
    return np.convolve(np.asarray(xs), np.ones(window) / window, mode="valid")


def random_population(rng) -> PopulationSpec:
    k = int(rng.integers(2, 7))
    pl = ClassPrior(rng.dirichlet(np.full(k, 2.0)))
    pu = ClassPrior.normalized(rng.dirichlet(np.full(k, 2.0)) + 0.02)
    n_labeled = int(rng.integers(10, 200))
    n_unlabeled = int(rng.integers(max(n_labeled, 100), 2000))
    return PopulationSpec(pl, pu, n_labeled, n_unlabeled)


def ordering_population(rng) -> PopulationSpec:
    """`random_population`'s priors with Nl and Nu drawn independently, so Nl > Nu half the time."""
    k = int(rng.integers(2, 7))
    pl = ClassPrior(rng.dirichlet(np.full(k, 2.0)))
    pu = ClassPrior.normalized(rng.dirichlet(np.full(k, 2.0)) + 0.02)
    return PopulationSpec(pl, pu, int(rng.integers(10, 3000)), int(rng.integers(1, 3000)))


def test_c01_sinkhorn_feasibility():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_converged = 0.0
    worst_fixed = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 11))
        n = int(rng.integers(2, 1025))
        p = ProbMatrix(rng.dirichlet(np.full(k, 5.0), size=n).T)
        prior = ClassPrior(rng.dirichlet(np.full(k, 20.0)))
        eps = float(rng.uniform(0.5, 1.0))
        converged = solve_unconditional(
            p, prior, SinkhornConfig(epsilon=eps, max_iters=100_000, tol=1e-9)
        )
        worst_converged = max(
            worst_converged, converged.row_marginal_err, converged.col_marginal_err
        )
        fixed = solve_unconditional(p, prior, SinkhornConfig(epsilon=eps))
        worst_fixed = max(worst_fixed, fixed.row_marginal_err, fixed.col_marginal_err)
    elapsed = time.perf_counter() - start
    report(
        "C1 sinkhorn feasibility",
        worst_converged <= 1e-6 and worst_fixed <= 1e-3 and elapsed < 5.0,
        f"converged err {worst_converged:.2e} (<=1e-6), "
        f"fixed-10 err {worst_fixed:.2e} (<=1e-3), {elapsed:.2f}s (<5s)",
    )


def test_c02_conditional_exactness():
    rng = np.random.default_rng(102)
    max_label_dev = 0.0
    bitwise = True
    for _ in range(25):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(4, 30))
        p = ProbMatrix(rng.dirichlet(np.full(k, 2.0), size=n).T)
        prior = ClassPrior(rng.dirichlet(np.full(k, 15.0)))
        n_lab = int(rng.integers(1, n // 2 + 1))
        labels = rng.integers(0, k, size=n_lab)
        cfg = SinkhornConfig.verification(epsilon=0.6)
        out = solve_conditional(p, prior, LabeledBlock(labels), cfg)
        one_hot = np.zeros((k, n_lab))
        one_hot[labels, np.arange(n_lab)] = 1.0
        max_label_dev = max(
            max_label_dev, float(np.abs(out.q.data[:, :n_lab] - one_hot).max())
        )
        empty = solve_conditional(p, prior, LabeledBlock(np.empty(0, dtype=int)), cfg)
        plain = solve_unconditional(p, prior, cfg)
        bitwise &= empty.q.data.tobytes() == plain.q.data.tobytes()
    report(
        "C2 conditional exactness",
        max_label_dev == 0.0 and bitwise,
        f"labeled-column deviation {max_label_dev} (exact zero), "
        f"empty-block bitwise reduction {bitwise}",
    )


def test_c03_ot_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        p = ProbMatrix(rng.dirichlet(np.full(k, 2.0), size=n).T)
        prior = ClassPrior(rng.dirichlet(np.full(k, 10.0)))
        eps = float(rng.uniform(0.25, 1.0))
        out = solve_unconditional(p, prior, SinkhornConfig(eps, 100_000, 1e-12))
        reference = sinkhorn_extended(p.data, prior.probs * n, eps, iters=200_000, tol=1e-15)
        worst = max(worst, float(np.abs(out.q.data - reference).max()))

    # small-epsilon limit vs exhaustive enumeration; instances are filtered
    # for a clear assignment gap (near-ties keep the entropic optimum mixed
    # at any representable epsilon)
    lp_worst = 0.0
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while checked < 5:
            p = ProbMatrix(rng.dirichlet(np.ones(3), size=6).T)
            log_p = np.log(np.clip(p.data, 1e-12, None))
            values = lp_assignment_values(log_p, [2, 2, 2])
            if values[0] - values[1] < 0.1:
                continue
            cfg = SinkhornConfig(epsilon=0.002, max_iters=50_000, tol=1e-11)
            out = solve_unconditional(p, ClassPrior.uniform(3), cfg)
            objective = float((out.q.data * log_p).sum())
            lp_worst = max(lp_worst, abs(objective - values[0]))
            checked += 1
    report(
        "C3 OT oracle equivalence",
        worst <= 1e-6 and lp_worst <= 1e-4,
        f"max entry gap vs extended-precision oracle {worst:.2e} (<=1e-6), "
        f"max objective gap vs LP enumeration {lp_worst:.2e} (<=1e-4)",
    )


def test_c04_unbiasedness():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst_sigma = 0.0
    exact = True
    for i in range(10):
        spec = random_population(rng)
        rep = monte_carlo_ecs(spec, 100_000, Rng(104, i))
        scaled = np.abs(rep.bias_con) / np.maximum(rep.bias_con_se, 1e-300)
        worst_sigma = max(worst_sigma, float(scaled.max()))
        exact &= np.array_equal(
            rep.bias_uncon, spec.prior.probs - spec.prior_unlabeled.probs
        )
    elapsed = time.perf_counter() - start
    report(
        "C4 estimator unbiasedness",
        worst_sigma <= 4.0 and exact and elapsed < 30.0,
        f"worst |bias|/SE {worst_sigma:.2f} (<=4), exact uncon bias {exact}, "
        f"{elapsed:.1f}s (<30s)",
    )


def test_c05_ecs_closed_forms():
    worked = PopulationSpec(
        ClassPrior(np.array([0.5, 0.5])), ClassPrior(np.array([0.5, 0.5])), 20, 100
    )
    rep = monte_carlo_ecs(worked, 100_000, Rng(105))
    rel = abs(rep.ecs_con_empirical - rep.ecs_con_closed) / rep.ecs_con_closed
    value_ok = rep.ecs_con_closed == pytest.approx(0.2, abs=1e-12)

    skewed = PopulationSpec(
        ClassPrior(np.array([0.7, 0.3])), ClassPrior(np.array([0.3, 0.7])), 100, 100
    )
    uncon = ecs_uncon_closed(skewed)
    uncon_ok = abs(uncon - 19.0476) <= 1e-3
    rep2 = monte_carlo_ecs(skewed, 100_000, Rng(1055))
    # deterministic estimator: the empirical value carries no sampling
    # noise, only the rounding of two algebraically equal expressions
    uncon_rel = abs(rep2.ecs_uncon_empirical - rep2.ecs_uncon_closed) / rep2.ecs_uncon_closed
    report(
        "C5 ECS closed forms",
        rel <= 0.02 and value_ok and uncon_ok and uncon_rel <= 1e-12,
        f"con empirical {rep.ecs_con_empirical:.4f} vs closed 0.2 "
        f"(rel {rel:.3%}, <=2%), uncon closed {uncon:.4f} (19.0476 +- 1e-3), "
        f"uncon empirical gap {uncon_rel:.1e} (<=1e-12, deterministic)",
    )


def test_c06_ecs_ordering():
    rng = np.random.default_rng(106)
    true_count = 0
    violations = []
    for _ in range(200):
        spec = ordering_population(rng)
        if ecs_ordering_condition(spec):
            true_count += 1
            if ecs_con_closed(spec) > ecs_uncon_closed(spec):
                violations.append(spec)
    report(
        "C6 ECS ordering",
        true_count > 0 and not violations,
        f"{true_count}/200 specs satisfied the condition, {len(violations)} ordering violations",
    )


def test_c07_hungarian_exactness():
    rng = np.random.default_rng(107)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        cost = rng.normal(size=(n, n))
        _, total = hungarian(cost)
        _, best = brute_force_assignment(cost)
        exact &= abs(total - best) < 1e-12
    start = time.perf_counter()
    hungarian(rng.random((200, 200)))
    big = time.perf_counter() - start
    report(
        "C7 hungarian exactness",
        exact and big < 1.0,
        f"1000 instances exact vs factorial brute force: {exact}, "
        f"n=200 solve {big * 1000:.1f}ms (<1s)",
    )


def test_c08_threshold_hierarchy():
    rng = np.random.default_rng(108)
    worked = ThresholdState(
        np.array([0.9, 0.6]), 0.8, 0.5, 0.9, PartitionSpec(2, (0, 1), (), 1, 1)
    )
    tau_worked = thresholds(worked)
    worked_ok = abs(tau_worked[0] - 0.8) <= 1e-9 and abs(
        tau_worked[1] - 0.8 * 0.6 / 0.9
    ) <= 1e-9 and abs(tau_worked[1] - 0.53333333333) <= 1e-9

    bound_ok = isolation_ok = mask_ok = True
    for _ in range(10_000):
        k_seen = int(rng.integers(1, 5))
        k_novel = int(rng.integers(1, 5))
        k = k_seen + k_novel
        part = PartitionSpec(k, tuple(range(k_seen)), tuple(range(k_seen, k)), 1, 1)
        zeta = rng.uniform(0.01, 1.0, size=k)
        state = ThresholdState(
            zeta, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), 0.9, part
        )
        tau = thresholds(state)
        for group, eta in ((part.seen, state.eta_seen), (part.novel, state.eta_novel)):
            idx = list(group)
            bound_ok &= bool(np.all(tau[idx] <= eta))
        # raising a novel zeta must leave seen thresholds untouched
        bumped_zeta = zeta.copy()
        bumped_zeta[k_seen] = min(1.0, bumped_zeta[k_seen] + 0.3)
        bumped = ThresholdState(
            bumped_zeta, state.eta_seen, state.eta_novel, 0.9, part
        )
        isolation_ok &= bool(
            np.array_equal(thresholds(bumped)[:k_seen], tau[:k_seen])
        )
        probs = rng.dirichlet(np.ones(k), size=8).T
        pseudo = make_pseudo_batch(probs, tau)
        retained = np.flatnonzero(pseudo.mask)
        mask_ok &= bool(
            np.all(pseudo.confidences[retained] > tau[pseudo.labels[retained]])
        )
    report(
        "C8 threshold hierarchy",
        worked_ok and bound_ok and isolation_ok and mask_ok,
        f"worked example to 1e-9 {worked_ok}, tau<=eta {bound_ok}, "
        f"group isolation {isolation_ok}, mask soundness {mask_ok} on 10^4 states",
    )


def test_c09_gradient_check():
    # the three term gradients `train` descends, each through softmax of its own
    # logits. Each loss is a weighted sum of per-column cross-entropies, so moving
    # one logit moves one column's term: one softmax and one cross-entropy over
    # all 2 K b moved columns give every central difference of a case at once.
    rng = np.random.default_rng(109)
    k, b, h = 4, 3, 1e-5
    worst = {"supervised": 0.0, "clustering": 0.0, "confidence": 0.0}
    worst_value = 0.0
    # row s*k + i moves entry i of a column by +h (s = 0) or -h (s = 1)
    steps = np.concatenate([h * np.eye(k), -h * np.eye(k)])

    def check(term, targets, weights, logits, grad):
        """Compare grad with the central difference; return the weighted terms' sum."""
        moved = (logits[:, None, :] + steps.T[:, :, None]).reshape(k, -1)
        tiled = np.broadcast_to(targets[:, None, :], (k, 2 * k, b)).reshape(k, -1)
        terms = _colwise_cross_entropy(tiled, softmax(moved)).reshape(2, k, b) * weights
        reference = (terms[0] - terms[1]) / (2 * h)
        worst[term] = max(worst[term], float(np.abs(grad - reference).max()))
        return float((weights * _colwise_cross_entropy(targets, softmax(logits))).sum())

    def match_value(value, total):
        # the column decomposition reproduces the loss the package computes
        nonlocal worst_value
        worst_value = max(worst_value, abs(value - total) / max(1.0, abs(value)))

    def one_hot(labels):
        out = np.zeros((k, b))
        out[labels, np.arange(b)] = 1.0
        return out

    counts = dict.fromkeys(worst, 0)
    for case in range(1000):
        term = ("supervised", "clustering", "confidence")[case % 3]
        counts[term] += 1
        if term == "supervised":
            labels = rng.integers(0, k, b)
            logits = rng.normal(scale=2.0, size=(k, b))
            value, grad = supervised_loss(labels, softmax(logits))
            match_value(value, check(term, one_hot(labels), np.full(b, 1 / b), logits, grad))
        elif term == "clustering":
            # weak view first, then two local views
            q = rng.dirichlet(np.ones(k), size=b).T
            view_logits = [rng.normal(scale=2.0, size=(k, b)) for _ in range(3)]
            value, grads = clustering_loss(q, [softmax(z) for z in view_logits])
            weights = np.full(b, 1 / (len(view_logits) * b))
            match_value(value, sum(check(term, q, weights, z, grad)
                                   for z, grad in zip(view_logits, grads)))
        else:
            mask = rng.random(b) < 0.5
            mask[:2] = (False, True)  # at least one rejected and one retained column
            pseudo = PseudoBatch(mask, rng.integers(0, k, b), rng.random(b))
            logits = rng.normal(scale=2.0, size=(k, b))
            value, grad = confidence_loss(pseudo, softmax(logits))
            match_value(value, check(term, one_hot(pseudo.labels), mask / b, logits, grad))
    report(
        "C9 gradient check",
        max(worst.values()) <= 1e-6 and worst_value <= 1e-12,
        "max |analytic - central difference| (<=1e-6) over "
        + ", ".join(f"{counts[t]} {t} cases {err:.2e}" for t, err in worst.items())
        + f"; loss values against their column terms {worst_value:.1e} (<=1e-12)",
    )


def default_benchmark(seed: int) -> SyntheticConfig:
    return SyntheticConfig(
        k_total=10,
        feature_dim=16,
        samples_per_class=100,
        cluster_separation=8.0,
        seed=seed,
    )


# run logs of the ten conditional default runs, by seed: C10 trains and
# stores them, C11 reads them back (and trains any it does not find)
CONDITIONAL_LOGS = {}


def test_c10_debiasing_trajectory():
    start = time.perf_counter()
    epoch1_ok = True
    monotone_ok = True
    for seed in range(10):
        data = generate_dataset(default_benchmark(seed))
        _, log = train(data, HyperParams(seed=seed))
        CONDITIONAL_LOGS[seed] = log
        b_m = [r.b_m for r in log.records]
        b_s = [r.b_s for r in log.records]
        epoch1_ok &= b_s[0] < b_m[0]
        monotone_ok &= bool(np.all(np.diff(moving_average(b_m)) <= 0))
        monotone_ok &= bool(np.all(np.diff(moving_average(b_s)) <= 0))
    elapsed = time.perf_counter() - start
    report(
        "C10 debiasing trajectory",
        epoch1_ok and monotone_ok and elapsed < 120.0,
        f"B_s < B_m at epoch 1 on all seeds {epoch1_ok}, "
        f"5-epoch moving averages non-increasing {monotone_ok}, {elapsed:.0f}s (<2min)",
    )


def test_c11_conditioning_helps():
    novel_cond, novel_uncond, all_cond = [], [], []
    for seed in range(10):
        data = generate_dataset(default_benchmark(seed))
        if seed not in CONDITIONAL_LOGS:
            CONDITIONAL_LOGS[seed] = train(data, HyperParams(seed=seed))[1]
        log_c = CONDITIONAL_LOGS[seed]
        _, log_u = train(data, HyperParams(seed=seed, conditional=False))
        novel_cond.append(log_c.records[-1].acc_novel)
        novel_uncond.append(log_u.records[-1].acc_novel)
        all_cond.append(log_c.records[-1].acc_all)
    mean_cond = float(np.mean(novel_cond))
    mean_uncond = float(np.mean(novel_uncond))
    mean_all = float(np.mean(all_cond))
    report(
        "C11 conditioning helps",
        mean_cond >= mean_uncond and mean_all >= 0.95,
        f"novel accuracy conditional {mean_cond:.3f} >= unconditional {mean_uncond:.3f}, "
        f"all-class mean {mean_all:.3f} (>=0.95)",
    )


def test_c12_chi_square_calibration():
    ok = True
    details = []
    for i, k in enumerate((2, 5, 10)):
        prior = ClassPrior.uniform(k)
        gen = Rng(112, i).generator()
        counts = gen.multinomial(500, prior.probs, size=100_000)
        expected = 500 * prior.probs
        stats = (np.square(counts - expected) / expected).sum(axis=1)
        mean = float(stats.mean())
        rel = abs(mean - (k - 1)) / (k - 1)
        ok &= rel <= 0.02
        details.append(f"K={k}: mean {mean:.4f} vs {k - 1} (rel {rel:.3%})")
    report("C12 chi-square calibration", ok, "; ".join(details))


def test_c13_class_count_estimation():
    hits = 0
    for seed in range(100):
        gen = Rng(113, seed).generator()
        centroids = _place_centroids(10, 8, 6.0, gen)
        points = np.concatenate(
            [c + gen.standard_normal((30, 8)) for c in centroids]
        )
        truth = np.repeat(np.arange(10), 30)
        # the labeled subset spans every cluster so merges and splits both
        # register in the matched labeled accuracy
        labeled_idx = np.concatenate(
            [gen.choice(np.flatnonzero(truth == c), size=5, replace=False) for c in range(10)]
        )
        guess = estimate_num_classes(
            points, labeled_idx, truth[labeled_idx], range(5, 16), Rng(113, seed)
        )
        hits += guess == 10
    report(
        "C13 class-count estimation",
        hits >= 95,
        f"recovered the true count on {hits}/100 seeds (>=95)",
    )


def test_c14_cli_golden_files(tmp_path):
    # every golden command, compared as the golden tests compare it
    ok = True
    details = []
    for name in GOLDENS:
        out = tmp_path / name
        moved = run_golden(name, out)
        ok &= not moved
        details.append(f"{name} {not moved}")
        if name == "theory" and moved:
            keys = differing_keys((out / "report.json").read_text(), (GOLDEN / name / "report.json").read_text())
            details.append(f"theory keys differing from the golden: {keys}")
        if moved:
            details.append(build_note(name))
    report("C14 CLI golden files", ok, ", ".join(details))
