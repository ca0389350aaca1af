"""Each checker accepts real owssl output and rejects a corrupted copy of it.

Run from the root of the repository: python3 -m pytest perfbench -q
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from owssl import cli, core, evaluation, harness, sinkhorn, theory  # noqa: E402

SMALL_TO_TOL = dict(k=12, n=300, n_labeled=75, skew=2.0, clamp_factor=3.0, noise=1.0, peak=2.0,
                    epsilon=0.1, iters=100_000, tol=1e-9)
SMALL_SHARP = dict(k=12, n=300, n_labeled=75, skew=1.0, clamp_factor=0.0, noise=3.0, peak=15.0,
                   epsilon=0.02, iters=100, tol=0.0)


def _solve(case):
    cfg = sinkhorn.SinkhornConfig(case.epsilon, case.iters, case.tol)
    return sinkhorn.solve_conditional(core.ProbMatrix(case.p), core.ClassPrior(case.prior),
                                      core.LabeledBlock(case.labels), cfg).q.data.copy()


@pytest.mark.parametrize("params", [SMALL_TO_TOL, SMALL_SHARP], ids=["to-tol", "sharp"])
def test_solve_plan_rejects_perturbed_column(params):
    case = inputs.make_solve_case("t", 5, 0, **params)
    q = _solve(case)
    args = (case.p, case.prior, case.labels, case.epsilon, case.tol)
    checks.check_solve_plan(*args, q)

    # move 1 % of the second-largest entry of one unlabeled column onto its largest:
    # the column still sums to 1, but it no longer has the scaling form
    j = case.labels.size + 3
    top, second = np.argsort(-q[:, j])[:2]
    bad = q.copy()
    shift = 0.01 * bad[second, j]
    bad[top, j] += shift
    bad[second, j] -= shift
    with pytest.raises(checks.CheckFailed, match="scaling form|row sum"):
        checks.check_solve_plan(*args, bad)

    bad = q.copy()
    bad[:, 0] = np.roll(bad[:, 0], 1)
    with pytest.raises(checks.CheckFailed, match="one-hot"):
        checks.check_solve_plan(*args, bad)


def test_solve_report_matches_cli_and_rejects_a_wrong_field(tmp_path):
    case = inputs.make_solve_case("t", 6, 0, **SMALL_TO_TOL)
    inputs.write_matrix(tmp_path / "p.csv", case.p)
    inputs.write_prior(tmp_path / "prior.csv", case.prior)
    inputs.write_labels(tmp_path / "labels.csv", case.labels)
    assert cli.main(["solve", "--input", str(tmp_path / "p.csv"), "--prior", str(tmp_path / "prior.csv"),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(tmp_path / "q.csv"),
                     "--report", str(tmp_path / "report.json"), "--epsilon", "0.1"]) == 0
    q = checks.read_matrix(tmp_path / "q.csv")
    report = checks.read_json(tmp_path / "report.json")
    prior = case.prior / case.prior.sum()
    args = (case.p, prior, case.labels, case.epsilon, case.iters, case.tol, q)
    checks.check_solve_plan(case.p, prior, case.labels, case.epsilon, case.tol, q)
    checks.check_solve_report(*args, report)
    assert report["residual_clamped"] is True
    for key, value in (("row_marginal_err", report["row_marginal_err"] * 1.001),
                       ("residual_clamped", False), ("converged", False)):
        with pytest.raises(checks.CheckFailed):
            checks.check_solve_report(*args, {**report, key: value})


def _population():
    pop = inputs.population(3)
    spec = theory.PopulationSpec(core.ClassPrior(pop.prior_labeled),
                                 core.ClassPrior(pop.prior_unlabeled), pop.n_labeled, pop.n_unlabeled)
    return pop, theory.monte_carlo_ecs(spec, 20_000, core.Rng(1)).to_dict()


def test_theory_checker_rejects_shifted_ecs():
    pop, report = _population()
    args = (pop.prior_labeled, pop.prior_unlabeled, pop.n_labeled, pop.n_unlabeled, 20_000)
    checks.check_theory(*args, report)
    shifted = (
        ("ecs_con_closed", report["ecs_con_closed"] * (1 + 1e-6)),
        ("ecs_uncon_closed", report["ecs_uncon_closed"] * (1 + 1e-6)),
        ("ecs_con_empirical", report["ecs_con_closed"] + 6 * report["ecs_con_se"]),
        ("bias_con", [b + 6 * s for b, s in zip(report["bias_con"], report["bias_con_se"])]),
        ("ordering_condition", not report["ordering_condition"]),
    )
    for key, value in shifted:
        with pytest.raises(checks.CheckFailed):
            checks.check_theory(*args, {**report, key: value})


def test_eval_checker_rejects_swapped_label():
    case = inputs.eval_case(4, n=2000)
    novel = tuple(c for c in range(case.k) if c not in case.seen)
    part = core.PartitionSpec(case.k, case.seen, novel, 0, case.pred.size)

    def report(pred):
        return {"schema_version": 1, **evaluation.clustering_report(pred, case.truth, part)}

    checks.check_eval(case.expected, report(case.pred))
    # two correctly clustered samples of different classes trade predictions
    right = case.expected["mapping"]
    ok = np.flatnonzero(np.asarray(right)[case.pred] == case.truth)
    i = ok[0]
    j = ok[np.flatnonzero(case.truth[ok] != case.truth[i])[0]]
    pred = case.pred.copy()
    pred[[i, j]] = pred[[j, i]]
    with pytest.raises(checks.CheckFailed):
        checks.check_eval(case.expected, report(pred))


def _tiny_config(tmp_path) -> Path:
    cfg = inputs.train_config(1)
    cfg["dataset"].update(k_total=4, feature_dim=6, samples_per_class=30)
    cfg["train"].update(epochs=3, batch_size=32, local_views=1, queue_capacity=64)
    path = tmp_path / "run.json"
    inputs.write_json(path, cfg)
    return path


def test_train_checker_rejects_truncated_runlog(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(_tiny_config(tmp_path)), "--outdir", str(out),
                     "--emit-plot-data"]) == 0
    checks.check_train_outputs(out, 3, 0.0)
    runlog = out / "runlog.jsonl"
    runlog.write_text("".join(runlog.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(checks.CheckFailed, match="epochs"):
        checks.check_train_outputs(out, 3, 0.0)


def test_gen_data_checker_rejects_moved_label(tmp_path):
    config = _tiny_config(tmp_path)
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(config), "--outdir", str(out)]) == 0
    dataset = json.loads(config.read_text())["dataset"]
    checks.check_gen_data(dataset, out)
    labels = checks.read_labels(out / "labels.csv")
    labels[-1] = (labels[-1] + 1) % dataset["k_total"]
    inputs.write_labels(out / "labels.csv", labels)
    with pytest.raises(checks.CheckFailed, match="class sizes"):
        checks.check_gen_data(dataset, out)


def test_tracer_wraps_every_lookup_and_restores_it():
    original = sinkhorn.solve_conditional
    assert harness.solve_conditional is original
    t = tracer.Tracer()
    assert t.install() == []
    try:
        assert harness.solve_conditional is sinkhorn.solve_conditional is not original
        root = t.begin("bench.test")
        _solve(inputs.make_solve_case("t", 7, 0, **SMALL_SHARP))
        t.end(root)
    finally:
        t.uninstall()
    assert harness.solve_conditional is sinkhorn.solve_conditional is original
    names = Counter(span[0] for span in t.spans)
    assert names["sinkhorn.solve_conditional"] == 1 and names["core.ProbMatrix.__post_init__"] == 2
    metrics = tracer.layer_metrics(t.spans, t.counts)
    assert metrics["sinkhorn.iters"] == 100 and metrics["sinkhorn.calls"] == 1
    assert sum(tracer.self_times(t.spans)) == pytest.approx(t.spans[root][2] - t.spans[root][1])
