"""Command-line entry point, on-disk file formats, and run orchestration.

Subcommands: solve (self-label assignment from a prediction matrix), theory
(Monte Carlo estimator report), train (synthetic end-to-end run), eval
(clustering metrics from label files), gen-data (write a synthetic dataset).
Exit codes: 0 success, 1 computation failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import harness
from .core import (
    ClassPrior,
    LabeledBlock,
    LabelOutOfSeenSet,
    OwsslError,
    PartitionSpec,
    ProbMatrix,
    Rng,
    worker_cap,
)
from .evaluation import clustering_report
from .sinkhorn import (
    SinkhornConfig,
    solve_conditional,
    solve_unconditional,
)
from .theory import PopulationSpec, monte_carlo_ecs

SCHEMA_VERSION = 1


class ParseError(OwsslError):
    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class DimensionMismatch(OwsslError):
    pass


class LengthMismatch(OwsslError):
    pass


class UsageError(OwsslError):
    pass


# ---------------------------------------------------------------------------
# file formats (all indices 0-based, floats written with exact round-trip)


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_header(path, line: str, expected_layout: str) -> dict:
    if not line.startswith("#"):
        raise ParseError(path, 1, "missing header line")
    fields = {}
    for token in line[1:].split():
        if "=" not in token:
            raise ParseError(path, 1, f"malformed header token {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    if fields.get("layout") != expected_layout:
        raise ParseError(path, 1, f"expected layout={expected_layout}, got {fields.get('layout')}")
    return fields


# header keys of each table layout: (row count, column count)
_TABLE_DIMS = {"class-rows": ("k", "n"), "sample-rows": ("n", "d")}


def write_table(path, data: np.ndarray, layout: str) -> None:
    """Write a 2-D float table, one row per line: K x N class rows or N x D sample rows."""
    data = np.asarray(data, dtype=np.float64)
    rows_key, cols_key = _TABLE_DIMS[layout]
    lines = [f"# {rows_key}={data.shape[0]} {cols_key}={data.shape[1]} layout={layout}"]
    lines.extend(",".join(map(repr, row)) for row in data.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path, layout: str) -> np.ndarray:
    """Read a table written by `write_table`, checking its layout and dimensions."""
    text = Path(path).read_text().splitlines()
    if not text:
        raise ParseError(path, 1, "empty file")
    fields = _parse_header(path, text[0], layout)
    rows_key, cols_key = _TABLE_DIMS[layout]
    try:
        n_rows, n_cols = int(fields[rows_key]), int(fields[cols_key])
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad {rows_key}/{cols_key} in header: {exc}") from exc
    if len(text) - 1 != n_rows:
        raise ParseError(path, len(text), f"expected {n_rows} rows, found {len(text) - 1}")
    rows = []
    for i, line in enumerate(text[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(path, i, f"expected {n_cols} columns, found {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ParseError(path, i, str(exc)) from exc
    return np.asarray(rows, dtype=np.float64)


def write_prior(path, prior: ClassPrior) -> None:
    lines = [f"# k={prior.k} layout=prior", ",".join(_fmt(v) for v in prior.probs)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_prior(path) -> ClassPrior:
    text = Path(path).read_text().splitlines()
    if not text:
        raise ParseError(path, 1, "empty file")
    fields = _parse_header(path, text[0], "prior")
    if len(text) < 2:
        raise ParseError(path, 2, "missing prior values")
    try:
        values = [float(v) for v in text[1].split(",")]
    except ValueError as exc:
        raise ParseError(path, 2, str(exc)) from exc
    if "k" in fields and int(fields["k"]) != len(values):
        raise ParseError(path, 2, f"header says k={fields['k']}, found {len(values)} values")
    try:
        return ClassPrior.normalized(values)
    except ValueError as exc:
        raise ParseError(path, 2, str(exc)) from exc


def write_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    lines = [f"# n={labels.size} layout=labels indexing=0-based"]
    lines.append(",".join(str(int(v)) for v in labels) if labels.size else "")
    Path(path).write_text("\n".join(lines) + "\n")


def read_labels(path) -> np.ndarray:
    text = Path(path).read_text().splitlines()
    if not text:
        raise ParseError(path, 1, "empty file")
    fields = _parse_header(path, text[0], "labels")
    body = text[1] if len(text) > 1 else ""
    if body.strip() == "":
        values = np.empty(0, dtype=np.int64)
    else:
        try:
            values = np.asarray([int(v) for v in body.split(",")], dtype=np.int64)
        except ValueError as exc:
            raise ParseError(path, 2, str(exc)) from exc
    if "n" in fields and int(fields["n"]) != values.size:
        raise ParseError(path, 2, f"header says n={fields['n']}, found {values.size} values")
    return values


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from exc


# ---------------------------------------------------------------------------
# subcommands


def _sinkhorn_config(args) -> SinkhornConfig:
    if args.inverse_epsilon is not None:
        epsilon = 1.0 / args.inverse_epsilon
    else:
        epsilon = args.epsilon
    return SinkhornConfig(epsilon=epsilon, max_iters=args.iters, tol=args.tol)


def cmd_solve(args) -> int:
    for required in (args.input, args.prior):
        if not Path(required).exists():
            raise UsageError(f"input file {required} does not exist")
    matrix = read_table(args.input, "class-rows")
    prior = read_prior(args.prior)
    p = ProbMatrix(matrix)
    if p.k != prior.k:
        raise DimensionMismatch(f"matrix has {p.k} classes, prior has {prior.k}")
    cfg = _sinkhorn_config(args)

    conditional = args.labels is not None and not args.unconditional
    if args.conditional and args.labels is None:
        raise UsageError("--conditional requires --labels")
    if conditional:
        if not Path(args.labels).exists():
            raise UsageError(f"labels file {args.labels} does not exist")
        labels = read_labels(args.labels)
        if labels.size > p.n:
            raise DimensionMismatch(f"{labels.size} labels for {p.n} columns")
        assignment = solve_conditional(p, prior, LabeledBlock(labels), cfg)
    else:
        assignment = solve_unconditional(p, prior, cfg)

    write_table(args.out, assignment.q.data, "class-rows")
    _write_json(
        args.report,
        {
            "schema_version": SCHEMA_VERSION,
            "mode": "conditional" if conditional else "unconditional",
            "epsilon": cfg.epsilon,
            "iters_used": assignment.iters_used,
            "converged": assignment.converged,
            "row_marginal_err": assignment.row_marginal_err,
            "col_marginal_err": assignment.col_marginal_err,
            "residual_clamped": assignment.residual_clamped,
        },
    )
    return 0


def _vector_arg(raw: str, name: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad {name} vector {raw!r}: {exc}") from exc


def cmd_theory(args) -> int:
    pl = ClassPrior.normalized(_vector_arg(args.prior_labeled, "prior-labeled"))
    pu = ClassPrior.normalized(_vector_arg(args.prior_unlabeled, "prior-unlabeled"))
    if pl.k != pu.k:
        raise UsageError("labeled and unlabeled priors must have the same length")
    spec = PopulationSpec(pl, pu, args.n_labeled, args.n_unlabeled)
    if args.prior is not None:
        stated = np.asarray(_vector_arg(args.prior, "prior"))
        if stated.size != spec.k or np.abs(stated - spec.prior.probs).max() > 1e-9:
            raise UsageError(
                "stated prior is inconsistent with the mixture of labeled and unlabeled priors"
            )
    started = time.perf_counter()
    report = monte_carlo_ecs(spec, args.trials, Rng(args.seed))
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict()}
    payload["elapsed_seconds"] = time.perf_counter() - started
    _write_json(args.out, payload)
    return 0


def cmd_eval(args) -> int:
    pred = read_labels(args.pred)
    truth = read_labels(args.truth)
    if pred.size != truth.size:
        raise LengthMismatch(f"{pred.size} predictions vs {truth.size} truth labels")
    seen = tuple(int(v) for v in args.seen.split(",")) if args.seen else ()
    novel = tuple(c for c in range(args.k_total) if c not in set(seen))
    n_labeled = max(args.n_labeled, 0)
    partition = PartitionSpec(args.k_total, seen, novel, n_labeled, max(pred.size - n_labeled, 1))
    report = clustering_report(pred, truth, partition)
    _write_json(args.out, {"schema_version": SCHEMA_VERSION, **report})
    return 0


def _dataset_config(payload: dict) -> harness.SyntheticConfig:
    known = {f.name for f in harness.SyntheticConfig.__dataclass_fields__.values()}
    extra = set(payload) - known
    if extra:
        raise UsageError(f"unknown dataset config fields: {sorted(extra)}")
    return harness.SyntheticConfig(**payload)


def _hyper_params(payload: dict) -> harness.HyperParams:
    payload = dict(payload)
    sk = payload.pop("sinkhorn", {})
    if "inverse_epsilon" in sk:
        sk["epsilon"] = 1.0 / sk.pop("inverse_epsilon")
    sinkhorn_cfg = SinkhornConfig(
        epsilon=sk.get("epsilon", 0.1),
        max_iters=sk.get("max_iters", 10),
        tol=sk.get("tol", 0.0),
    )
    known = {f.name for f in harness.HyperParams.__dataclass_fields__.values()}
    extra = set(payload) - known
    if extra:
        raise UsageError(f"unknown train config fields: {sorted(extra)}")
    return harness.HyperParams(sinkhorn=sinkhorn_cfg, **payload)


def _load_run_config(path) -> tuple[harness.SyntheticConfig, harness.HyperParams, list[int]]:
    payload = _load_json(path)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {payload.get('schema_version')!r}")
    data_cfg = _dataset_config(payload.get("dataset", {}))
    hyper = _hyper_params(payload.get("train", {}))
    seeds = [int(s) for s in payload.get("seeds", [hyper.seed])]
    return data_cfg, hyper, seeds


def _write_runlog(outdir: Path, log: harness.RunLog) -> None:
    with (outdir / "runlog.jsonl").open("w") as fh:
        for record in log.to_dicts():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    lines = ["epoch,b_m,b_s,abs_gap"]
    for r in log.records:
        lines.append(f"{r.epoch},{_fmt(r.b_m)},{_fmt(r.b_s)},{_fmt(r.b_gap)}")
    (outdir / "bias.csv").write_text("\n".join(lines) + "\n")


def _write_plot_data(outdir: Path, log: harness.RunLog) -> None:
    lines = ["epoch,metric,value"]
    for r in log.records:
        row = r.to_dict()
        for metric in (
            "loss_sup",
            "loss_cls",
            "loss_conf",
            "loss_total",
            "retained_fraction",
            "acc_seen",
            "acc_novel",
            "acc_all",
            "b_m",
            "b_s",
            "b_gap",
        ):
            lines.append(f"{r.epoch},{metric},{_fmt(row[metric])}")
    (outdir / "plot.csv").write_text("\n".join(lines) + "\n")


_ABLATION_GRID = (
    # (conditional, confidence, hierarchical-thresholds)
    ("base", False, False, False),
    ("conditional", True, False, False),
    ("conditional+confidence", True, True, False),
    ("confidence+hierarchical", False, True, True),
    ("full", True, True, True),
)


def cmd_train(args) -> int:
    data_cfg, hyper, seeds = _load_run_config(args.config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if not args.ablate:
        dataset = harness.generate_dataset(data_cfg)
        _, log = harness.train(dataset, hyper)
        _write_runlog(outdir, log)
        if args.emit_plot_data:
            _write_plot_data(outdir, log)
        final = log.records[-1].to_dict() if log.records else None
        _write_json(
            outdir / "metrics.json",
            {"schema_version": SCHEMA_VERSION, "epochs": len(log), "final": final},
        )
        return 0

    def run_variant(job):
        name, conditional, confidence, hierarchical, seed = job
        dataset = harness.generate_dataset(
            harness.SyntheticConfig(**{**data_cfg.__dict__, "seed": seed})
        )
        variant = harness.HyperParams(
            **{
                **{f: getattr(hyper, f) for f in hyper.__dataclass_fields__},
                "conditional": conditional,
                "confidence": confidence,
                "threshold_policy": "hierarchical" if hierarchical else "static",
                "seed": seed,
            }
        )
        _, log = harness.train(dataset, variant)
        return name, seed, log.records[-1]

    jobs = [
        (name, conditional, confidence, hierarchical, seed)
        for name, conditional, confidence, hierarchical in _ABLATION_GRID
        for seed in seeds
    ]
    # runs are independent and individually deterministic, so the worker
    # count (capped by OWSSL_THREADS) cannot change the summary
    workers = min(worker_cap(), len(jobs))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_variant, jobs))
    else:
        results = [run_variant(job) for job in jobs]

    by_name: dict[str, dict[str, list]] = {
        name: {"seen": [], "novel": [], "all": []} for name, *_ in _ABLATION_GRID
    }
    for name, _seed, last in results:
        by_name[name]["seen"].append(last.acc_seen)
        by_name[name]["novel"].append(last.acc_novel)
        by_name[name]["all"].append(last.acc_all)
    summary = {
        name: {
            "seen_mean": float(np.mean(accs["seen"])),
            "novel_mean": float(np.mean(accs["novel"])),
            "all_mean": float(np.mean(accs["all"])),
            "seeds": seeds,
        }
        for name, accs in by_name.items()
    }
    conditional_helps = (
        summary["conditional"]["novel_mean"] >= summary["base"]["novel_mean"]
    )
    _write_json(
        outdir / "ablation.json",
        {
            "schema_version": SCHEMA_VERSION,
            "grid": summary,
            "conditional_novel_not_worse": bool(conditional_helps),
        },
    )
    return 0


def cmd_gen_data(args) -> int:
    payload = _load_json(args.config)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {payload.get('schema_version')!r}")
    cfg = _dataset_config(payload.get("dataset", {}))
    dataset = harness.generate_dataset(cfg)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_table(outdir / "features.csv", dataset.features, "sample-rows")
    write_labels(outdir / "labels.csv", dataset.labels)
    write_labels(outdir / "labeled.csv", dataset.labeled.labels)
    _write_json(
        outdir / "partition.json",
        {
            "schema_version": SCHEMA_VERSION,
            "indexing": "0-based",
            "k_total": dataset.partition.k_total,
            "seen": list(dataset.partition.seen),
            "novel": list(dataset.partition.novel),
            "n_labeled": dataset.partition.n_labeled,
            "n_unlabeled": dataset.partition.n_unlabeled,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owssl",
        description="Open-world semi-supervised self-labeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a self-label assignment problem")
    solve.add_argument("--input", required=True, help="prediction matrix CSV (class rows)")
    solve.add_argument("--prior", required=True, help="class prior CSV")
    solve.add_argument("--labels", help="ground-truth labels for the leading columns")
    solve.add_argument("--out", required=True, help="output assignment CSV")
    solve.add_argument("--report", required=True, help="output diagnostics JSON")
    mode = solve.add_mutually_exclusive_group()
    mode.add_argument("--conditional", action="store_true", help="pin labeled columns")
    mode.add_argument("--unconditional", action="store_true", help="ignore any labels")
    eps = solve.add_mutually_exclusive_group()
    eps.add_argument("--epsilon", type=float, default=0.1, help="entropy weight")
    eps.add_argument(
        "--inverse-epsilon", type=float, help="inverse temperature; epsilon = 1/value"
    )
    solve.add_argument("--iters", type=int, default=100_000)
    solve.add_argument("--tol", type=float, default=1e-9)
    solve.set_defaults(func=cmd_solve)

    theory = sub.add_parser("theory", help="Monte Carlo estimator reliability report")
    theory.add_argument("--prior-labeled", required=True, help="comma-separated labeled prior")
    theory.add_argument("--prior-unlabeled", required=True, help="comma-separated unlabeled prior")
    theory.add_argument("--prior", help="optional stated overall prior (consistency-checked)")
    theory.add_argument("--n-labeled", type=int, required=True)
    theory.add_argument("--n-unlabeled", type=int, required=True)
    theory.add_argument("--trials", type=int, default=100_000)
    theory.add_argument("--seed", type=int, default=0)
    theory.add_argument("--out", required=True, help="output report JSON")
    theory.set_defaults(func=cmd_theory)

    train = sub.add_parser("train", help="run the synthetic training harness")
    train.add_argument("--config", required=True, help="run config JSON")
    train.add_argument("--outdir", required=True)
    train.add_argument("--ablate", action="store_true", help="run the component grid")
    train.add_argument("--emit-plot-data", action="store_true")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="clustering metrics from label files")
    evaluate.add_argument("--pred", required=True, help="predicted labels CSV")
    evaluate.add_argument("--truth", required=True, help="ground-truth labels CSV")
    evaluate.add_argument("--k-total", type=int, required=True)
    evaluate.add_argument("--seen", required=True, help="comma-separated seen class indices")
    evaluate.add_argument("--n-labeled", type=int, default=0)
    evaluate.add_argument("--out", required=True)
    evaluate.set_defaults(func=cmd_eval)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset to CSV")
    gen.add_argument("--config", required=True, help="run config JSON (dataset section)")
    gen.add_argument("--outdir", required=True)
    gen.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UsageError, DimensionMismatch, LengthMismatch, LabelOutOfSeenSet) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OwsslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
