"""Command-line entry point, on-disk file formats, and run orchestration.

Subcommands: solve (self-label assignment from a prediction matrix), theory
(Monte Carlo estimator report), train (synthetic end-to-end run), eval
(clustering metrics from label files), gen-data (write a synthetic dataset).
Exit codes: 0 success, 1 computation failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    ClassPrior,
    ColumnNotNormalized,
    IndexOutOfRange,
    LabeledBlock,
    NegativeEntry,
    NonFiniteInput,
    OwsslError,
    PartitionSpec,
    ProbMatrix,
    Rng,
    ShapeMismatch,
)
from .sinkhorn import (
    SinkhornConfig,
    solve_conditional,
    solve_unconditional,
)

if TYPE_CHECKING:  # for the annotations only: each command imports the layers it calls
    from . import harness

SCHEMA_VERSION = 1


class ParseError(OwsslError):
    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


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


# each layout: (row-count header key, or None for one row; column-count key;
# value type; header trailer)
_LAYOUTS = {
    "class-rows": ("k", "n", float, ""),
    "sample-rows": ("n", "d", float, ""),
    "prior": (None, "k", float, ""),
    "labels": (None, "n", int, " indexing=0-based"),
}


def write_table(path, data, layout: str) -> None:
    """Write a table, one row per line: K x N class rows, N x D sample rows,
    or the single row of a prior (K floats) or of labels (N ints). Each row is
    formatted and written on its own, so the whole text is never held."""
    rows_key, cols_key, kind, trailer = _LAYOUTS[layout]
    data = np.atleast_2d(np.asarray(data, dtype=kind))
    dims = f"{rows_key}={data.shape[0]} " if rows_key else ""
    with open(path, "w") as fh:
        fh.write(f"# {dims}{cols_key}={data.shape[1]} layout={layout}{trailer}\n")
        for row in data:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


@contextmanager
def _utf8_errors_named(path):
    """Report a byte that is not UTF-8 against its file. The decoder reads ahead
    in chunks, so the line being read when it fails need not hold the bad byte,
    and its position counts from the chunk: neither is reported."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from exc


def read_table(path, layout: str) -> np.ndarray:
    """Read a table written by `write_table` as a 2-D array (one row for a prior
    or labels), checking its layout, its line count and each line's values.

    The array is allocated from the header's dimensions and filled one line at
    a time, so the first fault in file order is the one reported: a bad value
    on a declared row comes before a wrong row count."""
    rows_key, cols_key, kind, _ = _LAYOUTS[layout]
    with open(path, encoding="utf-8") as fh, _utf8_errors_named(path):
        header = fh.readline()
        if not header:
            raise ParseError(path, 1, "empty file")
        fields = _parse_header(path, header, layout)
        try:
            n_rows = int(fields[rows_key]) if rows_key else 1
            n_cols = int(fields[cols_key])
            table = np.empty((n_rows, n_cols), dtype=kind)
        except (KeyError, ValueError, MemoryError) as exc:
            keys = f"{rows_key}/{cols_key}" if rows_key else cols_key
            raise ParseError(path, 1, f"bad {keys} in header: {exc}") from exc
        n_lines = 1
        for n_lines, line in enumerate(fh, start=2):
            row = n_lines - 2
            if row == n_rows:
                n_lines += sum(1 for _ in fh)  # lines past the stated rows are counted, not parsed
                break
            line = line.rstrip("\n")
            parts = line.split(",") if line else []
            if len(parts) != n_cols:
                raise ParseError(path, n_lines, f"expected {n_cols} columns, found {len(parts)}")
            try:
                table[row] = parts  # numpy parses each string as float() / int() does
            except ValueError as exc:
                raise ParseError(path, n_lines, str(exc)) from exc
            except OverflowError as exc:
                raise ParseError(path, n_lines, f"integer out of range for {table.dtype}") from exc
    if n_lines - 1 != n_rows:
        raise ParseError(path, n_lines, f"expected {n_rows} rows, found {n_lines - 1}")
    return table


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path) -> dict:
    def refuse(token: str):
        # Python's json reads these; RFC 8259 JSON has no such numbers
        raise UsageError(f"{path}: {token} is not a JSON number")

    with _utf8_errors_named(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from exc
    except ValueError as exc:
        # json's one other ValueError: an int literal past Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise UsageError(f"{path}: an integer has more than {limit} digits") from exc


def _from_file(path, build, values):
    """`build(values)`, with an input-check failure reported against the file it came from."""
    try:
        return build(values)
    except _INPUT_ERRORS as exc:
        raise UsageError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    p = _from_file(args.input, ProbMatrix, read_table(args.input, "class-rows"))
    prior = _from_file(args.prior, ClassPrior.normalized, read_table(args.prior, "prior")[0])
    cfg = SinkhornConfig(epsilon=args.epsilon, max_iters=args.iters, tol=args.tol)

    conditional = args.labels is not None and not args.unconditional
    if args.conditional and args.labels is None:
        raise UsageError("--conditional requires --labels")
    if conditional:
        labeled = _from_file(args.labels, LabeledBlock, read_table(args.labels, "labels")[0])
        assignment = solve_conditional(p, prior, labeled, cfg)
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


def _vector_arg(raw: str, name: str, kind=float) -> list:
    try:
        return [kind(v) for v in raw.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad {name} vector {raw!r}: {exc}") from exc


def cmd_theory(args) -> int:
    from .theory import PopulationSpec, monte_carlo_ecs

    pl = ClassPrior.normalized(_vector_arg(args.prior_labeled, "prior-labeled"))
    pu = ClassPrior.normalized(_vector_arg(args.prior_unlabeled, "prior-unlabeled"))
    spec = PopulationSpec(pl, pu, args.n_labeled, args.n_unlabeled)
    if args.prior is not None:
        stated = np.asarray(_vector_arg(args.prior, "prior"))
        if stated.size != spec.k or not (np.abs(stated - spec.prior.probs).max() <= 1e-9):
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
    from .evaluation import clustering_report

    pred = read_table(args.pred, "labels")[0]
    truth = read_table(args.truth, "labels")[0]
    seen = tuple(_vector_arg(args.seen, "seen", int)) if args.seen else ()
    novel = tuple(c for c in range(args.k_total) if c not in set(seen))
    partition = PartitionSpec(args.k_total, seen, novel, 0, max(pred.size, 1))
    report = clustering_report(pred, truth, partition)
    _write_json(args.out, {"schema_version": SCHEMA_VERSION, **report})
    return 0


# the JSON types accepted for each config field annotation
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "SinkhornConfig": dict}


def _check_fields(payload, cls, section: str) -> None:
    if not isinstance(payload, dict):
        raise UsageError(f"{section} config must be an object")
    fields = cls.__dataclass_fields__
    extra = set(payload) - set(fields)
    if extra:
        raise UsageError(f"unknown {section} config fields: {sorted(extra)}")
    missing = [name for name, f in fields.items()
               if name not in payload and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise UsageError(f"missing {section} config fields: {missing}")
    for name, value in payload.items():
        kind = fields[name].type
        # bool subclasses int: only a bool fills a bool field, and a bool fills no other
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
            raise UsageError(f"{section} config field {name!r} must be {kind}, got {value!r}")
        # json reads a number past the float range as inf (1e400) or as an int
        # no float holds (400 digits); either would fail only deep inside a run
        try:
            finite = kind not in ("int", "float") or math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise UsageError(f"{section} config field {name!r} is past the float range")


def _load_run_config(path) -> tuple[harness.SyntheticConfig, harness.HyperParams, list[int]]:
    """Check the whole run config, so `gen-data` and `train` refuse the same files."""
    from . import harness

    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: run config must be a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {payload.get('schema_version')!r}")
    dataset = payload.get("dataset", {})
    _check_fields(dataset, harness.SyntheticConfig, "dataset")
    data_cfg = harness.SyntheticConfig(**dataset)
    train = payload.get("train", {})
    _check_fields(train, harness.HyperParams, "train")
    sk = train.get("sinkhorn", {})
    _check_fields(sk, SinkhornConfig, "sinkhorn")
    hyper = harness.HyperParams(**{**train, "sinkhorn": SinkhornConfig(**sk)})
    hyper.check_queue(data_cfg.k_total, int(harness.class_sizes(data_cfg).sum()))
    seeds = payload.get("seeds", [hyper.seed])
    if not isinstance(seeds, list) or not seeds or not all(type(s) is int for s in seeds):
        raise UsageError(f"config field 'seeds' must be a non-empty list of int, got {seeds!r}")
    return data_cfg, hyper, seeds


def _write_runlog(outdir: Path, log: harness.RunLog) -> None:
    with (outdir / "runlog.jsonl").open("w") as fh:
        for record in log.to_dicts():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    lines = ["epoch,b_m,b_s,abs_gap"]
    for r in log.records:
        lines.append(f"{r.epoch},{_fmt(r.b_m)},{_fmt(r.b_s)},{_fmt(r.b_gap)}")
    (outdir / "bias.csv").write_text("\n".join(lines) + "\n")


# the EpochRecord fields written to plot.csv, one row each per epoch
_PLOT_METRICS = (
    "loss_sup", "loss_cls", "loss_conf", "loss_total", "retained_fraction",
    "acc_seen", "acc_novel", "acc_all", "b_m", "b_s", "b_gap",
)


def _write_plot_data(outdir: Path, log: harness.RunLog) -> None:
    lines = ["epoch,metric,value"]
    for r in log.records:
        for metric in _PLOT_METRICS:
            lines.append(f"{r.epoch},{metric},{_fmt(getattr(r, metric))}")
    (outdir / "plot.csv").write_text("\n".join(lines) + "\n")


_ABLATION_GRID = (
    # (name, conditional, confidence, hierarchical-thresholds)
    ("base", False, False, False),
    ("conditional", True, False, False),
    ("conditional+confidence", True, True, False),
    ("confidence+hierarchical", False, True, True),
    ("full", True, True, True),
)


def cmd_train(args) -> int:
    from . import harness

    data_cfg, hyper, seeds = _load_run_config(args.config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if not args.ablate:
        dataset = harness.generate_dataset(data_cfg)
        _, log = harness.train(dataset, hyper)
        _write_runlog(outdir, log)
        if args.emit_plot_data:
            _write_plot_data(outdir, log)
        final = asdict(log.records[-1]) if log.records else None
        _write_json(
            outdir / "metrics.json",
            {"schema_version": SCHEMA_VERSION, "epochs": len(log), "final": final},
        )
        return 0

    summary = {}
    for name, conditional, confidence, hierarchical in _ABLATION_GRID:
        finals = []
        for seed in seeds:
            dataset = harness.generate_dataset(replace(data_cfg, seed=seed))
            variant = replace(
                hyper,
                conditional=conditional,
                confidence=confidence,
                threshold_policy="hierarchical" if hierarchical else "static",
                seed=seed,
            )
            finals.append(harness.train(dataset, variant)[1].records[-1])
        summary[name] = {
            "seen_mean": float(np.mean([r.acc_seen for r in finals])),
            "novel_mean": float(np.mean([r.acc_novel for r in finals])),
            "all_mean": float(np.mean([r.acc_all for r in finals])),
            "seeds": seeds,
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
    from . import harness

    data_cfg, _, _ = _load_run_config(args.config)
    dataset = harness.generate_dataset(data_cfg)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_table(outdir / "features.csv", dataset.features, "sample-rows")
    write_table(outdir / "labels.csv", dataset.labels, "labels")
    write_table(outdir / "labeled.csv", dataset.labeled.labels, "labels")
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
    verify = SinkhornConfig.verification()
    solve.add_argument("--epsilon", type=float, default=verify.epsilon, help="entropy weight")
    solve.add_argument("--iters", type=int, default=verify.max_iters)
    solve.add_argument("--tol", type=float, default=verify.tol)
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
    evaluate.add_argument("--out", required=True)
    evaluate.set_defaults(func=cmd_eval)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset to CSV")
    gen.add_argument("--config", required=True, help="run config JSON (writes its dataset)")
    gen.add_argument("--outdir", required=True)
    gen.set_defaults(func=cmd_gen_data)

    return parser


# exit 2: the input failed a check where it entered the toolkit
_INPUT_ERRORS = (
    ParseError, UsageError, FileNotFoundError, ValueError, ShapeMismatch, NonFiniteInput,
    NegativeEntry, ColumnNotNormalized, IndexOutOfRange,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OwsslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
