"""Summarise saved `perfbench/run.py` logs of parent/change runs as one JSON record.

Usage, from the root of the checkout:

    python3 tools/bench_record.py --parent P1.log P2.log ... --change C1.log C2.log ... \
        [--control A1.log A2.log ...] --out bench/BENCH_<n>.json

Each log is the standard output of one `perfbench/run.py` run. Runs are
grouped by workload, and within a workload the i-th parent log and the i-th
change log (in the order given) form pair i, so give them in the order they
were run, alternating. For every workload and metric the record holds the
parent and change medians, the parent's quartiles, and in how many pairs the
change was better (by the direction `BENCHMARK.json` gives the metric). It
also holds the seeds, run counts, correctness and failure totals, and the
environment fingerprint the runs printed; runs whose fingerprints differ are
refused, since their numbers cannot be compared. After writing the record it
prints one line per workload and metric: the medians, the pairs won, the
parent's quartiles and the relative move of the median, with the metric's
`BENCHMARK.json` bound (a fraction of the parent median) if it has one, and
`past bound` when the change is worse than the parent by more than it.

`perfbench/run.py` rescales its times by a yardstick timed around them and
logs each time sample as measured too, as `raw <name>`. For the metrics taken
from such a sample, the record also holds each run's value computed from the
raw sample, and the line prints the raw move of the median. `--control` takes
runs of the parent from a second checkout, interleaved with the pairs: an A/A
control of how far two runs of one commit read apart. The record holds their
medians and the A/A move of each metric, and the line prints it. A line reads
`not separated from A/A` when the change's move is no larger than the A/A
move, or when its raw and rescaled moves have opposite signs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_LINE = re.compile(r"^(\S+) seed (-?\d+): (\d+) rounds in ")
SAMPLES_LINE = re.compile(r"^  samples (.+): n=\d+ median \S+ all (.*)$")
# the sample each end-to-end metric of perfbench/run.py is the median of, and
# the power it enters with (mc_trials_per_s is trials over the probe's time)
SAMPLE_OF = {"setup_s": ("setup", 1), "train_epoch_ms": ("train", 1), "solve_to_tol_s": ("solve-a", 1),
             "solve_sharp_s": ("solve-b", 1), "mc_trials_per_s": ("mc", -1)}


def parse_log(path: Path) -> dict:
    """Workload, seed, rounds, fingerprint, samples and result of one run log."""
    run = {"samples": {}}
    for line in path.read_text().splitlines():
        if line.startswith("fingerprint "):
            run["fingerprint"] = json.loads(line[len("fingerprint "):])
        elif match := SEED_LINE.match(line):
            run["workload"], run["seed"], run["rounds"] = match[1], int(match[2]), int(match[3])
        elif match := SAMPLES_LINE.match(line):
            run["samples"][match[1]] = [v for v in json.loads(match[2]) if v is not None]
        elif line.startswith('{"correct"'):
            run["result"] = json.loads(line)
    missing = {"fingerprint", "workload", "result"} - run.keys()
    if missing:
        raise ValueError(f"{path}: not a complete perfbench/run.py log (no {', '.join(sorted(missing))})")
    return run


def metric_specs() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def raw_value(run: dict, name: str) -> float | None:
    """The run's metric `name` computed from its raw sample, if it has one."""
    sample, power = SAMPLE_OF.get(name, (None, 0))
    raw, rescaled = run["samples"].get(f"raw {sample}"), run["samples"].get(sample)
    if not raw or not rescaled:
        return None
    ratio = statistics.median(raw) / statistics.median(rescaled)
    return run["result"]["metrics"][name]["value"] * ratio ** power


def summarise(parent: list[dict], change: list[dict], control: list[dict],
              specs: dict[str, dict]) -> dict:
    """Per-metric medians, parent quartiles, pair wins and bounds for one workload,
    with the raw and A/A control medians where the runs have them."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against {len(change)} change runs")
    sides = {"parent": parent, "change": change}
    if control:
        sides["control"] = control
    metrics = {}
    for name, first in parent[0]["result"]["metrics"].items():
        p = [run["result"]["metrics"][name]["value"] for run in parent]
        c = [run["result"]["metrics"][name]["value"] for run in change]
        spec = specs.get(name, {})
        direction = spec.get("better", "lower")
        sign = 1.0 if direction == "lower" else -1.0
        m = metrics[name] = {
            "unit": first["unit"],
            "better": direction,
            "parent_median": statistics.median(p),
            "change_median": statistics.median(c),
            "parent_quartiles": quartiles(p),
            "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "bound": spec.get("bound"),
            "parent": p,
            "change": c,
        }
        if control:
            m["control"] = [run["result"]["metrics"][name]["value"] for run in control]
            m["control_median"] = statistics.median(m["control"])
            if m["parent_median"]:
                m["control_move"] = move(m, "control")
        raw = {side: [raw_value(run, name) for run in runs] for side, runs in sides.items()}
        if all(None not in values for values in raw.values()):
            for side, values in raw.items():
                m[f"raw_{side}"] = values
                m[f"raw_{side}_median"] = statistics.median(values)
    return {
        "seeds": sorted({run["seed"] for run in parent + change}),
        "pairs": len(parent),
        "rounds": {side: [run["rounds"] for run in runs] for side, runs in sides.items()},
        "correct": {side: all(run["result"]["correct"] for run in runs) for side, runs in sides.items()},
        "failed": {side: sum(run["result"]["failed"] for run in runs) for side, runs in sides.items()},
        "metrics": metrics,
    }


def record(parent_logs: list[Path], change_logs: list[Path], control_logs: list[Path] = ()) -> dict:
    runs = {"parent": [parse_log(p) for p in parent_logs], "change": [parse_log(p) for p in change_logs],
            "control": [parse_log(p) for p in control_logs]}
    prints = {json.dumps(run["fingerprint"], sort_keys=True) for side in runs.values() for run in side}
    if len(prints) != 1:
        raise ValueError(f"runs printed {len(prints)} different fingerprints")
    grouped = defaultdict(lambda: {"parent": [], "change": [], "control": []})
    for side, side_runs in runs.items():
        for run in side_runs:
            grouped[run["workload"]][side].append(run)
    specs = metric_specs()
    return {
        "fingerprint": json.loads(prints.pop()),
        "workloads": {name: summarise(g["parent"], g["change"], g["control"], specs)
                      for name, g in sorted(grouped.items())},
    }


def move(m: dict, side: str, prefix: str = "") -> float:
    """Relative move of `side`'s median from the parent's."""
    base = m[f"{prefix}parent_median"]
    return (m[f"{prefix}{side}_median"] - base) / abs(base)


def summary_lines(payload: dict) -> list[str]:
    """One line per workload and metric, in the form CHANGES.md quotes:
    `<workload> <metric> <parent median> -> <change median> <unit>
    (<k>/<n> pairs better; parent IQR a-b; median <move> %[, bound <b> %[: past bound]]
    [; raw <raw move> %][; A/A <control move> %][: not separated from A/A])`."""
    lines = []
    for workload, summary in payload["workloads"].items():
        for name, m in summary["metrics"].items():
            q1, q3 = m["parent_quartiles"]
            line = (f"{workload} {name} {m['parent_median']:g} -> {m['change_median']:g} {m['unit']} "
                    f"({m['change_better_pairs']}/{summary['pairs']} pairs better; "
                    f"parent IQR {q1:g}-{q3:g}")
            if m["parent_median"]:
                change = move(m, "change")
                line += f"; median {100 * change:+.1f} %"
                if m["bound"] is not None:
                    worse = change if m["better"] == "lower" else -change
                    line += f", bound {100 * m['bound']:g} %" + (": past bound" if worse > m["bound"] else "")
                separated = True
                if m.get("raw_parent_median"):
                    raw = move(m, "change", "raw_")
                    line += f"; raw {100 * raw:+.1f} %"
                    separated = raw * change > 0
                if "control_move" in m:
                    control = m["control_move"]
                    line += f"; A/A {100 * control:+.1f} %"
                    separated = separated and abs(change) > abs(control)
                if not separated:
                    line += ": not separated from A/A"
            lines.append(line + ")")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    parser.add_argument("--control", nargs="+", default=[], type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    try:
        payload = record(args.parent, args.change, args.control)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary_lines(payload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
