"""Summarise saved `perfbench/run.py` logs of parent/change runs as one JSON record.

Usage, from the root of the checkout:

    python3 tools/bench_record.py --parent P1.log P2.log ... --change C1.log C2.log ... \
        --out bench/BENCH_<n>.json

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


def parse_log(path: Path) -> dict:
    """Workload, seed, rounds, fingerprint and result of one run log."""
    run = {}
    for line in path.read_text().splitlines():
        if line.startswith("fingerprint "):
            run["fingerprint"] = json.loads(line[len("fingerprint "):])
        elif match := SEED_LINE.match(line):
            run["workload"], run["seed"], run["rounds"] = match[1], int(match[2]), int(match[3])
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


def summarise(parent: list[dict], change: list[dict], specs: dict[str, dict]) -> dict:
    """Per-metric medians, parent quartiles, pair wins and bounds for one workload."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against {len(change)} change runs")
    metrics = {}
    for name, first in parent[0]["result"]["metrics"].items():
        p = [run["result"]["metrics"][name]["value"] for run in parent]
        c = [run["result"]["metrics"][name]["value"] for run in change]
        spec = specs.get(name, {})
        direction = spec.get("better", "lower")
        sign = 1.0 if direction == "lower" else -1.0
        metrics[name] = {
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
    sides = {"parent": parent, "change": change}
    return {
        "seeds": sorted({run["seed"] for run in parent + change}),
        "pairs": len(parent),
        "rounds": {side: [run["rounds"] for run in runs] for side, runs in sides.items()},
        "correct": {side: all(run["result"]["correct"] for run in runs) for side, runs in sides.items()},
        "failed": {side: sum(run["result"]["failed"] for run in runs) for side, runs in sides.items()},
        "metrics": metrics,
    }


def record(parent_logs: list[Path], change_logs: list[Path]) -> dict:
    runs = {"parent": [parse_log(p) for p in parent_logs], "change": [parse_log(p) for p in change_logs]}
    prints = {json.dumps(run["fingerprint"], sort_keys=True) for side in runs.values() for run in side}
    if len(prints) != 1:
        raise ValueError(f"runs printed {len(prints)} different fingerprints")
    grouped = defaultdict(lambda: {"parent": [], "change": []})
    for side, side_runs in runs.items():
        for run in side_runs:
            grouped[run["workload"]][side].append(run)
    specs = metric_specs()
    return {
        "fingerprint": json.loads(prints.pop()),
        "workloads": {name: summarise(g["parent"], g["change"], specs)
                      for name, g in sorted(grouped.items())},
    }


def summary_lines(payload: dict) -> list[str]:
    """One line per workload and metric, in the form CHANGES.md quotes:
    `<workload> <metric> <parent median> -> <change median> <unit>
    (<k>/<n> pairs better; parent IQR a-b; median <move> %[, bound <b> %[: past bound]])`."""
    lines = []
    for workload, summary in payload["workloads"].items():
        for name, m in summary["metrics"].items():
            q1, q3 = m["parent_quartiles"]
            line = (f"{workload} {name} {m['parent_median']:g} -> {m['change_median']:g} {m['unit']} "
                    f"({m['change_better_pairs']}/{summary['pairs']} pairs better; "
                    f"parent IQR {q1:g}-{q3:g}")
            if m["parent_median"]:
                move = (m["change_median"] - m["parent_median"]) / abs(m["parent_median"])
                line += f"; median {100 * move:+.1f} %"
                if m["bound"] is not None:
                    worse = move if m["better"] == "lower" else -move
                    line += f", bound {100 * m['bound']:g} %" + (": past bound" if worse > m["bound"] else "")
            lines.append(line + ")")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    try:
        payload = record(args.parent, args.change)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary_lines(payload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
