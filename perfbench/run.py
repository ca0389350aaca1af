"""owssl benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout that holds `src/owssl`:

    python3 perfbench/run.py --workload {train,solve,cli-short} --seed N --seconds S --trace {0,1}

A run generates the workload's inputs from the seed and repeats whole rounds
until the next round would end after S seconds. A round is one fixed
schedule: a fresh interpreter that only imports owssl.cli, the workload's CLI
calls, each in a fresh interpreter, and the in-process probes
(`harness.train`, the two `solve_conditional` cases and `monte_carlo_ecs`).
Each time is rescaled by the yardstick timed around it (see yardstick.py).
The first output of every operation is checked by `checks.py`; every later
one must repeat its bytes. With --trace 1 the CLI calls and probes run with
their layer boundaries wrapped (see tracer.py), the probes run once more
untraced to measure the tracing overhead, and the run reports the per-layer
metrics. BENCHMARK.json lists `train` and `solve`; `cli-short` runs by hand.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Spans and per-call statistics go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "solve", "cli-short")
IMPORT_ONLY = [sys.executable, "-c", "import owssl.cli"]
MC_PROBE_TRIALS = 250_000
MIN_ACC_ALL = 0.9  # the train config's clusters are 8 noise radii apart
# BLAS and owssl read these once, at import; 1 keeps runs steady on a shared 2-core box
THREAD_VARS = ("OWSSL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


class Spawner:
    """Runs children through spawner.py, started while this process is still small."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Run one child to its end: (wall seconds, peak RSS in MB, exit code)."""
        request = {"argv": argv, "cwd": str(ROOT), "stderr": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        return answer["wall_s"], answer["rss_mb"], answer["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def snapshot(outdir: Path) -> dict[str, bytes]:
    """Output bytes of one call; JSON files lose `elapsed_seconds`, the one field that may vary."""
    files = {}
    for path in sorted(outdir.rglob("*")):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            payload.pop("elapsed_seconds", None)
            data = json.dumps(payload, sort_keys=True).encode()
        files[str(path.relative_to(outdir))] = data
    return files


@dataclass
class CliCall:
    name: str
    argv: list[str]
    outdir: Path
    check: Callable[[Path], None]


@dataclass
class Probe:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], object]


class Run:
    def __init__(self, workload: str, seed: int, work: Path, spawner: Spawner):
        import numpy as np

        import checks
        import inputs
        from owssl import core, harness, sinkhorn, theory
        from yardstick import Yardstick

        self.spawner = spawner
        self.work = work
        self.stderr = work / "stderr.log"
        self.problems: list[str] = []  # failed checks: the run is not correct
        self.failures: list[str] = []  # failed operations, counted in `failed`
        self.attempted = 0
        self.failed = 0
        self.first_cli: dict[str, dict] = {}
        self.first_probe: dict[str, object] = {}

        cfg = inputs.train_config(seed)
        case_a, case_b = inputs.solve_case_a(seed), inputs.solve_case_b(seed)
        pop = inputs.population(seed)
        ev = inputs.eval_case(seed)
        self.epochs = cfg["train"]["epochs"]

        src = work / "inputs"
        src.mkdir(parents=True)
        inputs.write_json(src / "run.json", cfg)
        out = work / "out"

        def solve_call(case) -> CliCall:
            stem = src / case.name
            inputs.write_matrix(stem.with_suffix(".p.csv"), case.p)
            inputs.write_prior(stem.with_suffix(".prior.csv"), case.prior)
            inputs.write_labels(stem.with_suffix(".labels.csv"), case.labels)
            prior = case.prior / case.prior.sum()  # what the CLI reads back

            def check(d: Path):
                q = checks.read_matrix(d / "q.csv")
                checks.check_solve_plan(case.p, prior, case.labels, case.epsilon, case.tol, q)
                checks.check_solve_report(case.p, prior, case.labels, case.epsilon, case.iters,
                                          case.tol, q, checks.read_json(d / "report.json"))

            d = out / case.name
            return CliCall(case.name, [
                "solve", "--input", str(stem.with_suffix(".p.csv")),
                "--prior", str(stem.with_suffix(".prior.csv")),
                "--labels", str(stem.with_suffix(".labels.csv")),
                "--out", str(d / "q.csv"), "--report", str(d / "report.json"),
                "--epsilon", repr(case.epsilon), "--iters", str(case.iters), "--tol", repr(case.tol),
            ], d, check)

        if workload == "train":
            self.cli = [CliCall(
                "train",
                ["train", "--config", str(src / "run.json"), "--outdir", str(out / "train"),
                 "--emit-plot-data"],
                out / "train",
                lambda d: checks.check_train_outputs(d, self.epochs, MIN_ACC_ALL),
            )]
        elif workload == "solve":
            self.cli = [solve_call(case_a), solve_call(case_b)]
        else:
            inputs.write_labels(src / "pred.csv", ev.pred)
            inputs.write_labels(src / "truth.csv", ev.truth)
            self.cli = [
                CliCall("gen-data", ["gen-data", "--config", str(src / "run.json"),
                                     "--outdir", str(out / "gen-data")],
                        out / "gen-data", lambda d: checks.check_gen_data(cfg["dataset"], d)),
                CliCall("eval", ["eval", "--pred", str(src / "pred.csv"),
                                 "--truth", str(src / "truth.csv"), "--k-total", str(ev.k),
                                 "--seen", ",".join(map(str, ev.seen)),
                                 "--out", str(out / "eval" / "metrics.json")],
                        out / "eval",
                        lambda d: checks.check_eval(ev.expected, checks.read_json(d / "metrics.json"))),
                CliCall("theory", ["theory", "--prior-labeled", inputs.vector_arg(pop.prior_labeled),
                                   "--prior-unlabeled", inputs.vector_arg(pop.prior_unlabeled),
                                   "--n-labeled", str(pop.n_labeled),
                                   "--n-unlabeled", str(pop.n_unlabeled),
                                   "--trials", str(pop.trials), "--seed", str(pop.mc_seed),
                                   "--out", str(out / "theory" / "report.json")],
                        out / "theory",
                        lambda d: checks.check_theory(pop.prior_labeled, pop.prior_unlabeled,
                                                      pop.n_labeled, pop.n_unlabeled, pop.trials,
                                                      checks.read_json(d / "report.json"))),
            ]

        # in-process probes: inputs are built once, outside the timed calls
        data_cfg = harness.SyntheticConfig(**cfg["dataset"])
        dataset = harness.generate_dataset(data_cfg)
        sizes = checks.class_sizes(data_cfg.samples_per_class, data_cfg.imbalance_factor,
                                   data_cfg.k_total)
        train_args = dict(cfg["train"])
        hyper = harness.HyperParams(sinkhorn=sinkhorn.SinkhornConfig(**train_args.pop("sinkhorn")),
                                    **train_args)

        def solve_probe(case) -> Probe:
            p = core.ProbMatrix(case.p)
            prior = core.ClassPrior(case.prior)
            block = core.LabeledBlock(case.labels)
            cfg_s = sinkhorn.SinkhornConfig(case.epsilon, case.iters, case.tol)
            return Probe(
                case.name,
                lambda: sinkhorn.solve_conditional(p, prior, block, cfg_s),
                lambda a: checks.check_solve_plan(case.p, case.prior, case.labels, case.epsilon,
                                                  case.tol, a.q.data),
                lambda a: a.q.data.tobytes(),
            )

        spec = theory.PopulationSpec(core.ClassPrior(pop.prior_labeled),
                                     core.ClassPrior(pop.prior_unlabeled),
                                     pop.n_labeled, pop.n_unlabeled)
        self.probes = {p.name: p for p in (
            # no end-to-end metric; it keeps harness.generate_dataset in every traced round
            Probe("dataset", lambda: harness.generate_dataset(data_cfg),
                  lambda d: checks.require(np.array_equal(np.bincount(d.labels), sizes),
                                           "class sizes do not follow the geometric formula"),
                  lambda d: d.features.tobytes() + d.labels.tobytes()),
            Probe("train", lambda: harness.train(dataset, hyper),
                  lambda r: checks.check_runlog(r[1].to_dicts(), self.epochs, MIN_ACC_ALL),
                  lambda r: json.dumps(r[1].to_dicts())),
            solve_probe(case_a),
            solve_probe(case_b),
            Probe("mc", lambda: theory.monte_carlo_ecs(spec, MC_PROBE_TRIALS, core.Rng(pop.mc_seed)),
                  lambda r: checks.check_theory(pop.prior_labeled, pop.prior_unlabeled,
                                                pop.n_labeled, pop.n_unlabeled, MC_PROBE_TRIALS,
                                                r.to_dict()),
                  lambda r: json.dumps(r.to_dict())),
        )}
        # Host speed drifts in phases of about a second, so each value is sampled at
        # several points of a round: the short probes run more than once and the CLI
        # calls sit between the probes rather than in one block. Case (a), whose samples
        # spread most, runs most.
        probe = self.probes
        ops = ["setup", probe["dataset"], probe["train"], probe["solve-a"], probe["mc"],
               probe["solve-b"], probe["solve-a"], probe["mc"], probe["solve-a"]]
        per = -(-len(ops) // len(self.cli))
        self.schedule = []
        for j, call in enumerate(self.cli):
            self.schedule += ops[j * per:(j + 1) * per] + [call]
        self.schedule += ops[len(self.cli) * per:]
        self.yardstick = Yardstick()
        self.underflow_b = float((np.maximum(case_b.p, 1e-12) ** (1.0 / case_b.epsilon) == 0).mean())

    # -- one operation each ---------------------------------------------------

    def _checked(self, what: str, fn: Callable[[], None]) -> None:
        """Run a check; a failure is recorded and marks the run incorrect."""
        try:
            fn()
        except Exception:
            self.problems.append(f"{what}: {traceback.format_exc(limit=2).strip()}")

    def run_cli(self, call: CliCall, tracer=None) -> tuple[float, float, int]:
        shutil.rmtree(call.outdir, ignore_errors=True)
        call.outdir.mkdir(parents=True)
        if tracer is None:
            argv = [sys.executable, "-m", "owssl", *call.argv]
        else:
            spans_file = self.work / "cli-spans.json"
            argv = [sys.executable, str(BENCH / "tracecli.py"), str(spans_file), *call.argv]
            idx = tracer.begin(f"bench.cli.{call.name}")
        wall, rss, code = self.spawner.run(argv, self.stderr)
        self.attempted += 1
        if tracer is not None:
            tracer.end(idx)
            if spans_file.exists():
                data = json.loads(spans_file.read_text())
                tracer.adopt(data["spans"], data["counts"], idx)
                spans_file.unlink()
        if code != 0:
            self.failed += 1
            self.failures.append(f"owssl {call.name} exited with {code}; see {self.stderr}")
            return wall, rss, 0
        files = snapshot(call.outdir)
        if call.name not in self.first_cli:
            # checked once; every later round must repeat these bytes, so it passes the same checks
            self._checked(call.name, lambda: call.check(call.outdir))
            self.first_cli[call.name] = files
        elif files != self.first_cli[call.name]:
            self.problems.append(f"owssl {call.name} output differs from the first round")
        return wall, rss, sum(len(v) for v in files.values())

    def run_probe(self, probe: Probe, tracer=None) -> float | None:
        idx = tracer.begin(f"bench.probe.{probe.name}") if tracer is not None else None
        start = time.perf_counter()
        try:
            result = probe.call()
        except Exception:
            self.failed += 1
            self.failures.append(f"probe {probe.name}: {traceback.format_exc(limit=3).strip()}")
            return None
        finally:
            seconds = time.perf_counter() - start
            self.attempted += 1
            if idx is not None:
                tracer.end(idx)
        digest = probe.digest(result)
        if probe.name not in self.first_probe:
            self._checked(f"probe {probe.name}", lambda: probe.check(result))
            self.first_probe[probe.name] = digest
        elif digest != self.first_probe[probe.name]:
            self.problems.append(f"probe {probe.name} result differs from the first round")
        return seconds

    # -- rounds -----------------------------------------------------------------

    def round(self, samples: dict[str, list]) -> None:
        """Every operation of the schedule once; appends one value per operation to samples.

        Times are rescaled by the yardstick timed around each operation; the
        measured times go to samples too, under "raw <name>".
        """
        walls, rss = [], []
        for op in self.schedule:
            if op == "setup":
                name = "setup"
                wall, _, code = self.spawner.run(IMPORT_ONLY, self.stderr)
                self.attempted += 1
                if code != 0:
                    self.failed += 1
                    self.failures.append(f"import owssl.cli exited with {code}")
                    wall = None
            elif isinstance(op, CliCall):
                name = f"cli {op.name}"
                wall, peak, _ = self.run_cli(op)
                rss.append(peak)
            else:
                name = op.name
                wall = self.run_probe(op)
            samples[f"raw {name}"].append(wall)
            samples[name].append(self.yardstick.rescale(wall))
            if isinstance(op, CliCall):
                walls.append(samples[name][-1])
        samples["wall_s"].append(sum(walls))
        samples["peak_rss_mb"].append(max(rss))

    def traced_round(self) -> tuple[dict, list]:
        from tracer import Tracer, layer_metrics, self_times

        tracer = Tracer()
        written = 0
        for call in self.cli:
            written += self.run_cli(call, tracer)[2]
        first_inproc = len(tracer.spans)
        self.missing = tracer.install()
        try:
            for p in self.probes.values():
                self.run_probe(p, tracer)
        finally:
            tracer.uninstall()
        untraced = [self.run_probe(p) for p in self.probes.values()]
        metrics = layer_metrics(tracer.spans, tracer.counts)
        metrics["cli.bytes_written"] = written
        # every in-process span sits below a probe's root span, so this is the traced probe time
        metrics["trace.self_sum_s"] = sum(self_times(tracer.spans)[first_inproc:])
        metrics["trace.inproc_s"] = sum(t for t in untraced if t is not None)
        return metrics, tracer.spans


def median(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise RuntimeError("no successful sample")
    return statistics.median(values)


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "train_epoch_ms": "ms",
                    "solve_to_tol_s": "s", "solve_sharp_s": "s", "mc_trials_per_s": "trials/s"}


def write_trace(work: Path, rounds: list[list], env: dict, missing: list[str]) -> None:
    """All spans as JSON lines (trace id, name, start, end, parent, self) plus per-name statistics."""
    from tracer import self_times, summarize

    with (work / "spans.jsonl").open("w") as fh:
        for r, spans in enumerate(rounds):
            root = []
            for i, ((name, start, end, parent), own) in enumerate(zip(spans, self_times(spans))):
                root.append(i if parent < 0 else root[parent])
                fh.write(json.dumps({"trace": f"r{r}:{spans[root[i]][0]}", "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "self": own}) + "\n")
    summary = {"fingerprint": env, "unwrapped": missing,
               "per_round": [summarize(spans) for spans in rounds]}
    (work / "trace_summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "owssl" / "__init__.py").is_file():
        print(f"error: {SRC / 'owssl'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # must precede the first numpy import, here and in every child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    spawner = Spawner()
    try:
        return measure(args, spawner)
    finally:
        spawner.close()


def measure(args, spawner: Spawner) -> int:
    sys.path.insert(0, str(SRC))
    import owssl

    if Path(owssl.__file__).resolve().parent != SRC / "owssl":
        print(f"error: owssl imported from {owssl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = fingerprint()
    print("fingerprint " + json.dumps(env, sort_keys=True))

    run = Run(args.workload, args.seed, work, spawner)
    print(f"inputs: solve-b has {run.underflow_b:.3f} of p**(1/eps) underflowing to 0")

    if args.trace:
        probe = subprocess.run([sys.executable, "-c", "import sys, owssl.cli; print(len(sys.modules))"],
                               cwd=ROOT, capture_output=True, text=True, check=True)
        import_modules = int(probe.stdout)

    start = time.perf_counter()
    rounds, traced = 0, []
    samples = defaultdict(list)
    while True:
        began = time.perf_counter()
        if args.trace:
            metrics, spans = run.traced_round()
            traced.append(spans)
            for name, value in metrics.items():
                samples[name].append(value)
        else:
            run.round(samples)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break
    elapsed = time.perf_counter() - start

    for failure in run.failures:
        print(f"FAILED OPERATION {failure}")
    for problem in run.problems:
        print(f"FAILED CHECK {problem}")
    print(f"{args.workload} seed {args.seed}: {rounds} rounds in {elapsed:.1f} s, "
          f"{run.attempted} operations, {run.failed} failed")

    if args.trace:
        from tracer import unit_of

        write_trace(work, traced, env, run.missing)
        values = {name: median(v) for name, v in samples.items()}
        values["cli.import_modules"] = import_modules
        values["trace.overhead_s"] = values["trace.self_sum_s"] - values["trace.inproc_s"]
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in values}
        print(f"trace: in-process self times sum to {values['trace.self_sum_s']:.4f} s = "
              f"untraced {values['trace.inproc_s']:.4f} s + overhead {values['trace.overhead_s']:.4f} s;"
              f" spans in {work.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": median(samples["setup"]),
            "wall_s": median(samples["wall_s"]),
            "peak_rss_mb": median(samples["peak_rss_mb"]),
            "train_epoch_ms": 1e3 * median(samples["train"]) / run.epochs,
            "solve_to_tol_s": median(samples["solve-a"]),
            "solve_sharp_s": median(samples["solve-b"]),
            "mc_trials_per_s": MC_PROBE_TRIALS / median(samples["mc"]),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}
        samples["yardstick"] = run.yardstick.times
        for name, values_ in sorted(samples.items()):
            print(f"  samples {name}: n={len(values_)} median {median(values_):.4f} "
                  f"all {json.dumps(values_)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
