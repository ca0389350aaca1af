"""Regenerate the committed golden files for the CLI determinism tests.

Run from the repository root:  python3 tests/make_goldens.py

`GOLDENS` is the one list of golden commands: the golden tests, C14 and the
cross-CPU test all run them from it, through `run_golden`, and compare the
files by `moved_files`. `main()` writes the fixture inputs, runs each
command into a scratch directory and copies over only the files that
moved, so a run that changes nothing leaves tests/golden/ as it was.
Review the diffs before committing.

The theory golden holds the correctly rounded Monte Carlo mean: its
`ecs_con_empirical` equals the exact rational sum of the per-trial
chi-square values divided by the trial count (checked by
`tests/test_theory.py`). A run that differs from it in the last digit
reports a fault in the summation, not a stale golden; do not regenerate
it to match one numpy build's reduction order.

`train_variants.json` maps each `train` path of `train_variants()` to the
sha256 of its run log, weights and bias, and `solve_variants.json` each
solver path of `solve_variants()` to the sha256 of its plan and report
fields. A change that moves a path on purpose regenerates the table and
says which digests moved and why.

The `train` and `solve` goldens and the digest tables hold only within one
numpy/BLAS build and CPU path (see the README); `GOLDEN_BUILD` names the
build, numpy's enabled SIMD dispatch targets and the OpenBLAS kernel they
were last verified on, and a failing comparison prints it next to
`build_fingerprint()`.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

# the package is read from this checkout's src/, installed or not, here and
# in the `python -m owssl` subprocesses (as tests/conftest.py does for the tests)
SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path[:0] = [SRC, str(Path(__file__).parent)]

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_BUILD = (
    "Python 3.11.7, numpy 2.4.6, scipy 1.17.1, scipy-openblas 0.3.31.188.0, "
    "numpy dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS core SkylakeX"
)


def numpy_dispatch() -> str:
    """numpy's SIMD dispatch targets that this CPU runs (its exp/log kernels among them)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "baseline only"


def openblas_core() -> str:
    """The kernel family OpenBLAS picked for this CPU, read from the library numpy bundles."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def build_fingerprint() -> str:
    """Python, numpy, scipy and BLAS versions and the CPU paths numpy and OpenBLAS take, as in GOLDEN_BUILD."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy builds without machine-readable config
        blas_name = "BLAS unknown"
    return (
        f"Python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, {blas_name}, "
        f"numpy dispatch {numpy_dispatch()}, OpenBLAS core {openblas_core()}"
    )


def build_note(name: str) -> str:
    """Assertion message for a golden that only holds within one build."""
    return (
        f"{name} differs from its golden; this build: {build_fingerprint()}; "
        f"goldens last verified on: {GOLDEN_BUILD}"
    )


def train_variants() -> dict[str, dict]:
    """The `train` paths the digest table covers, by name, as HyperParams overrides.

    The golden run config crossed with conditional on/off, the three
    threshold policies, the true/adaptive prior and confidence on/off, plus
    the default path with 0 and 3 local views (the config has 1, so only
    these fix the order of the local-view gradients).
    """
    variants = {}
    for conditional in (True, False):
        for policy in ("hierarchical", "static", "adaptive-global"):
            for prior_mode in ("true", "adaptive"):
                for confidence in (True, False):
                    overrides = dict(conditional=conditional, threshold_policy=policy,
                                     prior_mode=prior_mode, confidence=confidence)
                    variants[",".join(f"{k}={v}" for k, v in overrides.items())] = overrides
    for local_views in (0, 3):
        variants[f"local_views={local_views}"] = dict(local_views=local_views)
    return variants


def train_variant_digests() -> dict[str, str]:
    """sha256 of each variant's run-log JSON, weights and bias, trained in process."""
    import hashlib
    from dataclasses import replace

    from owssl import cli as owssl_cli
    from owssl import harness

    data_cfg, hyper, _ = owssl_cli._load_run_config(GOLDEN / "run_config.json")
    dataset = harness.generate_dataset(data_cfg)
    digests = {}
    for name, overrides in train_variants().items():
        model, log = harness.train(dataset, replace(hyper, **overrides))
        h = hashlib.sha256(json.dumps(log.to_dicts(), sort_keys=True).encode())
        h.update(model.weights.tobytes())
        h.update(model.bias.tobytes())
        digests[name] = h.hexdigest()
    return digests


def solve_variants() -> dict[str, tuple]:
    """The solver paths the digest table covers, by name, as (p, prior, labeled, config).

    One seeded K=20, N=600 instance with 150 labeled columns, its prior
    either covering every labeled class count or leaving the last class
    over budget (so its residual marginal clamps), crossed with four
    profiles and with conditional (labeled is a LabeledBlock) or
    unconditional (labeled is None) solves. Four more rows: a K=100 sharp
    solve whose shifted exponents reach the exp floor; a K=100, N=2560
    instance with 512 labeled columns, whose 204 800 unlabeled cells are
    more than the solver's work buffer of 65 536 float64 cells
    (`sinkhorn._WORK_CELLS`) holds, so it runs in blocks, solved
    with the sharp profile and with the verification profile and its last
    class over budget; and a 3 x 6 instance at eps 0.002 that stalls short
    of tol 1e-11, capped at 2000 iterations. The block count of the
    N=2560 rows follows the thread count (two a pass on one or two threads,
    three on three, four on four or more); their bytes do not.
    """
    from owssl.core import ClassPrior, LabeledBlock, ProbMatrix
    from owssl.sinkhorn import SinkhornConfig

    rng = np.random.default_rng(21)
    k, n, n_labeled = 20, 600, 150
    p = ProbMatrix(rng.dirichlet(np.full(k, 0.5), size=n).T)
    within = ClassPrior(rng.dirichlet(np.full(k, 10.0)))
    labeled = LabeledBlock(rng.integers(0, k, size=n_labeled))
    over = within.probs.copy()
    over[-1] = np.bincount(labeled.labels, minlength=k)[-1] / (2 * n)
    priors = {"within": within, "over": ClassPrior.normalized(over)}
    profiles = {
        "training": SinkhornConfig(0.5, 10),
        "verification": SinkhornConfig.verification(0.1),
        "sharp": SinkhornConfig(0.02, 100),
        "eps 1e-300": SinkhornConfig.verification(1e-300),
    }
    variants = {}
    for budget, prior in priors.items():
        for profile, cfg in profiles.items():
            for conditional in (True, False):
                name = f"budget={budget},profile={profile},conditional={conditional}"
                variants[name] = (p, prior, labeled if conditional else None, cfg)

    rng = np.random.default_rng(100)
    wide = ProbMatrix(rng.dirichlet(np.full(100, 0.5), size=500).T)
    variants["K=100,profile=sharp,conditional=True"] = (
        wide, ClassPrior.uniform(100), LabeledBlock(rng.integers(0, 100, size=125)), profiles["sharp"])
    # 100 x 2048 unlabeled cells: four blocks of the solver's work buffer
    rng = np.random.default_rng(2560)
    big = ProbMatrix(rng.dirichlet(np.full(100, 0.5), size=2560).T)
    big_labeled = LabeledBlock(rng.integers(0, 100, size=512))
    big_over = np.full(100, 0.01)
    big_over[-1] = np.bincount(big_labeled.labels, minlength=100)[-1] / (2 * 2560)
    variants["K=100,N=2560,profile=sharp,conditional=True"] = (
        big, ClassPrior.uniform(100), big_labeled, profiles["sharp"])
    variants["K=100,N=2560,budget=over,profile=verification,conditional=True"] = (
        big, ClassPrior.normalized(big_over), big_labeled, profiles["verification"])
    stall = ProbMatrix(np.random.default_rng(11).dirichlet(np.ones(3), size=6).T)
    variants["stall 3x6,eps=0.002,tol=1e-11"] = (
        stall, ClassPrior.uniform(3), None, SinkhornConfig(0.002, 2000, 1e-11))
    return variants


def solve_variant_digest(p, prior, labeled, cfg) -> str:
    """sha256 of one variant's plan bytes and report fields, solved in process."""
    import hashlib
    import warnings

    from owssl.sinkhorn import NoConvergence, solve_conditional, solve_unconditional

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoConvergence)  # a reported field, digested below
        if labeled is None:
            out = solve_unconditional(p, prior, cfg)
        else:
            out = solve_conditional(p, prior, labeled, cfg)
    h = hashlib.sha256(out.q.data.tobytes())
    report = [out.row_marginal_err, out.col_marginal_err, out.iters_used, out.converged,
              out.residual_clamped]
    h.update(json.dumps(report).encode())
    return h.hexdigest()


def solve_variant_digests() -> dict[str, str]:
    """`solve_variant_digest` of every variant, by name."""
    return {name: solve_variant_digest(*variant) for name, variant in solve_variants().items()}


class Golden(NamedTuple):
    argv: tuple[str, ...]  # {golden} stands for tests/golden/, {out} for the output directory
    files: tuple[str, ...]  # what the command writes into {out}, each compared with golden/<name>/
    portable: bool  # its files held on every CPU path tried (see the README); `train` moves


# every golden command, by the golden/ directory its files live in
GOLDENS = {
    # the K=2, N=3 conditional fixture (one labeled class-0 column)
    "solve": Golden(
        ("solve", "--input", "{golden}/solve/p.csv", "--prior", "{golden}/solve/prior.csv",
         "--labels", "{golden}/solve/labels.csv", "--out", "{out}/q.csv", "--report", "{out}/report.json",
         "--epsilon", "0.1"),
        ("q.csv", "report.json"), portable=True),
    # the K=2 worked population
    "theory": Golden(
        ("theory", "--prior-labeled", "0.5,0.5", "--prior-unlabeled", "0.3,0.7", "--n-labeled", "20",
         "--n-unlabeled", "100", "--trials", "20000", "--seed", "7", "--out", "{out}/report.json"),
        ("report.json",), portable=True),
    # gen-data and train share the small run config
    "gen_data": Golden(
        ("gen-data", "--config", "{golden}/run_config.json", "--outdir", "{out}"),
        ("features.csv", "labels.csv", "labeled.csv", "partition.json"), portable=True),
    "train": Golden(
        ("train", "--config", "{golden}/run_config.json", "--outdir", "{out}", "--emit-plot-data"),
        ("runlog.jsonl", "bias.csv", "metrics.json", "plot.csv"), portable=False),
    # a fixture with a permuted novel pair
    "eval": Golden(
        ("eval", "--pred", "{golden}/eval/pred.csv", "--truth", "{golden}/eval/truth.csv", "--k-total", "4",
         "--seen", "0,1", "--out", "{out}/metrics.json"),
        ("metrics.json",), portable=True),
}


def golden_argv(name: str, out: Path) -> list[str]:
    """The `owssl` arguments of golden command `name`, writing into `out`."""
    return [a.replace("{golden}", str(GOLDEN)).replace("{out}", str(out)) for a in GOLDENS[name].argv]


def strip_elapsed(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"elapsed_seconds"' not in line)


def differing_keys(fresh: str, golden: str) -> list[str]:
    """Top-level JSON keys whose values differ, elapsed time left out."""
    a, b = json.loads(fresh), json.loads(golden)
    return sorted(k for k in a.keys() | b.keys() if k != "elapsed_seconds" and a.get(k) != b.get(k))


def moved_files(name: str, out: Path) -> list[str]:
    """The files of golden `name` in `out` that differ from the committed ones.

    Bytes are compared, except that the `theory` report leaves out its
    `elapsed_seconds` line. A file missing on either side has moved.
    """
    moved = []
    for file in GOLDENS[name].files:
        fresh, golden = out / file, GOLDEN / name / file
        if not (fresh.is_file() and golden.is_file()):
            moved.append(file)
        elif name == "theory":
            if strip_elapsed(fresh.read_text()) != strip_elapsed(golden.read_text()):
                moved.append(file)
        elif fresh.read_bytes() != golden.read_bytes():
            moved.append(file)
    return moved


def run_golden(name: str, out: Path, env: dict | None = None) -> list[str]:
    """Run golden command `name` into `out` in a child process; return the files that moved."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out.mkdir(parents=True, exist_ok=True)
    argv = golden_argv(name, out)
    result = subprocess.run([sys.executable, "-m", "owssl", *argv], env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"owssl {' '.join(argv)} exited {result.returncode}: {result.stderr}")
    return moved_files(name, out)


def main() -> None:
    import shutil
    import tempfile

    from owssl.cli import write_table
    from owssl.core import ClassPrior

    # the fixture inputs the golden commands read
    for name in GOLDENS:
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
    write_table(GOLDEN / "solve" / "p.csv", np.array([[0.7, 0.9, 0.2], [0.3, 0.1, 0.8]]), "class-rows")
    write_table(GOLDEN / "solve" / "prior.csv", ClassPrior.uniform(2).probs, "prior")
    write_table(GOLDEN / "solve" / "labels.csv", [0], "labels")
    config = {
        "schema_version": 1,
        "dataset": {
            "k_total": 4,
            "feature_dim": 6,
            "samples_per_class": 20,
            "cluster_separation": 8.0,
            "seed": 11,
        },
        "train": {"epochs": 3, "batch_size": 32, "local_views": 1, "seed": 11},
    }
    (GOLDEN / "run_config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    write_table(GOLDEN / "eval" / "truth.csv", [0, 0, 1, 1, 2, 2, 3, 3], "labels")
    write_table(GOLDEN / "eval" / "pred.csv", [0, 0, 1, 1, 3, 3, 2, 2], "labels")

    # each command runs into a scratch directory; only the files that moved
    # are copied over, by the comparison the tests use
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDENS:
            out = Path(tmp) / name
            for file in run_golden(name, out):
                shutil.copyfile(out / file, GOLDEN / name / file)
                print(f"rewrote {name}/{file}")
    (GOLDEN / "train_variants.json").write_text(json.dumps(train_variant_digests(), indent=2) + "\n")
    (GOLDEN / "solve_variants.json").write_text(json.dumps(solve_variant_digests(), indent=2) + "\n")

    print(f"golden files checked under {GOLDEN}")


if __name__ == "__main__":
    main()
