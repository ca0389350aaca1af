"""Regenerate the committed golden files for the CLI determinism tests.

Run from the repository root:  python3 tests/make_goldens.py
Outputs land in tests/golden/; review diffs before committing.

The theory golden holds the correctly rounded Monte Carlo mean: its
`ecs_con_empirical` equals the exact rational sum of the per-trial
chi-square values divided by the trial count (checked by
`tests/test_theory.py`). A run that differs from it in the last digit
reports a fault in the summation, not a stale golden; do not regenerate
it to match one numpy build's reduction order.

The `train` and `solve` goldens hold only within one numpy/BLAS build (see
the README); `GOLDEN_BUILD` names the build they were last verified on, and
a failing comparison prints it next to `build_fingerprint()`.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_BUILD = "Python 3.11.7, numpy 2.4.6, scipy 1.17.1, scipy-openblas 0.3.31.188.0"


def build_fingerprint() -> str:
    """Python, numpy, scipy and BLAS versions of this interpreter, as in GOLDEN_BUILD."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy builds without machine-readable config
        blas_name = "BLAS unknown"
    return (
        f"Python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, {blas_name}"
    )


def build_note(name: str) -> str:
    """Assertion message for a golden that only holds within one build."""
    return (
        f"{name} differs from its golden; this build: {build_fingerprint()}; "
        f"goldens last verified on: {GOLDEN_BUILD}"
    )


def cli(*args: str, cwd=None) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "owssl", *args], cwd=cwd, capture_output=True, text=True
    )
    if result.returncode != 0:
        raise RuntimeError(f"owssl {' '.join(args)} failed: {result.stderr}")


def main() -> None:
    from owssl.cli import write_table
    from owssl.core import ClassPrior

    GOLDEN.mkdir(exist_ok=True)

    # solve: the K=2, N=3 conditional fixture (one labeled class-0 column)
    solve = GOLDEN / "solve"
    solve.mkdir(exist_ok=True)
    write_table(solve / "p.csv", np.array([[0.7, 0.9, 0.2], [0.3, 0.1, 0.8]]), "class-rows")
    write_table(solve / "prior.csv", ClassPrior.uniform(2).probs, "prior")
    write_table(solve / "labels.csv", [0], "labels")
    cli(
        "solve",
        "--input", str(solve / "p.csv"),
        "--prior", str(solve / "prior.csv"),
        "--labels", str(solve / "labels.csv"),
        "--out", str(solve / "q.csv"),
        "--report", str(solve / "report.json"),
        "--epsilon", "0.1",
    )

    # theory: the K=2 worked population
    theory = GOLDEN / "theory"
    theory.mkdir(exist_ok=True)
    cli(
        "theory",
        "--prior-labeled", "0.5,0.5",
        "--prior-unlabeled", "0.3,0.7",
        "--n-labeled", "20",
        "--n-unlabeled", "100",
        "--trials", "20000",
        "--seed", "7",
        "--out", str(theory / "report.json"),
    )

    # gen-data + train share a small config
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
    for sub in ("gen_data", "train"):
        (GOLDEN / sub).mkdir(exist_ok=True)
    (GOLDEN / "run_config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    cli("gen-data", "--config", str(GOLDEN / "run_config.json"), "--outdir", str(GOLDEN / "gen_data"))
    cli(
        "train",
        "--config", str(GOLDEN / "run_config.json"),
        "--outdir", str(GOLDEN / "train"),
        "--emit-plot-data",
    )

    # eval: fixture with a permuted novel pair
    ev = GOLDEN / "eval"
    ev.mkdir(exist_ok=True)
    write_table(ev / "truth.csv", [0, 0, 1, 1, 2, 2, 3, 3], "labels")
    write_table(ev / "pred.csv", [0, 0, 1, 1, 3, 3, 2, 2], "labels")
    cli(
        "eval",
        "--pred", str(ev / "pred.csv"),
        "--truth", str(ev / "truth.csv"),
        "--k-total", "4",
        "--seen", "0,1",
        "--out", str(ev / "metrics.json"),
    )

    print(f"golden files written under {GOLDEN}")


if __name__ == "__main__":
    main()
