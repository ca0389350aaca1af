import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from owssl.cli import SCHEMA_VERSION, ParseError, _write_json, read_table, write_table
from owssl.core import ClassPrior, Rng
from owssl.theory import PopulationSpec

from make_goldens import (
    GOLDEN,
    GOLDENS,
    build_fingerprint,
    build_note,
    differing_keys,
    golden_argv,
    numpy_dispatch,
    openblas_core,
    run_golden,
    strip_elapsed,
    train_variant_digests,
)
from oracles import monte_carlo_ecs_serial, sinkhorn_extended

DIGITS_400 = "1" + "0" * 400  # an int literal no float holds


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "owssl", *args], cwd=cwd, capture_output=True, text=True
    )


class TestFormats:
    def test_matrix_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.dirichlet(np.ones(3), size=5).T
        path = tmp_path / "m.csv"
        write_table(path, mat, "class-rows")
        back = read_table(path, "class-rows")
        assert back.tobytes() == mat.tobytes()

    def test_prior_roundtrip(self, tmp_path):
        prior = ClassPrior(np.array([0.25, 0.375, 0.375]))
        path = tmp_path / "prior.csv"
        write_table(path, prior.probs, "prior")
        assert path.read_text() == "# k=3 layout=prior\n0.25,0.375,0.375\n"
        back = ClassPrior.normalized(read_table(path, "prior")[0])
        assert back.probs.tobytes() == prior.probs.tobytes()

    def test_labels_roundtrip_including_empty(self, tmp_path):
        for labels in (np.array([3, 1, 4, 1, 5]), np.empty(0, dtype=np.int64)):
            path = tmp_path / "labels.csv"
            write_table(path, labels, "labels")
            assert path.read_text().startswith(f"# n={labels.size} layout=labels indexing=0-based\n")
            back = read_table(path, "labels")
            assert back.dtype == np.int64 and back.shape == (1, labels.size)
            np.testing.assert_array_equal(back[0], labels)

    def test_features_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(7, 3)) * 1e3
        path = tmp_path / "features.csv"
        write_table(path, feats, "sample-rows")
        assert path.read_text().startswith("# n=7 d=3 layout=sample-rows\n")
        assert read_table(path, "sample-rows").tobytes() == feats.tobytes()

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# k=2 n=2 layout=class-rows\n0.5,0.5\n0.5,nope\n")
        with pytest.raises(ParseError) as err:
            read_table(path, "class-rows")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "layout, text, line, message",
        [
            ("class-rows", "# k=2 layout=class-rows\n0.5\n", 1, "bad k/n in header: 'n'"),
            ("sample-rows", "# n=x d=2 layout=sample-rows\n", 1, "bad n/d in header"),
            ("class-rows", "# k=2 n=1 layout=class-rows\n1.0\n", 2, "expected 2 rows, found 1"),
            ("sample-rows", "# n=2 d=3 layout=sample-rows\n1,2,3\n1,2\n", 3,
             "expected 3 columns, found 2"),
            ("prior", "# k=2 layout=prior\n0.5,0.5\n0.5,0.5\n", 3, "expected 1 rows, found 2"),
            ("prior", "# layout=prior\n0.5,0.5\n", 1, "bad k in header: 'k'"),
            ("labels", "# n=3 layout=labels indexing=0-based\n0,1\n", 2,
             "expected 3 columns, found 2"),
            ("labels", "# n=2 layout=labels indexing=0-based\n0,99999999999999999999\n", 2,
             "integer out of range for int64"),
            # lines are read in order: a fault on a stated row comes before a wrong row count
            ("class-rows", "# k=3 n=2 layout=class-rows\n0.5,nope\n0.5,0.5\n", 2,
             "could not convert string to float: 'nope'"),
            ("class-rows", "# k=1 n=2 layout=class-rows\n0.5,nope\n0.5,0.5\n", 2,
             "could not convert string to float: 'nope'"),
            ("class-rows", "# k=2 n=2 layout=class-rows\n0.5\n0.5,0.5\n0.5,0.5\n", 2,
             "expected 2 columns, found 1"),
        ],
    )
    def test_table_errors_name_line_and_cause(self, tmp_path, layout, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_table(path, layout)
        assert err.value.line == line
        assert message in str(err.value)

    @pytest.mark.parametrize("layout", ["class-rows", "labels"])
    @pytest.mark.parametrize(
        "token",
        ["1_0", " 2 ", "\u0967\u0968", "inf", "nan", "1e400", "0x1p3", "", "nope",
         "99999999999999999999", "9" * 5000],
        ids=["underscore", "spaces", "devanagari", "inf", "nan", "1e400", "hex-float", "empty",
             "word", "past-int64", "past-digit-limit"],
    )
    def test_values_parse_as_float_and_int_do(self, tmp_path, layout, token):
        # the reader hands each line's strings to numpy, which reads them by
        # float() or int(): the same values, and the same faults as ParseErrors
        path = tmp_path / "t.csv"
        if layout == "class-rows":
            header, kind, dtype = "# k=1 n=2 layout=class-rows", float, np.float64
        else:
            header, kind, dtype = "# n=2 layout=labels indexing=0-based", int, np.int64
        path.write_text(f"{header}\n{token},1\n")
        try:
            want = np.array([kind(token), 1], dtype=dtype)
        except ValueError as exc:
            message = str(exc)
        except OverflowError:
            message = "integer out of range for int64"
        else:
            assert read_table(path, layout)[0].tobytes() == want.tobytes()
            return
        with pytest.raises(ParseError) as err:
            read_table(path, layout)
        assert err.value.line == 2 and str(err.value).endswith(f":2: {message}")

    def test_wrong_layout_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# k=2 n=1 layout=prior\n1.0\n0.0\n")
        with pytest.raises(ParseError):
            read_table(path, "class-rows")


class TestStreamedTables:
    """Tables go through memory one row at a time: the traced peak follows the
    array, not the text. Formatting or parsing one line of N floats holds about
    ten times the line's length in Python objects; a reader or writer that
    holds the whole text peaks near eight times the array's bytes."""

    @staticmethod
    def table():
        return np.random.default_rng(2).dirichlet(np.ones(50), size=10_000).T.copy()

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def budget(data, path) -> int:
        with open(path) as fh:
            longest = max(len(line) for line in fh)
        return data.nbytes + 16 * longest

    def test_write_holds_a_few_rows(self, tmp_path):
        data, path = self.table(), tmp_path / "m.csv"
        peak = self.traced_peak(lambda: write_table(path, data, "class-rows"))
        assert peak < self.budget(data, path), (peak, data.nbytes)

    def test_read_holds_the_array_and_a_few_rows(self, tmp_path):
        data, path = self.table(), tmp_path / "m.csv"
        write_table(path, data, "class-rows")
        back = []
        peak = self.traced_peak(lambda: back.append(read_table(path, "class-rows")))
        assert peak < self.budget(data, path), (peak, data.nbytes)
        assert back[0].tobytes() == data.tobytes()


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        # owssl never imports scipy; this guards start-up against a stray import
        result = subprocess.run(
            [sys.executable, "-c", "import sys, owssl.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_cli_import_leaves_thread_pool_unloaded(self):
        # no command imports concurrent.futures, and only a run that starts a
        # helper thread imports queue; this guards start-up against a stray import
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, owssl.cli; print('concurrent.futures' in sys.modules, 'queue' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False False"

    def test_blocked_solve_leaves_thread_pool_unloaded(self, tmp_path):
        # a 100 x 1536 kernel, more than one work buffer, on two usable CPUs:
        # the solver starts a helper thread without concurrent.futures
        rng = np.random.default_rng(3)
        write_table(tmp_path / "p.csv", rng.dirichlet(np.ones(100), size=1536).T, "class-rows")
        write_table(tmp_path / "prior.csv", ClassPrior.uniform(100).probs, "prior")
        script = (
            "import sys, threading\n"
            "from owssl import sinkhorn\n"
            "from owssl.cli import main\n"
            "sinkhorn._usable_cpus = lambda: 2\n"
            "started = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(len(started), 'concurrent.futures' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, "solve", "--input", str(tmp_path / "p.csv"),
             "--prior", str(tmp_path / "prior.csv"), "--unconditional", "--iters", "3", "--tol", "0",
             "--out", str(tmp_path / "q.csv"), "--report", str(tmp_path / "report.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1 False"
        assert (tmp_path / "q.csv").is_file()

    def test_theory_leaves_thread_pool_unloaded(self, tmp_path):
        # a run of two Monte Carlo chunks on two usable CPUs: the caller and
        # one helper thread take them, without concurrent.futures
        script = (
            "import sys, threading\n"
            "from owssl import theory\n"
            "from owssl.cli import main\n"
            "theory._usable_cpus = lambda: 2\n"
            "started = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(len(started), 'concurrent.futures' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, "theory", "--prior-labeled", "0.5,0.5",
             "--prior-unlabeled", "0.3,0.7", "--n-labeled", "20", "--n-unlabeled", "100",
             "--trials", "40000", "--out", str(tmp_path / "report.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1 False"
        assert json.loads((tmp_path / "report.json").read_text())["trials"] == 40_000

    def test_train_and_eval_leave_scipy_unloaded(self, tmp_path):
        # both commands run Hungarian matching, the one place that once used scipy
        script = (
            "import sys\n"
            "from owssl.cli import main\n"
            "argv = sys.argv[1:]\n"
            "split = argv.index('--')\n"
            "assert main(argv[:split]) == 0\n"
            "assert main(argv[split + 1:]) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *golden_argv("train", tmp_path / "train"), "--",
             *golden_argv("eval", tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
        assert (tmp_path / "train" / "runlog.jsonl").is_file()
        assert (tmp_path / "metrics.json").is_file()

    def test_cli_import_loads_only_core_and_sinkhorn(self):
        # the parser reads SinkhornConfig; every other layer loads in the command that calls it
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, owssl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'owssl'))"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == str(["owssl", "owssl.cli", "owssl.core", "owssl.sinkhorn"])

    def test_solve_leaves_other_layers_unloaded(self, tmp_path):
        unused = ["owssl.harness", "owssl.theory", "owssl.evaluation", "owssl.threshold",
                  "owssl.objectives", "numpy.random"]
        script = (
            "import sys\n"
            "from owssl.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            f"print([m for m in {unused!r} if m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *golden_argv("solve", tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
        assert (tmp_path / "q.csv").is_file()

    def test_imports_are_declared_dependencies(self):
        # a lazy import inside a function counts too: ast sees every statement
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            declared = tomllib.load(fh)["project"]["dependencies"]
        deps = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in declared}
        imported = {}
        for path in sorted((root / "src" / "owssl").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top not in sys.stdlib_module_names and top != "owssl":
                        imported.setdefault(top, path.name)
        assert deps == {"numpy"}
        assert set(imported) <= deps, f"undeclared imports (module: first file): {imported}"


class TestExitCodes:
    def test_conditional_without_labels_is_usage_error(self, tmp_path):
        result = run_cli(
            "solve",
            "--input", str(GOLDEN / "solve" / "p.csv"),
            "--prior", str(GOLDEN / "solve" / "prior.csv"),
            "--conditional",
            "--out", str(tmp_path / "q.csv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert result.returncode == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        inputs = {name: str(GOLDEN / "solve" / f"{name}.csv") for name in ("p", "prior", "labels")}
        for missing, flag in (("p", "--input"), ("prior", "--prior"), ("labels", "--labels")):
            paths = dict(inputs, **{missing: str(tmp_path / "nope.csv")})
            result = run_cli(
                "solve",
                "--input", paths["p"],
                "--prior", paths["prior"],
                "--labels", paths["labels"],
                "--out", str(tmp_path / "q.csv"),
                "--report", str(tmp_path / "r.json"),
            )
            assert result.returncode == 2, flag
            assert "nope.csv" in result.stderr and "Traceback" not in result.stderr, flag

    def test_removed_epsilon_spellings_are_usage_errors(self, tmp_path):
        # epsilon has one spelling; the inverse one is refused, not divided by
        solve = run_cli(
            "solve",
            "--input", str(GOLDEN / "solve" / "p.csv"),
            "--prior", str(GOLDEN / "solve" / "prior.csv"),
            "--out", str(tmp_path / "q.csv"),
            "--report", str(tmp_path / "r.json"),
            "--inverse-epsilon", "0",
        )
        config = json.loads((GOLDEN / "run_config.json").read_text())
        config["train"]["sinkhorn"] = {"inverse_epsilon": 0}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        train = run_cli("train", "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path))
        for result in (solve, train):
            assert result.returncode == 2
            assert "error: " in result.stderr and "Traceback" not in result.stderr

    def test_nan_tolerance_is_usage_error(self, tmp_path):
        # NaN fails every comparison: unrefused, the solve runs to its iteration cap unconverged
        result = run_cli(*golden_argv("solve", tmp_path), "--tol", "nan")
        assert result.returncode == 2
        assert result.stderr == "error: tol must be non-negative\n"
        assert not (tmp_path / "report.json").exists()

    def test_epsilon_too_small_for_the_log_kernel_is_usage_error(self, tmp_path):
        # log(1e-12) / 1e-320 is -inf: unrefused, the solve iterates on NaN potentials
        result = run_cli(*golden_argv("solve", tmp_path), "--epsilon", "1e-320")
        assert result.returncode == 2
        assert result.stderr == "error: epsilon 1e-320 is too small: log(1e-12) / epsilon overflows\n"
        assert not (tmp_path / "report.json").exists()

    def test_inconsistent_stated_prior_is_usage_error(self, tmp_path):
        result = run_cli(
            "theory",
            "--prior-labeled", "0.5,0.5",
            "--prior-unlabeled", "0.3,0.7",
            "--prior", "0.9,0.1",
            "--n-labeled", "20",
            "--n-unlabeled", "100",
            "--trials", "10",
            "--out", str(tmp_path / "t.json"),
        )
        assert result.returncode == 2

    def test_nan_stated_prior_is_usage_error(self, tmp_path):
        # NaN fails every comparison, so the consistency check is written to pass only a small gap
        result = run_cli(
            "theory",
            "--prior-labeled", "0.5,0.5",
            "--prior-unlabeled", "0.3,0.7",
            "--prior", "nan,nan",
            "--n-labeled", "20",
            "--n-unlabeled", "100",
            "--trials", "10",
            "--out", str(tmp_path / "t.json"),
        )
        assert result.returncode == 2
        assert result.stderr == (
            "error: stated prior is inconsistent with the mixture of labeled and unlabeled priors\n"
        )
        assert not (tmp_path / "t.json").exists()

    def test_priors_of_different_length_are_usage_error(self, tmp_path):
        result = run_cli(
            "theory",
            "--prior-labeled", "0.5,0.5",
            "--prior-unlabeled", "0.2,0.3,0.5",
            "--n-labeled", "20",
            "--n-unlabeled", "100",
            "--out", str(tmp_path / "t.json"),
        )
        assert result.returncode == 2
        assert result.stderr == "error: labeled and unlabeled priors must share K\n"

    def test_degenerate_prior_is_computation_failure(self, tmp_path):
        write_table(tmp_path / "p.csv", np.full((2, 2), 0.5), "class-rows")
        (tmp_path / "prior.csv").write_text("# k=2 layout=prior\n1.0,0.0\n")
        result = run_cli(
            "solve",
            "--input", str(tmp_path / "p.csv"),
            "--prior", str(tmp_path / "prior.csv"),
            "--out", str(tmp_path / "q.csv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert result.returncode == 1

    @pytest.mark.parametrize("label", [-1, 2], ids=["negative", "k"])
    def test_label_outside_classes_is_usage_error(self, tmp_path, label):
        write_table(tmp_path / "p.csv", np.full((2, 3), 0.5), "class-rows")
        write_table(tmp_path / "prior.csv", [0.5, 0.5], "prior")
        write_table(tmp_path / "labels.csv", [0, label], "labels")
        result = run_cli(
            "solve",
            "--input", str(tmp_path / "p.csv"),
            "--prior", str(tmp_path / "prior.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--out", str(tmp_path / "q.csv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "class index" in result.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("section", ["dataset", "train", "sinkhorn"])
    def test_unknown_config_field_is_usage_error(self, tmp_path, section):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        if section == "sinkhorn":
            config["train"]["sinkhorn"] = {"epsilon": 0.5, "epsilom": 0.5}
        else:
            config[section]["epsilom"] = 0.5
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        result = run_cli(
            "train", "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out")
        )
        assert result.returncode == 2
        assert result.stderr == f"error: unknown {section} config fields: ['epsilom']\n"

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("train", "epochs", "3"),
            ("dataset", "weak_noise_sigma", "0.1"),
            ("train", "sinkhorn", 5),
            (None, "seeds", 5),
            ("train", "learning_rate", "0.5"),
            ("train", "epochs", True),
        ],
    )
    def test_wrongly_typed_config_value_is_usage_error(self, tmp_path, section, field, value):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        (config[section] if section else config)[field] = value
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        result = run_cli(
            "train", "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out")
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert repr(field) in result.stderr

    def test_missing_config_field_is_usage_error(self, tmp_path):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        del config["dataset"]["k_total"]
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        result = run_cli("gen-data", "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path))
        assert result.returncode == 2
        assert result.stderr == "error: missing dataset config fields: ['k_total']\n"

    @pytest.mark.parametrize(
        "name, text, names_file",
        [
            ("p", "# k=2 n=2 layout=class-rows\n0.6,0.5\n0.5,0.5\n", True),
            ("p", "# k=2 n=2 layout=class-rows\nnan,0.5\n0.5,0.5\n", True),
            ("p", "# k=2 n=2 layout=class-rows\n-0.5,0.5\n1.5,0.5\n", True),
            ("prior", "# k=2 layout=prior\n-0.5,1.5\n", True),
            ("prior", "# k=2 layout=prior\n0.5,0.5\n0.5,0.5\n", True),
            ("prior", "# k=2 layout=prior\n0.0,0.0\n", True),
            ("labels", "# n=1 layout=labels indexing=0-based\n-1\n", True),
            ("labels", "# n=1 layout=labels indexing=0-based\n99999999999999999999\n", True),
            ("pred", "# n=2 layout=labels indexing=0-based\n0,99999999999999999999\n", True),
            # the errors below compare two inputs, so they name no one file
            ("pred", "# n=2 layout=labels indexing=0-based\n0,7\n", False),
            ("prior", "# k=3 layout=prior\n0.2,0.3,0.5\n", False),
            ("labels", "# n=3 layout=labels indexing=0-based\n0,1,0\n", False),
            ("p", "0.5,0.5\n0.5,0.5\n", True),
            ("p", "# k=2 n=2 layout\n0.5,0.5\n0.5,0.5\n", True),
            ("p", "", True),
        ],
        ids=["column-sum-1.1", "nan", "negative", "negative-prior", "two-row-prior",
             "zero-mass-prior", "negative-label", "label-past-int64", "eval-label-past-int64",
             "eval-label-7-of-4", "prior-k-3-of-2", "3-labels-2-columns", "no-header",
             "malformed-header-token", "empty-file"],
    )
    def test_malformed_input_is_usage_error(self, tmp_path, name, text, names_file):
        write_table(tmp_path / "p.csv", np.full((2, 2), 0.5), "class-rows")
        write_table(tmp_path / "prior.csv", [0.5, 0.5], "prior")
        write_table(tmp_path / "labels.csv", [0], "labels")
        write_table(tmp_path / "truth.csv", [0, 1], "labels")
        (tmp_path / f"{name}.csv").write_text(text)
        if name == "pred":
            args = ("eval", "--pred", str(tmp_path / "pred.csv"), "--truth", str(tmp_path / "truth.csv"),
                    "--k-total", "4", "--seen", "0,1", "--out", str(tmp_path / "m.json"))
        else:
            args = ("solve", "--input", str(tmp_path / "p.csv"), "--prior", str(tmp_path / "prior.csv"),
                    "--labels", str(tmp_path / "labels.csv"),
                    "--out", str(tmp_path / "q.csv"), "--report", str(tmp_path / "r.json"))
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        if names_file:
            assert result.stderr.startswith(f"error: {tmp_path / name}.csv:")

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("dataset", "cluster_separation", math.nan),
            ("dataset", "cluster_separation", math.inf),
            ("dataset", "strong_noise_sigma", math.inf),
            ("train", "learning_rate", math.nan),
        ],
        ids=["separation-nan", "separation-inf", "strong-sigma-inf", "learning-rate-nan"],
    )
    def test_non_json_number_in_config_is_usage_error(self, tmp_path, command, section, field, value):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        config[section][field] = value
        (tmp_path / "cfg.json").write_text(json.dumps(config))  # writes NaN / Infinity
        result = run_cli(command, "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {tmp_path / 'cfg.json'}: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_separation_past_float_range_is_computation_failure(self, tmp_path, command):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        config["dataset"]["cluster_separation"] = 1e308
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        result = run_cli(command, "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out"))
        assert result.returncode == 1
        assert result.stderr.startswith("error: no finite cube holds 4 centroids")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "command, section, field, literal",
        [
            ("train", "dataset", "strong_noise_sigma", "1e400"),
            ("gen-data", "dataset", "strong_noise_sigma", "1e400"),
            ("train", "train", "learning_rate", "1e999"),
            ("train", "train", "learning_rate", DIGITS_400),
            ("train", "dataset", "cluster_separation", DIGITS_400),
            ("gen-data", "dataset", "cluster_separation", DIGITS_400),
            ("train", "dataset", "samples_per_class", DIGITS_400),
            ("gen-data", "dataset", "samples_per_class", DIGITS_400),
            ("train", "dataset", "k_total", DIGITS_400),
            ("gen-data", "dataset", "k_total", DIGITS_400),
            ("train", "train", "batch_size", DIGITS_400),
        ],
        ids=lambda v: "400-digits" if v == DIGITS_400 else v,
    )
    def test_number_past_float_range_is_usage_error(self, tmp_path, command, section, field, literal):
        # json reads 1e400 as inf and keeps a 400-digit int exact
        config = json.loads((GOLDEN / "run_config.json").read_text())
        config[section][field] = "@"
        (tmp_path / "cfg.json").write_text(json.dumps(config).replace('"@"', literal))
        result = run_cli(command, "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr == f"error: {section} config field {field!r} is past the float range\n"

    def test_integer_past_python_digit_limit_names_config(self, tmp_path):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        config["dataset"]["k_total"] = "@"
        (tmp_path / "cfg.json").write_text(json.dumps(config).replace('"@"', "1" * 5001))
        for command in ("gen-data", "train"):
            result = run_cli(command, "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out"))
            assert result.returncode == 2, command
            assert re.fullmatch(rf"error: {re.escape(str(tmp_path / 'cfg.json'))}: an integer has more "
                                r"than \d+ digits\n", result.stderr), command

    @pytest.mark.parametrize(
        "section, field, literal",
        [
            ("train", "epochs", '"3"'),
            ("train", "epochz", "3"),
            ("train", "learning_rate", "1e400"),
            ("train", "sinkhorn", '{"epsilom": 0.5}'),
            (None, "seeds", "5"),
            ("train", "queue_capacity", "2"),
            ("train", "queue_capacity", "0"),
            ("train", "queue_capacity", "16"),
            (None, "seeds", "[]"),
            (None, None, "[]"),
            (None, "dataset", "[]"),
            (None, "schema_version", "2"),
            ("train", "epochs", "3,"),
            ("dataset", "k_total", "1"),
            ("dataset", "feature_dim", "0"),
            ("dataset", "samples_per_class", "0"),
            ("dataset", "imbalance_factor", "0.5"),
            ("dataset", "imbalance_factor", "100"),
            ("dataset", "label_ratio", "0"),
            ("dataset", "cluster_separation", "0"),
            ("dataset", "novel_ratio", "0.1"),
            ("train", "batch_size", "0"),
            ("train", "epochs", "-1"),
            ("train", "prior_mode", '"oracle"'),
            ("train", "threshold_policy", '"fixed"'),
            ("train", "local_views", "-1"),
        ],
        ids=["string-epochs", "misspelled-field", "learning-rate-1e400", "sinkhorn-field", "seeds-not-list",
             "queue-below-k", "queue-empty", "queue-below-first-batch", "seeds-empty", "config-not-object",
             "section-not-object", "schema-version-2", "json-syntax-error", "k-total-1", "feature-dim-0",
             "samples-per-class-0", "imbalance-below-1", "imbalance-too-large", "label-ratio-0",
             "separation-0", "no-novel-class", "batch-size-0", "epochs-negative", "unknown-prior-mode",
             "unknown-threshold-policy", "local-views-negative"],
    )
    def test_gen_data_refuses_what_train_refuses(self, tmp_path, section, field, literal):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        if field is None:  # the whole config
            config = "@"
        else:
            (config[section] if section else config)[field] = "@"
        (tmp_path / "cfg.json").write_text(json.dumps(config).replace('"@"', literal))
        results = [run_cli(command, "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out"))
                   for command in ("gen-data", "train")]
        assert [r.returncode for r in results] == [2, 2]
        assert results[0].stderr == results[1].stderr
        assert results[0].stderr.startswith("error: ") and results[0].stderr.count("\n") == 1
        assert not (tmp_path / "out" / "features.csv").exists()

    @pytest.mark.parametrize(
        "section, field", [("train", "learning_rate"), ("dataset", "strong_noise_sigma")]
    )
    def test_diverged_run_is_computation_failure(self, tmp_path, section, field):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        config[section][field] = 1e308
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        result = run_cli("train", "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out"))
        assert result.returncode == 1
        # one line: no numpy warnings above it
        assert re.fullmatch(r"error: training diverged at epoch 1, batch \d+: [^\n]*\n", result.stderr)

    @pytest.mark.parametrize("command", ["solve", "gen-data"])
    def test_non_utf8_input_names_file(self, tmp_path, command):
        # the bad byte sits past the decoder's first read-ahead chunk, so a
        # chunk position or the line being read would both point elsewhere
        if command == "solve":
            bad = tmp_path / "p.csv"
            write_table(bad, np.full((2, 2000), 0.0005), "class-rows")
            bad.write_bytes(bad.read_bytes()[:-2] + b"\xff\n")
            write_table(tmp_path / "prior.csv", [0.5, 0.5], "prior")
            args = ("solve", "--input", str(bad), "--prior", str(tmp_path / "prior.csv"),
                    "--out", str(tmp_path / "q.csv"), "--report", str(tmp_path / "r.json"))
        else:
            bad = tmp_path / "cfg.json"
            text = json.dumps(json.loads((GOLDEN / "run_config.json").read_text()), indent=2)
            bad.write_bytes(b" " * 10000 + text.encode()[:-1] + b"\xff}")
            args = ("gen-data", "--config", str(bad), "--outdir", str(tmp_path / "out"))
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stderr == f"error: {bad}: not UTF-8 text (byte 0xff: invalid start byte)\n"

    def test_bad_seen_vector_names_flag(self, tmp_path):
        write_table(tmp_path / "a.csv", [0, 1], "labels")
        result = run_cli(
            "eval",
            "--pred", str(tmp_path / "a.csv"),
            "--truth", str(tmp_path / "a.csv"),
            "--k-total", "2",
            "--seen", "0,x",
            "--out", str(tmp_path / "m.json"),
        )
        assert result.returncode == 2
        assert result.stderr == "error: bad seen vector '0,x': invalid literal for int() with base 10: 'x'\n"

    def test_eval_length_mismatch(self, tmp_path):
        write_table(tmp_path / "a.csv", [0, 1], "labels")
        write_table(tmp_path / "b.csv", [0, 1, 1], "labels")
        result = run_cli(
            "eval",
            "--pred", str(tmp_path / "a.csv"),
            "--truth", str(tmp_path / "b.csv"),
            "--k-total", "2",
            "--seen", "0",
            "--out", str(tmp_path / "m.json"),
        )
        assert result.returncode == 2


class TestGoldenSolve:
    def test_reproduces_golden_bytes(self, tmp_path):
        moved = run_golden("solve", tmp_path)
        assert not moved, build_note(f"solve {moved}")

    def test_golden_solution_matches_oracle(self):
        # the committed assignment is validated against the independent
        # extended-precision solver on the reduced unlabeled block
        q = read_table(GOLDEN / "solve" / "q.csv", "class-rows")
        p = read_table(GOLDEN / "solve" / "p.csv", "class-rows")
        np.testing.assert_array_equal(q[:, 0], [1.0, 0.0])
        reference = sinkhorn_extended(
            p[:, 1:], np.array([0.5, 1.5]), epsilon=0.1, iters=100_000, tol=1e-14
        )
        np.testing.assert_allclose(q[:, 1:], reference, atol=1e-8)


class TestGoldenTheory:
    def test_reproduces_golden_modulo_elapsed(self, tmp_path):
        moved = run_golden("theory", tmp_path)
        assert not moved, "keys differing from the golden: " + str(
            differing_keys((tmp_path / "report.json").read_text(), (GOLDEN / "theory" / "report.json").read_text())
        )

    def test_pooled_chunks_write_the_serial_report(self, tmp_path):
        # four chunks, the last of 5537 trials: the committed golden fills one
        # chunk, so it never adds partial sums from the pool
        result = run_cli(
            "theory",
            "--prior-labeled", "0.5,0.5",
            "--prior-unlabeled", "0.3,0.7",
            "--n-labeled", "20",
            "--n-unlabeled", "100",
            "--trials", "65537",
            "--seed", "7",
            "--out", str(tmp_path / "report.json"),
        )
        assert result.returncode == 0, result.stderr
        spec = PopulationSpec(ClassPrior(np.array([0.5, 0.5])), ClassPrior(np.array([0.3, 0.7])), 20, 100)
        serial = monte_carlo_ecs_serial(spec, 65537, Rng(7))
        _write_json(tmp_path / "serial.json", {"schema_version": SCHEMA_VERSION, **serial.to_dict(),
                                               "elapsed_seconds": 0.0})
        fresh_text = (tmp_path / "report.json").read_text()
        serial_text = (tmp_path / "serial.json").read_text()
        assert strip_elapsed(fresh_text) == strip_elapsed(serial_text), differing_keys(fresh_text, serial_text)

    def test_matching_priors_give_zero_closed_form(self, tmp_path):
        result = run_cli(
            "theory",
            "--prior-labeled", "0.5,0.5",
            "--prior-unlabeled", "0.5,0.5",
            "--n-labeled", "10",
            "--n-unlabeled", "50",
            "--trials", "100",
            "--seed", "0",
            "--out", str(tmp_path / "report.json"),
        )
        assert result.returncode == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["ecs_uncon_closed"] == 0.0
        assert payload["bias_uncon"] == [0.0, 0.0]


class TestGoldenGenDataAndTrain:
    def test_gen_data_reproduces_golden(self, tmp_path):
        assert run_golden("gen_data", tmp_path) == []

    def test_train_reproduces_golden(self, tmp_path):
        moved = run_golden("train", tmp_path)
        assert not moved, build_note(f"train {moved}")

    def test_train_variants_reproduce_digest_table(self):
        # the golden above is one path; the table pins every policy, prior,
        # conditioning and confidence combination and the local-view order
        fresh = train_variant_digests()
        golden = json.loads((GOLDEN / "train_variants.json").read_text())
        moved = sorted(name for name in fresh.keys() | golden.keys() if fresh.get(name) != golden.get(name))
        assert not moved, f"{build_note('train_variants.json')}; moved: {moved}"

    def test_runlog_keys_are_epoch_record_fields(self):
        from dataclasses import fields

        from owssl import cli, harness

        names = {f.name for f in fields(harness.EpochRecord)}
        lines = (GOLDEN / "train" / "runlog.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            assert set(json.loads(line)) == names
        plotted = {row.split(",")[1] for row in
                   (GOLDEN / "train" / "plot.csv").read_text().splitlines()[1:]}
        assert plotted == set(cli._PLOT_METRICS) and plotted <= names

    def test_ablate_averages_final_epochs_over_seeds(self, tmp_path):
        from dataclasses import replace

        from owssl import cli, harness

        config = json.loads((GOLDEN / "run_config.json").read_text())
        config["seeds"] = [11, 12]
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["train", "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path), "--ablate"]
        assert cli.main(argv) == 0
        grid = json.loads((tmp_path / "ablation.json").read_text())["grid"]
        assert sorted(grid) == sorted(name for name, *_ in cli._ABLATION_GRID)
        data_cfg, hyper, _ = cli._load_run_config(tmp_path / "cfg.json")
        finals = [
            harness.train(harness.generate_dataset(replace(data_cfg, seed=seed)),
                          replace(hyper, seed=seed))[1].records[-1]
            for seed in (11, 12)
        ]
        assert grid["full"] == {
            "seen_mean": float(np.mean([r.acc_seen for r in finals])),
            "novel_mean": float(np.mean([r.acc_novel for r in finals])),
            "all_mean": float(np.mean([r.acc_all for r in finals])),
            "seeds": [11, 12],
        }

    def test_zero_epochs_writes_header_only_outputs(self, tmp_path):
        config = json.loads((GOLDEN / "run_config.json").read_text())
        config["train"]["epochs"] = 0
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        result = run_cli(
            "train", "--config", str(tmp_path / "cfg.json"), "--outdir", str(tmp_path / "out")
        )
        assert result.returncode == 0
        assert (tmp_path / "out" / "runlog.jsonl").read_text() == ""
        assert (tmp_path / "out" / "bias.csv").read_text() == "epoch,b_m,b_s,abs_gap\n"
        payload = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert payload["epochs"] == 0 and payload["final"] is None


class TestGoldenEval:
    def test_reproduces_golden(self, tmp_path):
        assert run_golden("eval", tmp_path) == []

    def test_permuted_novel_pair_scores_one(self):
        payload = json.loads((GOLDEN / "eval" / "metrics.json").read_text())
        assert payload["novel"] == 1.0
        assert payload["mapping"] == [0, 1, 3, 2]


def disabled_with(targets: str) -> str:
    """A child's NPY_DISABLE_CPU_FEATURES that also turns off `targets`: setting
    the variable replaces the list this process may already have, which would
    turn its disabled targets back on in the child."""
    return f"{os.environ.get('NPY_DISABLE_CPU_FEATURES', '')} {targets}".strip()


def test_build_fingerprint_names_the_cpu_path():
    # numpy's SIMD dispatch (its exp/log kernels) and the OpenBLAS kernel move
    # `train` bytes between CPUs, so a golden failure message names both; a
    # child process with every enabled target switched off reports none
    assert build_fingerprint().endswith(
        f", numpy dispatch {numpy_dispatch()}, OpenBLAS core {openblas_core()}"
    )
    enabled = numpy_dispatch()
    if enabled == "baseline only":
        return
    result = subprocess.run(
        [sys.executable, "-c", "import make_goldens; print(make_goldens.numpy_dispatch())"],
        cwd=Path(__file__).parent, env={**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled_with(enabled)},
        capture_output=True, text=True,
    )
    assert result.stdout.strip() == "baseline only", result.stderr


@pytest.mark.parametrize("setting", ["numpy-baseline", "openblas-prescott"])
def test_portable_goldens_hold_on_lower_cpu_paths(tmp_path, setting):
    # numpy's dispatch lowered to its baseline, or OpenBLAS's Prescott kernel,
    # is what an older CPU runs; each moves `train`, and neither may move a portable golden
    env = dict(os.environ)
    if setting == "openblas-prescott":
        env["OPENBLAS_CORETYPE"] = "Prescott"
    elif numpy_dispatch() != "baseline only":
        env["NPY_DISABLE_CPU_FEATURES"] = disabled_with(numpy_dispatch())

    def child_path() -> str:
        probe = "import make_goldens as m; print(m.numpy_dispatch(), '/', m.openblas_core())"
        result = subprocess.run([sys.executable, "-c", probe], cwd=Path(__file__).parent, env=env,
                                capture_output=True, text=True)
        return result.stdout.strip() or result.stderr

    for name, golden in GOLDENS.items():
        if golden.portable:
            moved = run_golden(name, tmp_path / name, env)
            assert not moved, f"{name} {moved} moved under {setting} (child path: {child_path()})"


def test_readme_run_config_names_every_field(tmp_path):
    from dataclasses import fields

    from owssl import cli, harness
    from owssl.sinkhorn import SinkhornConfig

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
    (tmp_path / "run.json").write_text(block)
    cli._load_run_config(tmp_path / "run.json")
    config = json.loads(block)
    for section, cls in ((config["dataset"], harness.SyntheticConfig),
                         (config["train"], harness.HyperParams),
                         (config["train"]["sinkhorn"], SinkhornConfig)):
        assert set(section) == {f.name for f in fields(cls)}, cls.__name__
