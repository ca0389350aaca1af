"""Output checkers that recompute every expected property without owssl.

Each checker raises CheckFailed with the first property that does not hold.
They take parsed outputs (arrays and dicts), so the same checker serves a
file written by a CLI process and an object returned by an in-process call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PROB_FLOOR = 1e-12
# log q is only accurate where q is a normal double; subnormal entries are skipped
NORMAL_MIN = np.finfo(np.float64).tiny


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(actual: float, expected: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    require(
        math.isfinite(actual) and abs(actual - expected) <= rel * max(1.0, abs(expected)) + abs_tol,
        f"{what}: got {actual!r}, expected {expected!r}",
    )


# ---------------------------------------------------------------------------
# readers for the formats the CLI writes


def read_matrix(path: Path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    header = dict(token.split("=", 1) for token in lines[0][1:].split())
    k, n = int(header["k"]), int(header["n"])
    require(len(lines) == k + 1, f"{path}: {len(lines) - 1} rows, header says {k}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    require(data.shape == (k, n), f"{path}: shape {data.shape}, header says {(k, n)}")
    return data


def read_labels(path: Path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    body = lines[1] if len(lines) > 1 else ""
    return np.array([int(v) for v in body.split(",")] if body else [], dtype=np.int64)


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Sinkhorn


def residual_row_marginals(prior: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Row sums the unlabeled block must reach: max(N p - labeled counts, 0), rescaled to N_u."""
    counts = np.bincount(labels, minlength=prior.size)
    residual = np.maximum(n * prior - counts, 0.0)
    return residual * ((n - labels.size) / residual.sum())


def _scaling_residual(m: np.ndarray, mask: np.ndarray) -> float:
    """Largest |m_ij - f_i - g_j| over masked entries, f and g fitted on a spanning tree.

    Returns inf when the masked entries do not connect every row and column
    that has one, since the potentials are then not determined.
    """
    k, n = m.shape
    f = np.full(k, np.nan)
    g = np.full(n, np.nan)
    f[int(np.argmax(mask.sum(axis=1)))] = 0.0
    grew = True
    while grew:
        grew = False
        rows_known = ~np.isnan(f)
        reach = mask & rows_known[:, None]
        cols = np.flatnonzero(np.isnan(g) & reach.any(axis=0))
        if cols.size:
            rows = np.argmax(reach[:, cols], axis=0)
            g[cols] = m[rows, cols] - f[rows]
            grew = True
        cols_known = ~np.isnan(g)
        reach = mask & cols_known[None, :]
        rows = np.flatnonzero(np.isnan(f) & reach.any(axis=1))
        if rows.size:
            cols = np.argmax(reach[rows], axis=1)
            f[rows] = m[rows, cols] - g[cols]
            grew = True
    if np.isnan(f[mask.any(axis=1)]).any() or np.isnan(g[mask.any(axis=0)]).any():
        return math.inf
    return float(np.abs(m - f[:, None] - g[None, :])[mask].max())


def check_solve_plan(p: np.ndarray, prior: np.ndarray, labels: np.ndarray, epsilon: float,
                     tol: float, q: np.ndarray) -> None:
    """Structure of a conditional assignment q for predictions p.

    - labeled columns are exactly one-hot on their label
    - every column sums to 1
    - the unlabeled block has the entropic scaling form
      log q - log(max(p, 1e-12)) / eps = f_i + g_j where q is a normal double
    - rows with no residual budget are zero in the unlabeled block
    - with tol > 0, every unlabeled row sum lies within tol of its target
    """
    k, n = p.shape
    nl = labels.size
    require(q.shape == (k, n), f"q has shape {q.shape}, expected {(k, n)}")
    require(np.all(np.isfinite(q)) and np.all(q >= 0), "q has negative or non-finite entries")
    onehot = np.zeros((k, nl))
    onehot[labels, np.arange(nl)] = 1.0
    require(np.array_equal(q[:, :nl], onehot), "labeled columns are not exactly one-hot")
    col_dev = float(np.abs(q.sum(axis=0) - 1.0).max())
    require(col_dev <= 1e-12, f"a column sum is off 1 by {col_dev!r}")

    targets = residual_row_marginals(prior, labels, n)
    block = q[:, nl:]
    dead = targets == 0
    require(not block[dead].any(), "a row with no residual budget has mass")
    if tol > 0:
        row_dev = float(np.abs(block.sum(axis=1) - targets).max())
        require(row_dev <= tol, f"an unlabeled row sum is off its target by {row_dev!r}")

    mask = block > NORMAL_MIN
    with np.errstate(divide="ignore"):
        m = np.log(np.where(mask, block, 1.0)) - np.log(np.maximum(p[:, nl:], PROB_FLOOR)) / epsilon
    worst = _scaling_residual(m, mask)
    scale = max(1.0, float(np.abs(m[mask]).max()))
    require(worst <= 1e-9 * scale, f"unlabeled block is not of scaling form (off by {worst!r})")


def check_solve_report(p: np.ndarray, prior: np.ndarray, labels: np.ndarray, epsilon: float,
                       iters: int, tol: float, q: np.ndarray, report: dict) -> None:
    """Report fields of `owssl solve` against values recomputed from q."""
    k, n = p.shape
    counts = np.bincount(labels, minlength=k)
    require(report.get("schema_version") == 1, "schema_version is not 1")
    require(report.get("mode") == "conditional", f"mode is {report.get('mode')!r}")
    require(report.get("epsilon") == epsilon, f"epsilon is {report.get('epsilon')!r}")
    require(report.get("residual_clamped") == bool(np.any(n * prior - counts < 0)),
            "residual_clamped does not match the labeled counts")
    row_err = float(np.abs(q.sum(axis=1) - n * prior).sum())
    col_err = float(np.abs(q.sum(axis=0) - 1.0).sum())
    _close(report.get("row_marginal_err", math.nan), row_err, 1e-9, "row_marginal_err")
    _close(report.get("col_marginal_err", math.nan), col_err, 0.0, "col_marginal_err", 1e-9)
    used = report.get("iters_used")
    if tol > 0:
        require(isinstance(used, int) and 1 <= used < iters, f"iters_used is {used!r}")
        require(report.get("converged") is True, "a to-tolerance solve reports converged=false")
    else:
        unl_err = float(np.abs(q[:, labels.size:].sum(axis=1)
                               - residual_row_marginals(prior, labels, n)).sum())
        require(used == iters, f"iters_used is {used!r}, the fixed budget is {iters}")
        require(report.get("converged") is (unl_err == 0.0),
                "converged does not match the recomputed row error")


# ---------------------------------------------------------------------------
# theory


def check_theory(pl_values: np.ndarray, pu_values: np.ndarray, nl: int, nu: int, trials: int,
                 report: dict) -> None:
    """Closed forms recomputed; Monte Carlo values within 5 standard errors."""
    pl = pl_values / pl_values.sum()
    pu = pu_values / pu_values.sum()
    n = nl + nu
    p = pu if nl == 0 else (nl * pl + nu * pu) / n
    uncon = float((nu * np.square(p - pu) / pu).sum())
    con = float((nl * pl * (1.0 - pl) / (nu * pu)).sum())
    _close(report["ecs_uncon_closed"], uncon, 1e-9, "ecs_uncon_closed")
    _close(report["ecs_con_closed"], con, 1e-9, "ecs_con_closed")
    bias_uncon = np.asarray(report["bias_uncon"])
    require(bias_uncon.shape == pu.shape and np.abs(bias_uncon - (p - pu)).max() <= 1e-12,
            "bias_uncon is not prior - unlabeled prior")
    se = report["ecs_con_se"]
    require(math.isfinite(se) and se > 0, f"ecs_con_se is {se!r}")
    _close(report["ecs_con_empirical"], con, 0.0, "ecs_con_empirical (5 SE)", 5 * se)
    _close(report["ecs_uncon_empirical"], uncon, 1e-9, "ecs_uncon_empirical",
           5 * report["ecs_uncon_se"])
    bias_con = np.asarray(report["bias_con"])
    bias_se = np.asarray(report["bias_con_se"])
    require(bias_con.shape == pu.shape and np.all(np.abs(bias_con) <= 5 * bias_se + 1e-12),
            "bias_con is more than 5 standard errors from 0")
    r_i = nl * pl / n
    r = r_i.sum()
    ordered = bool(nl > 0
                   and math.sqrt(nu) * float(np.abs(r_i - r * pu)[pl > 0].min()) > 1.0
                   and math.sqrt(nu) * float((r * p)[pu > 0].min()) > 1.0)
    require(report["ordering_condition"] is ordered,
            f"ordering_condition is {report['ordering_condition']!r}, expected {ordered}")
    require(report["trials"] == trials, f"trials is {report['trials']!r}")


# ---------------------------------------------------------------------------
# eval and gen-data


def check_eval(expected: dict, report: dict) -> None:
    require(set(report) == set(expected), f"eval keys {sorted(report)}")
    require(report["mapping"] == expected["mapping"],
            f"mapping {report['mapping']}, expected {expected['mapping']}")
    for key in ("seen", "novel", "all", "seen_joint"):
        _close(report[key], expected[key], 0.0, f"eval {key}", 1e-12)


def class_sizes(samples_per_class: int, imbalance: float, k: int) -> np.ndarray:
    """Geometric sizes from the base count down by 1/imbalance."""
    exponents = np.arange(k) / max(k - 1, 1)
    return np.round(samples_per_class * imbalance ** (-exponents)).astype(np.int64)


def check_gen_data(dataset: dict, outdir: Path) -> None:
    k, d = dataset["k_total"], dataset["feature_dim"]
    sizes = class_sizes(dataset["samples_per_class"], dataset.get("imbalance_factor", 1.0), k)
    n_seen = math.ceil((1.0 - dataset.get("novel_ratio", 0.5)) * k)
    lab_counts = np.zeros(k, dtype=np.int64)
    for c in range(n_seen):
        lab_counts[c] = int(round(dataset.get("label_ratio", 0.5) * sizes[c]))
    n, n_lab = int(sizes.sum()), int(lab_counts.sum())

    labels = read_labels(outdir / "labels.csv")
    labeled = read_labels(outdir / "labeled.csv")
    require(np.array_equal(np.bincount(labels, minlength=k), sizes),
            "class sizes do not follow the geometric formula")
    require(np.array_equal(labeled, labels[:n_lab]), "labeled samples are not the leading rows")
    require(np.array_equal(np.bincount(labeled, minlength=k), lab_counts),
            "labeled counts per class do not match label_ratio")
    part = read_json(outdir / "partition.json")
    require(part.get("k_total") == k and part.get("seen") == list(range(n_seen))
             and part.get("novel") == list(range(n_seen, k))
             and part.get("n_labeled") == n_lab and part.get("n_unlabeled") == n - n_lab,
             f"partition.json is {part}")
    rows = (outdir / "features.csv").read_text().splitlines()
    require(rows[0].split()[1:3] == [f"n={n}", f"d={d}"] and len(rows) == n + 1,
            "features.csv has the wrong shape")
    feats = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    require(feats.shape == (n, d) and np.all(np.isfinite(feats)), "features are not finite n x d")


# ---------------------------------------------------------------------------
# train


LOSSES = ("loss_sup", "loss_cls", "loss_conf", "loss_total")
ACCURACIES = ("acc_seen", "acc_novel", "acc_all")


def check_runlog(records: list[dict], epochs: int, min_acc_all: float) -> None:
    """Epochs 1..E, finite non-negative losses, accuracies in [0, 1], b_gap = |b_m - b_s|."""
    require([r.get("epoch") for r in records] == list(range(1, epochs + 1)),
            f"runlog epochs are not 1..{epochs}")
    for r in records:
        for key in LOSSES:
            require(math.isfinite(r[key]) and r[key] >= 0, f"epoch {r['epoch']} {key}={r[key]!r}")
        require(r["loss_total"] == r["loss_sup"] + r["loss_cls"] + r["loss_conf"],
                f"epoch {r['epoch']} loss_total is not the sum of its terms")
        for key in ACCURACIES + ("retained_fraction",):
            require(0.0 <= r[key] <= 1.0, f"epoch {r['epoch']} {key}={r[key]!r}")
        require(r["b_gap"] == abs(r["b_m"] - r["b_s"]), f"epoch {r['epoch']} b_gap != |b_m - b_s|")
    require(records[-1]["acc_all"] >= min_acc_all,
            f"final acc_all {records[-1]['acc_all']!r} < {min_acc_all}")


def check_train_outputs(outdir: Path, epochs: int, min_acc_all: float) -> None:
    """runlog.jsonl, metrics.json, bias.csv and plot.csv agree with each other."""
    records = [json.loads(line) for line in (outdir / "runlog.jsonl").read_text().splitlines()]
    check_runlog(records, epochs, min_acc_all)
    metrics = read_json(outdir / "metrics.json")
    require(metrics.get("epochs") == epochs and metrics.get("final") == records[-1],
            "metrics.json final is not the last runlog record")
    bias = [f"{r['epoch']},{r['b_m']!r},{r['b_s']!r},{r['b_gap']!r}" for r in records]
    require((outdir / "bias.csv").read_text().splitlines()[1:] == bias,
            "bias.csv does not match the runlog")
    plot = (outdir / "plot.csv").read_text().splitlines()[1:]
    for line in plot:
        epoch, metric, value = line.split(",")
        require(float(value) == records[int(epoch) - 1][metric],
                f"plot.csv {metric} at epoch {epoch} does not match the runlog")
    require(len(plot) == 11 * epochs, "plot.csv does not have 11 metrics per epoch")
