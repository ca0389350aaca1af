import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

FINGERPRINT = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}


def write_log(path: Path, workload: str, wall: float, trials: float, fingerprint=FINGERPRINT,
              samples=None):
    # samples: name -> values, logged as perfbench/run.py logs them
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "mc_trials_per_s": {"value": trials, "unit": "trials/s"}}
    path.write_text("\n".join([
        "fingerprint " + json.dumps(fingerprint, sort_keys=True),
        "inputs: solve-b has 0.500 of p**(1/eps) underflowing to 0",
        f"{workload} seed 7: 12 rounds in 58.1 s, 84 operations, 0 failed",
        *(f"  samples {name}: n={len(values)} median 0 all {json.dumps(values)}"
          for name, values in (samples or {}).items()),
        f"  wall_s = {wall:.6g} s",
        json.dumps({"correct": True, "attempted": 84, "failed": 0, "metrics": metrics}),
    ]) + "\n")
    return path


def test_medians_quartiles_and_pair_wins(tmp_path):
    walls = [(2.0, 1.5), (2.2, 1.6), (2.1, 2.3), (1.9, 1.4)]
    trials = [(500.0, 510.0), (520.0, 500.0), (510.0, 530.0), (505.0, 506.0)]
    parent, change = [], []
    for i, ((pw, cw), (pt, ct)) in enumerate(zip(walls, trials)):
        parent.append(write_log(tmp_path / f"p{i}.log", "train", pw, pt))
        change.append(write_log(tmp_path / f"c{i}.log", "train", cw, ct))
    payload = bench_record.record(parent, change)
    assert payload["fingerprint"] == FINGERPRINT
    train = payload["workloads"]["train"]
    assert train["seeds"] == [7] and train["pairs"] == 4
    assert train["correct"] == {"parent": True, "change": True}
    wall = train["metrics"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(2.05)
    assert wall["change_median"] == pytest.approx(1.55)
    assert wall["parent_quartiles"] == pytest.approx([1.975, 2.125])
    assert wall["change_better_pairs"] == 3  # lower is better
    assert train["metrics"]["mc_trials_per_s"]["change_better_pairs"] == 3  # higher is better


def test_main_writes_the_record_and_prints_one_line_per_metric(tmp_path, capsys):
    walls = [(2.0, 1.5), (2.2, 2.3), (2.1, 1.6)]
    parent = [write_log(tmp_path / f"p{i}.log", "solve", pw, 500.0 + i) for i, (pw, _) in enumerate(walls)]
    change = [write_log(tmp_path / f"c{i}.log", "solve", cw, 510.0) for i, (_, cw) in enumerate(walls)]
    out = tmp_path / "bench" / "BENCH_1.json"
    argv = ["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]
    assert bench_record.main(argv) == 0
    assert json.loads(out.read_text())["workloads"]["solve"]["pairs"] == 3
    assert capsys.readouterr().out.splitlines() == [
        "solve wall_s 2.1 -> 1.6 s (2/3 pairs better; parent IQR 2.05-2.15; median -23.8 %, bound 25 %)",
        "solve mc_trials_per_s 501 -> 510 trials/s "
        "(3/3 pairs better; parent IQR 500.5-501.5; median +1.8 %, bound 25 %)",
    ]


def test_summary_flags_a_metric_worse_by_more_than_its_bound(tmp_path):
    # wall_s is lower-better and 20 % worse, within its 0.25 bound;
    # mc_trials_per_s is higher-better and 40 % worse, past it
    parent = [write_log(tmp_path / "p.log", "train", 2.0, 500.0)]
    change = [write_log(tmp_path / "c.log", "train", 2.4, 300.0)]
    assert bench_record.summary_lines(bench_record.record(parent, change)) == [
        "train wall_s 2 -> 2.4 s (0/1 pairs better; parent IQR 2-2; median +20.0 %, bound 25 %)",
        "train mc_trials_per_s 500 -> 300 trials/s "
        "(0/1 pairs better; parent IQR 500-500; median -40.0 %, bound 25 %: past bound)",
    ]


def test_mixed_fingerprints_refused(tmp_path):
    parent = [write_log(tmp_path / "p.log", "solve", 1.0, 1.0)]
    change = [write_log(tmp_path / "c.log", "solve", 1.0, 1.0, {**FINGERPRINT, "nproc": 4})]
    with pytest.raises(ValueError, match="fingerprints"):
        bench_record.record(parent, change)


def test_unequal_pairing_refused(tmp_path):
    parent = [write_log(tmp_path / f"p{i}.log", "solve", 1.0, 1.0) for i in range(2)]
    change = [write_log(tmp_path / "c.log", "solve", 1.0, 1.0)]
    with pytest.raises(ValueError, match="2 parent runs against 1 change runs"):
        bench_record.record(parent, change)


def mc_log(path: Path, trials: float, raw_time: float) -> Path:
    # 250 000 trials: the rescaled probe time is 250 000 / trials
    return write_log(path, "solve", 1.0, trials,
                     samples={"mc": [250_000 / trials], "raw mc": [raw_time, None]})


def test_move_within_the_control_is_not_separated(tmp_path):
    # the change reads 4 % more trials/s, raw and rescaled alike, but a second
    # run of the parent read 5 % more
    parent = [mc_log(tmp_path / "p.log", 500_000.0, 0.5)]
    change = [mc_log(tmp_path / "c.log", 520_000.0, 0.5 / 1.04)]
    control = [mc_log(tmp_path / "a.log", 525_000.0, 0.5 / 1.05)]
    payload = bench_record.record(parent, change, control)
    mc = payload["workloads"]["solve"]["metrics"]["mc_trials_per_s"]
    assert mc["raw_parent"] == [pytest.approx(500_000.0)]
    assert mc["raw_change_median"] == pytest.approx(520_000.0)
    assert mc["raw_control_median"] == pytest.approx(525_000.0)
    assert mc["control"] == [525_000.0] and mc["control_move"] == pytest.approx(0.05)
    assert bench_record.summary_lines(payload)[1] == (
        "solve mc_trials_per_s 500000 -> 520000 trials/s (1/1 pairs better; parent IQR 500000-500000; "
        "median +4.0 %, bound 25 %; raw +4.0 %; A/A +5.0 %: not separated from A/A)")
    # against a control that read 3 % more, the same change is separated
    control = [mc_log(tmp_path / "a.log", 515_000.0, 0.5 / 1.03)]
    assert bench_record.summary_lines(bench_record.record(parent, change, control))[1].endswith(
        "median +4.0 %, bound 25 %; raw +4.0 %; A/A +3.0 %)")


def test_raw_and_rescaled_moves_of_opposite_sign_are_not_separated(tmp_path):
    # rescaled, the change reads 10 % more trials/s; as measured, 10 % fewer
    parent = [mc_log(tmp_path / "p.log", 500_000.0, 0.5)]
    change = [mc_log(tmp_path / "c.log", 550_000.0, 0.5 / 0.9)]
    assert bench_record.summary_lines(bench_record.record(parent, change))[1] == (
        "solve mc_trials_per_s 500000 -> 550000 trials/s (1/1 pairs better; parent IQR 500000-500000; "
        "median +10.0 %, bound 25 %; raw -10.0 %: not separated from A/A)")


def test_main_takes_control_logs(tmp_path, capsys):
    parent = [mc_log(tmp_path / "p.log", 500_000.0, 0.5)]
    change = [mc_log(tmp_path / "c.log", 600_000.0, 0.5 / 1.2)]
    control = [mc_log(tmp_path / "a.log", 490_000.0, 0.5 / 0.98)]
    out = tmp_path / "BENCH_1.json"
    argv = ["--parent", str(*parent), "--change", str(*change), "--control", str(*control), "--out", str(out)]
    assert bench_record.main(argv) == 0
    assert json.loads(out.read_text())["workloads"]["solve"]["metrics"]["wall_s"]["control"] == [1.0]
    assert capsys.readouterr().out.splitlines()[1].endswith("raw +20.0 %; A/A -2.0 %)")
