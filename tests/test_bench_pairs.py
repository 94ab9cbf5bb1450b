"""tools/bench_pairs.py: seed lists, and the refusal of a seed or workload
list that would run nothing or lose pairs; the per-metric pair summary and its
verdict, the per-artifact digest comparison, warm-up runs kept out of the
pairs, and the digest of the code each checkout ran."""
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import bench_pairs  # noqa: E402


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("401-403") == [401, 402, 403]
    assert bench_pairs.parse_seeds("7,9-10") == [7, 9, 10]
    assert bench_pairs.parse_seeds("5-5") == [5]


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "", "'' is not a seed or a seed range"),
    ("--seeds", "401,", "'' is not a seed or a seed range"),
    ("--seeds", "405-401", "seed range '405-401' descends"),  # once [] and an IndexError
    ("--seeds", "401,401", "seed listed twice: 401"),  # once one pair replacing the other
    ("--seeds", "401-403,402,401", "seed listed twice: 401, 402"),
    ("--workloads", "eval_sweep,train_full,eval_sweep", "workload listed twice: eval_sweep"),
])
def test_a_list_that_would_run_nothing_or_lose_pairs_is_refused(tmp_path, capsys, flag, value,
                                                                message):
    # refused while the arguments are parsed: no checkout is read, none runs
    argv = ["--base", str(tmp_path), "--change", str(tmp_path), "--label", "x", flag, value]
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(argv)
    assert refused.value.code == 2
    assert message in capsys.readouterr().err


def run(seed, side, **metrics):
    return {"seed": seed, "side": side, "metrics": metrics}


def test_pairs_count_wins_in_each_metric_direction():
    runs = [run(1, "base", step_s=1.0, rate=10.0), run(1, "change", step_s=0.5, rate=20.0),
            run(2, "change", step_s=0.9, rate=5.0), run(2, "base", step_s=0.8, rate=10.0),
            run(3, "base", step_s=1.2, rate=10.0),  # unpaired: left out
            run(4, "base", step_s=1.0, rate=10.0), run(4, "change", step_s=1.0, rate=10.0)]
    out = bench_pairs.summarize(runs, {"step_s": "lower", "rate": "higher"})
    assert out["step_s"]["pairs"] == 3
    assert out["step_s"]["change_wins"] == 1  # seed 2 lost, seed 4 tied
    assert out["rate"]["change_wins"] == 1
    assert out["step_s"]["base_median"] == 1.0 and out["step_s"]["change_median"] == 0.9
    assert out["rate"]["better"] == "higher"


def pairs_of(base, change):
    return [r for seed, (b, c) in enumerate(zip(base, change))
            for r in (run(seed, "base", m=b), run(seed, "change", m=c))]


def verdict(base, change, better="lower", bound=None):
    bounds = None if bound is None else {"m": bound}
    return bench_pairs.summarize(pairs_of(base, change), {"m": better}, bounds)["m"]["verdict"]


def test_a_gain_takes_nine_wins_in_ten_and_a_median_gap_beyond_the_base_iqr():
    base = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.045
    change = [b - 0.1 for b in base]
    change[0] = 1.5  # one lost pair
    assert verdict(base, change) == {"gain": True, "separated": False,
                                     "worse_than_bound": None}
    # higher is better: the same runs, mirrored
    assert verdict([-b for b in base], [-c for c in change], "higher")["gain"]
    assert not verdict(base, change[:1] + [1.5] + change[2:])["gain"]  # eight wins
    nearer = [b - 0.02 for b in base]  # nine wins, median gap 0.01
    nearer[0] = 1.5
    assert not verdict(base, nearer)["gain"]


def test_separated_means_every_change_run_beats_every_base_run():
    base = [1.0] * 5 + [10.0] * 5  # IQR 9: too wide for a gain
    assert verdict(base, [0.9] * 10) == {"gain": False, "separated": True,
                                         "worse_than_bound": None}
    assert not verdict(base, [0.9] * 9 + [1.0])["separated"]  # a tie with a base run
    assert verdict([10.0] * 10, [12.0] * 10, "higher") == {
        "gain": True, "separated": True, "worse_than_bound": None}


def test_worse_than_bound_is_a_fraction_of_the_base_median():
    assert verdict([1.0] * 10, [1.3] * 10, bound=0.25)["worse_than_bound"]
    assert verdict([1.0] * 10, [1.2] * 10, bound=0.25) == {
        "gain": False, "separated": False, "worse_than_bound": False}
    assert not verdict([1.0] * 10, [0.5] * 10, bound=0.25)["worse_than_bound"]
    assert verdict([10.0] * 10, [7.4] * 10, "higher", 0.25)["worse_than_bound"]
    assert not verdict([10.0] * 10, [7.6] * 10, "higher", 0.25)["worse_than_bound"]
    rows = bench_pairs.summary_table({"w": {
        "digests_equal": {},
        "pairs": bench_pairs.summarize(pairs_of([1.0] * 10, [1.3] * 10), {"m": "lower"},
                                       {"m": 0.25})}})
    assert rows[1].split()[6] == "worse_than_bound"


def test_digests_are_compared_per_seed_and_artifact():
    same = {"steplog": "a", "weights": "b", "report": "c"}
    runs = [{"seed": 1, "side": "base", "digests": same},
            {"seed": 1, "side": "change", "digests": {**same, "report": "d"}},
            {"seed": 2, "side": "change", "digests": same},
            {"seed": 2, "side": "base", "digests": {"steplog": "a", "weights": "b"}},
            {"seed": 3, "side": "base", "digests": same}]  # unpaired: left out
    assert bench_pairs.digests_equal(runs) == {
        "1": {"report": False, "steplog": True, "weights": True},
        "2": {"report": False, "steplog": True, "weights": True}}


def test_warm_up_runs_stay_out_of_the_pairs_and_the_table_sums_them_up(
        tmp_path, monkeypatch, capsys):
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "step_s", "better": "lower"}]}))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        calls.append((workload, seed, side))
        cold = sum(c[0] == workload and c[2] == side for c in calls) == 1
        step_s = 9.0 if cold else {"base": 1.0, "change": 0.8}[side] + seed / 1000
        return {"metrics": {"step_s": step_s}, "digests": {"steplog": "a", "weights": "b"},
                "error_rate": 0.0, "correct": True, "wall_s": 1.0, "environment": {}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main(["--base", str(tmp_path / "base"), "--change",
                             str(tmp_path / "change"), "--label", "t", "--workloads", "w",
                             "--seeds", "1-3", "--out-dir", str(tmp_path)]) == 0
    # each side's first run is its warm-up, on the first seed, before any pair
    assert calls[:3] == [("w", 1, "base"), ("w", 1, "change"), ("w", 1, "base")]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w"]
    assert [(r["side"], r["metrics"]["step_s"]) for r in doc["warmup"]] == [
        ("base", 9.0), ("change", 9.0)]
    assert len(doc["runs"]) == 6
    pairs = doc["pairs"]["step_s"]
    assert (pairs["base_median"], pairs["change_median"]) == (1.002, 0.802)
    assert (pairs["change_wins"], pairs["pairs"]) == (3, 3)
    err = capsys.readouterr().err.splitlines()
    header = next(i for i, line in enumerate(err) if line.startswith("workload"))
    assert err[header].split() == ["workload", "metric", "base", "change", "base_iqr",
                                   "wins", "verdict", "digests_equal"]
    assert err[header + 1].split() == ["w", "step_s", "1.002", "0.802", "0.001", "3/3",
                                       "gain,separated", "steplog", "3/3", "weights", "3/3"]
    assert err[header + 2].startswith("wrote ")


def test_the_source_digest_names_the_code_a_checkout_ran(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "src" / "pkg").mkdir(parents=True)
        (tmp_path / side / "src" / "pkg" / "mod.py").write_bytes(b"x = 1\n")
        (tmp_path / side / "src" / "top.py").write_bytes(b"")
    (tmp_path / "b" / "notes.txt").write_text("outside src/**/*.py")
    digest = bench_pairs.src_digest
    assert digest(str(tmp_path / "a")) == digest(str(tmp_path / "b"))
    (tmp_path / "b" / "src" / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    assert digest(str(tmp_path / "a")) != digest(str(tmp_path / "b"))
