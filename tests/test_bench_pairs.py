"""tools/bench_pairs.py: seed lists, the per-metric pair summary and the
per-artifact digest comparison."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import bench_pairs  # noqa: E402


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("401-403") == [401, 402, 403]
    assert bench_pairs.parse_seeds("7,9-10") == [7, 9, 10]


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
