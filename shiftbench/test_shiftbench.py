"""Tests of the benchmark itself: span arithmetic, wrapper installation,
metric names, output checks, and a minimal-length run of each workload."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import bench_trace
import run
from bench_trace import Span, Tracer

run.load_program()
import bench_workloads  # noqa: E402  (needs the program on sys.path)
import shiftseg.cli  # noqa: E402,F401  (imports every layer module)
from shiftseg import _kernels, evalsuite, pointcloud, trainer  # noqa: E402

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_on_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, "timed"),
        Span("a", 1.0, 4.0, 0, "timed"),
        Span("a.child", 2.0, 3.0, 1, "timed"),
        Span("b", 5.0, 9.0, 0, "timed"),
        Span("b.one", 6.0, 7.0, 3, "timed"),
        Span("b.two", 6.5, 8.0, 3, "timed"),  # overlaps b.one: union 6..8
        Span("c", 9.5, 11.0, 0, "timed"),  # runs past its parent: clipped at 10
    ]
    assert bench_trace.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0 - 0.5, 2.0, 1.0, 2.0, 1.0, 1.5, 1.5])


def test_layer_metrics_keep_phases_apart():
    tr = Tracer()
    tr.spans = [
        Span("bench.setup", 0.0, 4.0, -1, "setup"),
        Span("pointcloud.knn", 1.0, 3.0, 0, "setup"),
        Span("bench.unit", 4.0, 10.0, -1, "timed"),
        Span("trainer.prepare_cloud", 4.0, 8.0, 2, "timed"),
        Span("pointcloud.knn", 5.0, 7.5, 3, "timed"),
    ]
    m = bench_trace.layer_metrics(tr)
    assert m["pointcloud.knn.calls"] == (1, "count")
    assert m["pointcloud.knn.self_s"][0] == pytest.approx(2.5)
    assert m["trainer.prepare_cloud.self_s"][0] == pytest.approx(1.5)
    assert bench_trace.layer_shares(tr)["pointcloud.knn"] == pytest.approx(2.5 / 6.0)


def test_every_binding_site_resolves_to_the_wrapper():
    tr = Tracer()
    inst = bench_trace.install(tr)
    try:
        assert inst.missing == []
        originals = {name: w.__bench_original__ for name, w in inst.wrappers.items()}
        for mod in bench_trace.package_modules():
            for attr, value in vars(mod).items():
                for name, original in originals.items():
                    assert value is not original, f"{mod.__name__}.{attr} still unwrapped ({name})"
        w = inst.wrappers
        for mod in (pointcloud, trainer, evalsuite):
            assert mod.knn is w["pointcloud.knn"]
            assert mod.voxelize is w["pointcloud.voxelize"]
        assert trainer.augment_pair is evalsuite.augment_pair is w["augment.augment_pair"]
        assert evalsuite.localize is w["ssr.localize"]
        assert _kernels.dilate is w["kernels.dilate"]
        assert shiftseg.segnet.SegModel.forward is w["segnet.forward"]
        assert shiftseg.tensor.Optimizer.step is w["tensor.optimizer_step"]
        cloud = pointcloud.PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
                                      [0, 1, 1], "c")
        tr.phase = "timed"
        trainer.knn(cloud, 1)
        assert [s.name for s in tr.spans] == ["pointcloud.knn"]
        assert tr.counter("timed", "pointcloud.knn.points") == 3
    finally:
        inst.restore()
    assert trainer.knn is evalsuite.knn is pointcloud.knn
    assert not hasattr(pointcloud.knn, "__bench_original__")
    assert not hasattr(shiftseg.segnet.SegModel.forward, "__bench_original__")


def test_metric_names_and_benchmark_file():
    names = ([m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]]
             + [w["name"] for w in BENCHMARK["workloads"]])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    layer_names = set(bench_trace.layer_metrics(Tracer())) | {"trace.overhead_s"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == layer_names
    # train_clean is run by hand only (see README.md, "Workloads")
    assert {w["name"] for w in BENCHMARK["workloads"]} | {"train_clean"} == set(
        bench_workloads.WORKLOADS)
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


def test_output_checks_flag_bad_outputs():
    assert bench_workloads.loss_failures({"step": 3, "loss_ce": 1.0, "loss_total": math.nan})
    assert not bench_workloads.loss_failures({"step": 3, "loss_ce": 1.0, "vq_total": 0.5})
    cloud = pointcloud.PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0, 1], "c")
    good = {"miou": 0.5, "miou_all": 0.5, "per_class_iou": [1.0, 0.0],
            "true_counts": [1, 1], "confusion": [[1.0, 0.0], [1.0, 0.0]]}
    assert bench_workloads.report_failures(good, [cloud], 2) == []
    assert bench_workloads.report_failures({**good, "miou": 1.5}, [cloud], 2)
    assert bench_workloads.report_failures({**good, "true_counts": [1, 0]}, [cloud], 2)
    assert bench_workloads.report_failures(
        {**good, "confusion": [[1.0, 0.0], [0.5, 0.0]]}, [cloud], 2)


@pytest.fixture
def small_clouds(monkeypatch):
    """Shrink every cloud, the trainings per run and the check windows, so a
    run takes about a second; benchmark numbers use the defaults."""
    monkeypatch.setattr(bench_workloads, "POINTS", 256)
    monkeypatch.setattr(bench_workloads.TrainWorkload, "setup_reps", 2)
    monkeypatch.setattr(bench_workloads.TrainFull, "check_units", 2)
    monkeypatch.setattr(bench_workloads.TrainClean, "check_units", 10)


def _main(argv, out_root):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, out_root=str(out_root))
    lines = buf.getvalue().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(bench_workloads.WORKLOADS))
def test_smoke_run_each_workload(workload, tmp_path, small_clouds):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0"]
    code, detail, result = _main(argv + ["--trace", "0"], tmp_path)
    assert code == 0, detail["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["environment"]["kernel_path"] in ("numba", "numpy")

    code, traced, result = _main(argv + ["--trace", "1"], tmp_path)
    assert code == 0, traced["failures"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert traced["digests"] == detail["digests"]
    assert os.path.exists(tmp_path / f"{workload}-seed3-trace1" / "spans.json")


def test_failed_check_exits_nonzero(tmp_path, monkeypatch, small_clouds):
    real = trainer.validation_report

    def broken(*args, **kwargs):
        return {**real(*args, **kwargs), "miou": 1.5}

    monkeypatch.setattr(trainer, "validation_report", broken)
    code, detail, result = _main(["--workload", "train_clean", "--seed", "1", "--seconds", "0",
                                  "--trace", "0"], tmp_path)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any("miou=1.5" in f for f in detail["failures"])


def test_exits_without_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "shiftbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "shiftbench/run.py", "--workload", "train_full",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
