"""Span recorder and layer wrappers for the traced benchmark run.

The wrappers are installed from outside the program. `shiftseg` modules
import functions by name (`trainer` and `evalsuite` hold their own
references to `knn`, `voxelize` and `augment_pair`), so patching the
defining module alone would miss most calls: `install` replaces the original
in every `shiftseg` module that holds it, and `restore` puts it back.

Spans keep a name, start, end, parent span and the benchmark phase they
opened in. They stay in memory and are written once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "shiftseg"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    phase: str  # benchmark phase at open time: setup | timed | report


class Tracer:
    """In-memory span stack plus per-phase counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.phase = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.phase))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, key: str, amount: float = 1.0) -> None:
        k = (self.phase, key)
        self.counters[k] = self.counters.get(k, 0.0) + amount

    def counter(self, phase: str, key: str) -> float:
        return self.counters.get((phase, key), 0.0)

    def to_json(self) -> dict:
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "phase"],
            "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.phase]
                      for s in self.spans],
            "counters": [[p, k, v] for (p, k), v in sorted(self.counters.items())],
        }


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its direct children cover
    (overlapping children are merged, children are clipped to the parent)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children[i]):
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# Counter hooks. `before` runs ahead of the wrapped call (the backward graph
# must be walked before backward clears it), `after` sees its result. Both
# run outside the layer's span, so their cost never counts as the layer's
# own time; it shows in the enclosing span and in `trace.overhead_s`.


def _knn_points(tracer, args, kwargs, result):
    tracer.count("pointcloud.knn.points", len(args[0]))


def _augment_sizes(tracer, args, kwargs, result):
    tracer.count("augment.points_in", len(args[0]))
    tracer.count("augment.points_out", len(result[0]))


def _featurized_cloud(tracer, args, kwargs, result):
    cloud = args[0]
    digest = hashlib.sha256(cloud.positions.tobytes()).hexdigest()
    tracer.count("segnet.featurize.cloud." + digest, 1)


def _graph_nodes(tracer, args, kwargs):
    seen = set()
    stack = [args[0]]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    tracer.count("tensor.backward.nodes", len(seen))


def _reseeded(tracer, args, kwargs, result):
    tracer.count("scp.reseed_dead_codes.reseeded", int(result))


def _flagged(tracer, args, kwargs, result):
    masks = result.masks
    tracer.count("ssr.flagged_rows", int(masks.ssr.sum()))
    tracer.count("ssr.labeled_rows", int((masks.scr | masks.ssr).sum()))


def _cache_lookups(tracer, args, kwargs):
    state, clouds = args[0], args[1]
    tracer.count("trainer.cache_lookups", len(clouds))
    tracer.count("trainer.cache_hits", sum(c.cloud_id in state.cache for c in clouds))


def _prediction_coverage(tracer, args, kwargs, result):
    if len(result) != len(args[1]):
        tracer.count("evalsuite.point_predictions.uncovered", 1)


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix, "<layer>.<function>"
    module: str  # defining module
    attr: str  # "function" or "Class.method"
    before: Callable | None = None
    after: Callable | None = None


TARGETS = (
    Target("pointcloud.knn", "shiftseg.pointcloud", "knn", after=_knn_points),
    Target("pointcloud.voxelize", "shiftseg.pointcloud", "voxelize"),
    Target("pointcloud.local_curvature", "shiftseg.pointcloud", "local_curvature"),
    Target("kernels.dilate", "shiftseg._kernels", "dilate"),
    Target("augment.augment_pair", "shiftseg.augment", "augment_pair", after=_augment_sizes),
    Target("segnet.featurize", "shiftseg.segnet", "featurize", after=_featurized_cloud),
    Target("segnet.forward", "shiftseg.segnet", "SegModel.forward"),
    Target("segnet.ce_loss", "shiftseg.segnet", "ce_loss"),
    Target("segnet.predict", "shiftseg.segnet", "predict"),
    Target("tensor.backward", "shiftseg.tensor", "backward", before=_graph_nodes),
    Target("tensor.optimizer_step", "shiftseg.tensor", "Optimizer.step"),
    Target("scp.encode", "shiftseg.scp", "PriorAutoencoder.encode"),
    Target("scp.quantize", "shiftseg.scp", "quantize"),
    Target("scp.update_code_stats", "shiftseg.scp", "update_code_stats"),
    Target("scp.vq_losses", "shiftseg.scp", "vq_losses"),
    Target("scp.reseed_dead_codes", "shiftseg.scp", "reseed_dead_codes", after=_reseeded),
    Target("ssr.take_snapshot", "shiftseg.ssr", "take_snapshot"),
    Target("ssr.localize", "shiftseg.ssr", "localize", after=_flagged),
    Target("trainer.prepare_cloud", "shiftseg.trainer", "prepare_cloud"),
    Target("trainer.prepare_batch", "shiftseg.trainer", "prepare_batch", before=_cache_lookups),
    Target("trainer.step_losses", "shiftseg.trainer", "step_losses"),
    Target("trainer.load_state", "shiftseg.trainer", "load_state"),
    Target("evalsuite.point_predictions", "shiftseg.evalsuite", "point_predictions",
           after=_prediction_coverage),
    Target("evalsuite.ssr_curve", "shiftseg.evalsuite", "ssr_curve"),
    Target("evalsuite.high_distortion_eval", "shiftseg.evalsuite", "high_distortion_eval"),
    Target("evalsuite.iou", "shiftseg.evalsuite", "iou"),
)


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.before is not None:
            target.before(tracer, args, kwargs)
        index = tracer.open(target.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if target.after is not None:
            target.after(tracer, args, kwargs, result)
        return result

    wrapper.__bench_original__ = fn
    return wrapper


class Installation:
    """The patches made by `install`; `restore` undoes them."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self.wrappers: dict[str, Callable] = {}
        self.missing: list[str] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> Installation:
    """Wrap every target at every binding site. Targets the program no longer
    has are listed in `missing` and skipped."""
    inst = Installation()
    for target in TARGETS:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            inst.missing.append(target.name)
            continue
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                inst.missing.append(target.name)
                continue
            original = vars(cls)[meth]
            wrapper = _wrap(tracer, target, original)
            inst.patches.append((cls, meth, original))
            setattr(cls, meth, wrapper)
        else:
            original = getattr(module, target.attr, None)
            if original is None:
                inst.missing.append(target.name)
                continue
            wrapper = _wrap(tracer, target, original)
            for mod in package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        inst.patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        inst.wrappers[target.name] = wrapper
    return inst


# ---------------------------------------------------------------------------
# Per-layer metrics of the timed units: (value, unit) by metric name.

TIMED = "timed"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, st in zip(tracer.spans, selfs):
        if span.phase == TIMED:
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + st

    def wall_per_call(name: str, ph: str) -> float:
        walls = [s.end - s.start for s in tracer.spans if s.name == name and s.phase == ph]
        return sum(walls) / len(walls) if walls else 0.0

    def c(key: str) -> float:
        return tracer.counter(TIMED, key)

    clouds = sum(1 for (ph, k) in tracer.counters
                 if ph == TIMED and k.startswith("segnet.featurize.cloud."))
    out: dict[str, tuple[float, str]] = {}
    for name in ("pointcloud.knn", "pointcloud.voxelize", "kernels.dilate",
                 "augment.augment_pair", "segnet.featurize", "segnet.forward",
                 "tensor.backward", "tensor.optimizer_step", "ssr.localize",
                 "trainer.prepare_cloud", "evalsuite.point_predictions"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("pointcloud.local_curvature", "segnet.ce_loss", "segnet.predict",
                 "scp.encode", "scp.quantize", "scp.update_code_stats", "scp.vq_losses",
                 "ssr.take_snapshot", "trainer.step_losses", "evalsuite.ssr_curve",
                 "evalsuite.high_distortion_eval", "evalsuite.iou"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["pointcloud.knn.points"] = (c("pointcloud.knn.points"), "count")
    out["augment.points_kept_ratio"] = (
        _ratio(c("augment.points_out"), c("augment.points_in")), "ratio")
    out["evalsuite.featurize_per_cloud"] = (
        _ratio(calls.get("segnet.featurize", 0), clouds), "ratio")
    out["tensor.backward.nodes"] = (c("tensor.backward.nodes"), "count")
    out["scp.reseed_dead_codes.reseeded"] = (c("scp.reseed_dead_codes.reseeded"), "count")
    out["ssr.flagged_ratio"] = (_ratio(c("ssr.flagged_rows"), c("ssr.labeled_rows")), "ratio")
    out["trainer.originals_cache_hit_ratio"] = (
        _ratio(c("trainer.cache_hits"), c("trainer.cache_lookups")), "ratio")
    out["trainer.load_state.s"] = (wall_per_call("trainer.load_state", "setup"), "s")
    out["cli.eval.s"] = (wall_per_call("cli.eval", TIMED), "s")
    return out


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Self time of each traced name as a share of the timed root spans."""
    selfs = self_times(tracer.spans)
    roots = sum(s.end - s.start for s in tracer.spans if s.phase == TIMED and s.parent == -1)
    shares: dict[str, float] = {}
    for span, st in zip(tracer.spans, selfs):
        if span.phase == TIMED and span.parent != -1:
            shares[span.name] = shares.get(span.name, 0.0) + st
    return {k: v / roots for k, v in sorted(shares.items(), key=lambda kv: -kv[1])} if roots else {}
