"""The benchmark's workloads: each drives `shiftseg` through its public
functions in one process, as a closed loop with a single caller.

A workload has a set-up, a timed unit and a check window. The set-up builds
fresh data and state. A unit is one training step (`train_full`,
`train_clean`) or one evaluation step (`eval_sweep`). The first
`check_units` units form the check window: their outputs are digested, and
the validation report after them is timed and checked, so the digests do not
depend on how many units fit in the measured time.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

from shiftseg import cli, trainer
from shiftseg.pointcloud import IGNORE_LABEL
from shiftseg.rng import Stream
from shiftseg.trainer import TrainConfig

# Scene and step counts. Five scenes split into four training clouds (one
# batch of 4 per epoch) and one validation cloud. Every cloud keeps the
# default geometry: 4,096 points, voxel 0.4, knn_k 16, 8 classes.
SCENES = 5
POINTS = 4096
EPOCHS = 5000  # cosine horizon; far beyond any run, so the LR barely decays
# A training run trains this many seeds side by side, one set-up each, and
# its steps take turns among them. A seed's scenes and augmentation draws move
# its median step time by up to 30 %, so one seed per run spreads too far.
TRAININGS = 3
VAL_REPS = 2  # validation reports per training, timed after the check window
EVAL_LEVELS = "heavy"
EVAL_TRIALS = 2
# SSR threshold of every workload's config. A prior trained with the default
# t=3.0 (32 scenes, 50 epochs) flags rows from epoch 8 on: about 6-9 % of
# the labeled rows of a training step, and 1.5-2.5 % on the heavy eval level.
# The priors here have trained one to ten steps, so their tracked code
# variances are still near their initial value, their scores stay below 1 and
# t=3.0 flags nothing. At t=0.45 a training's steps 2-9 flag a median 7 %, so
# the timed train_full steps localize, dilate and distil, and the eval
# checkpoint flags a few percent. See README.md, "The SSR threshold".
SSR_THRESHOLD = 0.45


def sha256_json(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update((json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode())
    return h.hexdigest()


def sha256_arrays(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{a.dtype.str}|{a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def loss_failures(log: dict) -> list[str]:
    """Every logged loss must be finite."""
    return [f"step {log.get('step')}: {k}={v!r} is not finite" for k, v in log.items()
            if (k.startswith("loss_") or k.startswith("vq_"))
            and not (isinstance(v, float) and math.isfinite(v))]


def _unit_interval(name: str, v) -> list[str]:
    if not (isinstance(v, float) and 0.0 <= v <= 1.0):
        return [f"{name}={v!r} is outside [0, 1]"]
    return []


def report_failures(rep: dict, clouds, class_count: int) -> list[str]:
    """A validation report must score every labeled point of its clouds with a
    class in range, and keep mIoU and per-class IoU in [0, 1]."""
    fails = _unit_interval("miou", rep["miou"]) + _unit_interval("miou_all", rep["miou_all"])
    for c, v in enumerate(rep["per_class_iou"]):
        if v is not None:
            fails += _unit_interval(f"per_class_iou[{c}]", v)
    labels = np.concatenate([c.labels.astype(np.int64) for c in clouds])
    expected = np.bincount(labels[labels != IGNORE_LABEL], minlength=class_count)[:class_count]
    if rep["true_counts"] != expected.tolist():
        fails.append(f"true_counts {rep['true_counts']} != labeled points {expected.tolist()}")
    rows = np.asarray(rep["confusion"]).sum(axis=1)
    for c, n in enumerate(rep["true_counts"]):
        if n and abs(rows[c] - 1.0) > 1e-9:
            fails.append(f"confusion row {c} sums to {rows[c]!r}: points left unpredicted")
    return fails


def level_failures(rep: dict) -> list[str]:
    fails = _unit_interval("miou", rep["miou"]) + _unit_interval("miou_all", rep["miou_all"])
    fails += _unit_interval("high_distortion_miou", rep["high_distortion_miou"])
    fails += _unit_interval("high_distortion_mask_fraction", rep["high_distortion_mask_fraction"])
    if rep["ssr_ratio"] is not None:
        fails += _unit_interval("ssr_ratio", rep["ssr_ratio"])
    if sum(rep["true_counts"]) <= 0:
        fails.append("level report scored no labeled point")
    return fails


class _Trainer:
    """Training in `trainer.run`'s batch order and LR schedule, one
    `trainer.train_step` at a time."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        split, clouds = trainer.default_data(cfg)
        self.train_clouds = [clouds[c] for c in split.train]
        self.val_clouds = [clouds[c] for c in split.val]
        self.state = trainer.init_state(cfg)
        self.logs: list[dict] = []
        self._plan = self._batches()

    def _batches(self):
        cfg = self.cfg
        for epoch in range(cfg.epochs):
            order = Stream(cfg.seed, "order", epoch).permutation(len(self.train_clouds))
            for b in range(0, len(order), cfg.batch_size):
                yield epoch, b // cfg.batch_size, [self.train_clouds[i]
                                                   for i in order[b:b + cfg.batch_size]]

    @property
    def batches_per_epoch(self) -> int:
        return -(-len(self.train_clouds) // self.cfg.batch_size)

    def step(self) -> tuple[dict, int] | None:
        """One step; returns (log, clouds) or None once the schedule ends."""
        nxt = next(self._plan, None)
        if nxt is None:
            return None
        epoch, b, batch = nxt
        self.state.epoch = epoch
        self.state.seg_opt.lr = trainer.seg_lr_at(epoch, self.cfg)
        log = trainer.train_step(self.state, batch, self.cfg, epoch, b)
        self.logs.append(log)
        return log, len(batch)


class Workload:
    """Base class. Subclasses define `setup`, `unit` and `close_check_window`;
    `unit` and `close_check_window` return (operations, failed operations),
    where an operation is one training step or one evaluated cloud."""

    name = ""
    check_units = 1
    setup_reps = 1

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.val_report_s: list[float] = []
        self.quality: dict[str, float] = {}
        self.clouds = 0  # clouds through the timed path
        self.clouds_s = 0.0  # time they took

    def fixture(self) -> None:
        """Work done once per run, before the repeated set-ups."""

    def config(self, mode: str, part: int = 0) -> TrainConfig:
        """The config of the run's `part`-th training; each has a seed of its own."""
        return TrainConfig(seed=self.seed * TRAININGS + part, mode=mode, scenes=SCENES,
                           epochs=EPOCHS, points_per_scene=POINTS, t=SSR_THRESHOLD)

    def timed_validation(self, state, val_clouds, cfg, epoch) -> tuple[dict, int]:
        """One `validation_report`, timed and checked; returns (report, failures)."""
        t = time.perf_counter()
        rep = trainer.validation_report(state, val_clouds, cfg, epoch)
        self.val_report_s.append(time.perf_counter() - t)
        fails = report_failures(rep, val_clouds, cfg.class_count)
        self.failures += fails
        return rep, len(fails)

    def finish(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class TrainWorkload(Workload):
    """Timed warm steps: each unit is one `trainer.train_step`. Each set-up
    starts one of `TRAININGS` trainings, and the units take turns among them."""

    mode = ""
    setup_reps = TRAININGS

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.trainers: list[_Trainer] = []
        self.timed_logs: list[dict] = []

    def setup(self) -> None:
        """Fresh data and state for the next training, then its first epoch:
        it fills the originals cache and is the warm-up step."""
        tr = _Trainer(self.config(self.mode, len(self.trainers)))
        for _ in range(tr.batches_per_epoch):
            log, _ = tr.step()
            self.failures += loss_failures(log)
        self.trainers.append(tr)

    def unit(self, tracer=None) -> tuple[int, int] | None:
        tr = self.trainers[len(self.timed_logs) % len(self.trainers)]
        t = time.perf_counter()
        out = tr.step()
        if out is None:
            return None
        log, clouds = out
        self.clouds_s += time.perf_counter() - t
        self.clouds += clouds
        self.timed_logs.append(log)
        fails = loss_failures(log)
        self.failures += fails
        return 1, int(bool(fails))

    def close_check_window(self) -> tuple[int, int]:
        fails = 0
        reports = []
        for tr in self.trainers:
            reps = [self.timed_validation(tr.state, tr.val_clouds, tr.cfg, tr.state.epoch)
                    for _ in range(VAL_REPS)]
            reports.append(reps[0][0])
            fails += sum(f for _, f in reps)
            if any(r != reps[0][0] for r, _ in reps):
                self.failures.append("validation reports of one state differ")
                fails += 1
        self.digests = {
            "steplog": sha256_json([log for tr in self.trainers for log in tr.logs]),
            "weights": sha256_arrays({f"{i}.{name}": a for i, tr in enumerate(self.trainers)
                                      for name, a in trainer.state_arrays(tr.state).items()}),
            "report": sha256_json(reports),
        }
        last = self.timed_logs[len(self.timed_logs) // 2:]
        self.quality = {"loss_total_last": float(np.mean([g["loss_total"] for g in last])),
                        "loss_steps": len(last),
                        "val_miou": float(np.mean([r["miou"] for r in reports]))}
        n = VAL_REPS * sum(len(tr.val_clouds) for tr in self.trainers)
        return n, n if fails else 0


class TrainFull(TrainWorkload):
    name = "train_full"
    mode = "full"
    check_units = 2 * TRAININGS


class TrainClean(TrainWorkload):
    name = "train_clean"
    mode = "none"
    check_units = 100


class EvalSweep(Workload):
    """Evaluation of a checkpoint that the code under test trains from the
    seed: each unit is one `validation_report`, then `shiftseg eval` on the
    heavy level."""

    name = "eval_sweep"
    check_units = 2
    setup_reps = 3

    def fixture(self) -> None:
        """Train the first epoch in mode=full, so the prior exists and the
        eval path runs SSR, then save the checkpoint and its config."""
        tr = _Trainer(self.config("full"))
        for _ in range(tr.batches_per_epoch):
            log, _ = tr.step()
            self.failures += loss_failures(log)
        self.ckpt = os.path.join(self.work_dir, "ckpt")
        trainer.save_state(tr.state, self.ckpt)
        self.cfg_path = os.path.join(self.work_dir, "config.json")
        with open(self.cfg_path, "w", encoding="utf-8") as f:
            json.dump(tr.cfg.to_json(), f)
        self.fixture_logs = tr.logs
        self.fixture_weights = sha256_arrays(trainer.state_arrays(tr.state))
        self.quality = {"loss_total_last": float(tr.logs[-1]["loss_total"]), "loss_steps": 1}

    def setup(self) -> None:
        """What evaluation does before its first cloud: data and `load_state`."""
        self.cfg = self.config("full")
        split, clouds = trainer.default_data(self.cfg)
        self.val_clouds = [clouds[c] for c in split.val]
        self.state = trainer.load_state(self.cfg, self.ckpt)
        self.unit_digests: list[str] = []

    def _eval_cli(self, tracer) -> dict:
        out = os.path.join(self.work_dir, "eval")
        argv = ["eval", "--ckpt", self.ckpt, "--config", self.cfg_path, "--levels", EVAL_LEVELS,
                "--trials", str(EVAL_TRIALS), "--out", out, "--force"]
        span = tracer.span("cli.eval") if tracer is not None else contextlib.nullcontext()
        t = time.perf_counter()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        self.clouds_s += time.perf_counter() - t
        if code != 0:
            raise RuntimeError(f"shiftseg eval exited with code {code}")
        with open(os.path.join(out, "reports", f"level_{EVAL_LEVELS}.json"),
                  encoding="utf-8") as f:
            return json.load(f)

    def unit(self, tracer=None) -> tuple[int, int]:
        before = len(self.failures)
        val, _ = self.timed_validation(self.state, self.val_clouds, self.cfg, self.cfg.epochs)
        level = self._eval_cli(tracer)
        augmented = len(self.val_clouds) * EVAL_TRIALS
        self.clouds += augmented
        self.failures += level_failures(level)
        self.unit_digests.append(sha256_json([val, level]))
        if self.unit_digests[-1] != self.unit_digests[0]:
            self.failures.append("evaluating one checkpoint again changed its reports")
        self.quality["eval_miou"] = level["miou"]
        ops = len(self.val_clouds) + augmented
        return ops, ops if len(self.failures) > before else 0

    def close_check_window(self) -> tuple[int, int]:
        self.digests = {"steplog": sha256_json(self.fixture_logs),
                        "weights": self.fixture_weights,
                        "report": self.unit_digests[0]}
        return 0, 0


WORKLOADS = {w.name: w for w in (TrainFull, TrainClean, EvalSweep)}
