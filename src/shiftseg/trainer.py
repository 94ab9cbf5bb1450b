"""End-to-end training: per-batch original + augmented passes, online prior
learning, shift-region localization, region-adaptive losses, and alternating
seg/autoencoder updates.

Three modes, one spelling each: `none` trains on the clean originals; `eas`
adds the augmented clouds with plain cross-entropy; `full` also learns the
prior online from the originals' predictions, keeps cross-entropy on each
augmented cloud's SCR rows and distills its SSR rows toward the nearest
code of any class, weighted by lambda. SCR without distillation is `full`
with lambda 0. No other prior source, distillation target or augmentation
curriculum is offered: none beat these by more than the seed-to-seed spread
(RESULTS.md).

A step (`train_step`) runs in this order: the seg losses (`step_losses`,
whose selecting pass also updates the prior's statistics and pins every
discrete choice), the seg backward and update, then the prior's
quantized-autoencoder objective on the pinned selection (`vq_objective`),
its backward and the prior update. So the decoder's graph is built only
after the seg graph is freed; the steplog records the losses in that order,
and only what a step measured or drew (mode and preset are in config.json).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field, fields

import numpy as np

from . import evalsuite, scp, segnet
from . import ssr as ssrmod
from . import tensor as T
from .augment import PRESETS, AugmentConfig, AugmentRecord, augment_pair
from .dataset import SYNTH_CLASSES, DatasetSplit, SceneSpec, make_split
from .evalsuite import PreparedCloud, prepare_cloud
# knn/voxelize: bound for test_every_binding_site_resolves_to_the_wrapper
from .pointcloud import IGNORE_LABEL, PointCloud, knn, voxelize  # noqa: F401
from .rng import Stream

MODES = ("none", "eas", "full")

RESEED_INTERVAL = 200  # steps between dead-code reseeds
# segmentation optimizer: SGD with momentum, global-norm clipped, base rate
# cosine-decayed over the epochs (`seg_lr_at`)
SEG_LR = 0.24
SEG_WEIGHT_DECAY = 1e-4
SEG_MOMENTUM = 0.9
CLIP_GRAD_NORM = 1.0
AE_LR = 0.001  # Adam rate of the prior autoencoder and its codebook
CURVE_TRIALS = 2  # augmentations per val cloud in the final level curve


class ConfigError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


# dataclass field name <-> JSON key
_JSON_ALIASES = {"lam": "lambda", "latent_dim": "D"}
# field annotation -> (JSON types a value may have, their name); an int is a
# valid float and is kept as it is, so the config hash does not change
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string"), "bool": ((bool,), "true or false"),
               "tuple": ((list,), "a list of integers")}


def _json_type_ok(val, types: tuple) -> bool:
    if isinstance(val, bool):  # bool is an int subclass; only a bool field takes it
        return bool in types
    if isinstance(val, list):
        return list in types and all(_json_type_ok(v, (int,)) for v in val)
    return isinstance(val, types)


@dataclass(frozen=True)
class TrainConfig:
    """Every setting a run may vary (schedule, data, widths, the studied t, k,
    D and lambda, geometry, augmentation, bookkeeping) and its
    seed; no flag or environment variable overrides a value. Values no
    experiment varies are module constants: the optimizer settings and
    CURVE_TRIALS here, scp.BETA and scp.GAMMA, augment.NUM_SECTORS. This is
    the one check of a run's settings: a value that could not run is refused
    here with ConfigError, and the library downstream takes them as checked."""

    # schedule
    epochs: int = 50
    batch_size: int = 4
    seed: int = 0
    mode: str = "full"  # none | eas | full; SCR alone is full with lambda 0
    # dataset (synthetic generation defaults)
    scenes: int = 32
    points_per_scene: int = 4096
    class_count: int = 8
    val_fraction: float = 0.25
    # networks
    seg_hidden: tuple = (64, 64, 64)
    encoder_widths: tuple = (16, 32, 64, 128)
    # objective
    lam: float = 0.1  # JSON key "lambda"
    t: float = 3.0
    k: int = 32
    latent_dim: int = 64  # JSON key "D"
    # geometry
    voxel_size: float = 0.4
    knn_k: int = 16
    dilation_radius: float = 0.5
    # augmentation
    augment_preset: str = "random"
    noise_points: int = 32
    # bookkeeping
    ckpt_every: int = 0  # epochs between checkpoints; 0 = final only
    eval_every: int = 1  # epochs between validation reports; 0 = final only

    def __post_init__(self):
        checks = [
            (self.mode in MODES, f"mode must be one of {MODES}, got {self.mode!r}"),
            (self.augment_preset in PRESETS, f"unknown augment_preset {self.augment_preset!r}"),
            (self.epochs >= 0, "epochs must be nonnegative"),
            (self.batch_size >= 1, "batch_size must be positive"),
            (self.scenes >= 1, "scenes must be positive"),
            (self.points_per_scene >= 64, "points_per_scene must be at least 64"),
            (self.class_count >= 1, "class_count must be positive"),
            (0 < self.val_fraction < 1, "val_fraction must be in (0, 1)"),
            (self.t > 0, "t must be positive"),
            (self.k >= 1, "k must be positive"),
            (self.latent_dim >= 1, "D must be positive"),
            (self.voxel_size > 0, "voxel_size must be positive"),
            (self.knn_k >= 1, "knn_k must be positive"),
            (self.dilation_radius >= 0, "dilation_radius must be nonnegative"),
            (self.noise_points >= 0, "noise_points must be nonnegative"),
            (self.lam >= 0, "lambda must be nonnegative"),
            (self.ckpt_every >= 0, "ckpt_every must be nonnegative"),
            (self.eval_every >= 0, "eval_every must be nonnegative"),
            (min(self.seg_hidden, default=1) >= 1,
             "seg_hidden must be a list of positive widths"),
            (min(self.encoder_widths, default=1) >= 1,
             "encoder_widths must be a list of positive widths"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        object.__setattr__(self, "seg_hidden", tuple(self.seg_hidden))
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))

    def to_json(self) -> dict:
        doc = {}
        for f in fields(self):
            key = _JSON_ALIASES.get(f.name, f.name)
            val = getattr(self, f.name)
            doc[key] = list(val) if isinstance(val, tuple) else val
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(doc).__name__}")
        reverse = {v: k for k, v in _JSON_ALIASES.items()}
        annotations = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, val in doc.items():
            name = reverse.get(key, key)
            if name not in annotations:
                raise ConfigError(f"unknown config key {key!r}")
            types, kind = _JSON_TYPES[annotations[name]]
            if not _json_type_ok(val, types):
                raise ConfigError(f"{key} must be {kind}, got {val!r}")
            kwargs[name] = tuple(val) if isinstance(val, list) else val
        return cls(**kwargs)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()


def read_json(path: str, what: str):
    """The JSON document in the file at `path`; a ConfigError naming `what`
    and the path if it is not JSON or not UTF-8."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{what} {path!r} is not JSON: {exc}") from None


def needs_prior(mode: str) -> bool:
    """Whether the mode learns a prior and masks regions with it."""
    return mode == "full"


def seg_lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Cosine decay from SEG_LR over cfg.epochs; keeps the late training
    stable where a constant 0.24 oscillates at this scale."""
    if cfg.epochs <= 1:
        return SEG_LR
    return SEG_LR * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.epochs))


# ---------------------------------------------------------------------------
# Prepared data


@dataclass
class PreparedBatch:
    originals: list[PreparedCloud]
    augmented: list[PreparedCloud] | None
    records: list[AugmentRecord] | None = None  # one per augmented cloud


# ---------------------------------------------------------------------------
# Training state


@dataclass
class TrainState:
    cfg: TrainConfig
    model: segnet.SegModel
    prior: scp.PriorAutoencoder | None
    cb: scp.CodebookState | None
    seg_opt: T.Optimizer
    ae_opt: T.Optimizer | None
    step: int = 0
    epoch: int = 0
    # clean clouds prepared once per run at cfg's geometry: cloud_id -> PreparedCloud
    cache: dict[str, PreparedCloud] = field(default_factory=dict)


def init_state(cfg: TrainConfig) -> TrainState:
    """Freshly initialized networks, codebook and optimizers: the state a
    run starts from."""
    model = segnet.SegModel(cfg.seg_hidden, cfg.class_count, cfg.seed)
    seg_opt = T.Optimizer(model.params, "sgd-momentum", lr=SEG_LR,
                          weight_decay=SEG_WEIGHT_DECAY, momentum=SEG_MOMENTUM,
                          max_grad_norm=CLIP_GRAD_NORM)
    prior = None
    cb = None
    ae_opt = None
    if needs_prior(cfg.mode):
        prior = scp.PriorAutoencoder(cfg.class_count, cfg.latent_dim,
                                     cfg.encoder_widths, cfg.seed)
        cb = scp.CodebookState(cfg.class_count, cfg.k, cfg.latent_dim)
        ae_params = dict(prior.params)
        ae_params["scp.codes"] = cb.codes
        ae_opt = T.Optimizer(ae_params, "adam", lr=AE_LR)
    return TrainState(cfg, model, prior, cb, seg_opt, ae_opt)


# ---------------------------------------------------------------------------
# Step losses. `step_losses` builds the step's seg loss graph and
# `vq_objective` the prior's. The first pass pins every discrete choice of
# the step in a StepSelection (quantizer assignments, region masks, and the
# distillation targets of all shifted rows from one nearest-code search),
# beside the frozen prior it chose against, whose codes supply every pinned
# value; a replay treats them as constants, which is also exactly what
# finite-difference checks of both objectives need.


@dataclass
class StepSelection:
    """Every discrete choice of a step, pinned by its selecting pass; the
    values it chose against are in `snapshot`, the prior frozen after the
    pass's code init and reseed and before the prior's update. In full mode:
    the prior's grouped input `rows` (constants), their int64 code
    assignment `flat` and selection-time latents `z_e0`, in the latents'
    dtype (float32 in training; None without labeled rows); one ShiftMasks
    per augmented cloud; and with lambda != 0, as int64 indices into the
    snapshot's flat codes, the distillation `targets` of the shifted rows,
    the nearest initialized code of any class, cloud after cloud in each
    cloud's grouped order (None when no row is shifted)."""
    snapshot: ssrmod.PriorSnapshot | None = None
    rows: T.Tensor | None = None
    flat: np.ndarray | None = None
    z_e0: np.ndarray | None = None
    masks: list[ssrmod.ShiftMasks] | None = None
    targets: np.ndarray | None = None


@dataclass
class LossBundle:
    ce: T.Tensor
    # raw augmented CE: part of the loss in eas mode; in full mode only
    # logged, so computed on the logits' array and recording no tape
    ce_aug: T.Tensor | None
    ce_scr: T.Tensor | None
    distill: T.Tensor | None
    total: T.Tensor
    # the selecting pass's prior latents of the selection rows, live toward
    # the encoder, for `vq_objective`; None on a replay
    z_prior: T.Tensor | None


def _mean_over(tensors: list[T.Tensor]) -> T.Tensor:
    acc = tensors[0]
    for t in tensors[1:]:
        acc = T.add(acc, t)
    return T.scale(acc, 1.0 / len(tensors))


def _select_scp(state: TrainState, pb: PreparedBatch, probs_data: list[np.ndarray],
                sel: StepSelection) -> T.Tensor | None:
    """Online prior bookkeeping for this step: lazy code init, dead-code
    reseeds, quantizer assignment, and the EMA variance update. Pins the
    rows, assignment and latents in `sel`; returns the rows' live latents
    for `vq_objective` (None when the batch has no labeled rows)."""
    coords = np.concatenate([pc.rep_coords for pc in pb.originals], axis=0)
    labels = np.concatenate([pc.rep_labels for pc in pb.originals])
    probs = np.concatenate(probs_data, axis=0)
    rows, _, classes = scp.build_encoder_input(probs, coords, labels)
    if rows.shape[0] == 0:
        return None
    z_live = state.prior.encode(rows)
    z0 = z_live.data
    scp.maybe_init_codebook(state.cb, z0, classes, Stream(state.cfg.seed, "cbinit"))
    if state.step > 0 and state.step % RESEED_INTERVAL == 0:
        scp.reseed_dead_codes(state.cb, z0, classes,
                              Stream(state.cfg.seed, "reseed", state.step))
    flat = scp.quantize(state.cb.codes3(), z0, classes)
    scp.update_code_stats(state.cb, flat, z0)
    sel.rows, sel.flat, sel.z_e0 = rows, flat, z0
    return z_live


def prior_snapshot(state: TrainState) -> ssrmod.PriorSnapshot | None:
    """The frozen prior that a training step and every evaluation localize
    with, at the run's threshold; None only when the mode has no prior.
    A prior without initialized codes flags no row (`ssrmod.localize`)."""
    if state.cb is None:
        return None
    return ssrmod.take_snapshot(state.cb, state.cfg.t, state.prior)


def step_losses(state: TrainState, pb: PreparedBatch,
                sel: StepSelection | None = None) -> tuple[LossBundle, StepSelection]:
    """Build this step's seg loss graph. With sel=None, performs the selection
    pass (including prior statistics updates); with a selection given, the
    call is pure in the parameters and reuses every pinned choice. Both build
    the same graph: each augmented cloud is localized against the snapshot,
    and a replay keeps the pinned regions and targets of the selection."""
    cfg = state.cfg
    mask_on = needs_prior(cfg.mode)
    distill_on = mask_on and cfg.lam != 0.0
    selecting = sel is None
    if selecting:
        sel = StepSelection()

    logits_orig = [state.model.forward(pc.feats) for pc in pb.originals]
    ce = _mean_over([segnet.ce_loss(lg, pc.rep_labels)
                     for lg, pc in zip(logits_orig, pb.originals)])
    total = ce
    ce_aug = None
    ce_scr = None
    distill = None

    # online prior learning sees the same original-pass forward as the CE loss
    scp_z_live = None
    if selecting and mask_on:
        probs_data = [T.softmax(lg.data).data for lg in logits_orig]
        scp_z_live = _select_scp(state, pb, probs_data, sel)
        sel.snapshot = prior_snapshot(state)

    if cfg.mode != "none":
        aug_logits = [state.model.forward(pc.feats) for pc in pb.augmented]
        ce_aug = _mean_over([segnet.ce_loss(lg.data if mask_on else lg, pc.rep_labels)
                             for lg, pc in zip(aug_logits, pb.augmented)])
        if not mask_on:
            total = T.add(total, ce_aug)
        else:
            locs = [ssrmod.localize(sel.snapshot, T.softmax(lg), pc.rep_coords,
                                    pc.rep_labels, cfg.dilation_radius)
                    for lg, pc in zip(aug_logits, pb.augmented)]
            if selecting:
                sel.masks = [loc.masks for loc in locs]
            ce_scr = _mean_over([
                segnet.ce_loss(lg, pc.rep_labels, mask=m.scr)
                for lg, pc, m in zip(aug_logits, pb.augmented, sel.masks)])
            total = T.add(total, ce_scr)
            if distill_on:
                rows = [np.flatnonzero(m.ssr[loc.index]) for loc, m in zip(locs, sel.masks)]
                picked = [T.gather_rows(loc.z_e, r) for loc, r in zip(locs, rows) if r.size]
                if picked:
                    z_all = picked[0] if len(picked) == 1 else T.concat(picked, axis=0)
                    snap = sel.snapshot
                    if selecting:
                        sel.targets = scp.nearest_global(snap.codes3, snap.initialized,
                                                         z_all.data)
                    distill = T.mse(z_all, snap.codes3.reshape(-1, cfg.latent_dim)[sel.targets])
                else:
                    distill = T.Tensor(0.0)
                total = T.add(total, T.scale(distill, cfg.lam))

    return LossBundle(ce, ce_aug, ce_scr, distill, total, scp_z_live), sel


def vq_objective(state: TrainState, sel: StepSelection,
                 z_e: T.Tensor | None = None) -> scp.VqLosses | None:
    """The prior's quantized-autoencoder objective on the pinned selection;
    None when the step selected no prior rows. `z_e` is the selecting pass's
    live latents (LossBundle.z_prior); without them the selection rows are
    encoded again, to the same bits. `train_step` builds it after the seg
    update, so the decoder's graph never coexists with the seg graph."""
    if sel.rows is None:
        return None
    if z_e is None:
        z_e = state.prior.encode(sel.rows)
    return scp.vq_losses(state.prior, state.cb, z_e, sel.flat, sel.z_e0,
                         sel.snapshot.codes3.reshape(-1, state.cfg.latent_dim),
                         sel.rows.data[:, :state.cfg.class_count])


# ---------------------------------------------------------------------------
# One optimization step


def _log_losses(log: dict, losses: list[tuple[str, T.Tensor | None]]) -> None:
    """Record each (steplog key, loss) pair that is not None, in order; a
    value that is not finite raises TrainingDiverged naming its key and the
    line's step and epoch."""
    for name, loss in losses:
        if loss is None:
            continue
        log[name] = loss.item()
        if not math.isfinite(log[name]):
            raise TrainingDiverged(
                f"{name} is not finite at step {log['step']} (epoch {log['epoch']})")


def prepared_clean(state: TrainState, cloud: PointCloud) -> PreparedCloud:
    """An unaugmented cloud's features at the run's geometry (`state.cfg`),
    prepared once per run and memoised in `state.cache` by cloud_id;
    training originals and validation clouds share it."""
    if cloud.cloud_id not in state.cache:
        state.cache[cloud.cloud_id] = prepare_cloud(cloud, state.cfg.voxel_size,
                                                    state.cfg.knn_k)
    return state.cache[cloud.cloud_id]


def prepare_batch(state: TrainState, clouds: list[PointCloud], epoch: int,
                  batch_index: int) -> PreparedBatch:
    """The batch's clean features and, unless mode is `none`, one augmented
    draw per cloud; a partner, the next cloud of the batch, turns scan mix
    on, so a batch of one cloud is never mixed."""
    cfg = state.cfg
    originals = [prepared_clean(state, cloud) for cloud in clouds]
    if cfg.mode == "none":
        return PreparedBatch(originals, None)
    aug_cfg = AugmentConfig(cfg.augment_preset, noise_points=cfg.noise_points)
    augmented, records = [], []
    for i, cloud in enumerate(clouds):
        partner = clouds[(i + 1) % len(clouds)] if len(clouds) > 1 else None
        aug_cloud, rec = augment_pair(
            cloud, aug_cfg, (cfg.seed, "aug", epoch, batch_index, i),
            partner=partner)
        augmented.append(prepare_cloud(aug_cloud, cfg.voxel_size, cfg.knn_k))
        records.append(rec)
    return PreparedBatch(originals, augmented, records)


def train_step(state: TrainState, clouds: list[PointCloud], cfg: TrainConfig,
               epoch: int, batch_index: int) -> dict:
    """One full optimization step under `state.cfg`; returns the StepLog
    record. `cfg` is unread, kept for the benchmark harness's positional calls."""
    classes = state.cfg.class_count
    if not clouds:
        raise ValueError("batch must be nonempty")
    for cloud in clouds:
        bad = cloud.labels[(cloud.labels != IGNORE_LABEL) & (cloud.labels >= classes)]
        if bad.size:
            raise ValueError(f"cloud {cloud.cloud_id!r} has label {int(bad[0])}: neither "
                             f"{IGNORE_LABEL} (ignore) nor below class_count {classes}")
    pb = prepare_batch(state, clouds, epoch, batch_index)
    bundle, sel = step_losses(state, pb)

    log: dict = {"step": state.step, "epoch": epoch, "batch": batch_index}
    _log_losses(log, [("loss_ce", bundle.ce), ("loss_ce_aug", bundle.ce_aug),
                      ("loss_ce_scr", bundle.ce_scr), ("loss_distill", bundle.distill),
                      ("loss_total", bundle.total)])

    T.backward(bundle.total)
    state.seg_opt.step()
    vq = vq_objective(state, sel, bundle.z_prior)
    if vq is not None:
        _log_losses(log, [("vq_recon", vq.recon), ("vq_codebook", vq.codebook),
                          ("vq_commitment", vq.commitment), ("vq_total", vq.total)])
        T.backward(vq.total)
        state.ae_opt.step()
    if state.cb is not None:
        log["code_usage"] = int(state.cb.usage.sum())
    if sel.masks is not None:
        ssr_rows = sum(int(m.ssr.sum()) for m in sel.masks)
        labeled = sum(int((m.scr | m.ssr).sum()) for m in sel.masks)
        log["ssr_ratio"] = ssr_rows / labeled if labeled else 0.0
    if pb.augmented is not None:
        log["aug"] = [rec.to_json() for rec in pb.records]

    state.step += 1
    return log


# ---------------------------------------------------------------------------
# Checkpointing


def _arrays(state: TrainState) -> dict[str, np.ndarray]:
    """Every array a checkpoint holds but the step and epoch, by name: the
    live arrays of the seg net and its optimizer and, with a prior, of the
    prior, its codebook and its optimizer. The one list of checkpoint names."""
    arrays = {name: p.data for name, p in state.model.params.items()}
    arrays.update(state.seg_opt.named_arrays("opt.seg"))
    if state.prior is not None:
        cb = state.cb
        arrays.update({name: p.data for name, p in state.prior.params.items()})
        arrays.update({"scp.codes": cb.codes.data, "scp.variances": cb.variances,
                       "scp.usage": cb.usage, "scp.initialized": cb.initialized})
        arrays.update(state.ae_opt.named_arrays("opt.ae"))
    return arrays


def state_arrays(state: TrainState) -> dict[str, np.ndarray]:
    """A float64 copy of every checkpoint array (`_arrays`), and the step and
    epoch as "meta.step" and "meta.epoch"."""
    arrays = {name: a.astype(np.float64) for name, a in _arrays(state).items()}
    arrays["meta.step"] = np.array([float(state.step)])
    arrays["meta.epoch"] = np.array([float(state.epoch)])
    return arrays


def save_state(state: TrainState, ckpt_dir: str) -> None:
    """Write weights.a3wt (the arrays of `state_arrays`) and state.json,
    which holds the config hash `load_state` checks, as one directory.

    The files go to a sibling `.partial-<name>` directory, which is synced
    to disk and then takes `ckpt_dir`'s place by rename (an existing
    `ckpt_dir` is renamed aside first), so `--resume`, which looks for
    `epoch_*`, never sees a half-written checkpoint, after a crash of the
    process or of the machine.
    """
    parent, name = os.path.split(os.path.normpath(ckpt_dir))
    tmp = os.path.join(parent, f".partial-{name}")
    stale = os.path.join(parent, f".stale-{name}")
    for leftover in (tmp, stale):
        shutil.rmtree(leftover, ignore_errors=True)
    os.makedirs(tmp)
    T.save_checkpoint(os.path.join(tmp, "weights.a3wt"), state_arrays(state))
    with open(os.path.join(tmp, "state.json"), "w", encoding="utf-8") as f:
        json.dump({"config_hash": state.cfg.config_hash()}, f)
        f.write("\n")
    for entry in os.listdir(tmp):
        _fsync(os.path.join(tmp, entry))
    _fsync(tmp)
    if os.path.exists(ckpt_dir):
        os.replace(ckpt_dir, stale)
    os.replace(tmp, ckpt_dir)
    _fsync(parent or ".")
    shutil.rmtree(stale, ignore_errors=True)


def _fsync(path: str) -> None:
    """Flush a file's or a directory's contents to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_state(cfg: TrainConfig, ckpt_dir: str) -> TrainState:
    """The state saved in `ckpt_dir` under `cfg`: every array of `_arrays`,
    and the step and epoch. Before any array is read, a ConfigError refuses
    a state.json that is not a JSON object or names another config's hash."""
    path = os.path.join(ckpt_dir, "state.json")
    doc = read_json(path, "checkpoint state")
    if not isinstance(doc, dict):
        raise ConfigError(f"checkpoint state {path!r} is not a JSON object")
    if doc.get("config_hash") != cfg.config_hash():
        raise ConfigError(f"checkpoint {ckpt_dir!r} was written under config "
                          f"{doc.get('config_hash')}, not the loading config {cfg.config_hash()}")
    state = init_state(cfg)
    meta = {"meta.step": np.zeros(1), "meta.epoch": np.zeros(1)}
    T.load_arrays(T.load_checkpoint(os.path.join(ckpt_dir, "weights.a3wt")),
                  {**_arrays(state), **meta})
    state.step = int(meta["meta.step"][0])
    state.epoch = int(meta["meta.epoch"][0])
    return state


# ---------------------------------------------------------------------------
# Full run


def _json_line(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _truncate_steplog(path: str, step: int) -> None:
    """Keep only the records of steps before `step`, where a resumed run
    restarts, so steps logged after the checkpoint are not written twice.
    A torn last line (no newline) of an interrupted run is dropped too; any
    other line that is not a record with an integer "step" is a ConfigError
    naming the file and the line, and the file is left as it is."""
    if not os.path.exists(path):
        return
    keep = []
    with open(path, "rb") as f:
        for number, line in enumerate(f, 1):
            if not line.endswith(b"\n"):
                continue
            try:
                logged = json.loads(line)["step"]
            except (ValueError, TypeError, KeyError):
                logged = None
            if type(logged) is not int:
                raise ConfigError(f"steplog {path!r} line {number} is not a step record "
                                  'with an integer "step"')
            if logged < step:
                keep.append(line)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.writelines(keep)
    os.replace(tmp, path)


def validation_report(state: TrainState, val_clouds: list[PointCloud],
                      cfg: TrainConfig, epoch: int) -> dict:
    """Point-level scores on the validation clouds under `state.cfg`. `cfg`
    is unread, kept for the benchmark harness's positional calls."""
    preds = [evalsuite.point_predictions(state.model, prepared_clean(state, c))
             for c in val_clouds]
    body = evalsuite.evaluate_clouds(preds, val_clouds, state.cfg.class_count)
    return {"epoch": epoch, "mode": state.cfg.mode, "seed": state.cfg.seed,
            "config_hash": state.cfg.config_hash(), **body}


def final_report(state: TrainState, val_clouds: list[PointCloud]) -> dict:
    """The validation report plus SSR ratio by level and high-distortion mask
    fraction (`evalsuite.clean_high_distortion`, as `shiftseg eval` reports
    it)."""
    doc = validation_report(state, val_clouds, state.cfg, state.cfg.epochs)
    doc["final"] = True
    snapshot = prior_snapshot(state)
    doc["ssr_ratio_by_level"] = None if snapshot is None else evalsuite.ssr_curve(
        state.model, snapshot, val_clouds, PRESETS, CURVE_TRIALS, state.cfg)
    doc["high_distortion_mask_fraction"] = evalsuite.clean_high_distortion(
        state.model, val_clouds, state.cfg)["high_distortion_mask_fraction"]
    return doc


def run(cfg: TrainConfig, split: DatasetSplit, clouds_by_id: dict[str, PointCloud],
        out_dir: str, resume_from: str | None = None):
    """Train for cfg.epochs over the split; returns (state, reports).

    Writes steplog.ndjson, per-epoch reports, checkpoints and the final
    report under `out_dir`; fully deterministic given the config seed.
    """
    if not split.train:
        raise ValueError("split has no training clouds")
    state = load_state(cfg, resume_from) if resume_from else init_state(cfg)
    train_clouds = [clouds_by_id[cid] for cid in split.train]
    val_clouds = [clouds_by_id[cid] for cid in split.val]
    reports: list[dict] = []

    os.makedirs(os.path.join(out_dir, "reports"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "ckpt"), exist_ok=True)
    log_path = os.path.join(out_dir, "steplog.ndjson")
    if resume_from:
        _truncate_steplog(log_path, state.step)
    with open(log_path, "a" if resume_from else "w", encoding="utf-8") as log_fh:
        for epoch in range(state.epoch, cfg.epochs):
            state.epoch = epoch
            state.seg_opt.lr = seg_lr_at(epoch, cfg)
            order = Stream(cfg.seed, "order", epoch).permutation(len(train_clouds))
            for b in range(0, len(order), cfg.batch_size):
                batch = [train_clouds[i] for i in order[b:b + cfg.batch_size]]
                log_fh.write(_json_line(train_step(state, batch, cfg, epoch,
                                                   b // cfg.batch_size)))
            if cfg.eval_every and val_clouds and (epoch + 1) % cfg.eval_every == 0:
                rep = validation_report(state, val_clouds, cfg, epoch)
                reports.append(rep)
                with open(os.path.join(out_dir, "reports", f"epoch_{epoch:04d}.json"),
                          "w", encoding="utf-8") as f:
                    f.write(_json_line(rep))
            if cfg.ckpt_every and (epoch + 1) % cfg.ckpt_every == 0:
                state.epoch = epoch + 1
                save_state(state, os.path.join(out_dir, "ckpt", f"epoch_{epoch + 1:04d}"))
        state.epoch = cfg.epochs
        # the finished training is kept even if its final report fails
        save_state(state, os.path.join(out_dir, "ckpt", "final"))
        if val_clouds:
            rep = final_report(state, val_clouds)
            reports.append(rep)
            with open(os.path.join(out_dir, "reports", "final.json"),
                      "w", encoding="utf-8") as f:
                f.write(_json_line(rep))
    return state, reports


def default_data(cfg: TrainConfig, val_only: bool = False):
    """Synthetic split straight from the config (no data directory): the
    split and its clouds by id, only the validation clouds with val_only."""
    template = SceneSpec(seed=0, num_points=cfg.points_per_scene,
                         enabled_classes=SYNTH_CLASSES[:cfg.class_count])
    split, scenes = make_split(cfg.seed, cfg.scenes, cfg.val_fraction, template, val_only)
    return split, {c.cloud_id: c for c in scenes}
