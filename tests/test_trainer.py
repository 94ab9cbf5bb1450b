"""Training-run reproducibility across `--resume`, the last epoch written
only as final, atomic checkpoints, a
final checkpoint kept when the final report fails, a final report over every
augmentation level on draws that every training seed shares, golden output
digests, clean clouds prepared once per run, each validation cloud prepared
and predicted once by the final report, labels a step cannot score
refused, a loss that is not finite named,
rows without a live code kept in SCR, a replayed step bitwise equal to its
selecting pass, the prior's objective over float32 pins bitwise equal to it
over float64 ones, checkpoints refused when written under another config or
when their arrays do not fit the config, a checkpoint restoring every array
in every mode, and one target search over the shifted rows of every cloud
of a step."""
import dataclasses
import hashlib
import json
import re
import shutil

import numpy as np
import pytest

import reference as R
from shiftseg import cli, evalsuite, scp, segnet, ssr, trainer, verify
from shiftseg import tensor as T
from shiftseg.augment import PRESETS
from shiftseg.dataset import DatasetSplit
from shiftseg.pointcloud import IGNORE_LABEL, PointCloud


def write_config(path, **overrides):
    cfg = verify.tiny_config(epochs=3, ckpt_every=1, scenes=4, val_fraction=0.25,
                             class_count=8, points_per_scene=128, **overrides)
    path.write_text(json.dumps(cfg.to_json()))
    return str(path)


def run_bytes(out):
    """The bytes a resume must reproduce: the steplog, the final weights and
    the final report."""
    return {name: (out / name).read_bytes()
            for name in ("steplog.ndjson", "ckpt/final/weights.a3wt", "reports/final.json")}


def test_a_run_writes_its_last_epoch_only_as_final(tmp_path):
    # at ckpt_every 1 a run once also wrote ckpt/epoch_0003, byte-equal to
    # ckpt/final, and reports/epoch_0002.json, the final report's clean scores
    out = tmp_path / "run"
    assert cli.main(["train", "--config", write_config(tmp_path / "config.json"),
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "ckpt").iterdir()) == [
        "epoch_0001", "epoch_0002", "final"]
    assert sorted(p.name for p in (out / "reports").iterdir()) == [
        "epoch_0000.json", "epoch_0001.json", "final.json"]


def test_resume_reproduces_an_uninterrupted_run(tmp_path):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
    finished = run_bytes(out)
    assert len(finished["steplog.ndjson"].splitlines()) == 9  # 3 epochs x 3 one-cloud batches

    # a finished run resumes from epoch_0002 and writes its last epoch again
    assert cli.main(["train", "--config", config, "--out", str(out), "--resume"]) == 0
    assert run_bytes(out) == finished

    # interrupted after logging epoch 3 but before its final checkpoint: the
    # resume restarts from epoch_0002 and must not log epoch 3's steps twice
    shutil.rmtree(out / "ckpt" / "final")
    (out / "reports" / "final.json").unlink()
    # a crash while the final checkpoint was written leaves only its
    # temporary directory, which the resume must not take for a checkpoint
    partial = out / "ckpt" / ".partial-final"
    partial.mkdir()
    (partial / "weights.a3wt").write_bytes(finished["ckpt/final/weights.a3wt"][:100])
    assert cli.main(["train", "--config", config, "--out", str(out), "--resume"]) == 0
    assert run_bytes(out) == finished
    assert sorted(p.name for p in (out / "ckpt").iterdir()) == [
        "epoch_0001", "epoch_0002", "final"]


def test_save_state_replaces_an_existing_checkpoint(tmp_path):
    cfg = verify.tiny_config()
    state = trainer.init_state(cfg)
    ckpt = tmp_path / "final"
    trainer.save_state(state, str(ckpt))
    state.step = 7
    trainer.save_state(state, str(ckpt))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final"]
    assert trainer.load_state(cfg, str(ckpt)).step == 7
    # the step and epoch live in weights.a3wt alone
    assert json.loads((ckpt / "state.json").read_text()) == {"config_hash": cfg.config_hash()}


def test_save_state_syncs_the_files_before_the_rename(tmp_path, monkeypatch):
    state = trainer.init_state(verify.tiny_config())
    ckpt = tmp_path / "epoch_0001"
    synced = []
    monkeypatch.setattr(trainer, "_fsync", lambda path: synced.append((path, ckpt.exists())))
    trainer.save_state(state, str(ckpt))
    tmp = str(tmp_path / ".partial-epoch_0001")
    before = {path for path, renamed in synced if not renamed}
    assert {tmp} | {f"{tmp}/{p.name}" for p in ckpt.iterdir()} <= before
    assert synced[-1] == (str(tmp_path), True)


def foreign_checkpoint(ckpt, written, loading):
    """A checkpoint of the arrays of a fresh `written` state whose state.json
    names `loading`, so `load_state` under `loading` passes the config check
    and meets the arrays."""
    trainer.save_state(trainer.init_state(written), str(ckpt))
    (ckpt / "state.json").write_text(json.dumps({"config_hash": loading.config_hash()}))


def test_a_checkpoint_of_another_config_is_refused_before_an_array_is_read(tmp_path,
                                                                          monkeypatch):
    cfg = verify.tiny_config()
    trainer.save_state(trainer.init_state(cfg), str(tmp_path / "ck"))
    monkeypatch.setattr(T, "load_checkpoint", lambda path: pytest.fail("read the arrays"))
    other = verify.tiny_config(t=cfg.t + 1.0)
    with pytest.raises(trainer.ConfigError, match=f"written under config {cfg.config_hash()}, "
                                                  f"not the loading config {other.config_hash()}"):
        trainer.load_state(other, str(tmp_path / "ck"))


def test_a_checkpoint_without_a_prior_is_refused(tmp_path):
    foreign_checkpoint(tmp_path / "ck", verify.tiny_config(mode="none"), verify.tiny_config())
    with pytest.raises(T.CheckpointError, match=r"checkpoint has no array 'scp\."):
        trainer.load_state(verify.tiny_config(), str(tmp_path / "ck"))


def test_final_report_completes_over_every_level(tmp_path, monkeypatch):
    # 45 curve trials reach the excessive-level draws (keys t=44) that once
    # left one point of the 64-point validation cloud; those keys were drawn
    # with the tiny config's seed, so the sweep draws with it here (the draw
    # key moved from trainer to evalsuite, the one place every draw is keyed)
    cfg = verify.tiny_config(scenes=2, val_fraction=0.5)
    monkeypatch.setattr(trainer, "CURVE_TRIALS", 45)
    monkeypatch.setattr(evalsuite, "EVAL_DRAW_SEED", cfg.seed)
    split, clouds = trainer.default_data(cfg)
    final = trainer.run(cfg, split, clouds, str(tmp_path))
    assert list(final["ssr_ratio_by_level"]) == list(PRESETS)
    assert list(final["miou_by_level"]) == list(PRESETS)


def test_trainings_at_different_seeds_score_the_same_final_draws(tmp_path, monkeypatch):
    # every evaluation's draws are keyed on evalsuite.EVAL_DRAW_SEED, not on
    # the training seed: the final sweeps of two trainings at different seeds
    # on one `gen` dataset, and `eval --data` of each one's checkpoint, score
    # the same augmented clouds
    seen = []
    prepare = evalsuite.prepare_cloud

    def spy(cloud, *args):
        if cloud.cloud_id.endswith(".aug"):
            seen[-1].append(hashlib.sha256(cloud.positions.tobytes()
                                           + cloud.labels.tobytes()).hexdigest())
        return prepare(cloud, *args)

    monkeypatch.setattr(evalsuite, "prepare_cloud", spy)
    cfg = verify.tiny_config(scenes=2, val_fraction=0.5)
    data = tmp_path / "data"
    (tmp_path / "gen.json").write_text(json.dumps(cfg.to_json()))
    assert cli.main(["gen", "--config", str(tmp_path / "gen.json"), "--out", str(data)]) == 0
    for seed in (5, 6):
        config, run = tmp_path / f"{seed}.json", tmp_path / f"run{seed}"
        config.write_text(json.dumps(dataclasses.replace(cfg, seed=seed).to_json()))
        seen.append([])
        assert cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(run)]) == 0
        seen.append([])
        assert cli.main(["eval", "--ckpt", str(run / "ckpt" / "final"), "--config", str(config),
                         "--data", str(data), "--out", str(tmp_path / f"eval{seed}")]) == 0
    assert seen[0] and all(draws == seen[0] for draws in seen)


@pytest.mark.parametrize("mode", trainer.MODES)
def test_the_final_none_level_scores_the_clean_clouds(tmp_path, mode):
    # the none level draws the identity, and a draw is prepared by the one
    # path the clean validation clouds take, so both score the same bits
    cfg = verify.tiny_config(scenes=2, val_fraction=0.5, mode=mode)
    split, clouds = trainer.default_data(cfg)
    final = trainer.run(cfg, split, clouds, str(tmp_path))
    assert final["miou_by_level"]["none"] == final["miou"]
    # run returns the final report it wrote
    assert final == json.loads((tmp_path / "reports" / "final.json").read_text())


def spy_clean_passes(monkeypatch, val_clouds, cfg):
    """Counts of `prepare_cloud` calls on each validation cloud (a `none`
    draw is one: it has the cloud's bytes), of `segnet.predict` calls on its
    features and of `localize` calls on its representatives, by cloud index;
    and the totals of each call over every cloud prepared."""
    def key(cloud):
        return cloud.positions.tobytes() + cloud.labels.tobytes()

    clean = [evalsuite.prepare_cloud(c, cfg.voxel_size, cfg.knn_k) for c in val_clouds]
    by_cloud = {key(c): i for i, c in enumerate(val_clouds)}
    by_feats = {pc.feats.tobytes(): i for i, pc in enumerate(clean)}
    by_coords = {pc.rep_coords.tobytes(): i for i, pc in enumerate(clean)}
    counts = {name: [0] * len(val_clouds) for name in ("prepare", "predict", "localize")}
    totals = dict.fromkeys(counts, 0)

    def counting(name, fn, index):
        def spy(*args, **kwargs):
            totals[name] += 1
            i = index(*args)
            if i is not None:
                counts[name][i] += 1
            return fn(*args, **kwargs)
        return spy

    prepare = counting("prepare", evalsuite.prepare_cloud, lambda c, *_: by_cloud.get(key(c)))
    monkeypatch.setattr(evalsuite, "prepare_cloud", prepare)
    monkeypatch.setattr(trainer, "prepare_cloud", prepare)
    monkeypatch.setattr(segnet, "predict", counting(
        "predict", segnet.predict, lambda model, feats: by_feats.get(feats.tobytes())))
    monkeypatch.setattr(evalsuite, "localize", counting(
        "localize", evalsuite.localize, lambda snap, probs, coords, *_: by_coords.get(
            coords.tobytes())))
    return counts, totals


def test_the_final_report_prepares_and_predicts_each_validation_cloud_once(monkeypatch):
    # its clean scores, the high-distortion metrics and the `none` level all
    # read one clean pass per cloud (it was 3 prepares and 4 predicts)
    cfg = verify.tiny_config(scenes=4, val_fraction=0.5)
    split, clouds = trainer.default_data(cfg)
    val_clouds = [clouds[c] for c in split.val]
    assert len(val_clouds) == 2
    state = trainer.init_state(cfg)
    counts, totals = spy_clean_passes(monkeypatch, val_clouds, cfg)
    rep = trainer.final_report(state, val_clouds)
    assert counts == {name: [1, 1] for name in ("prepare", "predict", "localize")}
    draws = len(val_clouds) * trainer.CURVE_TRIALS * (len(PRESETS) - 1)
    assert totals == {"prepare": draws + 2, "predict": draws + 2, "localize": draws + 2}
    assert rep["miou_by_level"]["none"] == rep["miou"]


def test_a_sweep_without_the_none_level_keeps_its_clean_pass_unlocalized(monkeypatch):
    # one clean prepare and predict per cloud and `trials` draws, as before
    # the clean pass served `none`; nothing localizes a clean cloud
    cfg = verify.tiny_config(scenes=4, val_fraction=0.5)
    split, clouds = trainer.default_data(cfg)
    val_clouds = [clouds[c] for c in split.val]
    state = trainer.init_state(cfg)
    counts, totals = spy_clean_passes(monkeypatch, val_clouds, cfg)
    trials = 2
    evalsuite.ssr_curve(state.model, trainer.prior_snapshot(state), val_clouds, ["heavy"],
                        trials, cfg)
    assert counts == {"prepare": [1, 1], "predict": [1, 1], "localize": [0, 0]}
    draws = len(val_clouds) * trials
    assert totals == {"prepare": draws + 2, "predict": draws + 2, "localize": draws}


def test_the_final_checkpoint_is_written_before_the_final_report(tmp_path, monkeypatch):
    def fail(*args):
        raise RuntimeError("final report failed")

    monkeypatch.setattr(trainer, "final_report", fail)
    cfg = verify.tiny_config(scenes=2, val_fraction=0.5)
    split, clouds = trainer.default_data(cfg)
    with pytest.raises(RuntimeError, match="final report failed"):
        trainer.run(cfg, split, clouds, str(tmp_path))
    assert trainer.load_state(cfg, str(tmp_path / "ckpt" / "final")).epoch == cfg.epochs
    assert not (tmp_path / "reports" / "final.json").exists()


def test_resume_refuses_a_changed_config(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path / "config.json")
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
    steplog = (out / "steplog.ndjson").read_bytes()
    saved_config = (out / "config.json").read_bytes()
    changed = write_config(tmp_path / "changed.json", lam=0.2)
    assert cli.main(["train", "--config", changed, "--out", str(out), "--resume"]) == 2
    assert (out / "steplog.ndjson").read_bytes() == steplog
    assert (out / "config.json").read_bytes() == saved_config


# sha256 of a tiny full-mode run's outputs, recorded before the training hot
# path was optimised; BLAS with 1 or 2 threads gives the same bytes here.
# Any numeric drift in the steps, the weights or the reports fails this test.
# The reports carry the config hash, so they were re-recorded (every other
# report value unchanged) when TrainConfig lost its prior_kind field, and
# again when it lost ema_momentum (the final report also lost its always-null
# teacher_agreement), again when nine never-varied hyperparameters became
# module constants, and again when the four strategy fields RESULTS.md did not
# support left it (epoch_0002 0ff198dc… → 505f3193…, final c5ad6642… →
# 4017d32b…). The steplog and weights were re-recorded when the tape began
# to compute in float32 over float64 master weights, with weight gradients
# summed in fixed row blocks (steplog a8f75ff2… → 3880031c…, weights
# c4cf4d3f… → 021d07f6…; both reports unchanged); those bytes, too, are the
# same under 1 and 2 BLAS threads. The steplog and both reports were
# re-recorded (weights unchanged) when scan mix began to follow from a
# partner: TrainConfig lost scanmix, which moves the config hash, and each
# step line lost the run constants mode and preset and its records the
# derivable num_sectors and mix_keep_even (steplog 3880031c… → 318898bf…,
# epoch_0002 505f3193… → bd001862…, final 4017d32b… → 1bbc7c3c…; every other
# report value and every other steplog value unchanged). The final report
# was re-recorded (steplog, weights and epoch_0002 unchanged) when it gained
# miou_by_level and its level sweep began to draw with trainer.EVAL_DRAW_SEED
# in place of the training seed, which moves ssr_ratio_by_level (final
# 1bbc7c3c… → 9e74bd31…; every other value unchanged, and with EVAL_DRAW_SEED
# set to the config's seed, ssr_ratio_by_level equals the earlier one). It
# was re-recorded again (steplog, weights and epoch_0002 unchanged) when a
# level's ssr_ratio came to be taken over the pooled rows of all its draws,
# as in a training step, in place of the mean of per-draw ratios (final
# 9e74bd31… → 5dab9d5a…; only ssr_ratio_by_level moved). The steplog was
# re-recorded (weights and reports unchanged) when its full lines lost
# vq_codebook, bitwise equal to vq_commitment, and code_usage, a running
# count of labelled rows; every line is the earlier one without those two
# keys (steplog 318898bf… → ca19f21f…). The reports were re-recorded
# (steplog and weights unchanged) when TrainConfig lost eval_every, which
# moves the config hash, and the last epoch came to be written only as
# final: epoch_0002.json, the final report's clean scores, is no longer
# written, so the last epoch report pinned is epoch_0001 (epoch_0001
# cbca8a8f… → 5ac2bc0d…, final 5dab9d5a… → 1948f0ae…; in each only the
# config_hash value moved).
GOLDEN = {
    "steplog.ndjson": "ca19f21f7cf5010c1700725ce152f78b86fe820678e9fc9dfa25a8aa80a56679",
    "ckpt/final/weights.a3wt": "021d07f6d71243473dbecb03c67a056b58bf878dda732f44b9a9572395d2644a",
    "reports/epoch_0001.json": "5ac2bc0d4ad8c41baca05fca488eb01f26225c276bfcfeb9ad2656ce101e5e3d",
    "reports/final.json": "1948f0ae62cb6371d472b71c1c1281f551549c5d86e92a97b50c67d61da75ee7",
}


def test_tiny_run_matches_the_golden_digests(tmp_path):
    # t=0.45 flags 36-69 % of the labeled rows, so distillation runs
    cfg = verify.tiny_config(epochs=3, scenes=4, val_fraction=0.25, class_count=8,
                             points_per_scene=128, t=0.45)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg.to_json()))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
    steps = [json.loads(line) for line in (out / "steplog.ndjson").read_text().splitlines()]
    assert any(step.get("loss_distill", 0.0) > 0.0 for step in steps)
    for name, digest in GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# a steplog line holds what its step measured or drew: no run constant (mode
# and preset are in config.json) and no record field its replay derives
STEP_KEYS = {
    "none": ["step", "epoch", "batch", "loss_ce", "loss_total"],
    "eas": ["step", "epoch", "batch", "loss_ce", "loss_ce_aug", "loss_total", "aug"],
    "full": ["step", "epoch", "batch", "loss_ce", "loss_ce_aug", "loss_ce_scr",
             "loss_distill", "loss_total", "vq_recon", "vq_commitment", "vq_total",
             "ssr_ratio", "aug"],
}
AUG_KEYS = ["parent_id", "jitter_std", "drop_ratio", "yaw", "scale", "flip_x", "flip_y",
            "noise_points", "mix_partner", "stream_key"]


@pytest.mark.parametrize("mode", trainer.MODES)
def test_a_step_line_holds_exactly_the_keys_of_its_mode(mode):
    # two clouds a batch, so each augmented record names its scan-mix partner
    cfg = verify.tiny_config(mode=mode, scenes=4, val_fraction=0.5, batch_size=2)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train]
    line = json.loads(json.dumps(trainer.train_step(trainer.init_state(cfg), batch, cfg, 0, 0)))
    assert list(line) == STEP_KEYS[mode]
    for i, rec in enumerate(line.get("aug", [])):
        assert list(rec) == AUG_KEYS
        assert rec["mix_partner"] == batch[(i + 1) % len(batch)].cloud_id


def test_validation_clouds_are_prepared_once_per_run(monkeypatch):
    cfg = verify.tiny_config(scenes=4, val_fraction=0.5)
    split, clouds = trainer.default_data(cfg)
    val_clouds = [clouds[c] for c in split.val]
    state = trainer.init_state(cfg)
    prepared = []
    featurize = evalsuite.segnet.featurize

    def counting(cloud, grid, nn):
        prepared.append(cloud.cloud_id)
        return featurize(cloud, grid, nn)

    monkeypatch.setattr(evalsuite.segnet, "featurize", counting)
    first = trainer.validation_report(state, val_clouds, cfg, 0)
    assert trainer.validation_report(state, val_clouds, cfg, 0) == first
    assert sorted(prepared) == sorted(split.val)


def test_train_step_refuses_a_label_it_cannot_score():
    cfg = verify.tiny_config(mode="full", t=0.3)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train[:cfg.batch_size]]
    labels = batch[-1].labels.copy()
    labels[labels.size // 2] = cfg.class_count
    batch[-1] = dataclasses.replace(batch[-1], labels=labels)
    state = trainer.init_state(cfg)
    with pytest.raises(ValueError, match=rf"cloud '{re.escape(batch[-1].cloud_id)}' "
                                         rf"has label {cfg.class_count}:"):
        trainer.train_step(state, batch, cfg, 0, 0)
    assert state.step == 0
    labels[labels.size // 2] = IGNORE_LABEL
    batch[-1] = dataclasses.replace(batch[-1], labels=labels)
    assert trainer.train_step(state, batch, cfg, 0, 0)["step"] == 0


@pytest.mark.parametrize("param, key", [("seg.b0", "loss_ce"), ("scp.dec.b0", "vq_recon")])
def test_a_loss_that_is_not_finite_stops_the_run_naming_it(param, key):
    # an infinite bias makes the first loss its network feeds not finite;
    # the decoder's feeds only the prior's objective, whose sum is not
    # finite either, and the error names the first key in steplog order
    cfg = verify.tiny_config(t=0.3)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train[:cfg.batch_size]]
    state = trainer.init_state(cfg)
    trainer.train_step(state, batch, cfg, 0, 0)
    params = {**state.model.params, **state.prior.params}
    params[param].data[0] = np.inf
    # the error names the epoch of the line, which a caller need not keep in
    # state.epoch
    assert state.epoch == 0
    for epoch in (0, 3):
        with np.errstate(invalid="ignore"), pytest.raises(
                trainer.TrainingDiverged,
                match=rf"^{key} is not finite at step 1 \(epoch {epoch}\)$"):
            trainer.train_step(state, batch, cfg, epoch, 1)


def beside_ignore_copies(cloud):
    """`cloud` with two ignore-labelled copies of every point at +-1e-4, so
    the majority label of every voxel is ignore, until an augmentation drops
    a copy and its point's label wins the tie."""
    pos = cloud.positions
    labels = np.full(2 * len(cloud), IGNORE_LABEL, dtype=np.uint16)
    return PointCloud(np.concatenate([pos, pos + 1e-4, pos - 1e-4]),
                      np.concatenate([cloud.labels, labels]), cloud.cloud_id)


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_rows_of_classes_without_a_live_code_stay_in_scr(lam):
    # the originals label no voxel, so no code is ever initialized, while the
    # augmented clouds label some: those rows have no code to be scored
    # against, and cross-entropy keeps all of them
    cfg = verify.tiny_config(t=0.3, lam=lam)
    split, clouds = trainer.default_data(cfg)
    cloud = beside_ignore_copies(clouds[split.train[0]])
    state = trainer.init_state(cfg)
    for step in range(3):
        log = trainer.train_step(state, [cloud], cfg, 0, step)
        assert log["loss_ce"] == 0.0 and log["loss_ce_aug"] > 0.0
        assert all(np.isfinite(v) for k, v in log.items() if k.startswith("loss_"))
        assert log["ssr_ratio"] == 0.0
        if lam == 0.0:
            assert log["loss_ce_scr"] == log["loss_ce_aug"]
    assert not state.cb.initialized.any()


@pytest.mark.parametrize("mode, ratios", [("full", {level: 0.0 for level in PRESETS}),
                                           ("eas", None)])
def test_the_final_report_of_a_prior_without_live_codes_flags_no_row(mode, ratios):
    # None means only that the mode has no prior; mIoU is scored in every mode
    cfg = verify.tiny_config(scenes=2, val_fraction=0.5, mode=mode)
    split, clouds = trainer.default_data(cfg)
    val_clouds = [clouds[c] for c in split.val]
    rep = trainer.final_report(trainer.init_state(cfg), val_clouds)
    assert rep["ssr_ratio_by_level"] == ratios
    assert list(rep["miou_by_level"]) == list(PRESETS)


def codebook_terms(monkeypatch) -> list:
    """The codebook terms `scp.vq_losses` builds from here on, in order (its
    one `T.gathered_mse` node): `scp.VqLosses` holds them in its total only."""
    terms, gathered_mse = [], T.gathered_mse
    monkeypatch.setattr(T, "gathered_mse",
                        lambda *args: terms.append(gathered_mse(*args)) or terms[-1])
    return terms


# full with global distillation, and the EAS + SCR regime, which is full
# with lambda 0
@pytest.mark.parametrize("overrides", [{}, {"lam": 0.0}], ids=["full-global", "eas+scr"])
def test_a_replay_rebuilds_the_selecting_pass_bit_for_bit(monkeypatch, overrides):
    cfg = verify.tiny_config(t=verify.GRAD_T, **overrides)
    state, pb, sel, first = verify.tiny_step(cfg)
    again, _ = trainer.step_losses(state, pb, sel)
    for name in ("ce", "ce_aug", "ce_scr", "distill", "total"):
        a, b = getattr(first, name), getattr(again, name)
        assert (a is None and b is None) or a.data.tobytes() == b.data.tobytes(), name
    # the objective on the selecting pass's latents and on the rows encoded again
    codebook = codebook_terms(monkeypatch)
    vq_first = trainer.vq_objective(state, sel, first.z_prior)
    vq_again = trainer.vq_objective(state, sel)
    assert again.z_prior is None
    for name in ("recon", "commitment", "total"):
        a, b = getattr(vq_first, name), getattr(vq_again, name)
        assert a.data.tobytes() == b.data.tobytes(), name
    assert len(codebook) == 2 and codebook[0].data.tobytes() == codebook[1].data.tobytes()
    for loss, replayed, opt in ((first.total, again.total, state.seg_opt),
                                (vq_first.total, vq_again.total, state.ae_opt)):
        grads = verify._analytic_grads(loss, opt)
        regrads = verify._analytic_grads(replayed, opt)
        assert grads.keys() == regrads.keys()
        for name in grads:
            assert grads[name].tobytes() == regrads[name].tobytes(), name


def test_the_prior_objective_pins_the_snapshot_codes_not_the_live_ones(monkeypatch):
    # moving the live codes after selection moves only the codebook term:
    # the commitment term and the decoder's input read the snapshot's codes
    cfg = verify.tiny_config(t=verify.GRAD_T)
    state, _, sel, first = verify.tiny_step(cfg)
    decode, inputs = state.prior.decode, []
    monkeypatch.setattr(state.prior, "decode",
                        lambda z: inputs.append(z.data.copy()) or decode(z))
    codebook = codebook_terms(monkeypatch)
    still = trainer.vq_objective(state, sel, first.z_prior)
    state.cb.codes.data += 0.5
    moved = trainer.vq_objective(state, sel, first.z_prior)
    assert moved.commitment.data.tobytes() == still.commitment.data.tobytes()
    assert len(inputs) == 2 and inputs[1].tobytes() == inputs[0].tobytes()
    assert len(codebook) == 2 and codebook[1].item() != codebook[0].item()
    assert moved.total.item() != still.total.item()


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_a_training_step_s_codebook_term_equals_its_commitment_term(monkeypatch, lam):
    # why a step line logs vq_commitment alone: in a step both terms are the
    # mse of the selecting pass's latents and its pinned codes, bit for bit
    cfg = trainer.TrainConfig(scenes=5, points_per_scene=128, t=0.45, lam=lam)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train]
    state = trainer.init_state(cfg)
    codebook = codebook_terms(monkeypatch)
    lines = [trainer.train_step(state, batch, cfg, epoch, 0) for epoch in range(3)]
    assert len(codebook) == 3 and any(line["ssr_ratio"] > 0 for line in lines)
    for line, term in zip(lines, codebook):
        # a float32 is exact as a float, so equal values are equal bits
        assert term.data.dtype == np.float32 and term.item() > 0
        assert line["vq_commitment"] == term.item()


def test_the_prior_objective_over_float32_pins_equals_it_over_float64_pins(monkeypatch):
    # the objective derives z_q0 and the straight-through residual from the
    # snapshot's float64 codes in the latents' float32, and the codebook term
    # gathers the codes in float32; pinned and gathered in float64, each op
    # cast them to float32 itself
    cfg = trainer.TrainConfig(scenes=5, points_per_scene=128, t=0.45)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train]
    state = trainer.init_state(cfg)
    for epoch in range(verify.WARM_STEPS):
        trainer.train_step(state, batch, cfg, epoch, 0)
    pb = trainer.prepare_batch(state, batch, verify.WARM_STEPS, 0)
    _, sel = trainer.step_losses(state, pb)
    assert {a.dtype for a in (sel.rows.data, sel.z_e0)} == {np.dtype(np.float32)}
    codebook = codebook_terms(monkeypatch)
    got = trainer.vq_objective(state, sel)
    codes0 = sel.snapshot.codes3.reshape(-1, cfg.latent_dim)
    want, want_codebook = R.vq_losses_float64_pins(
        state.prior, state.cb, state.prior.encode(sel.rows), sel.flat, sel.z_e0,
        codes0[sel.flat], sel.rows.data[:, :cfg.class_count])
    for name, a, b in [("codebook", codebook[0], want_codebook),
                       *((n, getattr(got, n), getattr(want, n))
                         for n in ("recon", "commitment", "total"))]:
        a, b = a.data, b.data
        assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes(), name
    grads = verify._analytic_grads(got.total, state.ae_opt)
    want_grads = verify._analytic_grads(want.total, state.ae_opt)
    assert grads.keys() == want_grads.keys() and "scp.codes" in grads
    for name in grads:
        assert grads[name].dtype == np.float64, name
        assert grads[name].tobytes() == want_grads[name].tobytes(), name
    assert np.abs(grads["scp.codes"]).sum() > 0


def test_a_run_on_a_split_without_training_clouds_is_refused(tmp_path):
    cfg = verify.tiny_config(scenes=2, val_fraction=0.5)
    split, clouds = trainer.default_data(cfg)
    with pytest.raises(ValueError, match="split has no training clouds or no validation"):
        trainer.run(cfg, DatasetSplit([], split.val), clouds, str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


def test_a_run_on_a_split_without_validation_clouds_is_refused(tmp_path):
    # the final report scores the validation clouds, so a run without them
    # is refused before it writes anything, not after its training
    cfg = verify.tiny_config(scenes=2, val_fraction=0.5)
    split, clouds = trainer.default_data(cfg)
    with pytest.raises(ValueError, match="split has no training clouds or no validation"):
        trainer.run(cfg, DatasetSplit(split.train, []), clouds, str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


def test_a_checkpoint_with_teacher_arrays_still_loads(tmp_path):
    cfg = verify.tiny_config()
    state = trainer.init_state(cfg)
    for p in state.model.params.values():
        p.data += 1.0
    arrays = trainer.state_arrays(state)
    arrays.update({f"teacher.{n}": p.data.copy() for n, p in state.model.params.items()})
    (tmp_path / "old").mkdir()
    T.save_checkpoint(tmp_path / "old" / "weights.a3wt", arrays)
    (tmp_path / "old" / "state.json").write_text(json.dumps({"config_hash": cfg.config_hash()}))
    loaded = trainer.load_state(cfg, str(tmp_path / "old"))
    for name, p in loaded.model.params.items():
        assert p.data.tobytes() == state.model.params[name].data.tobytes(), name


def test_a_checkpoint_of_another_width_is_refused(tmp_path):
    # a (1,)-wide hidden layer once broadcast silently into 6 equal columns
    cfg = verify.tiny_config(seg_hidden=(6,))
    foreign_checkpoint(tmp_path / "ck", verify.tiny_config(seg_hidden=(1,)), cfg)
    with pytest.raises(T.CheckpointError,
                       match=r"'seg.w0' has shape \(8, 1\), expected \(8, 6\)"):
        trainer.load_state(cfg, str(tmp_path / "ck"))


def test_a_checkpoint_of_another_codebook_size_is_refused(tmp_path):
    foreign_checkpoint(tmp_path / "ck", verify.tiny_config(k=4), verify.tiny_config(k=8))
    with pytest.raises(T.CheckpointError,
                       match=r"'scp.codes' has shape \(16, 8\), expected \(32, 8\)"):
        trainer.load_state(verify.tiny_config(k=8), str(tmp_path / "ck"))


def array_bytes(state):
    return {name: (a.dtype.str, a.shape, a.tobytes())
            for name, a in trainer.state_arrays(state).items()}


@pytest.mark.parametrize("mode", trainer.MODES)
def test_a_checkpoint_restores_every_array_and_the_next_step(tmp_path, mode):
    # optimizer moments and step counts included: the next step of the
    # loaded state is the next step of the saved one
    cfg = verify.tiny_config(mode=mode, batch_size=2, scenes=4, t=0.3)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train]
    state = trainer.init_state(cfg)
    for step in range(2):
        trainer.train_step(state, batch, cfg, 0, step)
    counts = {n: a[0] for n, a in trainer.state_arrays(state).items() if n.endswith(".t")}
    assert counts == ({"opt.seg.t": 2.0, "opt.ae.t": 2.0} if mode == "full"
                      else {"opt.seg.t": 2.0})
    trainer.save_state(state, str(tmp_path / "ck"))
    loaded = trainer.load_state(cfg, str(tmp_path / "ck"))
    assert array_bytes(loaded) == array_bytes(state)
    line = trainer.train_step(state, batch, cfg, 0, 2)
    assert trainer.train_step(loaded, batch, cfg, 0, 2) == line
    assert array_bytes(loaded) == array_bytes(state)


def test_one_target_search_covers_the_shifted_rows_of_every_cloud(monkeypatch):
    cfg = verify.tiny_config(scenes=5, val_fraction=0.2, batch_size=4, t=0.3,
                             points_per_scene=128)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train]
    state = trainer.init_state(cfg)
    for step in range(2):
        trainer.train_step(state, batch, cfg, 0, step)
    pb = trainer.prepare_batch(state, batch, 0, 2)
    nearest_global = scp.nearest_global
    searches = []
    monkeypatch.setattr(scp, "nearest_global",
                        lambda *args: searches.append(args) or nearest_global(*args))
    first, sel = trainer.step_losses(state, pb)
    assert len(searches) == 1
    # each cloud's shifted rows searched on their own, in cloud order
    snap = sel.snapshot
    per_cloud = []
    for pc, masks in zip(pb.augmented, sel.masks):
        probs = T.softmax(state.model.forward(pc.feats))
        loc = ssr.localize(snap, probs, pc.rep_coords, pc.rep_labels, cfg.dilation_radius)
        shifted = masks.ssr[loc.index]
        if shifted.any():
            per_cloud.append(nearest_global(snap.codes3, snap.initialized,
                                            loc.z_e.data[shifted]))
    assert len(per_cloud) >= 2
    assert sel.targets.tobytes() == np.concatenate(per_cloud).tobytes()
    again, _ = trainer.step_losses(state, pb, sel)
    assert len(searches) == 1
    assert again.total.data.tobytes() == first.total.data.tobytes()
