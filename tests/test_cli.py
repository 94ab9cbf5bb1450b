"""The gen, train, eval and ablate commands on tiny runs: exit codes, the
files they write, and the work one evaluation level does."""
import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import shutil

import numpy as np
import pytest

from shiftseg import augment, cli, dataset, evalsuite, trainer, verify
from shiftseg.dataset import load_cloud, save_cloud
from shiftseg.pointcloud import IGNORE_LABEL, PointCloud
from shiftseg.trainer import TrainConfig

VAL_CLOUDS = 2


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def write_config(path, **overrides):
    cfg = verify.tiny_config(**overrides)
    path.write_text(json.dumps(cfg.to_json()))
    return cfg, str(path)


def gen(out, **overrides):
    """`gen` of a `verify.tiny_config(**overrides)` file into `out`; returns
    `out` and the config file, which a run reading `out` must match in
    scenes, points_per_scene and val_fraction."""
    _, config = write_config(out.parent / f"{out.name}.json", **overrides)
    assert quiet_main(["gen", "--config", config, "--out", str(out)]) == 0
    return out, config


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 4-class full-mode run of one epoch with two validation clouds; its
    codebook is initialized, and at t=0.45 evaluation flags some rows but
    not all."""
    root = tmp_path_factory.mktemp("trained")
    cfg, config = write_config(root / "config.json", scenes=2 * VAL_CLOUDS, val_fraction=0.5,
                               points_per_scene=256, t=0.45)
    assert quiet_main(["train", "--config", config, "--out", str(root / "run")]) == 0
    return cfg, config, str(root / "run" / "ckpt" / "final")


def test_train_with_fewer_classes_than_the_generator_has(tmp_path):
    cfg, config = write_config(tmp_path / "config.json", epochs=1, scenes=4, val_fraction=0.25)
    assert cfg.class_count == 4
    _, clouds = trainer.default_data(cfg)
    for cloud in clouds.values():
        labels = cloud.labels[cloud.labels != IGNORE_LABEL]
        assert labels.size and labels.max() < cfg.class_count
    assert quiet_main(["train", "--config", config, "--out", str(tmp_path / "run")]) == 0


def refused_config(tmp_path, capsys, key, value, message):
    """`train` and `gen` both exit 2 on the config, print `message` first
    and make no output directory."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**verify.tiny_config().to_json(), key: value}))
    out = tmp_path / "run"
    for command in ("train", "gen"):
        assert quiet_main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("points_per_scene", 63), ("class_count", 0), ("val_fraction", 0.0), ("val_fraction", 1.0),
    ("scenes", 0), ("k", 0), ("D", 0), ("knn_k", 0), ("voxel_size", 0.0),
    ("dilation_radius", -0.1), ("noise_points", -1), ("lambda", -0.1), ("ckpt_every", -1),
    ("eval_every", -1), ("seg_hidden", [-1]), ("encoder_widths", [0]), ("t", 0.0),
    ("epochs", -1), ("batch_size", 0)])
def test_train_refuses_a_config_value_that_cannot_run(tmp_path, capsys, key, value):
    refused_config(tmp_path, capsys, key, value, f"error: {key} must be")


def test_train_refuses_an_unknown_augment_preset(tmp_path, capsys):
    refused_config(tmp_path, capsys, "augment_preset", "fierce",
                   "error: unknown augment_preset 'fierce'")


def test_gen_with_fewer_classes(tmp_path):
    out, _ = gen(tmp_path / "data", scenes=2, class_count=3, val_fraction=0.25)
    for path in out.glob("*.a3pc"):
        cloud, class_count = load_cloud(str(path), path.stem)
        assert class_count == 3 and cloud.labels.max() < 3


def test_gen_with_force_replaces_the_earlier_dataset_and_nothing_else(tmp_path):
    # a 4-scene gen forced over a 6-scene one once left scenes 4 and 5
    out, _ = gen(tmp_path / "data", scenes=6, val_fraction=0.5)
    (out / "notes.txt").write_text("kept")
    _, config = write_config(tmp_path / "four.json", scenes=4, val_fraction=0.5)
    assert quiet_main(["gen", "--config", config, "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in out.glob("*.a3pc")) == [f"scene-{i:04d}.a3pc"
                                                          for i in range(4)]
    split = json.loads((out / "split.json").read_text())
    assert sorted(split["train"] + split["val"]) == [f"scene-{i:04d}" for i in range(4)]
    assert (out / "notes.txt").read_text() == "kept"


def test_a_gen_dataset_is_exactly_the_data_of_its_config(tmp_path):
    cfg, config = write_config(tmp_path / "config.json", epochs=2, batch_size=2, scenes=6,
                               points_per_scene=128, val_fraction=0.34, eval_every=1, t=0.45)
    data = tmp_path / "data"
    assert quiet_main(["gen", "--config", config, "--out", str(data)]) == 0
    assert json.loads((data / "manifest.json").read_text())["config_hash"] == cfg.config_hash()
    runs = {}
    for name, extra in (("synth", []), ("data", ["--data", str(data)])):
        runs[name] = tmp_path / f"run_{name}"
        assert quiet_main(["train", "--config", config, "--out", str(runs[name])] + extra) == 0
    files = ["steplog.ndjson", "ckpt/final/weights.a3wt", "reports/epoch_0000.json",
             "reports/epoch_0001.json", "reports/final.json"]
    for name in files:
        assert (runs["data"] / name).read_bytes() == (runs["synth"] / name).read_bytes(), name


@pytest.mark.parametrize("overrides, key, values", [
    ({"scenes": 9, "points_per_scene": 300, "val_fraction": 0.5, "seed": 77}, "scenes", (9, 4)),
    ({"points_per_scene": 128}, "points_per_scene", (128, 64)),
    ({"val_fraction": 0.5}, "val_fraction", (0.5, 0.25))],
    ids=["every-data-key", "points_per_scene", "val_fraction"])
def test_a_run_whose_config_differs_from_its_datasets_in_a_data_key_exits_2(
        trained, tmp_path, capsys, overrides, key, values):
    _, _, ckpt = trained
    data, _ = gen(tmp_path / "data", scenes=4, val_fraction=0.25)
    _, config = write_config(tmp_path / "b.json", **{"scenes": 4, "val_fraction": 0.25,
                                                     **overrides})
    for argv in (["train", "--config", config],
                 ["eval", "--ckpt", ckpt, "--config", config],
                 ["ablate", "--config", config, "--sweep", "t"]):
        out = tmp_path / argv[0]
        capsys.readouterr()
        assert quiet_main(argv + ["--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key} is {values[0]!r}" in err and f"generated with {values[1]!r}" in err, err
        assert str(data / "config.json") in err, err
        assert not out.exists()


def test_a_config_that_differs_from_its_datasets_only_in_lambda_trains(tmp_path):
    data, _ = gen(tmp_path / "data", scenes=4, val_fraction=0.25)
    _, config = write_config(tmp_path / "b.json", scenes=4, val_fraction=0.25, lam=0.5)
    assert quiet_main(["train", "--config", config, "--data", str(data),
                       "--out", str(tmp_path / "run")]) == 0
    # a dataset without the config of its `gen` is read as it stands
    (data / "config.json").unlink()
    _, other = write_config(tmp_path / "c.json", scenes=9, val_fraction=0.5)
    assert quiet_main(["train", "--config", other, "--data", str(data),
                       "--out", str(tmp_path / "other")]) == 0


def test_eval_writes_a_level_report(trained, tmp_path):
    _, config, ckpt = trained
    out = tmp_path / "eval"
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--levels", "heavy",
                       "--trials", "2", "--out", str(out)]) == 0
    rep = json.loads((out / "reports" / "level_heavy.json").read_text())
    for key in ("miou", "high_distortion_miou"):
        assert 0.0 <= rep[key] <= 1.0, key
    assert 0.0 < rep["ssr_ratio"] < 1.0
    assert (out / "csv" / "level_sweep.csv").read_text().startswith("level,seed,ssr_ratio,miou\n")


def test_eval_of_a_checkpoint_saved_before_any_step_flags_no_row(trained, tmp_path):
    # its prior has no initialized code, so no row has a code to be scored
    # against: every level reports ratio 0, not None (which means no prior)
    cfg, config, _ = trained
    ckpt = tmp_path / "ckpt"
    trainer.save_state(trainer.init_state(cfg), str(ckpt))
    out = tmp_path / "eval"
    assert quiet_main(["eval", "--ckpt", str(ckpt), "--config", config, "--trials", "1",
                       "--out", str(out)]) == 0
    rows = [row.split(",") for row in
            (out / "csv" / "level_sweep.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["none", "light", "moderate", "heavy", "excessive"]
    for level, _, ratio, _ in rows:
        rep = json.loads((out / "reports" / f"level_{level}.json").read_text())
        assert rep["ssr_ratio"] == 0.0 and ratio == "0.0", level


def test_eval_rejects_an_unknown_level(trained, tmp_path):
    _, config, ckpt = trained
    out = tmp_path / "eval"
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--levels", "fierce",
                       "--out", str(out)]) == 2
    assert not out.exists()  # so a corrected retry needs no --force


def test_eval_rejects_a_level_listed_twice(trained, tmp_path, capsys):
    _, config, ckpt = trained
    out = tmp_path / "eval"
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--levels",
                       "light,heavy,heavy", "--out", str(out)]) == 2
    assert "level 'heavy' is listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_eval_refuses_zero_trials(trained, tmp_path, capsys):
    _, config, ckpt = trained
    out = tmp_path / "eval"
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--trials", "0",
                       "--out", str(out)]) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_one_level_prepares_each_draw_once(trained, tmp_path, monkeypatch):
    """V clouds x T trials: one draw and one featurize per (cloud, trial),
    plus one featurize per clean cloud for the high-distortion metrics."""
    _, config, ckpt = trained
    calls = {"augment_pair": 0, "featurize": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    draw = counting("augment_pair", augment.augment_pair)
    monkeypatch.setattr(evalsuite, "augment_pair", draw)
    monkeypatch.setattr(augment, "augment_pair", draw)
    monkeypatch.setattr(evalsuite.segnet, "featurize",
                        counting("featurize", evalsuite.segnet.featurize))
    trials = 3
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--levels", "moderate",
                       "--trials", str(trials), "--out", str(tmp_path / "eval")]) == 0
    assert calls == {"augment_pair": VAL_CLOUDS * trials,
                     "featurize": VAL_CLOUDS * trials + VAL_CLOUDS}


# sha256 of `eval` on the `trained` checkpoint at the default levels and
# trials, recorded before eval stopped generating the training scenes and
# before one kNN query served both the clean features and the clean
# high-distortion statistics; the reports carry the config hash, so they were
# re-recorded (every other byte unchanged, the CSV untouched) when nine
# never-varied hyperparameters left TrainConfig, and again when the four
# strategy fields RESULTS.md did not support left it (none 480b4ae3… →
# e2796de2…, light 390415ad… → 92968ab5…, moderate bc517f11… → 673e43fd…,
# heavy 7f519cc5… → b3597587…, excessive be8b5622… → b0b115bc…), and again
# when TrainConfig lost scanmix (none e2796de2… → 2971a6a0…, light 92968ab5…
# → a9286dc8…, moderate 673e43fd… → b7129f95…, heavy b3597587… → 36b21b95…,
# excessive b0b115bc… → 398f83e5…)
EVAL_GOLDEN = {
    "reports/level_none.json": "2971a6a05e57fe0bdcf7892797cb9bc9c8f284a05ae03e9ae6326714724e5134",
    "reports/level_light.json": "a9286dc8ed8be410fa072952869061c209e4a24200483bd05b0715a54d37f87b",
    "reports/level_moderate.json":
        "b7129f95a9073220a0bce3f56969278b2a64deb9964afee3595c0e173ef4d460",
    "reports/level_heavy.json": "36b21b95befe1fdaed5d6bbfdc8adf5678b51110c40fe9283e863c7124c28bf4",
    "reports/level_excessive.json":
        "398f83e508d3ba62fb5d2e669bdb93561d55b02271e04230034f0c1019480337",
    "csv/level_sweep.csv": "a849f416ebb3a7b857d89e67831898ed92b1a1042a51cc72ef2338984d83eb6c",
}


# sha256 of the `trained` fixture's own run, so the eval digests above stand
# on the weights they were recorded with: the eval reports hold only scores,
# and they stayed equal under a numeric change that moved every weight. The
# steplog was re-recorded (weights unchanged) when its lines lost mode, preset
# and the records' num_sectors and mix_keep_even (dae7b817… → 1ba50d1e…)
TRAINED_GOLDEN = {
    "ckpt/final/weights.a3wt": "510290f0847ee147bb5ddc6f6383ea5fc79c85d9046a1360f07f7ea46d578b38",
    "steplog.ndjson": "1ba50d1eacc823b655aa5d51f829886a335b1e834a1909518dc5a58eb04460b5",
}


def test_eval_matches_the_golden_digests(trained, tmp_path):
    _, config, ckpt = trained
    run = pathlib.Path(ckpt).parent.parent
    for name, digest in TRAINED_GOLDEN.items():
        assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest, name
    out = tmp_path / "eval"
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--out", str(out)]) == 0
    assert sorted(str(p.relative_to(out)) for p in out.glob("reports/*")) == sorted(
        name for name in EVAL_GOLDEN if name.startswith("reports/"))
    for name, digest in EVAL_GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_eval_generates_only_the_validation_scenes(trained, tmp_path, monkeypatch):
    cfg, config, ckpt = trained
    split, _ = trainer.default_data(cfg)
    assert split.train
    generated = []
    generate = dataset.generate_scene

    def counting(spec, cloud_id=None):
        generated.append(cloud_id)
        return generate(spec, cloud_id)

    monkeypatch.setattr(dataset, "generate_scene", counting)
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--levels", "heavy",
                       "--out", str(tmp_path / "eval")]) == 0
    assert sorted(generated) == sorted(split.val)


def test_eval_queries_each_clean_cloud_once(trained, tmp_path, monkeypatch):
    """V clouds x T trials augmented queries, and one query per clean cloud
    that serves its features and its high-distortion statistics."""
    _, config, ckpt = trained
    queries = []
    knn = evalsuite.knn

    def counting(cloud, k, rows=None):
        queries.append((cloud.parent_id, k, rows is None))
        return knn(cloud, k, rows)

    monkeypatch.setattr(evalsuite, "knn", counting)
    trials = 2
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--levels", "heavy",
                       "--trials", str(trials), "--out", str(tmp_path / "eval")]) == 0
    clean = [q for q in queries if q[0] is None]
    assert clean == [(None, evalsuite.EVAL_KNN_K, True)] * VAL_CLOUDS
    assert len(queries) == VAL_CLOUDS * trials + VAL_CLOUDS


def test_eval_reads_only_the_validation_files_of_a_dataset(trained, tmp_path):
    _, config, ckpt = trained
    data = tmp_path / "data"
    assert quiet_main(["gen", "--config", config, "--out", str(data)]) == 0
    argv = ["eval", "--ckpt", ckpt, "--config", config, "--data", str(data)]
    assert quiet_main(argv + ["--out", str(tmp_path / "all")]) == 0
    split = json.loads((data / "split.json").read_text())
    assert split["train"]
    for cid in split["train"]:
        (data / f"{cid}.a3pc").unlink()
    assert quiet_main(argv + ["--out", str(tmp_path / "val")]) == 0
    for name in EVAL_GOLDEN:
        assert (tmp_path / "val" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_eval_refuses_a_split_without_validation_clouds(trained, tmp_path, capsys):
    _, _, ckpt = trained
    # floor(3 x 0.25) = 0 validation clouds
    data, config = gen(tmp_path / "data", scenes=3, val_fraction=0.25)
    out = tmp_path / "eval"
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", config, "--data", str(data),
                       "--out", str(out)]) == 2
    assert "no validation cloud" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["train"], ["ablate", "--sweep", "t"]])
def test_train_and_ablate_refuse_a_split_without_validation_clouds(tmp_path, capsys, command):
    # floor(3 x 0.25) = 0 validation clouds, from the config or from `gen`
    _, config = write_config(tmp_path / "config.json", scenes=3, val_fraction=0.25)
    data = tmp_path / "data"
    assert quiet_main(["gen", "--config", config, "--out", str(data)]) == 0
    out = tmp_path / "out"
    for extra in ([], ["--data", str(data)]):
        capsys.readouterr()
        assert quiet_main(command + ["--config", config, "--out", str(out)] + extra) == 2
        assert "no validation cloud" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", [["train"], ["ablate", "--sweep", "t"]])
def test_train_and_ablate_refuse_a_split_without_training_clouds(tmp_path, capsys, command):
    _, config = write_config(tmp_path / "config.json", scenes=4, val_fraction=0.25)
    data = tmp_path / "data"
    assert quiet_main(["gen", "--config", config, "--out", str(data)]) == 0
    split = json.loads((data / "split.json").read_text())
    (data / "split.json").write_text(json.dumps({"train": [], "val": split["val"]}))
    out = tmp_path / "out"
    assert quiet_main(command + ["--config", config, "--data", str(data),
                                 "--out", str(out)]) == 2
    assert f"split {str(data / 'split.json')!r} has no training cloud" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, text", [
    ("split.json", "not json"), ("split.json", '{"val": []}'), ("split.json", "[1,2]"),
    ("split.json", '{"train": ["scene-0000"], "val": ["scene-0000"]}'),
    ("split.json", '{"train": ["scene-0000", "scene-0000"], "val": ["scene-0001"]}'),
    ("state.json", "garbage")], ids=["not-json", "no-train", "list", "overlap", "twice", "state"])
def test_a_malformed_split_or_checkpoint_state_exits_2(tmp_path, capsys, name, text):
    _, config = write_config(tmp_path / "config.json", scenes=4, val_fraction=0.25)
    out = tmp_path / "run"
    argv = ["train", "--config", config, "--out", str(out)]
    if name == "split.json":
        path = tmp_path / "data" / name
        argv += ["--data", str(path.parent)]
    else:  # a resume from a checkpoint whose state.json is garbage
        path = out / "ckpt" / "epoch_0001" / name
        argv.append("--resume")
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert quiet_main(argv) == 2
    assert str(path) in capsys.readouterr().err
    if name == "split.json":
        assert not out.exists()


def test_train_with_force_replaces_the_earlier_run_and_nothing_else(tmp_path):
    # a 3-epoch run's later checkpoints and reports once stayed beside a
    # 1-epoch run forced into its directory, and a resume picked them
    out = tmp_path / "run"
    runs = {}
    for name, epochs in (("a", 3), ("b", 1)):
        _, runs[name] = write_config(tmp_path / f"{name}.json", epochs=epochs, scenes=4,
                                     val_fraction=0.5, eval_every=1, ckpt_every=1)
    assert quiet_main(["train", "--config", runs["a"], "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    assert quiet_main(["train", "--config", runs["b"], "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in (out / "ckpt").iterdir()) == ["epoch_0001", "final"]
    assert sorted(p.name for p in (out / "reports").iterdir()) == ["epoch_0000.json",
                                                                   "final.json"]
    assert (out / "notes.txt").read_text() == "kept"
    assert quiet_main(["train", "--config", runs["b"], "--out", str(out), "--resume"]) == 0


def test_eval_with_force_replaces_the_earlier_levels_and_nothing_else(trained, tmp_path):
    _, config, ckpt = trained
    out = tmp_path / "eval"
    argv = ["eval", "--ckpt", ckpt, "--config", config, "--trials", "1", "--out", str(out)]
    assert quiet_main(argv + ["--levels", "none,light"]) == 0
    (out / "csv" / "notes.txt").write_text("kept")
    (out / "notes.txt").write_text("kept")
    assert quiet_main(argv + ["--levels", "heavy", "--force"]) == 0
    # a directory of the layout is replaced whole; a file beside it stays
    assert [p.name for p in (out / "reports").iterdir()] == ["level_heavy.json"]
    assert sorted(p.name for p in out.iterdir()) == ["csv", "manifest.json", "notes.txt",
                                                     "reports"]
    assert [p.name for p in (out / "csv").iterdir()] == ["level_sweep.csv"]


@pytest.fixture(scope="module")
def two_epoch_run(tmp_path_factory):
    """A finished 2-epoch run with a checkpoint per epoch, and its config."""
    root = tmp_path_factory.mktemp("resumable")
    _, config = write_config(root / "config.json", epochs=2, ckpt_every=1, scenes=4,
                             val_fraction=0.25)
    assert quiet_main(["train", "--config", config, "--out", str(root / "run")]) == 0
    return config, root / "run"


@pytest.mark.parametrize("line", [b"garbage", b"[1,2]", b'{"x": 1}', b'{"step": "3"}',
                                  b'{"step": null}', b"", b'{"step": 1, "x": "\xff"}'],
                         ids=["not-json", "list", "no-step", "step-string", "step-null",
                              "blank", "not-utf8"])
def test_a_malformed_steplog_line_on_resume_exits_2(two_epoch_run, tmp_path, capsys, line):
    config, run = two_epoch_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    log = out / "steplog.ndjson"
    lines = log.read_bytes().count(b"\n")
    log.write_bytes(log.read_bytes() + line + b"\n")
    before = log.read_bytes()
    assert quiet_main(["train", "--config", config, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(log) in err and f"line {lines + 1} " in err, err
    assert log.read_bytes() == before


def test_a_torn_last_steplog_line_is_dropped_on_resume(two_epoch_run, tmp_path):
    config, run = two_epoch_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    log = out / "steplog.ndjson"
    steplog = log.read_bytes()
    log.write_bytes(steplog + b'{"step": 9')
    assert quiet_main(["train", "--config", config, "--out", str(out), "--resume"]) == 0
    assert log.read_bytes() == steplog


def cut_cloud(data, role, points):
    """Keep the first `points` points of the split's first `role` cloud;
    returns its id."""
    cid = json.loads((data / "split.json").read_text())[role][0]
    path = data / f"{cid}.a3pc"
    cloud, count = load_cloud(str(path), cid)
    save_cloud(PointCloud(cloud.positions[:points], cloud.labels[:points], cid), path, count)
    return cid


@pytest.mark.parametrize("points", [2, 3])
def test_train_and_eval_score_a_validation_cloud_of_few_points(tmp_path, points):
    # the clean high-distortion metrics take the PCA of 2- or 3-point
    # neighbourhoods
    data, config = gen(tmp_path / "data", scenes=4, points_per_scene=256, val_fraction=0.25)
    cut_cloud(data, "val", points)
    run = tmp_path / "run"
    assert quiet_main(["train", "--config", config, "--data", str(data), "--out", str(run)]) == 0
    final = json.loads((run / "reports" / "final.json").read_text())
    assert 0.0 < final["high_distortion_mask_fraction"] <= 1.0
    assert quiet_main(["eval", "--ckpt", str(run / "ckpt" / "final"), "--config", config,
                       "--data", str(data), "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "reports" / "level_heavy.json").is_file()


@pytest.mark.parametrize("role, points", [("train", 1), ("val", 1), ("val", 0)])
def test_a_cloud_of_fewer_than_two_points_is_refused(trained, tmp_path, capsys, role, points):
    _, _, ckpt = trained
    data, config = gen(tmp_path / "data", scenes=4, val_fraction=0.25)
    cid = cut_cloud(data, role, points)
    commands = [["train", "--config", config], ["ablate", "--config", config, "--sweep", "t"]]
    if role == "val":  # eval reads the validation clouds only
        commands.append(["eval", "--ckpt", ckpt, "--config", config])
    for argv in commands:
        out = tmp_path / argv[0]
        capsys.readouterr()
        assert quiet_main(argv + ["--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cloud {cid!r}" in err and f"has {points} point(s)" in err, err
        assert not out.exists()


def test_a_cloud_whose_cell_keys_overflow_int64_is_refused(trained, tmp_path, capsys):
    _, _, ckpt = trained
    data, config = gen(tmp_path / "data", scenes=4, val_fraction=0.25)
    cid = json.loads((data / "split.json").read_text())["val"][0]
    save_cloud(PointCloud(np.array([[1e20, 0, 0], [-1e20, 0, 0], [3e20, 5, 5]]),
                          np.zeros(3, np.uint16), cid), data / f"{cid}.a3pc", 4)
    for argv in (["train", "--config", config],
                 ["eval", "--ckpt", ckpt, "--config", config],
                 ["ablate", "--config", config, "--sweep", "t"]):
        out = tmp_path / argv[0]
        capsys.readouterr()
        assert quiet_main(argv + ["--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cloud {cid!r} has a coordinate beyond 2^63 voxels of 0.35" in err, err
        assert not out.exists()


def test_ablate_writes_the_sweep_table(tmp_path):
    _, config = write_config(tmp_path / "config.json", scenes=3, val_fraction=0.34,
                             points_per_scene=256)
    out = tmp_path / "ablate"
    assert quiet_main(["ablate", "--config", config, "--sweep", "t",
                       "--out", str(out)]) == 0
    lines = (out / "csv" / "sweep_t.csv").read_text().splitlines()
    assert lines[0] == "sweep,value,miou_clean,miou_heavy"
    assert [line.split(",")[1] for line in lines[1:]] == ["2.0", "3.0", "4.0"]
    assert all(np.isfinite(float(v)) for line in lines[1:] for v in line.split(",")[2:])


def test_every_sweep_cell_is_a_config():
    base = TrainConfig().to_json()
    for name, (key, values) in cli.SWEEPS.items():
        assert key in base, name
        for value in values:
            doc = {**base, key: value}
            assert TrainConfig.from_json(doc).to_json()[key] == value, (name, value)


def test_ablate_rejects_an_unknown_sweep(tmp_path):
    _, config = write_config(tmp_path / "config.json")
    assert quiet_main(["ablate", "--config", config, "--sweep", "width",
                       "--out", str(tmp_path / "ablate")]) == 2


@pytest.mark.parametrize("mode", ["none", "eas"])
def test_ablate_refuses_a_sweep_of_a_prior_the_mode_lacks(tmp_path, capsys, mode):
    _, config = write_config(tmp_path / "config.json", scenes=3, val_fraction=0.34,
                             points_per_scene=256, mode=mode)  # one ablate can run in mode full
    out = tmp_path / "ablate"
    assert quiet_main(["ablate", "--config", config, "--sweep", "t", "--out", str(out)]) == 2
    assert f"sweep 't' varies the prior, which mode {mode!r} does not learn" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def eight_class_data(tmp_path_factory):
    """Two training clouds and one validation cloud, the one `eval` reads."""
    data, _ = gen(tmp_path_factory.mktemp("data") / "d8", scenes=3, class_count=8)
    return data


def test_data_with_more_classes_than_the_config_is_refused(trained, eight_class_data,
                                                           tmp_path, capsys):
    _, _, ckpt = trained  # class_count 4
    _, config = write_config(tmp_path / "config.json", scenes=3)
    for argv in (["train", "--config", config],
                 ["eval", "--ckpt", ckpt, "--config", config],
                 ["ablate", "--config", config, "--sweep", "t"]):
        out = tmp_path / argv[0]
        capsys.readouterr()
        assert quiet_main(argv + ["--data", str(eight_class_data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "declares 8 classes" in err and "class_count of 4" in err, err
        assert not out.exists()


def test_data_whose_clouds_declare_different_class_counts_is_refused(tmp_path, capsys):
    data, _ = gen(tmp_path / "data", scenes=2, class_count=3, val_fraction=0.25)
    first = sorted(data.glob("*.a3pc"))[0]
    cloud, _ = load_cloud(str(first), first.stem)
    save_cloud(cloud, first, 4)
    _, config = write_config(tmp_path / "config.json", scenes=2, val_fraction=0.25)
    assert quiet_main(["train", "--config", config, "--data", str(data),
                       "--out", str(tmp_path / "run")]) == 2
    assert "[3, 4] classes" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{not json", "is not JSON"),
    ("[1, 2]", "a config must be a JSON object, got list"),
    ('{"epochs": "3"}', "epochs must be an integer, got '3'"),
    ('{"t": null}', "t must be a number, got None"),
    ('{"epochs": true}', "epochs must be an integer, got True"),
], ids=["not-json", "list", "epochs-string", "t-null", "epochs-bool"])
@pytest.mark.parametrize("command", ["train", "eval", "ablate", "gen"])
def test_a_malformed_config_exits_2_naming_the_key(trained, tmp_path, capsys, text, message,
                                                   command):
    _, _, ckpt = trained
    path = tmp_path / "config.json"
    path.write_text(text)
    extra = {"eval": ["--ckpt", ckpt], "ablate": ["--sweep", "t"]}.get(command, [])
    out = tmp_path / "out"
    assert quiet_main([command, "--config", str(path), "--out", str(out)] + extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_an_int_where_a_float_is_expected_is_kept_as_it_is():
    doc = {**verify.tiny_config().to_json(), "t": 3, "lambda": 1}
    back = TrainConfig.from_json(doc).to_json()
    assert back == doc and type(back["t"]) is int and type(back["lambda"]) is int


def test_a_config_with_the_removed_prior_kind_key_is_refused(tmp_path, capsys):
    cfg = verify.tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**cfg.to_json(), "prior_kind": "vqvae"}))
    assert quiet_main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "unknown config key 'prior_kind'" in capsys.readouterr().err


def test_a_config_with_the_removed_ema_momentum_key_is_refused(tmp_path, capsys):
    cfg = verify.tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**cfg.to_json(), "ema_momentum": None}))
    assert quiet_main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "unknown config key 'ema_momentum'" in capsys.readouterr().err


# the strategy keys went with the alternatives RESULTS.md did not support,
# scanmix went when a partner alone began to turn scan mix on, and mode
# "eas+scr" is spelled mode "full" with lambda 0
@pytest.mark.parametrize("key", [
    "seg_lr", "seg_weight_decay", "seg_momentum", "clip_grad_norm", "ae_lr", "curve_trials",
    "beta", "gamma", "num_sectors", "prior_source", "offline_prior_path", "distill_target",
    "curriculum", "scanmix", "mode"])
def test_a_config_with_a_key_now_a_constant_is_refused(tmp_path, capsys, key):
    cfg = verify.tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**cfg.to_json(), key: "eas+scr" if key == "mode" else 1}))
    out = tmp_path / "run"
    assert quiet_main(["train", "--config", str(path), "--out", str(out)]) == 2
    expected = ("mode must be one of ('none', 'eas', 'full'), got 'eas+scr'" if key == "mode"
                else f"unknown config key '{key}'")
    assert expected in capsys.readouterr().err
    assert not out.exists()


def refused_eval(trained, tmp_path, capsys, other):
    """`eval` of the `trained` checkpoint under config `other` exits 2,
    naming both config hashes, and makes no output directory."""
    cfg, _, ckpt = trained
    config = tmp_path / "config.json"
    config.write_text(json.dumps(other.to_json()))
    out = tmp_path / "eval"
    assert quiet_main(["eval", "--ckpt", ckpt, "--config", str(config), "--out", str(out)]) == 2
    assert (f"was written under config {cfg.config_hash()}, not the loading config "
            f"{other.config_hash()}") in capsys.readouterr().err
    assert not out.exists()


def test_eval_under_a_config_that_differs_only_in_t_is_refused(trained, tmp_path, capsys):
    # a checkpoint trained at t=0.45 was once evaluated under any config
    # whose array shapes fit, and its reports named that config
    cfg = trained[0]
    refused_eval(trained, tmp_path, capsys, dataclasses.replace(cfg, t=3.0))


def test_eval_with_a_config_of_another_width_is_refused(trained, tmp_path, capsys):
    cfg = trained[0]
    assert cfg.seg_hidden == (6, 5)
    refused_eval(trained, tmp_path, capsys, dataclasses.replace(cfg, seg_hidden=(6, 7)))
