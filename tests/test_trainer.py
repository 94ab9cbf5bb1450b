"""Training-run reproducibility across `--resume`."""
import json
import shutil

from shiftseg import cli, verify


def write_config(path, **overrides):
    cfg = verify.tiny_config(epochs=3, ckpt_every=1, scenes=3, val_fraction=0.25,
                             class_count=8, points_per_scene=128, **overrides)
    path.write_text(json.dumps(cfg.to_json()))
    return str(path)


def test_resume_reproduces_an_uninterrupted_run(tmp_path):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
    steplog = (out / "steplog.ndjson").read_bytes()
    weights = (out / "ckpt" / "final" / "weights.a3wt").read_bytes()
    assert len(steplog.splitlines()) == 9  # 3 epochs x 3 single-cloud batches

    # interrupted after logging epoch 3 but before its checkpoint: the resume
    # restarts from epoch_0002 and must not log epoch 3's steps twice
    shutil.rmtree(out / "ckpt" / "epoch_0003")
    shutil.rmtree(out / "ckpt" / "final")
    assert cli.main(["train", "--config", config, "--out", str(out), "--resume"]) == 0
    assert (out / "steplog.ndjson").read_bytes() == steplog
    assert (out / "ckpt" / "final" / "weights.a3wt").read_bytes() == weights


def test_resume_refuses_a_changed_config(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path / "config.json")
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
    steplog = (out / "steplog.ndjson").read_bytes()
    saved_config = (out / "config.json").read_bytes()
    changed = write_config(tmp_path / "changed.json", seg_lr=0.1)
    assert cli.main(["train", "--config", changed, "--out", str(out), "--resume"]) == 2
    assert (out / "steplog.ndjson").read_bytes() == steplog
    assert (out / "config.json").read_bytes() == saved_config
