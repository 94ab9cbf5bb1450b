import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as R
from shiftseg import dataset
from shiftseg.dataset import (SYNTH_CLASSES, CloudFormatError, DatasetSplit, SceneSpec,
                              generate_scene, load_cloud, make_split, save_cloud)
from shiftseg.rng import Stream


def test_scene_determinism():
    spec = SceneSpec(seed=11)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.labels, b.labels)


def test_scene_ground_only():
    scene = generate_scene(SceneSpec(seed=2, enabled_classes=("road",)))
    assert set(np.unique(scene.labels)) == {SYNTH_CLASSES.index("road")}


def test_scene_minimum_class_presence():
    scene = generate_scene(SceneSpec(seed=3))
    counts = np.bincount(scene.labels, minlength=8)
    assert (counts >= 16).all()
    assert counts.sum() == 4096


def test_scene_class_balance_over_split():
    _, scenes = make_split(5, 32, 0.25, SceneSpec(seed=0), False)
    counts = np.zeros(8, dtype=np.int64)
    for scene in scenes:
        counts += np.bincount(scene.labels, minlength=8)
    frac = counts / counts.sum()
    assert (frac >= 0.01).all() and (frac <= 0.60).all()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 400), st.integers(0, 2**32 - 1),
       st.tuples(*[st.floats(-50.0, 50.0)] * 3), st.tuples(*[st.floats(0.05, 20.0)] * 3))
def test_box_surface_equals_the_face_by_face_fill(n, seed, center, size):
    got = dataset._box_surface(Stream(seed, "box"), n, center, size)
    want = R.box_surface_per_face(Stream(seed, "box"), n, center, size)
    assert got.shape == (n, 3) and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# binary format


def test_cloud_round_trip(tmp_path):
    scene = generate_scene(SceneSpec(seed=7, num_points=256))
    path = tmp_path / "scene.a3pc"
    save_cloud(scene, path, 8)
    back, c = load_cloud(path, "scene")
    assert c == 8
    assert np.array_equal(back.positions, scene.positions)
    assert np.array_equal(back.labels, scene.labels)


def test_cloud_round_trip_is_byte_stable(tmp_path):
    scene = generate_scene(SceneSpec(seed=9, num_points=128))
    p1, p2 = tmp_path / "a.a3pc", tmp_path / "b.a3pc"
    save_cloud(scene, p1, 8)
    save_cloud(scene, p2, 8)
    assert p1.read_bytes() == p2.read_bytes()


def test_cloud_bad_magic(tmp_path):
    path = tmp_path / "bad.a3pc"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(CloudFormatError, match="offset 0"):
        load_cloud(path, "scene")


def test_cloud_truncated(tmp_path):
    scene = generate_scene(SceneSpec(seed=4, num_points=64))
    path = tmp_path / "t.a3pc"
    save_cloud(scene, path, 8)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CloudFormatError, match="offset"):
        load_cloud(path, "scene")


def test_cloud_hand_built_fixture(tmp_path):
    path = tmp_path / "hand.a3pc"
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIQH", b"A3PC", 1, 2, 19))
        f.write(struct.pack("<dddH", 1.0, 2.0, 3.0, 0))
        f.write(struct.pack("<dddH", 4.0, 5.0, 6.0, 255))
    cloud, c = load_cloud(path, "scene")
    assert c == 19
    assert np.array_equal(cloud.positions, [[1, 2, 3], [4, 5, 6]])
    assert cloud.labels.tolist() == [0, 255]


def test_cloud_nonfinite_rejected(tmp_path):
    path = tmp_path / "inf.a3pc"
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIQH", b"A3PC", 1, 1, 8))
        f.write(struct.pack("<dddH", np.inf, 0.0, 0.0, 0))
    with pytest.raises(CloudFormatError, match="record 0"):
        load_cloud(path, "scene")


@pytest.mark.parametrize("label", [8, 254, 256, 65535])
def test_cloud_label_outside_the_declared_classes_rejected(tmp_path, label):
    path = tmp_path / "label.a3pc"
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIQH", b"A3PC", 1, 3, 8))
        for lab in (7, 255, label):
            f.write(struct.pack("<dddH", 0.0, 0.0, 0.0, lab))
    with pytest.raises(CloudFormatError, match=f"label {label} in record 2"):
        load_cloud(path, "scene")


@st.composite
def cloud_bodies(draw):
    """Bytes after the magic: a version-1 header of a few records, then
    record bytes of about the declared length."""
    n = draw(st.integers(0, 4))
    head = struct.pack("<IQH", draw(st.sampled_from([1, 1, 1, 2])), n, draw(st.integers(0, 300)))
    size = draw(st.integers(max(0, 26 * n - 2), 26 * n + 2))
    return head + draw(st.binary(min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), cloud_bodies()))
def test_cloud_bytes_parse_or_raise_cloud_format_error(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "fuzz.a3pc"
    path.write_bytes(b"A3PC" + body)
    try:
        cloud, c = load_cloud(path, "scene")
    except CloudFormatError:
        return
    labels = cloud.labels
    assert ((labels < c) | (labels == 255)).all() and np.isfinite(cloud.positions).all()


# ---------------------------------------------------------------------------
# splits


def test_split_sizes_and_disjoint():
    split, scenes = make_split(3, 10, 0.2, SceneSpec(seed=0), False)
    assert len(split.val) == 2 and len(split.train) == 8
    assert not set(split.train) & set(split.val)
    assert len(scenes) == 10


def test_split_deterministic():
    a, _ = make_split(9, 12, 0.25, SceneSpec(seed=0), False)
    b, _ = make_split(9, 12, 0.25, SceneSpec(seed=0), False)
    assert a.train == b.train and a.val == b.val


def test_split_seed_lineage():
    _, scenes = make_split(100, 10, 0.2, SceneSpec(seed=0), False)
    regen = generate_scene(SceneSpec(seed=103), cloud_id="scene-0003")
    match = [s for s in scenes if s.cloud_id == "scene-0003"][0]
    assert np.array_equal(regen.positions, match.positions)


def test_split_overlap_rejected():
    with pytest.raises(ValueError):
        DatasetSplit(train=["a", "b"], val=["b"])


@pytest.mark.parametrize("train, val, message", [
    (["a", "b", "a"], ["c"], "'a' is listed twice in train"),
    (["a"], ["c", "b", "c"], "'c' is listed twice in val")], ids=["train", "val"])
def test_a_cloud_id_listed_twice_in_one_list_is_rejected(train, val, message):
    with pytest.raises(ValueError, match=message):
        DatasetSplit(train=train, val=val)


def test_a_split_with_the_scene_seeds_of_an_older_gen_loads():
    split, _ = make_split(100, 10, 0.2, SceneSpec(seed=0), False)
    doc = {**split.to_json(), "scene_seeds": {f"scene-{i:04d}": 100 + i for i in range(10)}}
    assert DatasetSplit.from_json(doc).to_json() == {"train": split.train, "val": split.val}
