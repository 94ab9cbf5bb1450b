import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from shiftseg.augment import (FLIP_PROB, NUM_SECTORS, PRESETS, SCALE_RANGE, AugmentConfig,
                              augment_pair, jitter, point_drop, replay, sample_magnitudes,
                              subsidiary)
from shiftseg.dataset import SceneSpec, generate_scene
from shiftseg.pointcloud import IGNORE_LABEL, PointCloud, sector_split
from shiftseg.rng import Stream


def small_cloud(seed=1, n=200):
    s = Stream(seed, "aug-test")
    pos = s.uniform(3 * n).reshape(n, 3) * 8 - 4
    labels = s.integers(n, 6).astype(np.uint16)
    return PointCloud(pos, labels, f"cloud-{seed}")


# ---------------------------------------------------------------------------
# magnitude sampling


def test_degenerate_uniform_is_constant():
    # the "none" box has equal ends, so every draw is exactly its value
    cfg = AugmentConfig("none")
    for i in range(5):
        rec = sample_magnitudes(cfg, (1, i), "c")
        assert rec.jitter_std == 0.0
        assert rec.drop_ratio == 0.0


def test_default_ranges_match_broad_box():
    assert PRESETS["random"] == ((0.01, 0.05), (0.2, 0.8))
    assert PRESETS["excessive"] == ((0.0, 0.10), (0.0, 0.99))
    assert SCALE_RANGE == (0.95, 1.05) and FLIP_PROB == 0.5


@pytest.mark.parametrize("name", PRESETS)
def test_every_preset_box_is_a_valid_range(name):
    (jmin, jmax), (dmin, dmax) = PRESETS[name]
    assert 0.0 <= jmin <= jmax
    assert 0.0 <= dmin <= dmax < 1.0


def test_sampled_drop_mean():
    cfg = AugmentConfig("random")
    draws = [sample_magnitudes(cfg, (7, i), "c").drop_ratio for i in range(10_000)]
    assert abs(np.mean(draws) - 0.5) < 0.01


def test_preset_boxes_monotone():
    jit_means = []
    drop_means = []
    jit_max = []
    drop_max = []
    for name in ("light", "moderate", "heavy", "excessive"):
        (jmin, jmax), (dmin, dmax) = PRESETS[name]
        jit_means.append((jmin + jmax) / 2)
        drop_means.append((dmin + dmax) / 2)
        jit_max.append(jmax)
        drop_max.append(dmax)
    assert all(a < b for a, b in zip(jit_means, jit_means[1:]))
    # the stress preset's drop box starts at 0, so its mean sits below heavy's;
    # the named levels are mean-ordered and every upper bound keeps growing
    assert all(a < b for a, b in zip(drop_means[:3], drop_means[1:3]))
    assert all(a < b for a, b in zip(jit_max, jit_max[1:]))
    assert all(a < b for a, b in zip(drop_max, drop_max[1:]))


def test_heavy_draws_inside_box():
    cfg = AugmentConfig("heavy")
    for i in range(1000):
        rec = sample_magnitudes(cfg, (3, i), "c")
        assert 0.03 <= rec.jitter_std <= 0.05
        assert 0.5 <= rec.drop_ratio <= 0.8


# ---------------------------------------------------------------------------
# jitter


def test_jitter_zero_identity():
    cloud = small_cloud()
    assert np.array_equal(jitter(cloud.positions, 0.0, Stream(1)), cloud.positions)


def test_jitter_variance():
    cloud = small_cloud(n=34000)
    out = jitter(cloud.positions, 0.05, Stream(2, "j"))
    offsets = out - cloud.positions
    assert abs(offsets.var() - 0.0025) < 0.0025 * 0.02
    # the labels of a jittered draw are its source's
    rec = neutral_record(cloud, jitter_std=0.05)
    assert np.array_equal(replay(rec, cloud).labels, cloud.labels)


# ---------------------------------------------------------------------------
# point drop


def test_drop_zero_identity():
    cloud = small_cloud()
    pos, labels = point_drop(cloud.positions, cloud.labels, 0.0, Stream(3))
    assert np.array_equal(pos, cloud.positions)
    assert np.array_equal(labels, cloud.labels)


def test_drop_exact_count():
    cloud = small_cloud(n=10)
    pos, labels = point_drop(cloud.positions, cloud.labels, 0.2, Stream(4))
    assert len(pos) == len(labels) == 8


@pytest.mark.parametrize("n,kept", [(64, 2), (4096, 41), (2, 2), (1, 1)])
def test_drop_keeps_at_least_two_points(n, kept):
    # the excessive preset's top ratio would leave 1 of 64 points; a draw
    # keeps min(N, 2) so its features can be computed
    cloud = small_cloud(n=n)
    pos, labels = point_drop(cloud.positions, cloud.labels, 0.99, Stream(6, "drop"))
    assert len(pos) == len(labels) == kept


def test_drop_survivors_keep_relative_order_and_labels():
    cloud = small_cloud(n=50)
    pos, labels = point_drop(cloud.positions, cloud.labels, 0.4, Stream(5, "d"))
    # reconstruct survivor indices by matching rows
    survivors = []
    j = 0
    for i in range(len(cloud)):
        if j < len(pos) and np.array_equal(pos[j], cloud.positions[i]):
            assert labels[j] == cloud.labels[i]
            survivors.append(i)
            j += 1
    assert j == len(pos) == len(labels)
    assert survivors == sorted(survivors)


def test_drop_matches_fisher_yates_oracle():
    cloud = small_cloud(n=40)
    stream = Stream(9, "drop")
    pos, labels = point_drop(cloud.positions, cloud.labels, 0.3, stream)
    # independent replay of the same shuffle from the same stream
    ref = Stream(9, "drop")
    u = ref.uniform(39)
    perm = list(range(40))
    for t in range(39):
        i = 40 - 1 - t
        j = min(int(u[t] * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    keep = sorted(perm[:28])
    assert np.array_equal(pos, cloud.positions[keep])
    assert np.array_equal(labels, cloud.labels[keep])


# ---------------------------------------------------------------------------
# subsidiary


def neutral_record(cloud, **kw):
    from shiftseg.augment import AugmentRecord
    base = dict(parent_id=cloud.cloud_id, jitter_std=0.0, drop_ratio=0.0, yaw=0.0,
                scale=1.0, flip_x=False, flip_y=False, noise_points=0,
                mix_partner=None, stream_key=(1, 2))
    base.update(kw)
    return AugmentRecord(**base)


def test_subsidiary_identity():
    cloud = small_cloud()
    pos, labels = subsidiary(cloud.positions, cloud.labels, neutral_record(cloud), Stream(1))
    assert np.array_equal(pos, cloud.positions)
    assert np.array_equal(labels, cloud.labels)


def test_full_rotation_identity():
    cloud = small_cloud()
    pos, _ = subsidiary(cloud.positions, cloud.labels, neutral_record(cloud, yaw=2 * math.pi),
                        Stream(1))
    assert np.max(np.abs(pos - cloud.positions)) < 1e-9


def test_noise_points_appended_with_ignore_label():
    cloud = small_cloud()
    pos, labels = subsidiary(cloud.positions, cloud.labels,
                             neutral_record(cloud, noise_points=16), Stream(2, "n"))
    assert len(pos) == len(labels) == len(cloud) + 16
    assert (labels[-16:] == IGNORE_LABEL).all()
    lo, hi = cloud.positions.min(0), cloud.positions.max(0)
    assert (pos[-16:] >= lo - 1e-9).all()
    assert (pos[-16:] <= hi + 1e-9).all()


def test_scan_mix_sector_membership():
    a = small_cloud(1)
    b = small_cloud(2)
    rec = neutral_record(a, mix_partner=b.cloud_id)
    pos, labels = subsidiary(a.positions, a.labels, rec, Stream(3), partner=b)
    sec = sector_split(pos, NUM_SECTORS)
    # rebuild expected membership from the sector oracle
    sa = sector_split(a.positions, NUM_SECTORS)
    sb = sector_split(b.positions, NUM_SECTORS)
    expect_n = int((sa % 2 == 0).sum() + (sb % 2 == 1).sum())
    assert len(pos) == len(labels) == expect_n
    own_n = int((sa % 2 == 0).sum())
    assert np.all(sec[:own_n] % 2 == 0)
    assert np.all(sec[own_n:] % 2 == 1)
    # labels follow their source points
    assert np.array_equal(labels[:own_n], a.labels[sa % 2 == 0])
    assert np.array_equal(labels[own_n:], b.labels[sb % 2 == 1])


def test_scan_mix_without_partner_rejected():
    a = small_cloud(1)
    rec = neutral_record(a, mix_partner="missing")
    with pytest.raises(ValueError, match="needs mix partner 'missing'"):
        replay(rec, a)


# ---------------------------------------------------------------------------
# composition and replay


def test_preset_none_identity():
    cloud = small_cloud()
    for on, partner in itertools.product((True, False), (small_cloud(2), None)):
        cfg = AugmentConfig("none", subsidiary=on, noise_points=32)
        out, rec = augment_pair(cloud, cfg, (5, 0), partner=partner)
        assert np.array_equal(out.positions, cloud.positions)
        assert np.array_equal(out.labels, cloud.labels)
        assert rec.jitter_std == 0.0 and rec.drop_ratio == 0.0 and rec.yaw == 0.0
        assert rec.scale == 1.0 and not rec.flip_x and not rec.flip_y
        assert rec.noise_points == 0 and rec.mix_partner is None


def test_without_the_subsidiary_switch_a_draw_is_jitter_and_drop_alone():
    cloud = small_cloud()
    cfg = AugmentConfig("heavy", subsidiary=False, noise_points=32)
    for i, partner in itertools.product(range(20), (small_cloud(2), None)):
        out, rec = augment_pair(cloud, cfg, (6, i), partner=partner)
        assert 0.03 <= rec.jitter_std <= 0.05 and 0.5 <= rec.drop_ratio <= 0.8
        assert rec.yaw == 0.0 and rec.scale == 1.0 and not rec.flip_x and not rec.flip_y
        assert rec.noise_points == 0 and rec.mix_partner is None
        pos, _ = point_drop(cloud.positions, cloud.labels, rec.drop_ratio, Stream(6, i, "drop"))
        assert len(out) == len(pos)


def test_replay_reproduces_bit_exactly():
    scene = generate_scene(SceneSpec(seed=31, num_points=512))
    partner = generate_scene(SceneSpec(seed=32, num_points=512))
    cfg = AugmentConfig("heavy", noise_points=32)
    records = []
    for given in (partner, None):
        out, rec = augment_pair(scene, cfg, (11, "e", 4), partner=given)
        # a subsidiary draw scan mixes exactly when it is given a partner
        assert rec.mix_partner == (None if given is None else given.cloud_id)
        again = replay(rec, scene, partner=given)
        assert np.array_equal(out.positions, again.positions)
        assert np.array_equal(out.labels, again.labels)
        records.append(rec)
    # the partner changes nothing but the mix
    assert dataclasses.replace(records[0], mix_partner=None) == records[1]


def test_record_json_round_trip():
    from shiftseg.augment import AugmentRecord
    cloud = small_cloud()
    _, rec = augment_pair(cloud, AugmentConfig("moderate", noise_points=32), (2, "k"),
                          partner=small_cloud(2))
    # the document a steplog holds carries every field of the record
    doc = json.loads(json.dumps(rec.to_json()))
    assert AugmentRecord(**{**doc, "stream_key": tuple(doc["stream_key"])}) == rec


def test_label_lockstep_through_composition():
    cloud = small_cloud(n=300)
    out = replay(neutral_record(cloud, drop_ratio=0.5, noise_points=8, stream_key=(13,)), cloud)
    # with zero jitter, every non-noise output point equals its source point
    pos_to_label = {tuple(p): int(l) for p, l in zip(cloud.positions, cloud.labels)}
    non_noise = out.labels != IGNORE_LABEL
    for p, l in zip(out.positions[non_noise], out.labels[non_noise]):
        assert pos_to_label[tuple(p)] == int(l)


def test_augmented_cloud_lineage():
    cloud = small_cloud()
    out, rec = augment_pair(cloud, AugmentConfig("light"), (17,))
    assert out.cloud_id == f"{cloud.cloud_id}.aug"
    assert rec.parent_id == cloud.cloud_id


@pytest.mark.parametrize("preset", PRESETS)
def test_an_augmented_cloud_shares_no_memory_with_its_sources(preset):
    # a transform that changes nothing returns its input arrays, so the draw
    # owns its arrays only because `subsidiary` edits copies
    cloud, partner = small_cloud(1), small_cloud(2)
    for i, (on, given) in enumerate(itertools.product((True, False), (partner, None))):
        cfg = AugmentConfig(preset, subsidiary=on, noise_points=4)
        out, _ = augment_pair(cloud, cfg, (19, i), partner=given)
        for a, b in itertools.product((out.positions, out.labels),
                                      (cloud.positions, cloud.labels,
                                       partner.positions, partner.labels)):
            assert not np.shares_memory(a, b)


def test_determinism_same_key_same_output():
    cloud = small_cloud()
    cfg = AugmentConfig("moderate", noise_points=32)
    a, _ = augment_pair(cloud, cfg, (1, "x"))
    b, _ = augment_pair(cloud, cfg, (1, "x"))
    c, _ = augment_pair(cloud, cfg, (1, "y"))
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


# sha256 over every draw below: each preset in training's role (subsidiary
# transforms on; with no partner and with one, so scan mix off and on; 0, 4
# and 32 noise points) and in an evaluation level's
# (`evalsuite.evaluate_level`'s config), 3 clouds each. One digest of
# positions, labels and records (3d27b5a1…), recorded before an augmentation
# became a preset plus the subsidiary switch, was split in two when a partner
# instead of a scan-mix switch began to turn the mix on: AUGMENT_GOLDEN hashes
# the augmented positions and labels alone and has the value the switch code
# gave over the same draws; AUGMENT_RECORD_GOLDEN hashes the records' JSON and
# was re-recorded when the records lost num_sectors and the always-true
# mix_keep_even (records alone 160437ed… → 25245a37…).
AUGMENT_GOLDEN = "f8729c1cd5a904b6057754650aac932d56e7b28c3fb09cb6959187109eb7e5fc"
AUGMENT_RECORD_GOLDEN = "25245a373d435dfdb0623f65179a16951426ccace89433c01859c0e96a4f2c84"


def test_augmentation_bytes_match_the_golden_digest():
    clouds = [generate_scene(SceneSpec(seed=s, num_points=512)) for s in (41, 42, 43)]
    points, records = hashlib.sha256(), hashlib.sha256()

    def draw(cfg, key, i, partner=None):
        out, rec = augment_pair(clouds[i], cfg, key, partner=partner)
        points.update(out.positions.tobytes())
        points.update(out.labels.tobytes())
        records.update(json.dumps(rec.to_json(), sort_keys=True).encode())

    for preset in PRESETS:
        for mixed in (False, True):
            for noise in (0, 4, 32):
                cfg = AugmentConfig(preset, noise_points=noise)
                for i in range(len(clouds)):
                    partner = clouds[(i + 1) % len(clouds)] if mixed else None
                    draw(cfg, (7, "aug", noise, int(mixed), i), i, partner)
        for i in range(len(clouds)):
            draw(AugmentConfig(preset, subsidiary=False), (7, "eval", preset, i, 0), i)
    assert points.hexdigest() == AUGMENT_GOLDEN
    assert records.hexdigest() == AUGMENT_RECORD_GOLDEN
