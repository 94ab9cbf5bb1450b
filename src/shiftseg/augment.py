"""Broad augmentation space with uniformly sampled magnitudes.

An augmentation is a preset's magnitude box (`PRESETS`) for Gaussian jitter
and exact-count point drop, plus one subsidiary switch. On, as in training,
a draw also takes a full-circle yaw, a scale in SCALE_RANGE, axis flips with
FLIP_PROB and appended uniform noise points; off, as at an evaluation level,
it is jitter and drop alone. A draw with the subsidiary transforms on scan
mixes exactly when its caller passes a partner cloud. The transforms map
arrays to new arrays; `replay` builds a draw's one PointCloud from its
AugmentRecord, bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pointcloud import IGNORE_LABEL, PointCloud, sector_split
from .rng import Stream

# named magnitude boxes: (jitter std range, drop ratio range)
PRESETS: dict[str, tuple[tuple[float, float], tuple[float, float]]] = {
    "none": ((0.0, 0.0), (0.0, 0.0)),
    "light": ((0.005, 0.015), (0.1, 0.3)),
    "moderate": ((0.015, 0.03), (0.3, 0.5)),
    "heavy": ((0.03, 0.05), (0.5, 0.8)),
    "random": ((0.01, 0.05), (0.2, 0.8)),
    "excessive": ((0.0, 0.10), (0.0, 0.99)),
}
SCALE_RANGE = (0.95, 1.05)  # isotropic scale of a subsidiary draw
FLIP_PROB = 0.5  # chance of each axis flip in a subsidiary draw
NUM_SECTORS = 6  # azimuthal sectors of a scan mix: even ones own, odd ones the partner's


@dataclass(frozen=True)
class AugmentConfig:
    """A preset and the subsidiary switch; "none" is the identity whatever the rest."""

    preset: str
    subsidiary: bool = True
    noise_points: int = 0


@dataclass
class AugmentRecord:
    """Sampled magnitudes plus the stream key; replays the exact augmentation."""

    parent_id: str
    jitter_std: float
    drop_ratio: float
    yaw: float
    scale: float
    flip_x: bool
    flip_y: bool
    noise_points: int
    mix_partner: str | None  # scan mixed over NUM_SECTORS sectors when set
    stream_key: tuple

    def to_json(self) -> dict:
        doc = self.__dict__.copy()
        doc["stream_key"] = list(self.stream_key)
        return doc


def sample_magnitudes(cfg: AugmentConfig, key_parts: tuple, parent_id: str,
                      mix_partner: str | None = None) -> AugmentRecord:
    """Draw one magnitude assignment: jitter and drop from the preset's box,
    then, with the subsidiary transforms on, yaw, scale and the two flips,
    and a scan mix with `mix_partner` when one is given."""
    s = Stream(*key_parts, "mag")
    (jmin, jmax), (dmin, dmax) = PRESETS[cfg.preset]
    jitter_std = s.uniform(low=jmin, high=jmax)
    drop_ratio = s.uniform(low=dmin, high=dmax)
    on = cfg.subsidiary and cfg.preset != "none"
    yaw = s.uniform(low=-math.pi, high=math.pi) if on else 0.0
    scale = s.uniform(low=SCALE_RANGE[0], high=SCALE_RANGE[1]) if on else 1.0
    flip_x = on and s.uniform() < FLIP_PROB
    flip_y = on and s.uniform() < FLIP_PROB
    return AugmentRecord(
        parent_id=parent_id,
        jitter_std=jitter_std,
        drop_ratio=drop_ratio,
        yaw=yaw,
        scale=scale,
        flip_x=flip_x,
        flip_y=flip_y,
        noise_points=cfg.noise_points if on else 0,
        mix_partner=mix_partner if on else None,
        stream_key=tuple(key_parts),
    )


def jitter(positions: np.ndarray, std: float, stream: Stream) -> np.ndarray:
    """Independent Gaussian offset per coordinate."""
    if std == 0.0:
        return positions
    return positions + stream.normal(3 * len(positions), std=std).reshape(len(positions), 3)


def point_drop(positions: np.ndarray, labels: np.ndarray, ratio: float,
               stream: Stream) -> tuple[np.ndarray, np.ndarray]:
    """Keep exactly max(N - round(N*ratio), min(N, 2)) rows: a uniformly
    shuffled prefix, reordered to preserve original relative order; labels in
    lockstep. At least two points survive, so every draw can be featurized."""
    n = len(positions)
    n_keep = max(n - int(math.floor(n * ratio + 0.5)), min(n, 2))
    if n_keep >= n:
        return positions, labels
    keep = np.sort(stream.permutation(n)[:n_keep])
    return positions[keep], labels[keep]


def subsidiary(positions: np.ndarray, labels: np.ndarray, rec: AugmentRecord, stream: Stream,
               partner: PointCloud | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-order secondary transforms on copies: yaw rotation, isotropic
    scale, axis flips, appended uniform noise points (label 255), then, when
    the record names a mix partner, scan mix (own even sectors, the partner's odd ones)."""
    pos = positions.copy()
    labels = labels.copy()
    if rec.yaw != 0.0:
        c, s = math.cos(rec.yaw), math.sin(rec.yaw)
        x = pos[:, 0] * c - pos[:, 1] * s
        y = pos[:, 0] * s + pos[:, 1] * c
        pos[:, 0], pos[:, 1] = x, y
    if rec.scale != 1.0:
        pos *= rec.scale
    if rec.flip_x:
        pos[:, 0] = -pos[:, 0]
    if rec.flip_y:
        pos[:, 1] = -pos[:, 1]
    if rec.noise_points > 0:
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        u = stream.uniform(3 * rec.noise_points).reshape(rec.noise_points, 3)
        noise = lo + u * (hi - lo)
        pos = np.concatenate([pos, noise], axis=0)
        labels = np.concatenate([labels, np.full(rec.noise_points, IGNORE_LABEL, np.uint16)])
    if rec.mix_partner is not None:
        own_even = sector_split(pos, NUM_SECTORS) % 2 == 0
        par_odd = sector_split(partner.positions, NUM_SECTORS) % 2 == 1
        pos = np.concatenate([pos[own_even], partner.positions[par_odd]], axis=0)
        labels = np.concatenate([labels[own_even], partner.labels[par_odd]])
    return pos, labels


def augment_pair(cloud: PointCloud, cfg: AugmentConfig, key_parts: tuple,
                 partner: PointCloud | None = None) -> tuple[PointCloud, AugmentRecord]:
    """Sample magnitudes and apply subsidiary -> drop -> jitter in lockstep
    with labels; with the subsidiary transforms on, a given `partner` is
    scan mixed in. The returned record replays the result bit-exactly."""
    partner_id = partner.cloud_id if partner is not None else None
    rec = sample_magnitudes(cfg, tuple(key_parts), cloud.cloud_id, mix_partner=partner_id)
    return replay(rec, cloud, partner=partner), rec


def replay(rec: AugmentRecord, cloud: PointCloud,
           partner: PointCloud | None = None) -> PointCloud:
    """The draw `rec` records, as one PointCloud with id "<parent id>.aug"."""
    if cloud.cloud_id != rec.parent_id:
        raise ValueError(f"record belongs to {rec.parent_id!r}, got {cloud.cloud_id!r}")
    if rec.mix_partner is not None and (partner is None or partner.cloud_id != rec.mix_partner):
        raise ValueError(f"record needs mix partner {rec.mix_partner!r}")
    key = rec.stream_key
    pos, labels = subsidiary(cloud.positions, cloud.labels, rec, Stream(*key, "noise"), partner)
    pos, labels = point_drop(pos, labels, rec.drop_ratio, Stream(*key, "drop"))
    return PointCloud(jitter(pos, rec.jitter_std, Stream(*key, "jitter")), labels,
                      f"{cloud.cloud_id}.aug")
