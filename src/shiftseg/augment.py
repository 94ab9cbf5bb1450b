"""Broad augmentation space with uniformly sampled magnitudes.

Primary perturbations are Gaussian jitter and exact-count point drop; the
subsidiary set is yaw rotation, isotropic scaling, axis flips, appended
uniform noise points, and azimuthal scan mixing with a partner cloud. Every
application is described by an AugmentRecord that replays bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pointcloud import IGNORE_LABEL, PointCloud, sector_split
from .rng import Stream

# named magnitude boxes: (jitter std range, drop ratio range)
PRESETS: dict[str, tuple[tuple[float, float], tuple[float, float]]] = {
    "light": ((0.005, 0.015), (0.1, 0.3)),
    "moderate": ((0.015, 0.03), (0.3, 0.5)),
    "heavy": ((0.03, 0.05), (0.5, 0.8)),
    "random": ((0.01, 0.05), (0.2, 0.8)),
    "excessive": ((0.0, 0.10), (0.0, 0.99)),
}
PRESET_NAMES = ("none",) + tuple(PRESETS)
NUM_SECTORS = 6  # azimuthal sectors of a scan mix: even ones own, odd ones the partner's


@dataclass(frozen=True)
class AugmentConfig:
    jitter_std_range: tuple[float, float] = (0.01, 0.05)
    drop_ratio_range: tuple[float, float] = (0.2, 0.8)
    rotation: bool = True  # yaw uniform in [-pi, pi]
    scale_range: tuple[float, float] = (0.95, 1.05)
    flip_prob: float = 0.5
    noise_points: int = 32
    scanmix: bool = True

    def __post_init__(self):
        jmin, jmax = self.jitter_std_range
        dmin, dmax = self.drop_ratio_range
        if not 0.0 <= jmin <= jmax:
            raise ValueError(f"bad jitter range {self.jitter_std_range}")
        if not 0.0 <= dmin <= dmax < 1.0:
            raise ValueError(f"bad drop range {self.drop_ratio_range}")

    @classmethod
    def for_preset(cls, name: str, **overrides) -> "AugmentConfig":
        """Config with the named preset's magnitude box applied. The "none"
        preset is a full identity: subsidiary overrides are ignored."""
        if name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {name!r}")
        if name == "none":
            return cls(jitter_std_range=(0.0, 0.0), drop_ratio_range=(0.0, 0.0),
                       rotation=False, scale_range=(1.0, 1.0), flip_prob=0.0,
                       noise_points=0, scanmix=False)
        jit, drop = PRESETS[name]
        return cls(jitter_std_range=jit, drop_ratio_range=drop, **overrides)


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
    mix_partner: str | None
    num_sectors: int
    mix_keep_even: bool
    stream_key: tuple

    def to_json(self) -> dict:
        doc = self.__dict__.copy()
        doc["stream_key"] = list(self.stream_key)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "AugmentRecord":
        doc = dict(doc)
        doc["stream_key"] = tuple(doc["stream_key"])
        return cls(**doc)


def sample_magnitudes(cfg: AugmentConfig, key_parts: tuple, parent_id: str,
                      mix_partner: str | None = None) -> AugmentRecord:
    """Draw one magnitude assignment from the config's boxes."""
    s = Stream(*key_parts, "mag")
    jitter_std = s.uniform(low=cfg.jitter_std_range[0], high=cfg.jitter_std_range[1])
    drop_ratio = s.uniform(low=cfg.drop_ratio_range[0], high=cfg.drop_ratio_range[1])
    yaw = s.uniform(low=-math.pi, high=math.pi) if cfg.rotation else 0.0
    scale = s.uniform(low=cfg.scale_range[0], high=cfg.scale_range[1])
    flip_x = s.uniform() < cfg.flip_prob
    flip_y = s.uniform() < cfg.flip_prob
    return AugmentRecord(
        parent_id=parent_id,
        jitter_std=jitter_std,
        drop_ratio=drop_ratio,
        yaw=yaw,
        scale=scale,
        flip_x=bool(flip_x),
        flip_y=bool(flip_y),
        noise_points=cfg.noise_points,
        mix_partner=mix_partner if cfg.scanmix else None,
        num_sectors=NUM_SECTORS if cfg.scanmix else 0,
        mix_keep_even=True,
        stream_key=tuple(key_parts),
    )


def _child(cloud: PointCloud, positions, labels) -> PointCloud:
    parent = cloud.parent_id if cloud.source == "augmented" else cloud.cloud_id
    return PointCloud(positions, labels, f"{parent}.aug", source="augmented", parent_id=parent)


def jitter(cloud: PointCloud, std: float, stream: Stream) -> PointCloud:
    """Independent Gaussian offset per coordinate; labels untouched."""
    if std < 0:
        raise ValueError("jitter std must be nonnegative")
    if std == 0.0:
        return _child(cloud, cloud.positions.copy(), cloud.labels.copy())
    noise = stream.normal(3 * len(cloud), std=std).reshape(len(cloud), 3)
    return _child(cloud, cloud.positions + noise, cloud.labels.copy())


def point_drop(cloud: PointCloud, ratio: float, stream: Stream) -> PointCloud:
    """Keep exactly max(N - round(N*ratio), min(N, 2)) points: a uniformly
    shuffled prefix, reordered to preserve original relative order; labels in
    lockstep. At least two points survive, so every draw can be featurized."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("drop ratio must be in [0, 1)")
    n = len(cloud)
    n_keep = max(n - int(math.floor(n * ratio + 0.5)), min(n, 2))
    if n_keep >= n:
        return _child(cloud, cloud.positions.copy(), cloud.labels.copy())
    perm = stream.permutation(n)
    keep = np.sort(perm[:n_keep])
    return _child(cloud, cloud.positions[keep], cloud.labels[keep])


def subsidiary(cloud: PointCloud, rec: AugmentRecord, stream: Stream,
               partner: PointCloud | None = None) -> PointCloud:
    """Fixed-order secondary transforms: yaw rotation, isotropic scale, axis
    flips, appended uniform noise points (label 255), then scan mix."""
    pos = cloud.positions.copy()
    labels = cloud.labels.copy()
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
        if partner is None:
            raise ValueError("scan mix enabled but no partner cloud supplied")
        own = _child(cloud, pos, labels)
        own_sec = sector_split(own, rec.num_sectors)
        par_sec = sector_split(partner, rec.num_sectors)
        own_par = (own_sec % 2 == 0) if rec.mix_keep_even else (own_sec % 2 == 1)
        par_par = (par_sec % 2 == 1) if rec.mix_keep_even else (par_sec % 2 == 0)
        pos = np.concatenate([pos[own_par], partner.positions[par_par]], axis=0)
        labels = np.concatenate([labels[own_par], partner.labels[par_par]])
    return _child(cloud, pos, labels)


def augment_pair(cloud: PointCloud, cfg: AugmentConfig, key_parts: tuple,
                 partner: PointCloud | None = None) -> tuple[PointCloud, AugmentRecord]:
    """Sample magnitudes and apply subsidiary -> drop -> jitter in lockstep
    with labels. The returned record replays the result bit-exactly."""
    partner_id = partner.cloud_id if partner is not None else None
    rec = sample_magnitudes(cfg, tuple(key_parts), cloud.cloud_id, mix_partner=partner_id)
    return replay(rec, cloud, partner=partner), rec


def replay(rec: AugmentRecord, cloud: PointCloud,
           partner: PointCloud | None = None) -> PointCloud:
    """Re-apply a recorded augmentation to its parent cloud."""
    if cloud.cloud_id != rec.parent_id:
        raise ValueError(f"record belongs to {rec.parent_id!r}, got {cloud.cloud_id!r}")
    if rec.mix_partner is not None and (partner is None or partner.cloud_id != rec.mix_partner):
        raise ValueError(f"record needs mix partner {rec.mix_partner!r}")
    key = rec.stream_key
    out = subsidiary(cloud, rec, Stream(*key, "noise"), partner=partner)
    out = point_drop(out, rec.drop_ratio, Stream(*key, "drop"))
    out = jitter(out, rec.jitter_std, Stream(*key, "jitter"))
    return out
