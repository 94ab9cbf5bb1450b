"""Labeled scenes: synthetic desk-scale generator, the fixed binary cloud
format, and train/val splits."""
from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .pointcloud import IGNORE_LABEL, PointCloud
from .rng import Stream

# ---------------------------------------------------------------------------
# Synthetic scenes

SYNTH_CLASSES = ("road", "sidewalk", "car", "building", "trunk", "pole",
                 "vegetation", "traffic-sign")

# fraction of the point budget per class
_CLASS_WEIGHTS = {
    "road": 0.30,
    "sidewalk": 0.12,
    "car": 0.14,
    "building": 0.16,
    "trunk": 0.04,
    "pole": 0.04,
    "vegetation": 0.14,
    "traffic-sign": 0.06,
}


@dataclass(frozen=True)
class SceneSpec:
    """Deterministic recipe for one synthetic street scene.

    The same spec always produces a bit-identical cloud. Geometry is arranged
    so the classic confusions are observable at desk scale: sidewalks sit a
    hand's width above the adjacent road, and tree canopies overhang parked
    cars.
    """

    seed: int
    num_points: int = 4096
    ground_extent: float = 8.0
    num_cars: int = 4
    num_buildings: int = 4
    num_trees: int = 5
    num_poles: int = 5
    num_signs: int = 3
    enabled_classes: tuple[str, ...] = SYNTH_CLASSES


def _allocate(weights: list[float], total: int) -> list[int]:
    """Largest-remainder allocation of `total` into integer shares."""
    wsum = sum(weights)
    raw = [w / wsum * total for w in weights]
    counts = [int(math.floor(r)) for r in raw]
    rema = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in range(total - sum(counts)):
        counts[rema[i % len(rema)]] += 1
    return counts


def _box_surface(stream: Stream, n: int, center, size) -> np.ndarray:
    """Sample n points on a box's four side faces and top (no bottom): faces
    0 and 1 lie at x = +-sx/2, faces 2 and 3 at y = +-sy/2, face 4 on top."""
    cx, cy, cz = center
    sx, sy, sz = size
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy])
    cdf = np.cumsum(areas / areas.sum())
    u = stream.uniform(3 * n).reshape(n, 3)
    face = np.searchsorted(cdf, u[:, 0], side="right")
    a = u[:, 1] - 0.5
    b = u[:, 2]
    x = np.select([face == 0, face == 1], [sx / 2, -sx / 2], a * sx)
    y = np.select([face == 2, face == 3, face == 4], [sy / 2, -sy / 2, (b - 0.5) * sy], a * sy)
    z = np.where(face == 4, sz, b * sz)
    return np.stack([cx + x, cy + y, cz + z], axis=1)


def _cylinder(stream: Stream, n: int, center_xy, radius: float, z0: float, height: float) -> np.ndarray:
    u = stream.uniform(2 * n).reshape(n, 2)
    theta = 2.0 * np.pi * u[:, 0]
    pts = np.empty((n, 3))
    pts[:, 0] = center_xy[0] + radius * np.cos(theta)
    pts[:, 1] = center_xy[1] + radius * np.sin(theta)
    pts[:, 2] = z0 + height * u[:, 1]
    return pts


def _build_primitives(spec: SceneSpec) -> list[tuple[str, str, dict]]:
    """Lay out the scene: a list of (class name, shape kind, params)."""
    e = spec.ground_extent
    prims: list[tuple[str, str, dict]] = []
    lay = Stream(spec.seed, "layout")

    # the sidewalk sits a short step above the road: strong jitter genuinely
    # mixes the boundary semantics, the way aggressive augmentation does
    prims.append(("road", "strip", {"x": (-e, e), "y": (-0.5 * e, 0.5 * e), "z": 0.0}))
    for side in (1.0, -1.0):
        prims.append(("sidewalk", "strip",
                      {"x": (-e, e), "y": tuple(sorted((side * 0.5 * e, side * 0.78 * e))), "z": 0.06}))
    for i in range(spec.num_cars):
        cx = lay.uniform(low=-0.85 * e, high=0.85 * e)
        side = 1.0 if i % 2 == 0 else -1.0
        cy = side * lay.uniform(low=0.30 * e, high=0.44 * e)
        size = (lay.uniform(low=3.6, high=4.6), lay.uniform(low=1.6, high=1.9),
                lay.uniform(low=1.3, high=1.6))
        prims.append(("car", "box", {"center": (cx, cy, 0.0), "size": size}))
    for i in range(spec.num_buildings):
        cx = lay.uniform(low=-0.8 * e, high=0.8 * e)
        side = 1.0 if i % 2 == 0 else -1.0
        cy = side * 0.9 * e
        size = (lay.uniform(low=2.5, high=4.5), lay.uniform(low=1.2, high=2.0),
                lay.uniform(low=3.0, high=6.0))
        prims.append(("building", "box", {"center": (cx, cy, 0.0), "size": size}))
    for i in range(spec.num_trees):
        tx = lay.uniform(low=-0.9 * e, high=0.9 * e)
        side = 1.0 if i % 2 == 0 else -1.0
        ty = side * lay.uniform(low=0.52 * e, high=0.68 * e)
        trunk_h = lay.uniform(low=1.8, high=2.6)
        trunk_r = lay.uniform(low=0.12, high=0.20)
        canopy_std = lay.uniform(low=0.9, high=1.5)
        # canopy leans toward the road and hangs low enough to brush car roofs
        prims.append(("trunk", "cylinder",
                      {"center": (tx, ty), "radius": trunk_r, "z0": 0.0, "height": trunk_h}))
        prims.append(("vegetation", "blob",
                      {"center": (tx, ty - side * 1.2, trunk_h + 0.5),
                       "std": (canopy_std, canopy_std, 0.6 * canopy_std)}))
    for i in range(spec.num_poles):
        px = lay.uniform(low=-0.9 * e, high=0.9 * e)
        side = 1.0 if i % 2 == 0 else -1.0
        py = side * lay.uniform(low=0.52 * e, high=0.70 * e)
        prims.append(("pole", "cylinder",
                      {"center": (px, py), "radius": 0.05, "z0": 0.0,
                       "height": lay.uniform(low=3.0, high=4.5)}))
    for i in range(spec.num_signs):
        sx = lay.uniform(low=-0.9 * e, high=0.9 * e)
        side = 1.0 if i % 2 == 0 else -1.0
        sy = side * lay.uniform(low=0.50 * e, high=0.60 * e)
        prims.append(("traffic-sign", "plate",
                      {"center": (sx, sy), "width": 0.6, "z0": lay.uniform(low=1.9, high=2.5)}))
    return [p for p in prims if p[0] in spec.enabled_classes]


def _sample_primitive(kind: str, params: dict, n: int, stream: Stream) -> np.ndarray:
    if kind == "strip":
        u = stream.uniform(2 * n).reshape(n, 2)
        rough = stream.normal(n, std=0.01)
        pts = np.empty((n, 3))
        pts[:, 0] = params["x"][0] + u[:, 0] * (params["x"][1] - params["x"][0])
        pts[:, 1] = params["y"][0] + u[:, 1] * (params["y"][1] - params["y"][0])
        pts[:, 2] = params["z"] + rough
        return pts
    if kind == "box":
        return _box_surface(stream, n, params["center"], params["size"])
    if kind == "cylinder":
        return _cylinder(stream, n, params["center"], params["radius"],
                         params["z0"], params["height"])
    if kind == "blob":
        g = stream.normal(3 * n).reshape(n, 3)
        return np.asarray(params["center"]) + g * np.asarray(params["std"])
    if kind == "plate":
        u = stream.uniform(3 * n).reshape(n, 3)
        cx, cy = params["center"]
        w = params["width"]
        pts = np.empty((n, 3))
        pts[:, 0] = cx + (u[:, 0] - 0.5) * w
        pts[:, 1] = cy + (u[:, 1] - 0.5) * 0.05
        pts[:, 2] = params["z0"] + u[:, 2] * w
        return pts
    raise ValueError(f"unknown primitive kind {kind!r}")


def generate_scene(spec: SceneSpec, cloud_id: str | None = None) -> PointCloud:
    """Deterministic labeled scene; identical specs give bit-identical clouds."""
    prims = _build_primitives(spec)
    counts = _allocate([_CLASS_WEIGHTS[c] / sum(1 for q in prims if q[0] == c)
                        for c, _, _ in prims], spec.num_points)
    chunks = []
    labels = []
    for p, ((cls, kind, params), n) in enumerate(zip(prims, counts)):
        if n == 0:
            continue
        stream = Stream(spec.seed, "pts", p)
        chunks.append(_sample_primitive(kind, params, n, stream))
        labels.append(np.full(n, SYNTH_CLASSES.index(cls), dtype=np.uint16))
    return PointCloud(
        positions=np.concatenate(chunks, axis=0),
        labels=np.concatenate(labels),
        cloud_id=cloud_id if cloud_id is not None else f"scene-{spec.seed}",
    )


# ---------------------------------------------------------------------------
# Binary cloud format: magic "A3PC", uint32 version, uint64 N, uint16 C,
# then N x (float64 x, y, z, uint16 label), all little-endian.

_MAGIC = b"A3PC"
_HEADER = struct.Struct("<4sIQH")
_RECORD_DTYPE = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("label", "<u2")])


class CloudFormatError(IOError):
    pass


def save_cloud(cloud: PointCloud, path, class_count: int) -> None:
    rec = np.empty(len(cloud), dtype=_RECORD_DTYPE)
    rec["x"] = cloud.positions[:, 0]
    rec["y"] = cloud.positions[:, 1]
    rec["z"] = cloud.positions[:, 2]
    rec["label"] = cloud.labels
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, 1, len(cloud), class_count))
        f.write(rec.tobytes())


def load_cloud(path, cloud_id: str) -> tuple[PointCloud, int]:
    """Parse an "A3PC" file; returns the cloud, with id `cloud_id`, and its
    declared class count."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise CloudFormatError(f"bad magic at offset 0: {blob[:4]!r}")
    if len(blob) < _HEADER.size:
        raise CloudFormatError(f"truncated header: file ends at offset {len(blob)}")
    _, version, n, c = _HEADER.unpack_from(blob, 0)
    if version != 1:
        raise CloudFormatError(f"unsupported version {version} at offset 4")
    need = _HEADER.size + n * _RECORD_DTYPE.itemsize
    if len(blob) != need:
        raise CloudFormatError(
            f"truncated records: expected {need} bytes, file ends at offset {len(blob)}")
    rec = np.frombuffer(blob, dtype=_RECORD_DTYPE, count=n, offset=_HEADER.size)
    positions = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)
    bad = ~np.isfinite(positions).all(axis=1)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise CloudFormatError(
            f"non-finite coordinate in record {row} at offset {_HEADER.size + row * _RECORD_DTYPE.itemsize}")
    labels = rec["label"].astype(np.uint16)
    bad = (labels >= c) & (labels != IGNORE_LABEL)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise CloudFormatError(f"label {labels[row]} in record {row} is neither below the "
                               f"declared class count {c} nor {IGNORE_LABEL}")
    return PointCloud(positions, labels, cloud_id), int(c)


# ---------------------------------------------------------------------------
# Splits


@dataclass
class DatasetSplit:
    """Training and validation cloud ids: no id twice in a list, none in
    both. Scene seeds are not stored; `make_split` derives them."""

    train: list[str]
    val: list[str]

    def __post_init__(self):
        for name, ids in (("train", self.train), ("val", self.val)):
            twice = [c for c, n in Counter(ids).items() if n > 1]
            if twice:
                raise ValueError(f"cloud id {twice[0]!r} is listed twice in {name}")
        if set(self.train) & set(self.val):
            raise ValueError("train and val overlap")

    def to_json(self) -> dict:
        return {"train": self.train, "val": self.val}

    @classmethod
    def from_json(cls, doc) -> "DatasetSplit":
        """The split of a JSON document; a ValueError says what is malformed.
        Other keys, such as those an older `gen` wrote, are ignored."""
        if not isinstance(doc, dict):
            raise ValueError(f"a split is a JSON object, not {type(doc).__name__}")
        for key in ("train", "val"):
            ids = doc.get(key)
            if not isinstance(ids, list) or not all(isinstance(c, str) for c in ids):
                raise ValueError(f"{key!r} must be a list of cloud id strings")
        return cls(list(doc["train"]), list(doc["val"]))


def make_split(seed: int, num_scenes: int, val_fraction: float, template: SceneSpec,
               val_only: bool) -> tuple[DatasetSplit, list[PointCloud]]:
    """Split the scenes scene-0000.. and generate them, scene i as `template`
    with seed seed + i, only the validation scenes with val_only. The split
    reads no scene, and each scene depends on its own seed alone."""
    ids = [f"scene-{i:04d}" for i in range(num_scenes)]
    perm = Stream(seed, "split").permutation(num_scenes)
    n_val = int(math.floor(num_scenes * val_fraction))
    val = [ids[i] for i in perm[:n_val]]
    train = [ids[i] for i in perm[n_val:]]
    wanted = set(val if val_only else ids)
    scenes = [generate_scene(replace(template, seed=seed + i), cloud_id=cid)
              for i, cid in enumerate(ids) if cid in wanted]
    return DatasetSplit(train=train, val=val), scenes
