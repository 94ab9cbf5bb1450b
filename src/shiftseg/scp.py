"""Confusion-prior latent learning: class-grouped encoder input, per-class
quantization against a C x k x D codebook, the three-term quantized-autoencoder
objective, and per-code EMA variance statistics."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .pointcloud import IGNORE_LABEL
from .rng import Stream

VARIANCE_FLOOR = 1e-6
INIT_VARIANCE = 1.0
# encoder-input coordinate scale: keeps the xyz channels comparable to the
# probability channels so latents encode prediction patterns, not just position
COORD_SCALE = 0.125
BETA = 0.25  # commitment weight (the VQ-VAE default)
GAMMA = 0.9  # EMA decay of the per-code variances
NEAREST_ROWS = 1024  # rows per block of `_nearest`'s distances and `vq_losses`' pins


@dataclass
class CodebookState:
    """Per-class code table plus per-code per-channel EMA variance and usage."""

    class_count: int
    codes_per_class: int
    latent_dim: int
    codes: T.Tensor = field(init=False)
    variances: np.ndarray = field(init=False)  # (C, k, D), >= VARIANCE_FLOOR
    usage: np.ndarray = field(init=False)  # (C, k)
    initialized: np.ndarray = field(init=False)  # (C,)

    def __post_init__(self):
        c, k, d = self.class_count, self.codes_per_class, self.latent_dim
        self.codes = T.Tensor(np.zeros((c * k, d)), requires_grad=True)
        self.variances = np.full((c, k, d), INIT_VARIANCE)
        self.usage = np.zeros((c, k), dtype=np.int64)
        self.initialized = np.zeros(c, dtype=bool)

    def codes3(self) -> np.ndarray:
        return self.codes.data.reshape(self.class_count, self.codes_per_class, self.latent_dim)


def build_encoder_input(probs, coords: np.ndarray, labels: np.ndarray):
    """The rows the prior sees: [probs || coords] of every row not labeled
    IGNORE_LABEL, grouped contiguously by class (class 0 first), in input
    order within a class.

    Returns (rows, index, classes): `rows` is a Tensor in the dtype of
    `probs`, differentiable toward `probs` when that is a Tensor (an array
    is a constant); `index[i]` is the input row of grouped row i, and
    `classes[i]` its label. An all-ignore input gives 0 rows.
    """
    labels = np.asarray(labels, dtype=np.int64)
    kept = np.flatnonzero(labels != IGNORE_LABEL)
    index = kept[np.argsort(labels[kept], kind="stable")]
    classes = labels[index]
    probs_g = T.gather_rows(probs, index)
    coords_g = np.asarray(coords, dtype=np.float64)[index] * COORD_SCALE
    rows = T.concat([probs_g, T.Tensor(coords_g.astype(probs_g.data.dtype))], axis=1)
    return rows, index, classes


class PriorAutoencoder:
    """Row-wise encoder (C+3 -> D) and decoder (D -> C with a softmax head)."""

    def __init__(self, class_count: int, latent_dim: int, widths: tuple[int, ...],
                 seed: int):
        stream = Stream(seed, "prior-init")  # the encoder draws first
        self.params = {
            **T.mlp_params("scp.enc", [class_count + 3, *widths, latent_dim], stream),
            **T.mlp_params("scp.dec", [latent_dim, *reversed(widths), class_count], stream)}

    def encode(self, rows) -> T.Tensor:
        """Latent row per input row."""
        return T.mlp(rows, self.params, "scp.enc")

    def decode(self, z) -> T.Tensor:
        return T.softmax(T.mlp(z, self.params, "scp.dec"))


def _nearest(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Index of the nearest row of `table` for each row of `z`, by the
    expanded-form squared Euclidean distance in float64, clamped at 0.
    Identical code rows keep bit-identical distances, so exact ties,
    duplicate codes among them, resolve to the lowest index.

    The rows are taken NEAREST_ROWS at a time, each block's distances built
    in one buffer, so the (rows, codes) float64 memory of a search over
    every shifted row of a step (`nearest_global`) stays bounded; a row's
    distances do not depend on the rows beside it."""
    tt = (table * table).sum(axis=1)
    idx = np.empty(len(z), dtype=np.int64)
    for i in range(0, len(z), NEAREST_ROWS):
        zb = np.asarray(z[i:i + NEAREST_ROWS], dtype=np.float64)
        d2 = zb @ table.T
        d2 *= -2.0  # then + |z|^2: |z|^2 - 2 z.e bit for bit, then + |e|^2
        d2 += (zb * zb).sum(axis=1)[:, None]
        d2 += tt
        idx[i:i + NEAREST_ROWS] = np.maximum(d2, 0.0, out=d2).argmin(axis=1)
    return idx


def quantize(codes3: np.ndarray, z_e: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Flat index (class * k + index) of the nearest code of each latent
    row's own class in the (C, k, D) table; one class's rows at a time are
    taken in float64."""
    classes = np.asarray(classes, dtype=np.int64)
    if classes.min(initial=0) < 0 or classes.max(initial=0) >= codes3.shape[0]:
        raise ValueError("row class out of range")
    idx = np.empty(classes.shape[0], dtype=np.int64)
    for c in np.unique(classes):
        rows = np.flatnonzero(classes == c)
        idx[rows] = _nearest(codes3[c], z_e[rows])
    return classes * codes3.shape[1] + idx


def nearest_global(codes3: np.ndarray, initialized: np.ndarray,
                   z_e: np.ndarray) -> np.ndarray:
    """Flat index (class * k + index) of the nearest code across every
    initialized class, per row. Some class is initialized whenever
    `ssr.localize` shifts a row."""
    c, k, d = codes3.shape
    live = np.flatnonzero(np.repeat(initialized, k))
    return live[_nearest(codes3.reshape(c * k, d)[live], z_e)]


@dataclass
class VqLosses:
    recon: T.Tensor
    codebook: T.Tensor
    commitment: T.Tensor
    total: T.Tensor


def vq_losses(ae: PriorAutoencoder, cb: CodebookState, z_e: T.Tensor,
              flat: np.ndarray, z_e0: np.ndarray, codes0: np.ndarray,
              target_probs: np.ndarray) -> VqLosses:
    """Three-term objective: reconstruction + codebook + BETA * commitment.

    Gradient reaches the decoder, the assigned codes (codebook term), and the
    encoder (commitment term plus the straight-through reconstruction path).
    Stop-gradient operands are pinned at their selection-time values, so
    re-evaluating the losses under perturbed parameters with the same
    selection differentiates exactly as the estimator prescribes: the
    latents z_e0 and the float64 (C*k, D) code table codes0 the step
    selected against. From them it derives, in the latents' dtype (float32
    in training, where each op would cast a float64 operand anyway), the
    assigned code values z_q0 and the straight-through residual
    st0 = z_q0 - z_e0 added onto z_e, the latter taken in float64
    NEAREST_ROWS rows at a time: no (rows, D) float64 array is built. The
    codebook term reads the live float64 codes in that dtype as one node
    (`T.gathered_mse`); the reconstruction target is a plain array, already
    detached from the segmentation network. The tape keeps the layer inputs
    and one difference per term: z_q0 and st0 go once their terms are built.

    In a training step the codebook term equals the commitment term bit for
    bit (z_e == z_e0, and the live codes are the snapshot's), so the step
    log's vq_codebook and vq_commitment agree. Both stay: each sends its
    gradient elsewhere, finite differences that move the live codes
    (verify's, the tests') move the two apart, and dropping a steplog key
    moves the steplog digests, a declared re-record of its own.
    """
    codebook = T.gathered_mse(z_e0, cb.codes, flat)
    commitment = T.mse(z_e, codes0.astype(z_e0.dtype)[flat])
    st0 = np.empty_like(z_e0)
    for i in range(0, len(flat), NEAREST_ROWS):
        st0[i:i + NEAREST_ROWS] = codes0[flat[i:i + NEAREST_ROWS]] - z_e0[i:i + NEAREST_ROWS]
    z_st = T.add(z_e, T.Tensor(st0))
    del st0  # before the decoder runs
    decoded = ae.decode(z_st)
    recon = T.mse(decoded, target_probs)
    total = T.add(T.add(recon, codebook), T.scale(commitment, BETA))
    return VqLosses(recon, codebook, commitment, total)


def update_code_stats(cb: CodebookState, flat: np.ndarray, z_e: np.ndarray) -> None:
    """EMA (decay GAMMA) per-channel variance update for codes that received
    >= 2 rows this batch (population variance, over each code's rows taken
    in float64); usage counters grow by row counts."""
    order = np.argsort(flat, kind="stable")
    flats = flat[order]
    uniq, starts = np.unique(flats, return_index=True)
    bounds = np.append(starts, flats.shape[0])
    k = cb.codes_per_class
    for u, s, e in zip(uniq, bounds[:-1], bounds[1:]):
        c, j = divmod(int(u), k)
        count = e - s
        cb.usage[c, j] += count
        if count >= 2:
            batch_var = z_e[order[s:e]].astype(np.float64).var(axis=0)
            cb.variances[c, j] = GAMMA * cb.variances[c, j] + (1.0 - GAMMA) * batch_var
    np.maximum(cb.variances, VARIANCE_FLOOR, out=cb.variances)


def maybe_init_codebook(cb: CodebookState, z_e: np.ndarray, classes: np.ndarray,
                        stream: Stream) -> None:
    """Initialize each still-empty class sub-table from this batch's rows of
    that class, perturbed with small Gaussian noise (std 0.01)."""
    k, d = cb.codes_per_class, cb.latent_dim
    for c in np.unique(classes):
        if cb.initialized[c]:
            continue
        rows = z_e[classes == c]
        pick = rows[np.arange(k) % rows.shape[0]]
        noise = stream.spawn("class", int(c)).normal(k * d, std=0.01).reshape(k, d)
        cb.codes.data[c * k:(c + 1) * k] = pick + noise
        cb.initialized[c] = True


def reseed_dead_codes(cb: CodebookState, z_e: np.ndarray, classes: np.ndarray,
                      stream: Stream) -> int:
    """Re-seed never-used codes from random current-batch rows of their class;
    their variance resets to the initialization value. Returns reseed count."""
    reseeded = 0
    k = cb.codes_per_class
    for c in range(cb.class_count):
        if not cb.initialized[c]:
            continue
        dead = np.flatnonzero(cb.usage[c] == 0)
        if dead.size == 0:
            continue
        rows = z_e[classes == c]
        if rows.shape[0] == 0:
            continue
        pick = stream.spawn("class", int(c)).integers(dead.size, rows.shape[0])
        cb.codes.data[c * k + dead] = rows[pick]
        cb.variances[c, dead] = INIT_VARIANCE
        reseeded += dead.size
    return reseeded
