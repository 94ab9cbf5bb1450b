"""Shift-region localization: score augmented latents against the tracked
per-code distributions of a frozen prior and emit complementary region masks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import tensor as T
from .scp import CodebookState, PriorAutoencoder, build_encoder_input, quantize


@dataclass
class PriorSnapshot:
    """Immutable copy of everything localization needs: the frozen encoder
    parameters, codes, variances and which classes have initialized codes,
    all arrays, and the threshold."""

    codes3: np.ndarray  # (C, k, D)
    variances: np.ndarray  # (C, k, D), >= scp.VARIANCE_FLOOR
    initialized: np.ndarray  # (C,) bool
    threshold: float
    encoder_params: dict[str, np.ndarray]  # the "scp.enc.*" arrays

    def embed(self, rows) -> T.Tensor:
        """Frozen-encoder forward: the encoder weights are constants, so the
        result is differentiable toward the rows only (an array is taken as a
        constant)."""
        return T.mlp(rows, self.encoder_params, "scp.enc")


def take_snapshot(cb: CodebookState, threshold: float, prior: PriorAutoencoder) -> PriorSnapshot:
    """Copies of the codebook state and of the prior's encoder parameters."""
    return PriorSnapshot(
        codes3=cb.codes3().copy(),
        variances=cb.variances.copy(),
        initialized=cb.initialized.copy(),
        threshold=float(threshold),
        encoder_params={k: t.data.copy() for k, t in prior.params.items()
                        if k.startswith("scp.enc.")},
    )


def shift_score(snapshot: PriorSnapshot, z_e: np.ndarray,
                classes: np.ndarray) -> np.ndarray:
    """Normalized diagonal-Mahalanobis distance to the nearest same-class code.

    score = sqrt( sum_d (z_d - e_d)^2 / var_d ) / sqrt(D), so an offset of one
    tracked standard deviation in every channel scores exactly 1. With a
    shared per-code variance this reduces to ||z - e|| / sqrt(var).
    """
    flat = quantize(snapshot.codes3, z_e, classes)
    c, k, d = snapshot.codes3.shape
    codes = snapshot.codes3.reshape(c * k, d)[flat]
    var = snapshot.variances.reshape(c * k, d)[flat]
    return np.sqrt(((z_e - codes) ** 2 / var).sum(axis=1) / d)


@dataclass
class ShiftMasks:
    """Per-row region partition for one augmented cloud. On labeled rows,
    scr and ssr are exact complements; ignore-labeled rows are false in both.
    A row of a class without an initialized code is in ssr only by dilation."""

    scr: np.ndarray  # (n,) bool
    ssr: np.ndarray  # (n,) bool


@dataclass
class LocalizeResult:
    masks: ShiftMasks
    index: np.ndarray  # input row of each embedded row, grouped by class
    z_e: T.Tensor  # (m, D) latent per embedded row, grouped by class


def localize(snapshot: PriorSnapshot, probs, coords: np.ndarray,
             labels: np.ndarray, dilation_radius: float) -> LocalizeResult:
    """Embed the rows `scp.build_encoder_input` keeps with the frozen prior
    encoder, flag rows whose score exceeds the threshold and whose class has
    an initialized code (a row of another class has no code to be scored
    against), dilate the flagged set over their 3-D coordinates, and emit
    the complementary masks. Rows labeled 255 stay out of both masks; a
    label at or above the class count is refused (ValueError).

    The returned z_e is differentiable toward `probs` when that is a Tensor
    (an array is a constant); the masks come from its values.
    """
    coords = np.asarray(coords, dtype=np.float64)
    rows, index, classes = build_encoder_input(probs, coords, labels)
    z_e = snapshot.embed(rows)
    shifted = shift_score(snapshot, z_e.data, classes) > snapshot.threshold
    shifted &= snapshot.initialized[classes]
    shifted = _kernels.dilate(coords[index], shifted, dilation_radius)
    scr = np.zeros(len(labels), dtype=bool)
    ssr = np.zeros(len(labels), dtype=bool)
    scr[index] = ~shifted
    ssr[index] = shifted
    return LocalizeResult(ShiftMasks(scr, ssr), index, z_e)


def ssr_ratio(masks: list[ShiftMasks]) -> float:
    """Shifted fraction of the labeled rows of all `masks`, pooled; 0 when
    nothing is labeled."""
    shifted = sum(int(m.ssr.sum()) for m in masks)
    labeled = sum(int((m.scr | m.ssr).sum()) for m in masks)
    return shifted / labeled if labeled else 0.0
