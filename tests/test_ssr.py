"""Shift-region localization against a frozen prior: the snapshot, the shift
score, degenerate label sets, rows of classes without an initialized code,
and dilation of the shifted rows."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as R
from shiftseg import scp, ssr
from shiftseg import tensor as T
from shiftseg.pointcloud import IGNORE_LABEL
from shiftseg.rng import Stream

C, K, D = 3, 2, 4


def make_snapshot(threshold=1.0):
    prior = scp.PriorAutoencoder(C, D, widths=(5, 6), seed=2)
    cb = scp.CodebookState(C, K, D)
    cb.codes.data[...] = Stream(3, "codes").normal(C * K * D).reshape(C * K, D)
    cb.variances[...] = 0.25
    cb.initialized[...] = True
    return ssr.take_snapshot(cb, threshold, prior), prior, cb


def rows_of(n, seed=4):
    s = Stream(seed, "rows")
    logits = s.normal(n * C).reshape(n, C)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    coords = s.uniform(n * 3).reshape(n, 3) * 4.0
    labels = s.integers(n, C)
    return probs, coords, labels


def test_snapshot_is_a_frozen_copy():
    snap, prior, cb = make_snapshot()
    rows = Stream(5).normal(7 * (C + 3)).reshape(7, C + 3)
    before = snap.embed(rows).data
    assert np.array_equal(before, prior.encode(rows).data)
    assert set(snap.encoder_params) == {n for n in prior.params if n.startswith("scp.enc.")}
    for t in prior.params.values():
        t.data += 1.0
    cb.codes.data += 1.0
    cb.variances += 1.0
    assert np.array_equal(snap.embed(rows).data, before)
    assert (snap.variances == 0.25).all()
    assert not np.array_equal(snap.codes3, cb.codes3())
    # a Tensor input stays differentiable toward the rows, with the same values
    x = T.Tensor(rows, requires_grad=True)
    z = snap.embed(x)
    assert np.array_equal(z.data, before)
    T.backward(R.tsum(R.tsum(z, axis=1)))
    assert x.grad is not None and x.grad.shape == rows.shape


def test_shift_score_is_one_at_one_tracked_deviation():
    snap, _, _ = make_snapshot()
    code = snap.codes3[1, 0]
    z = (code + 0.5 * np.array([1.0, -1.0, 1.0, -1.0]))[None, :]  # std 0.5 per channel
    score = ssr.shift_score(snap, z, np.array([1]))
    assert score[0] == pytest.approx(1.0, rel=1e-15)


def test_all_ignore_labels_give_empty_masks():
    snap, _, _ = make_snapshot()
    probs, coords, _ = rows_of(10)
    labels = np.full(10, IGNORE_LABEL)
    res = ssr.localize(snap, probs, coords, labels, dilation_radius=1.0)
    m = res.masks
    assert not m.scr.any() and not m.ssr.any()
    assert res.index.size == 0 and res.z_e.shape == (0, D)
    assert ssr.ssr_ratio([m]) == 0.0


@pytest.mark.parametrize("radius", [0.0, 0.8])
def test_localize_with_ignore_rows_equals_filter_then_group(radius):
    probs, coords, labels = rows_of(80, seed=9)
    labels[Stream(10, "ignore").uniform(80) < 0.3] = IGNORE_LABEL
    probs = probs.astype(np.float32)
    snap, _, _ = make_snapshot()
    # a threshold at the 80th percentile score flags a fifth of the labeled rows
    rows, _, classes = R.encoder_input_filter_then_group(probs, coords, labels)
    score = ssr.shift_score(snap, snap.embed(rows).data, classes)
    snap = dataclasses.replace(snap, threshold=float(np.quantile(score, 0.8)))
    res = ssr.localize(snap, probs, coords, labels, radius)
    masks, index, z_e = R.localize_filter_then_group(snap, probs, coords, labels, radius)
    assert masks.ssr.any() and masks.scr.any()
    assert res.masks.scr.tobytes() == masks.scr.tobytes()
    assert res.masks.ssr.tobytes() == masks.ssr.tobytes()
    assert np.array_equal(res.index, index)
    assert res.z_e.data.dtype == np.float32 and res.z_e.data.tobytes() == z_e.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), initialized=st.lists(st.booleans(), min_size=C,
                                                             max_size=C),
       n=st.integers(0, 40))
def test_a_class_without_an_initialized_code_stays_in_scr(seed, initialized, n):
    # at a tiny t every row of an initialized class scores above it, and
    # without dilation only those rows are shifted
    probs, coords, labels = rows_of(n, seed=seed)
    labels[Stream(seed, "ignore").uniform(n) < 0.2] = IGNORE_LABEL
    snap, _, _ = make_snapshot(threshold=1e-12)
    snap.codes3[...] = Stream(seed, "codes").normal(C * K * D).reshape(C, K, D) * 3.0
    snap.initialized[...] = initialized
    masks = ssr.localize(snap, probs, coords, labels, dilation_radius=0.0).masks
    labeled = labels != IGNORE_LABEL
    live = labeled & np.isin(labels, np.flatnonzero(initialized))
    assert np.array_equal(masks.scr, labeled & ~live)
    assert np.array_equal(masks.ssr, live)


def test_a_label_beyond_the_class_count_is_refused():
    snap, _, _ = make_snapshot()
    probs, coords, labels = rows_of(10)
    labels[3] = C
    with pytest.raises(ValueError, match="row class out of range"):
        ssr.localize(snap, probs, coords, labels, dilation_radius=1.0)


def test_dilation_grows_the_shifted_rows_and_keeps_the_complement():
    probs, coords, labels = rows_of(60)
    labels[::7] = IGNORE_LABEL
    labeled = labels != IGNORE_LABEL
    snap, _, _ = make_snapshot()
    # each row's score, from the latents localize embeds, in input order
    res = ssr.localize(snap, probs, coords, labels, dilation_radius=0.0)
    score = np.zeros(labels.shape[0])
    score[res.index] = ssr.shift_score(snap, res.z_e.data, labels[res.index])
    # a threshold at the median score flags about half of the labeled rows
    snap = dataclasses.replace(snap, threshold=float(np.median(score[labeled])))
    plain = ssr.localize(snap, probs, coords, labels, dilation_radius=0.0).masks
    grown = ssr.localize(snap, probs, coords, labels, dilation_radius=0.8).masks
    assert 0 < plain.ssr.sum() < labeled.sum()
    assert np.array_equal(plain.ssr[labeled], score[labeled] > snap.threshold)
    for m in (plain, grown):
        assert np.array_equal(m.scr[labeled], ~m.ssr[labeled])
        assert not m.scr[~labeled].any() and not m.ssr[~labeled].any()
    assert (grown.ssr >= plain.ssr).all() and grown.ssr.sum() > plain.ssr.sum()
    ref = R.brute_dilate(coords[labeled], plain.ssr[labeled], 0.8)
    assert np.array_equal(grown.ssr[labeled], ref)
    assert ssr.ssr_ratio([grown]) == grown.ssr.sum() / labeled.sum()
    # a list of masks is pooled over its labeled rows
    both = (plain.ssr.sum() + grown.ssr.sum()) / (2 * labeled.sum())
    assert ssr.ssr_ratio([plain, grown]) == both
