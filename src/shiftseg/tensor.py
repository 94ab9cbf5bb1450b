"""Dense float32 or float64 tensors with reverse-mode differentiation.

Deliberately minimal: just the ops the training pipeline needs, on a
single-use tape. Ops record a node with a backward closure when any input
requires gradients; a closure returns None for an input that requires none,
and `backward`, which consumes the recorded subgraph in reverse creation
order, skips those. Each loss the pipeline takes is one node, as PyTorch
fuses log-softmax and NLL into one cross-entropy op (Paszke et al., NeurIPS
2019), and a node keeps only what its backward reads and cannot rebuild:
`mlp`, one node for a whole layer stack (a layer per weight under its
prefix, as `mlp_params` builds them), keeps the inputs of the layers whose
weights want a gradient, and a hidden layer's sign mask only where the next
layer keeps no such input (a leaky output is positive exactly where its
pre-activation is, so a kept input gives the mask back); `mse` keeps the
difference of its operands, and `gathered_mse` that of a constant and the
rows it gathers; `cross_entropy` keeps the selected rows' exponentials,
their sums and the one-hot labels. A constant operand is kept only where a
backward reads it (`mlp`'s frozen weights): a dataless stand-in takes its
place among the parents. A closure runs once: `mlp`'s frees each layer's
input and mask as soon as it has used them, and `backward` releases each
node as soon as it has run, so those arrays are freed while the rest of the
graph is still being walked. The elementwise ops, `add` and `mse`, take
operands of equal shapes; the one broadcast is `mlp`'s bias row.

The dtype comes from the data. A tensor keeps float32 and float64 data as
they are and takes anything else as float64. An op computes in the narrowest
dtype of its operands, so float32 activations over float64 master weights
and constants run in float32 (mixed precision with float64 masters, after
Micikevicius et al., ICLR 2018), and an all-float64 graph, as the gradient
checks build, runs in float64. A backward returns each parent's gradient in
that parent's dtype. A sum over rows into a parent (a bias or weight
gradient, a gather's scatter) accumulates in that parent's dtype or wider,
so a float64 master gets a float64 sum of float32 rows, a gather's one
column at a time; loss means accumulate in float64. A weight gradient is
summed in fixed row blocks (`_weight_grad`), so its bits do not depend on
the BLAS thread count.
"""
from __future__ import annotations

import itertools
import math
import struct
from typing import Callable, Iterable, Mapping

import numpy as np

_node_ids = itertools.count()
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
# negative-side slope of mlp's hidden layers; the tests' per-layer reference
# chain (tests/reference.py) uses this value too, so the two stay bit-equal
LEAKY_SLOPE = 0.01


class ShapeError(ValueError):
    pass


class GradientError(RuntimeError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_id")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _backward=None, _op="leaf"):
        self.data = float_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._op = _op
        self._id = next(_node_ids)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"


def float_array(data) -> np.ndarray:
    """float32 and float64 data as they are; anything else as float64."""
    a = np.asarray(data)
    return a if a.dtype in _FLOATS else a.astype(np.float64)


_CONSTANT = Tensor(np.zeros(0), _op="constant")  # a recorded node's constant parent


def _compute_dtype(*tensors: Tensor) -> np.dtype:
    """The narrowest dtype among the operands: float32 activations win over
    float64 master weights and constants."""
    return min((t.data.dtype for t in tensors), key=lambda d: d.itemsize)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(data, parents: tuple[Tensor, ...], backward_fn: Callable, op: str) -> Tensor:
    if any(p.requires_grad for p in parents):
        # a constant parent gets no gradient and is not kept: a stand-in
        return Tensor(data, requires_grad=True, _backward=backward_fn, _op=op,
                      _parents=tuple(p if p.requires_grad else _CONSTANT for p in parents))
    return Tensor(data, _op=op)


def _check_elementwise(op: str, a: Tensor, b: Tensor):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} are not equal")


def _unbroadcast(g: np.ndarray, parent: Tensor) -> np.ndarray:
    """`g` summed over the leading axes the parent was broadcast along, in
    the parent's dtype."""
    shape, dtype = parent.data.shape, parent.data.dtype
    if g.shape == shape:
        return g.astype(dtype, copy=False)
    return g.sum(axis=tuple(range(g.ndim - len(shape))), dtype=dtype)


def _operands(op: str, a, b) -> tuple[Tensor, Tensor, np.ndarray, np.ndarray]:
    """Two elementwise operands as Tensors, and their data in the dtype the
    op computes in."""
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(op, a, b)
    dtype = _compute_dtype(a, b)
    return a, b, a.data.astype(dtype, copy=False), b.data.astype(dtype, copy=False)


def add(a, b) -> Tensor:
    a, b, ad, bd = _operands("add", a, b)
    dtypes = [t.data.dtype if t.requires_grad else None for t in (a, b)]

    def bwd(g):
        return tuple(None if dt is None else g.astype(dt, copy=False) for dt in dtypes)

    return _record(ad + bd, (a, b), bwd, "add")


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)

    def bwd(g):
        return (g * s,)

    return _record(a.data * s, (a,), bwd, "scale")


# rows per block of a weight gradient's sum over rows (`_weight_grad`)
GRAD_ROW_BLOCK = 256


def _weight_grad(x: np.ndarray, g: np.ndarray, dtype) -> np.ndarray:
    """x.T @ g, a weight's gradient over the rows of its input, summed in
    fixed GRAD_ROW_BLOCK-row blocks: one stacked product over the full
    blocks and one over a partial last block, then a sum over the blocks in
    `dtype` (the weight's). One product over all rows gives other bits under
    another OpenBLAS thread count for most shapes of a step; products over
    blocks of this size gave the same bits under 1 and 2 threads for every
    probed shape, and so do the forward and input-gradient products, whose
    inner dimension is a layer width."""
    n, block = x.shape[0], GRAD_ROW_BLOCK
    full = n - n % block
    parts = np.empty((-(-n // block), x.shape[1], g.shape[1]), dtype=np.result_type(x, g))
    if full:
        np.matmul(x[:full].reshape(-1, block, x.shape[1]).transpose(0, 2, 1),
                  g[:full].reshape(-1, block, g.shape[1]), out=parts[:full // block])
    if full < n:
        np.matmul(x[full:].T, g[full:], out=parts[-1])
    return parts.sum(axis=0, dtype=dtype)


def _leaky_factor(positive: np.ndarray, dtype) -> np.ndarray:
    """1.0 where `positive`, LEAKY_SLOPE elsewhere, in `dtype`. Multiplying
    by it gives np.where(positive, a, LEAKY_SLOPE * a) bit for bit (1.0 -
    LEAKY_SLOPE + LEAKY_SLOPE is exactly 1.0 in float32 and float64), without
    a branch per element."""
    f = positive.astype(dtype)
    f *= 1.0 - LEAKY_SLOPE
    f += LEAKY_SLOPE
    return f


def mlp_params(prefix: str, widths, stream) -> dict[str, Tensor]:
    """The parameters `mlp(x, params, prefix)` reads for layer widths
    `widths` (input first): He-initialized weights f"{prefix}.w{i}", drawn
    from `stream` (an `rng.Stream`) one layer after another, and zero biases
    f"{prefix}.b{i}", all float64 and wanting gradients, in layer order."""
    params: dict[str, Tensor] = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        w = stream.normal(fan_in * fan_out, std=np.sqrt(2.0 / fan_in)).reshape(fan_in, fan_out)
        params[f"{prefix}.w{i}"] = Tensor(w, requires_grad=True)
        params[f"{prefix}.b{i}"] = Tensor(np.zeros(fan_out), requires_grad=True)
    return params


def mlp(x, params: Mapping, prefix: str) -> Tensor:
    """Affine layers with weights params[f"{prefix}.w{i}"] and biases
    params[f"{prefix}.b{i}"] (Tensors, or arrays taken as constants), for i
    = 0, 1, ... as long as the weight is there: leaky-relu hidden layers,
    then a linear output layer, as one tape node. A prefix without
    f"{prefix}.w0" is a ShapeError.

    Values and gradients equal, bit for bit, a chain of one node per matrix
    product, bias add and leaky-relu select (np.where(h > 0, h,
    LEAKY_SLOPE * h)) per hidden layer, without the select for the output; the
    forward applies the slope as max(h, LEAKY_SLOPE * h), the backward as a
    product with `_leaky_factor`, neither as a select. The node keeps a
    layer's input only when that layer's weights want a gradient. It keeps a
    hidden layer's boolean sign mask only when the next layer keeps no input:
    otherwise that input is the hidden layer's leaky output, max(h,
    LEAKY_SLOPE * h), which is > 0 exactly where h > 0 (±0, subnormals, ±inf
    and NaN alike), and the backward reads the mask off it. So masks stay
    only below frozen weights. The backward closure runs once: it frees each
    layer's input as soon as that layer's gradients are taken (after reading
    the mask of the layer below off it), and each mask as soon as it is
    turned into the slope factor, so at most one rebuilt mask is alive at a
    time. Only the inputs that require gradients get one computed.

    The node computes in the dtype of `x`: each call casts the weights and
    biases to it, so float32 activations run float32 products over float64
    master weights. The weight and bias gradients come back in the master's
    dtype, summed over rows in it; a weight's sum runs over fixed row blocks
    (`_weight_grad`), so its bits do not depend on the BLAS thread count."""
    x = as_tensor(x)
    layers = next(i for i in itertools.count() if f"{prefix}.w{i}" not in params)
    if not layers:
        raise ShapeError(f"mlp: no weights {prefix}.w0")
    ws = [as_tensor(params[f"{prefix}.w{i}"]) for i in range(layers)]
    bs = [as_tensor(params[f"{prefix}.b{i}"]) for i in range(layers)]
    h = x.data
    wds = [w.data.astype(h.dtype, copy=False) for w in ws]  # weights as computed
    kept: list[np.ndarray | None] = []  # layer inputs the weight gradients read
    # hidden layers' sign masks; None where the next layer keeps the output
    masks: list[np.ndarray | None] = []
    for i, (w, b) in enumerate(zip(wds, bs)):
        if h.ndim != 2 or w.ndim != 2 or h.shape[1] != w.shape[0]:
            raise ShapeError(f"mlp layer {i}: incompatible shapes {h.shape} x {w.shape}")
        if b.data.shape != w.shape[1:]:
            raise ShapeError(f"mlp layer {i}: bias shape {b.data.shape} does not match "
                             f"{w.shape}")
        kept.append(h if ws[i].requires_grad else None)
        h = h @ w
        h += b.data.astype(h.dtype, copy=False)
        if i < layers - 1:
            # the next layer's kept input gives the mask back (see bwd)
            masks.append(None if ws[i + 1].requires_grad else h > 0)
            # where h <= 0, LEAKY_SLOPE * h >= h: the select's value, bit for bit
            np.maximum(h, h * LEAKY_SLOPE, out=h)
    # wanted[i]: something before layer i wants a gradient, so the backward
    # carries one to layer i's input
    wanted = [x.requires_grad]
    for w, b in zip(ws, bs):
        wanted.append(wanted[-1] or w.requires_grad or b.requires_grad)

    def bwd(g):
        # runs once: popping layer i's mask and input frees each as soon as
        # it has been read, so they do not pile up under the gradients
        grads: list[np.ndarray | None] = [None] * (1 + 2 * layers)
        for i in reversed(range(layers)):
            if i < layers - 1:
                # back through the slope; dropping the incoming g at once
                # frees it before the next product is allocated
                gp = _leaky_factor(masks.pop(), g.dtype)
                gp *= g
                g, gp = gp, None
            layer_input = kept.pop()
            if layer_input is not None:
                grads[1 + 2 * i] = _weight_grad(layer_input, g, ws[i].data.dtype)
            if bs[i].requires_grad:
                grads[2 + 2 * i] = _unbroadcast(g, bs[i])
            if not wanted[i]:
                break
            if masks and masks[-1] is None:
                # layer i's input is layer i-1's leaky output, positive
                # exactly where its pre-activation is
                masks[-1] = layer_input > 0
            layer_input = None
            g = g @ wds[i].T
        else:
            grads[0] = g
        masks.clear()  # the hidden layers below a break
        return tuple(grads)

    parents = (x, *itertools.chain.from_iterable(zip(ws, bs)))
    return _record(h, parents, bwd, "mlp")


def softmax(x) -> Tensor:
    """Softmax over the last axis, numerically stable."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _record(out, (x,), bwd, "softmax")


def mse(a, b) -> Tensor:
    """Mean squared difference of a and b, of equal shapes, as one node: the
    value and operand gradients of the chain subtract, square, mean, bit for
    bit, keeping only the difference."""
    a, b, ad, bd = _operands("mse", a, b)
    d = ad - bd
    da, db = (t.data.dtype if t.requires_grad else None for t in (a, b))

    def bwd(g):
        gd = 2.0 * (g / d.size) * d
        return (None if da is None else gd.astype(da, copy=False),
                None if db is None else (-gd).astype(db, copy=False))

    return _record((d * d).mean(dtype=np.float64).astype(d.dtype), (a, b), bwd, "mse")


def gathered_mse(a, x, indices) -> Tensor:
    """mse(a, gather_rows(x, indices, a's dtype)) of a constant `a` as one
    node whose only parent is x: the same value and gradient into x, bit for
    bit, keeping only the difference and no gathered rows."""
    a = float_array(a)
    rows = gather_rows(x, indices, a.dtype)
    if rows.data.shape != a.shape:
        raise ShapeError(f"gathered-mse: shapes {a.shape} and {rows.data.shape} are not equal")
    d = np.subtract(a, rows.data, out=rows.data)  # the gathered copy becomes the difference
    scatter, rows = rows._backward, None  # the gather's backward adds rows into x's

    def bwd(g):
        gd = 2.0 * (g / d.size) * d
        return scatter(np.negative(gd, out=gd))

    return _record((d * d).mean(dtype=np.float64).astype(d.dtype), (as_tensor(x),), bwd,
                   "gathered-mse")


def cross_entropy(logits, labels, rows) -> Tensor:
    """Mean cross-entropy of the rows of `logits` where the boolean mask
    `rows` is true, against `labels`, the class ids of those rows, as one
    node.

    Value and gradient equal, bit for bit, the chain select rows, subtract
    the row max, exp, sum over classes, log, minus the sum of the one-hot
    product, mean over rows: the same row-max shift, the same exp, sum and
    log in the same order, and a mean that accumulates in float64 and
    returns the logits' dtype. The gradient of the selected rows is
    (-g/n)·onehot + (g/n/s)·e, with e the shifted rows' exponentials and s
    their sums, scattered into zeros for the rows not selected."""
    logits = as_tensor(logits)
    shape, dtype = logits.data.shape, logits.data.dtype
    m = np.asarray(rows, dtype=bool)
    if len(shape) != 2 or m.shape != shape[:1]:
        raise ShapeError(f"cross-entropy: row mask shape {m.shape} does not match "
                         f"logits {shape}")
    x = logits.data[m]
    y = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    if n == 0 or y.shape != (n,):
        raise ShapeError(f"cross-entropy: {y.shape} labels for {n} selected rows")
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1)
    onehot = np.zeros_like(x)
    onehot[np.arange(n), y] = 1.0
    per_row = np.log(s) - (shifted * onehot).sum(axis=1)

    def bwd(g):
        gn = (g / n).astype(dtype)
        gx = np.zeros(shape, dtype=dtype)
        gx[m] = -gn * onehot + (gn / s)[:, None] * e
        return (gx,)

    return _record(per_row.mean(dtype=np.float64).astype(dtype), (logits,), bwd,
                   "cross-entropy")


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    if not parts:
        raise ShapeError("concat: need at least one input")
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    dtypes = [p.data.dtype if p.requires_grad else None for p in parts]

    def bwd(g):
        return tuple(None if dt is None else piece.astype(dt, copy=False)
                     for dt, piece in zip(dtypes, np.split(g, splits, axis=axis)))

    out = np.concatenate([p.data for p in parts], axis=axis, dtype=_compute_dtype(*parts))
    return _record(out, parts, bwd, "concat")


def gather_rows(x, indices, dtype=None) -> Tensor:
    """Rows `indices` of x, in `dtype` (x's by default). A narrower dtype
    gathers from x cast once, so no wide copy of the gathered rows is made;
    the gradient reaches x in x's dtype."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather-rows: indices must be 1-D, got shape {idx.shape}")
    shape = x.data.shape
    out = x.data.astype(x.data.dtype if dtype is None else dtype, copy=False)[idx]
    idx = np.where(idx < 0, idx + shape[0], idx)  # rows as numpy counts them

    def bwd(g):
        # a bincount per column adds each cell's terms in input order from
        # +0.0 in float64, bit for bit np.add.at on float64 zeros, and a
        # float32 x gets that sum rounded once; no (rows × width) keys are built
        width = int(np.prod(shape[1:], dtype=np.int64))
        g, gx = g.reshape(idx.size, width), np.empty((shape[0], width), dtype=x.data.dtype)
        for j in range(width):
            gx[:, j] = np.bincount(idx, weights=g[:, j], minlength=shape[0])
        return (gx.reshape(shape),)

    return _record(out, (x,), bwd, "gather-rows")


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Each node of the traversed subgraph is released as soon as its backward
    has run (or it turned out to get no gradient), so what it kept for the
    backward is freed while the rest runs; a graph cannot be replayed.
    Other, unconsumed graphs sharing tensors are unaffected.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    # collect the ancestor subgraph, in creation order
    nodes: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t._id in nodes:
            continue
        nodes[t._id] = t
        stack.extend(t._parents)
    order = sorted(nodes.values(), key=lambda t: t._id)
    del nodes  # `order` alone holds the nodes, so each can go once it has run

    grads: dict[int, np.ndarray] = {loss._id: np.ones((), dtype=loss.data.dtype)}
    while order:
        node = order.pop()  # reverse creation order
        g = grads.pop(node._id, None)
        if g is not None:
            if node.requires_grad and node._backward is None and not node._parents:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None:  # the parent needs no gradient
                        continue
                    prev = grads.get(parent._id)
                    grads[parent._id] = pg if prev is None else prev + pg
        if node._parents:  # single-use tape: release the node
            node._parents = ()
            node._backward = None


# ---------------------------------------------------------------------------
# Optimizers

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Optimizer:
    """SGD-with-momentum or Adam over a named parameter dict. `t`, the count
    of steps taken, is a 1-element float64 array, so that a checkpoint loads
    into it in place as into the moment buffers (`named_arrays`)."""

    def __init__(self, params: Mapping[str, Tensor], kind: str = "sgd-momentum",
                 lr: float = 0.1, weight_decay: float = 0.0, momentum: float = 0.9,
                 max_grad_norm: float | None = None):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        self.params = dict(params)
        self.kind = kind
        self.lr = lr
        self.weight_decay = weight_decay
        self.momentum = momentum
        self.max_grad_norm = max_grad_norm
        self.t = np.zeros(1)
        self.buffers = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        if kind == "adam":
            self.buffers2 = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def grad_norm(self) -> float:
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
        return math.sqrt(total)

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then zero them.
        A NaN or infinite gradient entry raises GradientError naming its
        parameter before any parameter moves."""
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise GradientError(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        clip = 1.0
        if self.max_grad_norm is not None:
            norm = self.grad_norm()
            if norm > self.max_grad_norm:
                clip = self.max_grad_norm / norm
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if clip != 1.0:
                g = g * clip
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.kind == "sgd-momentum":
                buf = self.buffers[name]
                buf *= self.momentum
                buf += g
                p.data -= self.lr * buf
            else:
                m = self.buffers[name]
                v = self.buffers2[name]
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                mh = m / (1.0 - ADAM_BETA1 ** self.t[0])
                vh = v / (1.0 - ADAM_BETA2 ** self.t[0])
                p.data -= self.lr * mh / (np.sqrt(vh) + ADAM_EPS)
            p.grad = None

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def named_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        """The live moment buffers and step count `t` by checkpoint name, to
        be copied out or loaded into."""
        out = {f"{prefix}.m.{n}": b for n, b in self.buffers.items()}
        if self.kind == "adam":
            out.update({f"{prefix}.v.{n}": b for n, b in self.buffers2.items()})
        out[f"{prefix}.t"] = self.t
        return out


# ---------------------------------------------------------------------------
# Checkpoint format: magic "A3WT", then per parameter (sorted by name):
#   uint32 name length | name bytes (utf-8) | uint32 rank | rank x uint64 dims
#   | little-endian float64 values

_MAGIC = b"A3WT"


class CheckpointError(IOError):
    pass


def load_arrays(arrays: Mapping[str, np.ndarray], targets: Mapping[str, np.ndarray]) -> None:
    """Copy each checkpoint array into the target of the same name. A missing
    name, or a shape other than the target's, is a CheckpointError that names
    the array and both shapes."""
    for name, out in targets.items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint has no array {name!r} (expected shape {out.shape})")
        if arrays[name].shape != out.shape:
            raise CheckpointError(f"checkpoint array {name!r} has shape {arrays[name].shape}, "
                                  f"expected {out.shape}")
        out[...] = arrays[name]


def save_checkpoint(path, arrays: Mapping[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        for name in sorted(arrays):
            data = np.ascontiguousarray(arrays[name], dtype=np.float64)
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            f.write(data.astype("<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"bad magic at offset 0: {blob[:4]!r}")
    out: dict[str, np.ndarray] = {}
    off = 4
    total = len(blob)

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > total:
            raise CheckpointError(f"truncated checkpoint: needed {n} bytes for {what} at offset {off}")
        piece = blob[off:off + n]
        off += n
        return piece

    while off < total:
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        start = off
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"name at offset {start} is not utf-8: {exc}") from None
        if name in out:
            raise CheckpointError(f"duplicate name {name!r} at offset {start}")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, "dims"))
        data = np.frombuffer(take(8 * math.prod(dims), f"values of {name}"), dtype="<f8")
        try:
            out[name] = data.reshape(dims).astype(np.float64)
        except ValueError as exc:  # dims numpy cannot hold, though their product is 0
            raise CheckpointError(f"dims {dims} of {name!r}: {exc}") from None
    return out
