"""Dense float64 tensors with reverse-mode differentiation.

Every operation builds a node in a dynamic graph through ``node``.  An op
states only its vector-Jacobian products: it passes ``node`` its output
and one ``(input, vjp)`` pair per input, where ``vjp`` maps the output
gradient to that input's gradient.  ``node`` builds the one backward
closure there is, which adds ``vjp(g)`` into each input that requires a
gradient, in input order, so an input passed twice gets both terms and
a constant input gets none.  No op body tests ``requires_grad`` or
accumulates a gradient itself.

All data lives in C-contiguous float64 arrays; shapes are validated at
op boundaries and the only implicit broadcast allowed is a rank-2
(channels x height) operand against a rank-3 (channels x height x width)
one, i.e. per-row values copied across width; ``_broadcast_pair`` also
returns per operand the fold that sums its gradient back over width.

The graph lives only as long as something can read it.
``Tensor.backward()`` walks it once in reverse topological order and
releases it as it goes: once a node's closure has run, the node drops
its gradient, the closure, with every array the closure kept, and its
parent links.  Nothing but the sweep's own order then holds a node whose
consumers are all swept, so an activation dies as soon as the last node
reading it has been swept, and the live set shrinks as the sweep walks
from the loss back to the stem.  Only leaves keep ``.grad``, and a walk
through a swept node (a second sweep, or ``relu_input_margin``) raises.
Inside ``no_grad()`` no graph is recorded at all: every op returns a
constant without parents or closure, bitwise the data it returns
outside, so each intermediate array is freed as soon as the next op has
read it.  Evaluation and finite-difference probes run there; training
and graph inspection (``relu_input_margin``, before the sweep) run
outside it.

Averaging and interpolating ops are anchored: width pooling computes
``m + mean(x - m)`` with ``m`` the row maximum, and height resampling
and 2D upsampling compute ``a + sum_k w_k (x_k - a)`` with ``a`` the
first input tap of each output.  The anchored forms are mathematically
the plain weighted sums and share their gradients, but they map constant
inputs to the identical constant bit-for-bit (downstream round-trip
guarantees rely on this).  The max anchor of width pooling also keeps
its result invariant under reordering of exactly representable values
within a row.

``conv1d`` and ``conv2d`` are one kernel, ``_conv``, at two ranks: the
gate convolves its width-pooled context along height and the backbone
convolves along height and width.  Both pad by repeating the edge values,
so a map constant along an axis stays constant along it and no border
signature marks absolute position.  Padding is hand-rolled (``_pad`` and
its adjoint ``_unpad``) because the gate convolves maps of a few rows,
where ``np.pad``'s per-call overhead costs more than the convolution:
one buffer and a few slice copies, from a plan of slices cached per
shape (``_pad_plan``) as the convolution's geometry is (``_conv_plan``).
Gather-based and ``np.concatenate`` pads measured 1.5-7x slower on the
backbone's maps, so both ranks share this one pad.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .data import IGNORE_LABEL
from .errors import ConfigError, RowGateError, ShapeError

Array = np.ndarray
OPEN_UNIT_MARGIN = 1e-12  # clip_open_unit keeps values this far inside (0, 1)
_OPEN_LO, _OPEN_HI = OPEN_UNIT_MARGIN, 1.0 - OPEN_UNIT_MARGIN
BN_MOMENTUM = 0.1  # weight of the current batch in batch-norm running statistics
BN_EPS = 1e-5  # added to the batch-norm variance before the square root
_BN_KEEP = 1.0 - BN_MOMENTUM


class Tensor:
    """A float64 array plus an optional gradient buffer.

    Tensors are built either as leaves (``tensor`` / ``parameter``, which
    convert their input) or by ``node`` as op outputs carrying their
    parents and a backward closure (constants inside ``no_grad``); the
    constructor stores ``data`` as given.  Data is
    treated as immutable once wrapped; optimizers mutate parameter data
    in place between graph constructions, never inside one.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(
        self,
        data: Array,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Optional[Callable[[Array], None]] = None,
        op: str = "",
    ):
        self.data = data
        self.grad: Optional[Array] = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: Array) -> None:
        if self.grad is None:
            self.grad = g + 0.0  # one pass, bitwise 0.0 + g: a new array, -0.0 becomes 0.0
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1, releasing the graph as it goes.

        Each interior node drops its gradient, backward closure and parent
        links once the closure has run, so an activation dies when the last
        node reading it is swept, and the graph can be swept only once.
        """
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in _unswept_parents(node, "backward"):
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None
                node._parents = _SWEPT

    def sum(self) -> "Tensor":
        return sum_all(self)

    def mean(self) -> "Tensor":
        return mean_all(self)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


_SWEPT = None  # a swept node's parent links


def _unswept_parents(node: Tensor, walk: str) -> tuple[Tensor, ...]:
    """``node``'s parents, or a ``RowGateError`` naming its op when a backward() swept it."""
    if node._parents is _SWEPT:
        raise RowGateError(
            f"{walk} through a released graph: the {node.op!r} node was already "
            "swept by an earlier backward(); run the forward again"
        )
    return node._parents


def tensor(data) -> Tensor:
    """Wrap array-like data as a constant leaf, sharing it when already C-ordered float64."""
    return Tensor(np.asarray(data, dtype=np.float64, order="C"))


def parameter(data) -> Tensor:
    """Wrap array-like data as a trainable leaf, sharing it when already C-ordered float64."""
    return Tensor(np.asarray(data, dtype=np.float64, order="C"), True)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


_grad_enabled = True  # False inside no_grad(); forked workers inherit it


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph: every output is a constant.

    No op keeps its inputs or a backward closure, so each intermediate
    array is freed once the next op has read it.
    """
    global _grad_enabled
    before, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = before


_requires_grad = attrgetter("requires_grad")


def node(data: Array, op: str, *inputs: tuple[Tensor, Callable[[Array], Array]]) -> Tensor:
    """An op's output over ``(input, vjp)`` pairs, or a constant inside ``no_grad``.

    ``data`` is stored as given: every op computes it with numpy from
    C-ordered float64 inputs, which gives C-ordered float64.  Its backward
    closure adds ``vjp(g)`` into each input that requires a gradient, in
    input order.
    """
    if not _grad_enabled:
        return Tensor(data, False, (), None, op)

    def backward(g: Array) -> None:
        for t, vjp in inputs:
            if t.requires_grad:
                t.accumulate_grad(vjp(g))

    parents, _ = zip(*inputs)
    return Tensor(data, any(map(_requires_grad, parents)), parents, backward, op)


# ---------------------------------------------------------------------------
# elementwise algebra
# ---------------------------------------------------------------------------


def _same(g: Array) -> Array:
    return g


def _sum_width(g: Array) -> Array:
    return g.sum(axis=2)


def _broadcast_pair(a: Tensor, b: Tensor, opname: str):
    """Return (a_data, b_data, fold_a, fold_b) for the allowed shapes.

    Allowed: identical shapes, or one operand of shape (C, H) against the
    other of shape (C, H, W) -- the per-row-across-width broadcast.
    ``fold_a`` maps a gradient of the output's shape to ``a``'s shape.
    """
    if a.shape == b.shape:
        return a.data, b.data, _same, _same
    if a.data.ndim == 2 and b.data.ndim == 3 and a.shape == b.shape[:2]:
        return a.data[:, :, None], b.data, _sum_width, _same
    if b.data.ndim == 2 and a.data.ndim == 3 and b.shape == a.shape[:2]:
        return a.data, b.data[:, :, None], _same, _sum_width
    raise ShapeError(f"{opname}: incompatible shapes {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, fold_a, fold_b = _broadcast_pair(a, b, "add")
    return node(ad + bd, "add", (a, fold_a), (b, fold_b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, fold_a, fold_b = _broadcast_pair(a, b, "mul")
    return node(ad * bd, "mul", (a, lambda g: fold_a(g * bd)), (b, lambda g: fold_b(g * ad)))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return node(x.data * s, "scale", (x, lambda g: g * s))


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, fold_a, fold_b = _broadcast_pair(a, b, "sub")
    # times -1 rather than negation, which would also flip the sign of a NaN
    return node(ad - bd, "sub", (a, fold_a), (b, lambda g: fold_b(g) * -1.0))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(map(int, shape))
    if prod(shape) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    return node(x.data.reshape(shape), "reshape", (x, lambda g: g.reshape(x.shape)))


def sum_all(x: Tensor) -> Tensor:
    return node(np.asarray(x.data.sum()), "sum", (x, lambda g: np.full_like(x.data, float(g))))


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    return node(np.asarray(x.data.sum() / n), "mean", (x, lambda g: np.full_like(x.data, float(g) / n)))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return node(np.where(mask, x.data, 0.0), "relu", (x, lambda g: g * mask))


def sigmoid(x: Tensor) -> Tensor:
    # Stable in both tails: never exponentiates a positive argument.
    d = x.data
    e = np.exp(-np.abs(d))
    r = 1.0 + e
    s = np.where(d >= 0, 1.0 / r, e / r)
    return node(s, "sigmoid", (x, lambda g: g * s * (1.0 - s)))


def clip_open_unit(x: Tensor) -> Tensor:
    """Clamp values into the open interval (0, 1).

    Float64 sigmoid saturates to exactly 0.0 or 1.0 for |z| beyond ~36;
    this keeps gating factors strictly inside (0, 1) for any finite input.
    """
    d = x.data
    return node(np.clip(d, _OPEN_LO, _OPEN_HI), "clip_open_unit",
                (x, lambda g: g * ((d > _OPEN_LO) & (d < _OPEN_HI))))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pad_plan(shape: tuple, pads: tuple) -> tuple:
    """Slices of ``_pad`` and ``_unpad`` for one shape, cached like ``_conv_plan``.

    The padded shape, the interior, the edge copies of ``_pad`` (axis by
    axis over the full extent of the others, so corners come out right)
    and, per padded axis, the crop and the two folds of ``_unpad``.
    """
    lead = len(shape) - len(pads)
    padded = shape[:lead] + tuple(n + 2 * p for n, p in zip(shape[lead:], pads))
    interior = (slice(None),) * lead + tuple(slice(p, p + n) for n, p in zip(shape[lead:], pads))
    copies, folds = [], []
    for axis, p in enumerate(pads, lead):
        n = shape[axis]
        pre = (slice(None),) * axis
        if p:
            copies += [(pre + (slice(0, p),), pre + (slice(p, p + 1),)),
                       (pre + (slice(p + n, None),), pre + (slice(p + n - 1, p + n),))]
        folds.append((axis, pre + (slice(p, p + n),), bool(p), pre + (0,), pre + (slice(0, p),),
                      pre + (-1,), pre + (slice(p + n, None),)))
    return padded, interior, tuple(copies), tuple(folds)


def _pad(a: Array, pads: tuple) -> Array:
    """Pad the trailing ``len(pads)`` axes of ``a`` by ``pads[i]`` per side, repeating the edges.

    One buffer, bitwise ``np.pad``'s ``edge`` mode, also for pads wider than the extent.
    """
    padded, interior, copies, _ = _pad_plan(a.shape, pads)
    out = np.empty(padded)
    out[interior] = a
    for dst, src in copies:
        out[dst] = out[src]
    return out


def _unpad(g: Array, shape: tuple, pads: tuple) -> Array:
    """Adjoint of ``_pad`` from ``shape``: crop the interior, folding the pads into the edges."""
    for axis, keep, has_pad, first, head, last, tail in _pad_plan(shape, pads)[3]:
        d = g[keep].copy()
        if has_pad:
            d[first] += g[head].sum(axis=axis)
            d[last] += g[tail].sum(axis=axis)
        g = d
    return g


@lru_cache(maxsize=None)
def _conv_plan(op: str, x_shape: tuple, w_shape: tuple, b_shape: tuple, stride: int, dilation: int):
    """Checked geometry of one convolution, cached per shape.

    Pads, flat and full output shapes, window shape, the channels-last axis order, and per
    tap in row-major order its (C_out, C_in) kernel index and strided padded-input window.
    """
    c_in, spatial = x_shape[0], x_shape[1:]
    if len(w_shape) != len(x_shape) + 1:
        raise ShapeError(f"{op} kernel must be rank {len(x_shape) + 1}, got {w_shape}")
    c_out, extents = w_shape[0], w_shape[2:]
    if w_shape[1] != c_in:
        raise ShapeError(f"{op}: input has {c_in} channels, kernel expects {w_shape[1]}")
    if any(k % 2 == 0 for k in extents):
        raise ConfigError(f"{op} kernel extents must be odd, got {'x'.join(map(str, extents))}")
    if b_shape != (c_out,):
        raise ShapeError(f"{op} bias shape {b_shape} does not match {c_out} output channels")
    pads = tuple(dilation * (k - 1) // 2 for k in extents)
    out = tuple((n + 2 * p - dilation * (k - 1) - 1) // stride + 1 for n, p, k in zip(spatial, pads, extents))
    taps = tuple(((slice(None), slice(None)) + idx, (slice(None),) + tuple(
        slice(i * dilation, i * dilation + stride * (o - 1) + 1, stride) for i, o in zip(idx, out)))
        for idx in np.ndindex(*extents))
    flat = (c_out, int(np.prod(out)))
    return pads, flat, (c_out,) + out, (c_in,) + out, tuple(range(1, len(x_shape))) + (0,), taps


def _conv(x: Tensor, weight: Tensor, bias: Tensor, stride: int, dilation: int, op: str) -> Tensor:
    """Replicate-padded convolution over the trailing axes of a (C_in, *spatial) input.

    Padding is ``dilation * (K - 1) / 2`` per side on each axis.  One GEMM
    per tap, accumulated from zeros with the bias added last; the backward
    pass feeds BLAS the operand layouts ``np.tensordot`` would.  The graph
    keeps no padded copy of the input: the weight gradient pads ``x.data``
    again, which the backward reads as it was wrapped because tensor data
    is immutable, so the same bytes are padded and every bit is the same.
    """
    w, x_shape = weight.data, x.data.shape
    pads, flat, out_shape, win_shape, channels_last, taps = _conv_plan(
        op, x_shape, w.shape, bias.data.shape, stride, dilation
    )
    c_in = w.shape[1]
    xp = _pad(x.data, pads)
    y = np.zeros(flat)
    for k, win in taps:
        y += np.dot(w[k], xp[win].reshape(c_in, -1))
    y += bias.data[:, None]

    def d_input(g: Array) -> Array:
        g = g.reshape(flat)
        dxp = np.zeros(_pad_plan(x_shape, pads)[0])
        for k, win in taps:
            dxp[win] += np.dot(w[k].T, g).reshape(win_shape)
        return _unpad(dxp, x_shape, pads)

    def d_weight(g: Array) -> Array:
        g = g.reshape(flat)
        xp = _pad(x.data, pads)
        dw = np.empty_like(w)
        for k, win in taps:
            dw[k] = np.dot(g, xp[win].transpose(channels_last).reshape(-1, c_in))
        return dw

    return node(y.reshape(out_shape), op, (x, d_input), (weight, d_weight),
                (bias, lambda g: g.reshape(flat).sum(axis=1)))


@dataclass
class ConvParams1D:
    """Weights of one 1D convolution: kernel (C_out, C_in, K) and bias (C_out,)."""

    kernel: Tensor
    bias: Tensor


def conv1d(x: Tensor, params: ConvParams1D) -> Tensor:
    """Same-length 1D convolution over a (C_in, L) input; constant inputs stay constant."""
    if x.data.ndim != 2:
        raise ShapeError(f"conv1d input must be rank 2 (channels x length), got {x.shape}")
    return _conv(x, params.kernel, params.bias, 1, 1, "conv1d")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, dilation: int = 1) -> Tensor:
    """2D convolution over (C_in, H, W); stride 1 keeps the size and stride 2 halves even extents."""
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d input must be rank 3, got {x.shape}")
    return _conv(x, weight, bias, stride, dilation, "conv2d")


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    if not xs:
        raise ShapeError("concat_channels: need at least one tensor")
    tail = xs[0].shape[1:]
    for t in xs:
        if t.shape[1:] != tail:
            raise ShapeError(f"concat_channels: trailing dims differ ({t.shape} vs {xs[0].shape})")
    inputs, start = [], 0
    for t in xs:
        inputs.append((t, lambda g, lo=start, hi=start + t.shape[0]: g[lo:hi]))
        start += t.shape[0]
    return node(np.concatenate([t.data for t in xs], axis=0), "concat", *inputs)


# ---------------------------------------------------------------------------
# pooling and resampling
# ---------------------------------------------------------------------------


def pool_width(x: Tensor, mode: str = "avg") -> Tensor:
    """Reduce (C, H, W) to (C, H, 1) by per-row mean or maximum."""
    if x.data.ndim != 3:
        raise ShapeError(f"pool_width input must be rank 3, got {x.shape}")
    if mode not in ("avg", "max"):
        raise ConfigError(f"pool_width: unknown mode {mode!r}")
    w = x.shape[2]
    if mode == "avg":
        anchor = x.data.max(axis=2, keepdims=True)
        y = anchor + (x.data - anchor).sum(axis=2, keepdims=True) / w

        def vjp(g: Array) -> Array:
            return np.broadcast_to(g / w, x.shape)

    else:
        y = x.data.max(axis=2, keepdims=True)

        def vjp(g: Array) -> Array:
            mask = x.data == y  # ties split the gradient
            return mask * (g / mask.sum(axis=2, keepdims=True))

    return node(y, f"pool_width_{mode}", (x, vjp))


@lru_cache(maxsize=None)
def _resize_plan(n_in: int, n_out: int, axis: int, ndim: int) -> tuple[Array, tuple, Array]:
    """Read-only (anchor taps, later taps, matrix) resizing axis ``axis`` of a rank-``ndim`` map.

    Output j is ``sum_k weights[j, k] * x[taps[j, k]]`` over K taps (unused
    taps repeat the first with weight 0); the anchor taps are ``taps[:, 0]``
    and the later taps are one ``(taps[:, k], weights[:, k])`` pair per k > 0,
    the weights shaped to broadcast along ``axis``.  ``matrix`` is the same
    map as a dense (n_out, n_in) array whose rows sum to 1.  Shrinking
    averages adaptive windows; growing or keeping the size blends two
    neighbours at align-to-centers positions, so equal sizes are the identity.
    """
    j = np.arange(n_out)
    if n_out < n_in:
        starts = (j * n_in) // n_out
        counts = -(-((j + 1) * n_in) // n_out) - starts  # ceil division for the window end
        k = np.arange(counts.max())
        inside = k < counts[:, None]
        taps = np.where(inside, starts[:, None] + k, starts[:, None])
        weights = inside / counts[:, None]
    else:
        pos = np.clip((j + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        lo = np.minimum(np.floor(pos).astype(np.intp), n_in - 1)
        t = pos - lo
        taps = np.stack([lo, np.minimum(lo + 1, n_in - 1)], axis=1)
        weights = np.stack([1.0 - t, t], axis=1)
    matrix = np.zeros((n_out, n_in))
    np.add.at(matrix, (j[:, None], taps), weights)
    shape = [1] * ndim
    shape[axis] = -1
    anchor = taps[:, 0].copy()
    later = tuple((taps[:, k].copy(), weights[:, k].reshape(shape)) for k in range(1, taps.shape[1]))
    for a in (anchor, matrix, *(a for pair in later for a in pair)):
        a.flags.writeable = False
    return anchor, later, matrix


def _resize(x: Tensor, sizes: tuple[tuple[int, int], ...], op: str) -> Tensor:
    """Resize ``x`` along each ``(axis, size)`` of ``sizes`` in turn, as one graph node.

    Each output is anchored at its first tap, ``a + sum_k w_k (x_k - a)``,
    so constants come out as the identical constant bit-for-bit; the
    backward pass is one matmul per axis with the plan matrix.
    """
    y = x.data
    plans = [(axis, _resize_plan(y.shape[axis], n, axis, y.ndim)) for axis, n in sizes]
    for axis, (anchor_taps, later, _) in plans:
        anchor = y.take(anchor_taps, axis=axis)
        acc = anchor
        for taps, weights in later:
            acc = acc + weights * (y.take(taps, axis=axis) - anchor)
        y = acc

    def vjp(g: Array) -> Array:
        for axis, (_, _, matrix) in reversed(plans):
            g = np.moveaxis(np.moveaxis(g, axis, -1) @ matrix, -1, axis)
        return g

    return node(y, op, (x, vjp))


def resample_height(x: Tensor, h_target: int) -> Tensor:
    """Resize a (C, H) matrix along its height axis.

    Shrinking uses adaptive average pooling (row j averages input rows
    [floor(j*H/T), ceil((j+1)*H/T))); growing uses align-to-centers linear
    interpolation with endpoint clamping; equal heights pass through.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"resample_height input must be rank 2, got {x.shape}")
    h_target = int(h_target)
    if h_target < 1:
        raise ConfigError(f"resample_height: target height must be >= 1, got {h_target}")
    return _resize(x, ((1, h_target),), "resample_height")


def upsample2d(x: Tensor, h_out: int, w_out: int) -> Tensor:
    """Separable align-to-centers linear upsampling of a (C, H, W) map."""
    if x.data.ndim != 3:
        raise ShapeError(f"upsample2d input must be rank 3, got {x.shape}")
    _, h, w = x.shape
    if h_out < h or w_out < w:
        raise ConfigError(f"upsample2d: target {h_out}x{w_out} smaller than input {h}x{w}")
    return _resize(x, ((1, int(h_out)), (2, int(w_out))), "upsample2d")


# ---------------------------------------------------------------------------
# normalization and regularization
# ---------------------------------------------------------------------------


@dataclass
class BatchNormState:
    """Affine batch normalization over the length axis of a (C, L) map."""

    gamma: Tensor
    beta: Tensor
    running_mean: Array
    running_var: Array

    @staticmethod
    def create(channels: int) -> "BatchNormState":
        return BatchNormState(
            gamma=parameter(np.ones(channels)),
            beta=parameter(np.zeros(channels)),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )

    def fold(self, mean_term: Array, var_term: Array) -> None:
        """The running update: decay each buffer by ``1 - BN_MOMENTUM``, then add its term."""
        mean, var = self.running_mean, self.running_var
        mean *= _BN_KEEP
        mean += mean_term
        var *= _BN_KEEP
        var += var_term


def batch_norm1d(x: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Normalize each channel of a (C, L) map across its length axis.

    Training mode normalizes with the current statistics and updates the
    running buffers in place; eval mode applies the frozen running stats.
    """
    d = x.data
    if d.ndim != 2:
        raise ShapeError(f"batch_norm1d input must be rank 2, got {x.shape}")
    c, length = d.shape
    gamma, beta = state.gamma, state.beta
    if gamma.data.shape != (c,):
        raise ShapeError(f"batch_norm1d: state has {gamma.data.shape[0]} channels, input has {c}")

    if training:
        mu = d.sum(axis=1, keepdims=True) / length
        xc = d - mu
        var = (xc * xc).sum(axis=1, keepdims=True) / length
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = xc * inv
        unbiased = var[:, 0] * (length / (length - 1)) if length > 1 else var[:, 0]
        state.fold(BN_MOMENTUM * mu[:, 0], BN_MOMENTUM * unbiased)
    else:
        inv = 1.0 / np.sqrt(state.running_var[:, None] + BN_EPS)
        xhat = (d - state.running_mean[:, None]) * inv

    y = gamma.data[:, None] * xhat + beta.data[:, None]

    def d_x(g: Array) -> Array:
        gx = g * gamma.data[:, None]
        if not training:
            return gx * inv
        mean_gx = gx.sum(axis=1, keepdims=True) / length
        mean_gx_xhat = (gx * xhat).sum(axis=1, keepdims=True) / length
        return inv * (gx - mean_gx - xhat * mean_gx_xhat)

    return node(y, "batch_norm1d", (x, d_x), (gamma, lambda g: (g * xhat).sum(axis=1)),
                (beta, lambda g: g.sum(axis=1)))


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator], training: bool) -> Tensor:
    """Inverted dropout; the identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode requires a generator")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return node(x.data * mask, "dropout", (x, lambda g: g * mask))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """Mean pixel cross-entropy of (K, H, W) logits against integer labels.

    Pixels labelled ``IGNORE_LABEL`` contribute neither loss nor gradient.
    """
    if logits.data.ndim != 3:
        raise ShapeError(f"softmax_cross_entropy logits must be rank 3, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[1:]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    k = logits.shape[0]
    valid = labels != IGNORE_LABEL
    count = int(valid.sum())
    if count == 0:
        raise ShapeError("softmax_cross_entropy: no labelled pixels")
    if labels[valid].min() < 0 or labels[valid].max() >= k:
        raise ShapeError(f"labels outside [0, {k}) encountered")

    shifted = logits.data - logits.data.max(axis=0, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=0, keepdims=True))
    logp = shifted - logsumexp
    rows, cols = np.nonzero(valid)
    picked = logp[labels[rows, cols], rows, cols]
    loss = -picked.sum() / count

    def vjp(g: Array) -> Array:
        d = np.exp(logp) * valid[None, :, :]
        d[labels[rows, cols], rows, cols] -= 1.0
        return d * (float(g) / count)

    return node(np.asarray(loss), "softmax_ce", (logits, vjp))


# ---------------------------------------------------------------------------
# graph inspection
# ---------------------------------------------------------------------------


def relu_input_margin(root: Tensor) -> float:
    """Smallest |pre-activation| feeding any relu reachable from ``root``.

    Finite-difference gradient checks are only meaningful away from the
    relu kink; callers can resample inputs when this margin is tiny.
    Returns inf when the graph contains no relu, as for any output of
    ``no_grad``, which records no graph.  Call it before ``backward()``:
    a swept node has dropped its parent links, and reaching one raises
    ``RowGateError``.
    """
    margin = np.inf
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        parents = _unswept_parents(node, "relu_input_margin")
        if node.op == "relu":
            margin = min(margin, float(np.abs(parents[0].data).min()))
        stack.extend(parents)
    return margin
