"""Dense float64 tensors with reverse-mode differentiation.

Every operation builds its output through ``node``.  An op states only
its vector-Jacobian products: it passes ``node`` its output and one
``(input, vjp)`` pair per input, where ``vjp`` maps the output gradient
to that input's gradient.  ``node`` builds the one backward closure
there is, which adds ``vjp(g)`` into each input that requires a
gradient, in input order, so an input passed twice gets both terms and
a constant input gets none.  No op body tests ``requires_grad`` or
accumulates a gradient itself.

All data and every accumulated gradient live in C-contiguous float64
arrays; shapes are validated at op boundaries and the only implicit
broadcast allowed is a rank-2 (channels x height) operand against a
rank-3 (channels x height x width) one, i.e. per-row values copied
across width; ``_broadcast_pair`` also returns per operand the fold that
sums its gradient back over width.

The graph is made of ``_Node``s, not tensors: a recorded op output
carries a node with its op, gradient, backward closure and parent nodes,
and the closure adds into those nodes, or into a leaf's ``.grad``.  No
node holds an op output's ``Tensor``, so an op output's array dies with
its last Python reference unless a VJP captured it, and each VJP keeps
only the arrays or shapes it reads (a relu reads its mask from its own
output).  For one CLI-default training image the graph holds 3.48 MiB
after the forward, against 6.30 MiB while nodes kept their inputs.

``Tensor.backward()`` walks the graph once in reverse topological order
and releases it as it goes: once a node's closure has run, the node
drops its gradient, the closure, with every array the closure kept, and
its parent links, so the live set shrinks as the sweep walks from the
loss back to the stem (the backward peaks at 4.53 MiB for that image).
Only leaves keep ``.grad``, and a second sweep through a swept node
raises.  Inside ``no_grad()`` no graph is recorded at all: every op
returns a constant without a node, bitwise the data it returns outside,
so each intermediate array is freed as soon as the next op has read it.
Evaluation, finite-difference probes and ``relu_input_margin`` run
there; training runs outside it.

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
backbone's maps, so both ranks share this one pad.  conv2d's backward
works channels last, pixels on the GEMM's rows: the input gradient adds
one contiguous block per tap into a flattened padded gradient, and the
weight gradient copies tap windows out of a channels-last pad (``_pad``
of a transposed view) in whole-row runs, bitwise the channels-first
loop that still runs for conv1d and the shapes ``_conv_plan`` leaves it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import lru_cache
from math import prod
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
    convert their input) or by ``node`` as op outputs; a recorded op output
    carries its graph ``_Node``, a constant (any output inside ``no_grad``,
    or of an op with no input that requires a gradient) carries none.  The
    constructor stores ``data`` as given.  Data is treated as immutable once
    wrapped; optimizers mutate parameter data in place between graph
    constructions, never inside one.  Only leaves fill ``grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_node")

    def __init__(self, data: Array, requires_grad: bool = False, graph_node: Optional["_Node"] = None,
                 op: str = ""):
        self.data = data
        self.grad: Optional[Array] = None
        self.requires_grad = requires_grad
        self.op = op
        self._node = graph_node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def _backward(self) -> Optional[Callable[[Array], None]]:
        """The backward closure of this op output's node; None on a leaf or constant."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn: Callable[[Array], None]) -> None:
        self._node.backward = fn

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: Array) -> None:
        if self.grad is None:
            self.grad = g + 0.0  # one pass, bitwise 0.0 + g: a new array, -0.0 becomes 0.0
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1, releasing the graph as it goes.

        Each node drops its gradient, backward closure and parent links once
        the closure has run, so an activation dies when the last closure
        holding it is swept, and the graph can be swept only once.
        """
        root = self._node
        if root is None:  # a leaf or a constant
            self.accumulate_grad(np.ones_like(self.data))
            return
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            n, expanded = stack.pop()
            if expanded:
                order.append(n)
                continue
            if id(n) in seen:
                continue
            seen.add(id(n))
            stack.append((n, True))
            if n.parents is _SWEPT:
                raise RowGateError(f"backward through a released graph: the {n.op!r} node was already "
                                   "swept by an earlier backward(); run the forward again")
            for p in n.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.accumulate_grad(np.ones_like(self.data))
        while order:
            n = order.pop()
            n.backward(n.grad)  # every consumer has run and added into n.grad
            n.grad = n.backward = None
            n.parents = _SWEPT

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


class _Node:
    """One recorded op in the graph: its gradient, backward closure and parent nodes.

    The closure adds each input's gradient into that input's node, or into
    a leaf's ``grad``; ``parents`` are the nodes among them, for the sweep's
    walk.  Neither holds an op output's ``Tensor``: an op output's array
    lives only while a caller or a VJP that reads it holds it.
    """

    __slots__ = ("op", "grad", "backward", "parents")

    def __init__(self, op: str, backward: Callable[[Array], None], parents: tuple["_Node", ...]):
        self.op = op
        self.grad: Optional[Array] = None
        self.backward = backward
        self.parents = parents

    accumulate_grad = Tensor.accumulate_grad


_SWEPT = None  # a swept node's parent links


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
_relu_margin: Optional[float] = None  # the running minimum inside relu_input_margin(), else None


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


def node(data: Array, op: str, *inputs: tuple[Tensor, Callable[[Array], Array]]) -> Tensor:
    """An op's output over ``(input, vjp)`` pairs, or a constant inside ``no_grad``.

    ``data`` is stored as given: every op computes it with numpy from
    C-ordered float64 inputs, which gives C-ordered float64.  Each input
    that requires a gradient is a sink: its node, or the leaf itself.  The
    backward closure adds ``vjp(g)`` into each sink, in input order, and
    keeps no other input and no vjp of a constant input; an op without a
    sink records nothing and returns a constant.
    """
    if not _grad_enabled:
        return Tensor(data, op=op)
    sinks = tuple((t if t._node is None else t._node, vjp) for t, vjp in inputs if t.requires_grad)
    if not sinks:
        return Tensor(data, op=op)

    def backward(g: Array) -> None:
        for sink, vjp in sinks:
            sink.accumulate_grad(vjp(g))

    parents = tuple(sink for sink, _ in sinks if type(sink) is _Node)
    return Tensor(data, True, _Node(op, backward, parents), op)


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
    x_shape = x.shape
    return node(x.data.reshape(shape), "reshape", (x, lambda g: g.reshape(x_shape)))


def sum_all(x: Tensor) -> Tensor:
    x_shape = x.shape
    return node(np.asarray(x.data.sum()), "sum", (x, lambda g: np.full(x_shape, float(g))))


def mean_all(x: Tensor) -> Tensor:
    x_shape, n = x.shape, x.size
    return node(np.asarray(x.data.sum() / n), "mean", (x, lambda g: np.full(x_shape, float(g) / n)))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """max(x, 0); inside ``relu_input_margin`` it also folds min |x| into the margin.

    The backward pass reads the mask from the output, as ``y > 0`` holds
    exactly where ``x > 0`` does, so the graph keeps no input of a relu.
    """
    global _relu_margin
    d = x.data
    if _relu_margin is not None:
        _relu_margin = min(_relu_margin, float(np.abs(d).min()))
    y = np.where(d > 0.0, d, 0.0)
    return node(y, "relu", (x, lambda g: g * (y > 0.0)))


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

    Pads, flat and full output shapes, window shape, the channels-last axis order, per
    tap in row-major order its (C_out, C_in) kernel index and strided padded-input
    window, and the channels-last backward's plan, ``None`` where that does not run:
    the padded gradient's shape, the shape its adds view it at and one tap's block
    shape, ``g`` zero-padded to rows, the rows one GEMM reads of it, and per tap its
    kernel index, channels-last input window and block in the viewed gradient.
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
    rows = None
    # conv2d only.  The two GEMM orientations sum alike where the channels and the positions
    # fill whole 8-wide vectors (OpenBLAS sums a tile edge of 1-4 in another order, and numpy
    # takes its vector path at one position), and a 1x1 stride-1 kernel's weight gradient
    # reads the whole unpadded input in place.
    if len(x_shape) == 3 and not (c_in % 8 or flat[1] % 8) and (stride > 1 or len(taps) > 1):
        (hp, wp), (ho, wo) = (n + 2 * p for n, p in zip(spatial, pads)), out
        width = wp if stride == 1 else wo  # row width of the zero-padded g
        length = (ho - 1) * width + wo  # its rows one GEMM reads
        row_taps = []
        for k, (_, v, h) in taps:
            win = (v, h, slice(None))
            # stride 1: the tap's block starts v.start padded rows and h.start columns in
            start = v.start * wp + h.start
            row_taps.append((k, win, slice(start, start + length) if stride == 1 else win))
        adds, block = ((hp * wp, c_in), (length, c_in)) if stride == 1 else ((hp, wp, c_in), (ho, wo, c_in))
        rows = ((hp, wp, c_in), adds, block, (ho, width, c_out), length, tuple(row_taps))
    return pads, flat, (c_out,) + out, (c_in,) + out, tuple(range(1, len(x_shape))) + (0,), taps, rows


def _conv(x: Tensor, weight: Tensor, bias: Tensor, stride: int, dilation: int, op: str) -> Tensor:
    """Replicate-padded convolution over the trailing axes of a (C_in, *spatial) input.

    Padding is ``dilation * (K - 1) / 2`` per side on each axis.  One GEMM
    per tap, accumulated from zeros with the bias added last.  The graph
    keeps ``x.data`` but no padded copy of it: the weight gradient pads it
    again, which the backward reads as it was wrapped because tensor data
    is immutable, so the same bytes are padded and every bit is the same.

    conv2d's backward works channels last, pixels on the GEMM's row axis.
    The input gradient runs one GEMM per tap on ``g`` zero-padded to
    padded-width rows and adds each result into the flattened padded
    gradient as one contiguous block at that tap's offset; the junk rows
    carry exact zeros, and the accumulator starts at +0.0 and never holds
    -0.0, so they change no sum.  Stride 2 adds channels-last windows
    instead.  The weight gradient copies each tap window from a
    channels-last padded input in runs of whole rows.  Both give the bits
    of the channels-first loop, which feeds BLAS the operand layouts
    ``np.tensordot`` would, only where ``_conv_plan`` picks them: channel
    and position counts in multiples of 8 and no 1x1 stride-1 kernel.
    Elsewhere (every conv1d, the stem's three input channels, small maps)
    that loop runs as it is.
    """
    w, x_shape = weight.data, x.data.shape
    pads, flat, out_shape, win_shape, channels_last, taps, rows = _conv_plan(
        op, x_shape, w.shape, bias.data.shape, stride, dilation
    )
    c_in, xd = w.shape[1], x.data
    xp = _pad(xd, pads)
    y = np.zeros(flat)
    for k, win in taps:
        y += np.dot(w[k], xp[win].reshape(c_in, -1))
    y += bias.data[:, None]

    def d_input(g: Array) -> Array:
        g = g.reshape(flat)
        if rows is None:
            dxp = np.zeros(_pad_plan(x_shape, pads)[0])
            for k, win in taps:
                dxp[win] += np.dot(w[k].T, g).reshape(win_shape)
            return _unpad(dxp, x_shape, pads)
        padded, adds, block, g_rows, length, row_taps = rows
        gz = np.zeros(g_rows)
        gz[:, :out_shape[2]] = g.reshape(out_shape).transpose(1, 2, 0)
        gz = gz.reshape(-1, flat[0])[:length]
        dxl = np.zeros(padded)
        dxa = dxl.reshape(adds)
        for k, _, dst in row_taps:
            dxa[dst] += np.dot(gz, w[k]).reshape(block)
        return _unpad(dxl.transpose(2, 0, 1), x_shape, pads)

    def d_weight(g: Array) -> Array:
        g = g.reshape(flat)
        dw = np.empty_like(w)
        if rows is None:
            xp = _pad(xd, pads)
            for k, win in taps:
                dw[k] = np.dot(g, xp[win].transpose(channels_last).reshape(-1, c_in))
            return dw
        xl = _pad(xd.transpose(channels_last), pads + (0,))
        for k, win, _ in rows[-1]:
            dw[k] = np.dot(g, xl[win].reshape(-1, c_in))
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
    d, x_shape = x.data, x.shape
    w = x_shape[2]
    if mode == "avg":
        anchor = d.max(axis=2, keepdims=True)
        y = anchor + (d - anchor).sum(axis=2, keepdims=True) / w

        def vjp(g: Array) -> Array:
            return np.broadcast_to(g / w, x_shape)

    else:
        y = d.max(axis=2, keepdims=True)

        def vjp(g: Array) -> Array:
            mask = d == y  # ties split the gradient
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
        return np.ascontiguousarray(g)  # moving a leading axis back leaves a strided view

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
# relu margin
# ---------------------------------------------------------------------------


def relu_input_margin(f: Callable[[], object]) -> float:
    """Smallest |pre-activation| fed to any relu while ``f()`` runs under ``no_grad``.

    Finite-difference gradient checks are only meaningful away from the
    relu kink; callers can resample inputs when this margin is tiny.
    Returns inf when ``f`` applies no relu.  ``f`` records no graph, and
    the margin collector is off again once this returns or raises.
    """
    global _relu_margin
    before, _relu_margin = _relu_margin, np.inf
    try:
        with no_grad():
            f()
        return _relu_margin
    finally:
        _relu_margin = before
