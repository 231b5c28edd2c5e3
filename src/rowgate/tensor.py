"""Dense float64 tensors with reverse-mode differentiation.

Every operation builds a node in a dynamic graph: the output tensor keeps
references to its parents and a closure that routes the output gradient
back to them.  ``Tensor.backward()`` walks the graph once in reverse
topological order.  All data lives in C-contiguous float64 arrays; shapes
are validated at op boundaries and the only implicit broadcast allowed is
a rank-2 (channels x height) operand against a rank-3
(channels x height x width) one, i.e. per-row values copied across width.

Averaging and interpolating ops are anchored: width pooling computes
``m + mean(x - m)`` with ``m`` the row maximum, and height resampling
and 2D upsampling compute ``a + sum_k w_k (x_k - a)`` with ``a`` the
first input tap of each output.  The anchored forms are mathematically
the plain weighted sums and share their gradients, but they map constant
inputs to the identical constant bit-for-bit (downstream round-trip
guarantees rely on this).  The max anchor of width pooling also keeps
its result invariant under reordering of exactly representable values
within a row.

Padding is hand-rolled (``_pad`` and its adjoint ``_unpad``) because the
gate convolves maps of a few rows, where ``np.pad``'s per-call overhead
costs more than the convolution itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError

Array = np.ndarray


class Tensor:
    """A float64 array plus an optional gradient buffer.

    Tensors are built either as leaves (``tensor`` / ``parameter``) or as
    op outputs carrying their parents and a backward closure.  Data is
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
        self.data = np.asarray(data, dtype=np.float64, order="C")
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
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1."""
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
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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


def tensor(data) -> Tensor:
    """Wrap array-like data as a constant leaf."""
    return Tensor(np.asarray(data, dtype=np.float64))


def parameter(data) -> Tensor:
    """Wrap array-like data as a trainable leaf."""
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def _needs(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# elementwise algebra
# ---------------------------------------------------------------------------


def _broadcast_pair(a: Tensor, b: Tensor, opname: str):
    """Return (a_data, b_data, expand_a, expand_b) for the allowed shapes.

    Allowed: identical shapes, or one operand of shape (C, H) against the
    other of shape (C, H, W) -- the per-row-across-width broadcast.
    """
    if a.shape == b.shape:
        return a.data, b.data, False, False
    if a.data.ndim == 2 and b.data.ndim == 3 and a.shape == b.shape[:2]:
        return a.data[:, :, None], b.data, True, False
    if b.data.ndim == 2 and a.data.ndim == 3 and b.shape == a.shape[:2]:
        return a.data, b.data[:, :, None], False, True
    raise ShapeError(f"{opname}: incompatible shapes {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, ea, eb = _broadcast_pair(a, b, "add")
    out = Tensor(ad + bd, _needs(a, b), (a, b), None, "add")

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.sum(axis=2) if ea else g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=2) if eb else g)

    out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, ea, eb = _broadcast_pair(a, b, "mul")
    out = Tensor(ad * bd, _needs(a, b), (a, b), None, "mul")

    def backward(g: Array) -> None:
        if a.requires_grad:
            ga = g * bd
            a.accumulate_grad(ga.sum(axis=2) if ea else ga)
        if b.requires_grad:
            gb = g * ad
            b.accumulate_grad(gb.sum(axis=2) if eb else gb)

    out._backward = backward
    return out


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(x.data * s, x.requires_grad, (x,), None, "scale")

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(g * s)

    out._backward = backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, ea, eb = _broadcast_pair(a, b, "sub")
    out = Tensor(ad - bd, _needs(a, b), (a, b), None, "sub")

    def backward(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.sum(axis=2) if ea else g)
        if b.requires_grad:
            # times -1 rather than negation, which would also flip the sign of a NaN
            b.accumulate_grad((g.sum(axis=2) if eb else g) * -1.0)

    out._backward = backward
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape), x.requires_grad, (x,), None, "reshape")

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    out._backward = backward
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()), x.requires_grad, (x,), None, "sum")

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, float(g)))

    out._backward = backward
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    out = Tensor(np.asarray(x.data.sum() / n), x.requires_grad, (x,), None, "mean")

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, float(g) / n))

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    out = Tensor(np.where(mask, x.data, 0.0), x.requires_grad, (x,), None, "relu")

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    out._backward = backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    # Stable in both tails: never exponentiates a positive argument.
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s, x.requires_grad, (x,), None, "sigmoid")

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(g * s * (1.0 - s))

    out._backward = backward
    return out


def clip_open_unit(x: Tensor, margin: float = 1e-12) -> Tensor:
    """Clamp values into the open interval (0, 1).

    Float64 sigmoid saturates to exactly 0.0 or 1.0 for |z| beyond ~36;
    this keeps gating factors strictly inside (0, 1) for any finite input.
    """
    lo, hi = margin, 1.0 - margin
    inside = (x.data > lo) & (x.data < hi)
    out = Tensor(np.clip(x.data, lo, hi), x.requires_grad, (x,), None, "clip_open_unit")

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(g * inside)

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _pad(a: Array, pads: Sequence[int], pad_mode: str) -> Array:
    """Pad the trailing ``len(pads)`` axes of ``a`` by ``pads[i]`` per side, in one buffer.

    ``"zero"`` fills with zeros and ``"replicate"`` repeats the edge values:
    bitwise what ``np.pad`` gives in its ``constant`` and ``edge`` modes,
    also for pads wider than the extent.
    """
    lead = a.ndim - len(pads)
    shape = a.shape[:lead] + tuple(n + 2 * p for n, p in zip(a.shape[lead:], pads))
    out = np.zeros(shape) if pad_mode == "zero" else np.empty(shape)
    out[(slice(None),) * lead + tuple(slice(p, p + n) for n, p in zip(a.shape[lead:], pads))] = a
    if pad_mode == "replicate":
        # axis by axis over the full extent of the others, so corners come out right
        for axis, p in enumerate(pads, lead):
            if p:
                n = a.shape[axis]
                pre = (slice(None),) * axis
                out[pre + (slice(0, p),)] = out[pre + (slice(p, p + 1),)]
                out[pre + (slice(p + n, None),)] = out[pre + (slice(p + n - 1, p + n),)]
    return out


def _unpad(g: Array, pads: Sequence[int], pad_mode: str) -> Array:
    """Adjoint of ``_pad``: crop the interior, folding replicate pads into the edges."""
    lead = g.ndim - len(pads)
    if pad_mode == "zero":
        return g[(slice(None),) * lead + tuple(slice(p, n - p) for n, p in zip(g.shape[lead:], pads))].copy()
    for axis, p in enumerate(pads, lead):
        n = g.shape[axis] - 2 * p
        pre = (slice(None),) * axis
        d = g[pre + (slice(p, p + n),)].copy()
        if p:
            d[pre + (0,)] += g[pre + (slice(0, p),)].sum(axis=axis)
            d[pre + (-1,)] += g[pre + (slice(p + n, None),)].sum(axis=axis)
        g = d
    return g


@dataclass
class ConvParams1D:
    """Weights of one 1D convolution: kernel (C_out, C_in, K) and bias (C_out,)."""

    kernel: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.kernel.data.ndim != 3:
            raise ShapeError(f"conv1d kernel must be rank 3, got {self.kernel.shape}")
        k = self.kernel.shape[2]
        if k % 2 == 0:
            raise ConfigError(f"conv1d kernel size must be odd for symmetric padding, got {k}")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ShapeError(
                f"conv1d bias shape {self.bias.shape} does not match {self.kernel.shape[0]} output channels"
            )


def conv1d(x: Tensor, params: ConvParams1D, pad_mode: str = "zero") -> Tensor:
    """Same-length 1D convolution over (C_in, L) input.

    ``pad_mode`` is ``"zero"`` or ``"replicate"``; replicate padding keeps
    constant-along-length inputs constant along the full output length.
    """
    w, b = params.kernel, params.bias
    if x.data.ndim != 2:
        raise ShapeError(f"conv1d input must be rank 2 (channels x length), got {x.shape}")
    c_out, c_in, k = w.shape
    if x.shape[0] != c_in:
        raise ShapeError(f"conv1d: input has {x.shape[0]} channels, kernel expects {c_in}")
    if pad_mode not in ("zero", "replicate"):
        raise ConfigError(f"conv1d: unknown pad_mode {pad_mode!r}")
    length = x.shape[1]
    p = (k - 1) // 2
    xp = _pad(x.data, (p,), pad_mode)

    y = np.empty((c_out, length))
    y[...] = b.data[:, None]
    for ki in range(k):
        y += w.data[:, :, ki] @ xp[:, ki : ki + length]
    out = Tensor(y, _needs(x, w, b), (x, w, b), None, "conv1d")

    def backward(g: Array) -> None:
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=1))
        if w.requires_grad:
            dw = np.empty_like(w.data)
            for ki in range(k):
                dw[:, :, ki] = g @ xp[:, ki : ki + length].T
            w.accumulate_grad(dw)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for ki in range(k):
                dxp[:, ki : ki + length] += w.data[:, :, ki].T @ g
            x.accumulate_grad(_unpad(dxp, (p,), pad_mode))

    out._backward = backward
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    dilation: int = 1,
    pad_mode: str = "zero",
) -> Tensor:
    """2D convolution over (C_in, H, W) with symmetric same padding.

    Padding is ``dilation * (K - 1) / 2`` per side, so stride 1 preserves
    the spatial size and stride 2 halves even extents.  ``pad_mode`` is
    ``"zero"`` or ``"replicate"``; replicate removes the border signature
    a zero pad would imprint on edge activations.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d input must be rank 3, got {x.shape}")
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ShapeError(f"conv2d: input has {x.shape[0]} channels, kernel expects {c_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d bias shape {bias.shape} does not match {c_out} output channels")
    if pad_mode not in ("zero", "replicate"):
        raise ConfigError(f"conv2d: unknown pad_mode {pad_mode!r}")
    _, h, w_in = x.shape
    ph = dilation * (kh - 1) // 2
    pw = dilation * (kw - 1) // 2
    xp = _pad(x.data, (ph, pw), pad_mode)
    h_out = (h + 2 * ph - dilation * (kh - 1) - 1) // stride + 1
    w_out = (w_in + 2 * pw - dilation * (kw - 1) - 1) // stride + 1

    y = np.zeros((c_out, h_out, w_out))
    for ki in range(kh):
        for kj in range(kw):
            xs = xp[
                :,
                ki * dilation : ki * dilation + stride * (h_out - 1) + 1 : stride,
                kj * dilation : kj * dilation + stride * (w_out - 1) + 1 : stride,
            ]
            y += np.tensordot(weight.data[:, :, ki, kj], xs, axes=1)
    y += bias.data[:, None, None]
    out = Tensor(y, _needs(x, weight, bias), (x, weight, bias), None, "conv2d")

    def backward(g: Array) -> None:
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)))
        need_x = x.requires_grad
        need_w = weight.requires_grad
        dxp = np.zeros_like(xp) if need_x else None
        dw = np.empty_like(weight.data) if need_w else None
        for ki in range(kh):
            for kj in range(kw):
                sl = (
                    slice(None),
                    slice(ki * dilation, ki * dilation + stride * (h_out - 1) + 1, stride),
                    slice(kj * dilation, kj * dilation + stride * (w_out - 1) + 1, stride),
                )
                if need_w:
                    dw[:, :, ki, kj] = np.tensordot(g, xp[sl], axes=([1, 2], [1, 2]))
                if need_x:
                    dxp[sl] += np.tensordot(weight.data[:, :, ki, kj], g, axes=([0], [0]))
        if need_w:
            weight.accumulate_grad(dw)
        if need_x:
            x.accumulate_grad(_unpad(dxp, (ph, pw), pad_mode))

    out._backward = backward
    return out


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    if not xs:
        raise ShapeError("concat_channels: need at least one tensor")
    tail = xs[0].shape[1:]
    for t in xs:
        if t.shape[1:] != tail:
            raise ShapeError(f"concat_channels: trailing dims differ ({t.shape} vs {xs[0].shape})")
    out = Tensor(np.concatenate([t.data for t in xs], axis=0), _needs(*xs), tuple(xs), None, "concat")
    sizes = [t.shape[0] for t in xs]

    def backward(g: Array) -> None:
        start = 0
        for t, c in zip(xs, sizes):
            if t.requires_grad:
                t.accumulate_grad(g[start : start + c])
            start += c

    out._backward = backward
    return out


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
        out = Tensor(y, x.requires_grad, (x,), None, "pool_width_avg")

        def backward(g: Array) -> None:
            if x.requires_grad:
                x.accumulate_grad(np.broadcast_to(g / w, x.shape).copy())

    else:
        y = x.data.max(axis=2, keepdims=True)
        mask = x.data == y  # ties split the gradient
        counts = mask.sum(axis=2, keepdims=True)
        out = Tensor(y, x.requires_grad, (x,), None, "pool_width_max")

        def backward(g: Array) -> None:
            if x.requires_grad:
                x.accumulate_grad(mask * (g / counts))

    out._backward = backward
    return out


@lru_cache(maxsize=None)
def _resize_plan(n_in: int, n_out: int) -> tuple[Array, Array, Array]:
    """Read-only (taps, weights, matrix) resizing one axis from n_in to n_out.

    Output j is ``sum_k weights[j, k] * x[taps[j, k]]`` over K taps (unused
    taps repeat the first with weight 0); ``matrix`` is the same map as a
    dense (n_out, n_in) array whose rows sum to 1.  Shrinking averages
    adaptive windows; growing or keeping the size blends two neighbours at
    align-to-centers positions, so equal sizes are the identity.
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
    for a in (taps, weights, matrix):
        a.flags.writeable = False
    return taps, weights, matrix


def _resize(x: Tensor, sizes: dict[int, int], op: str) -> Tensor:
    """Resize ``x`` along each axis of ``sizes`` in turn, as one graph node.

    Each output is anchored at its first tap, ``a + sum_k w_k (x_k - a)``,
    so constants come out as the identical constant bit-for-bit; the
    backward pass is one matmul per axis with the plan matrix.
    """
    plans = [(axis, _resize_plan(x.shape[axis], int(n))) for axis, n in sizes.items()]
    y = x.data
    for axis, (taps, weights, _) in plans:
        shape = [1] * y.ndim
        shape[axis] = -1
        anchor = y.take(taps[:, 0], axis=axis)
        acc = anchor
        for k in range(1, taps.shape[1]):
            acc = acc + weights[:, k].reshape(shape) * (y.take(taps[:, k], axis=axis) - anchor)
        y = acc
    out = Tensor(y, x.requires_grad, (x,), None, op)

    def backward(g: Array) -> None:
        if x.requires_grad:
            for axis, (_, _, matrix) in reversed(plans):
                g = np.moveaxis(np.moveaxis(g, axis, -1) @ matrix, -1, axis)
            x.accumulate_grad(g)

    out._backward = backward
    return out


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
    return _resize(x, {1: h_target}, "resample_height")


def upsample2d(x: Tensor, h_out: int, w_out: int) -> Tensor:
    """Separable align-to-centers linear upsampling of a (C, H, W) map."""
    if x.data.ndim != 3:
        raise ShapeError(f"upsample2d input must be rank 3, got {x.shape}")
    _, h, w = x.shape
    if h_out < h or w_out < w:
        raise ConfigError(f"upsample2d: target {h_out}x{w_out} smaller than input {h}x{w}")
    return _resize(x, {1: h_out, 2: w_out}, "upsample2d")


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
    momentum: float = 0.1
    eps: float = 1e-5

    @staticmethod
    def create(channels: int, momentum: float = 0.1, eps: float = 1e-5) -> "BatchNormState":
        return BatchNormState(
            gamma=parameter(np.ones(channels)),
            beta=parameter(np.zeros(channels)),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
            momentum=momentum,
            eps=eps,
        )


def batch_norm1d(x: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Normalize each channel of a (C, L) map across its length axis.

    Training mode normalizes with the current statistics and updates the
    running buffers in place; eval mode applies the frozen running stats.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm1d input must be rank 2, got {x.shape}")
    c, length = x.shape
    if state.gamma.shape != (c,):
        raise ShapeError(f"batch_norm1d: state has {state.gamma.shape[0]} channels, input has {c}")
    gamma, beta = state.gamma, state.beta

    if training:
        mu = x.data.sum(axis=1, keepdims=True) / length
        xc = x.data - mu
        var = (xc * xc).sum(axis=1, keepdims=True) / length
        inv = 1.0 / np.sqrt(var + state.eps)
        xhat = xc * inv
        m = state.momentum
        unbiased = var[:, 0] * (length / (length - 1)) if length > 1 else var[:, 0]
        state.running_mean *= 1.0 - m
        state.running_mean += m * mu[:, 0]
        state.running_var *= 1.0 - m
        state.running_var += m * unbiased
    else:
        inv = 1.0 / np.sqrt(state.running_var[:, None] + state.eps)
        xhat = (x.data - state.running_mean[:, None]) * inv

    y = gamma.data[:, None] * xhat + beta.data[:, None]
    out = Tensor(y, _needs(x, gamma, beta), (x, gamma, beta), None, "batch_norm1d")

    def backward(g: Array) -> None:
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=1))
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=1))
        if x.requires_grad:
            gx = g * gamma.data[:, None]
            if training:
                mean_gx = gx.sum(axis=1, keepdims=True) / length
                mean_gx_xhat = (gx * xhat).sum(axis=1, keepdims=True) / length
                dx = inv * (gx - mean_gx - xhat * mean_gx_xhat)
            else:
                dx = gx * inv
            x.accumulate_grad(dx)

    out._backward = backward
    return out


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator], training: bool) -> Tensor:
    """Inverted dropout; the identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode requires a generator")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * mask, x.requires_grad, (x,), None, "dropout")

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels: Array, ignore_index: int = 255) -> Tensor:
    """Mean pixel cross-entropy of (K, H, W) logits against integer labels.

    Pixels labelled ``ignore_index`` contribute neither loss nor gradient.
    """
    if logits.data.ndim != 3:
        raise ShapeError(f"softmax_cross_entropy logits must be rank 3, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[1:]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    k = logits.shape[0]
    valid = labels != ignore_index
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
    out = Tensor(np.asarray(loss), logits.requires_grad, (logits,), None, "softmax_ce")

    def backward(g: Array) -> None:
        if logits.requires_grad:
            p = np.exp(logp)
            d = p * valid[None, :, :]
            d[labels[rows, cols], rows, cols] -= 1.0
            logits.accumulate_grad(d * (float(g) / count))

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# graph inspection
# ---------------------------------------------------------------------------


def relu_input_margin(root: Tensor) -> float:
    """Smallest |pre-activation| feeding any relu reachable from ``root``.

    Finite-difference gradient checks are only meaningful away from the
    relu kink; callers can resample inputs when this margin is tiny.
    Returns inf when the graph contains no relu.
    """
    margin = np.inf
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == "relu":
            margin = min(margin, float(np.abs(node._parents[0].data).min()))
        stack.extend(node._parents)
    return margin
