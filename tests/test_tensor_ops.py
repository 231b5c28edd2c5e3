"""Forward contracts and gradient checks for the tensor primitives."""

import numpy as np
import numpy.testing as npt
import pytest

from itertools import product

from rowgate.errors import ConfigError, ShapeError
from rowgate.gradcheck import gradcheck
from rowgate.optim import ParamGroup, SGDMomentum, poly_lr
from rowgate.tensor import (
    BN_MOMENTUM,
    BatchNormState,
    ConvParams1D,
    Tensor,
    add,
    batch_norm1d,
    clip_open_unit,
    concat_channels,
    conv1d,
    conv2d,
    dropout,
    mul,
    parameter,
    pool_width,
    relu,
    resample_height,
    reshape,
    scale,
    sigmoid,
    softmax_cross_entropy,
    sub,
    tensor,
    upsample2d,
)
from rowgate.tensor import _pad


def conv_params(kernel, bias) -> ConvParams1D:
    return ConvParams1D(kernel=parameter(kernel), bias=parameter(bias))


def conv1d_loop_oracle(x, w, b):
    """Scalar triple-loop reference for same-length replicate-padded 1D convolution."""
    c_out, c_in, k = w.shape
    length = x.shape[1]
    p = (k - 1) // 2
    out = np.zeros((c_out, length))
    for co in range(c_out):
        for pos in range(length):
            acc = b[co]
            for ci in range(c_in):
                for ki in range(k):
                    src = min(max(pos + ki - p, 0), length - 1)
                    acc += w[co, ci, ki] * x[ci, src]
            out[co, pos] = acc
    return out


class TestConv1d:
    def test_identity_kernel(self):
        params = conv_params([[[0.0, 1.0, 0.0]]], [0.0])
        out = conv1d(tensor([[1.0, 2.0, 3.0]]), params)
        npt.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_box_kernel_with_replicate_padding(self):
        # direct summation with the edges repeated: [1+1+2, 1+2+3, 2+3+3]
        params = conv_params([[[1.0, 1.0, 1.0]]], [0.0])
        out = conv1d(tensor([[1.0, 2.0, 3.0]]), params)
        npt.assert_array_equal(out.data, [[4.0, 6.0, 8.0]])

    def test_zero_kernel_gives_constant_bias(self):
        rng = np.random.default_rng(7)
        params = conv_params(np.zeros((2, 3, 3)), [1.5, -0.25])
        out = conv1d(tensor(rng.normal(size=(3, 9))), params)
        npt.assert_array_equal(out.data, np.repeat([[1.5], [-0.25]], 9, axis=1))

    def test_channel_mismatch_raises(self):
        params = conv_params(np.zeros((2, 3, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            conv1d(tensor(np.zeros((4, 5))), params)

    def test_even_kernel_rejected(self):
        params = conv_params(np.zeros((1, 1, 4)), np.zeros(1))
        with pytest.raises(ConfigError, match="^conv1d kernel extents must be odd"):
            conv1d(tensor(np.zeros((1, 5))), params)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 8))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=4)
        out = conv1d(tensor(x), conv_params(w, b))
        npt.assert_allclose(out.data, conv1d_loop_oracle(x, w, b), atol=1e-12)

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(3)
        params = conv_params(rng.normal(size=(2, 3, 3)), np.zeros(2))
        x = rng.normal(size=(3, 7))
        y = rng.normal(size=(3, 7))
        a, b = 1.7, -0.6
        combined = conv1d(tensor(a * x + b * y), params)
        separate = a * conv1d(tensor(x), params).data + b * conv1d(tensor(y), params).data
        npt.assert_allclose(combined.data, separate, atol=1e-10)

    def test_replicate_padding_preserves_constant_length(self):
        params = conv_params(np.full((1, 1, 3), 0.5), [0.1])
        out = conv1d(tensor(np.full((1, 6), 2.0)), params)
        npt.assert_array_equal(out.data, np.full((1, 6), 3.1))


NP_PAD_MODE = {"replicate": "edge"}


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def conv1d_np_pad_reference(x, w, b, g, pad_mode):
    """``np.pad``-based conv1d forward and (dx, dw, db) for output gradient ``g``."""
    c_out, _, k = w.shape
    length = x.shape[1]
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (p, p)), mode=NP_PAD_MODE[pad_mode])
    y = np.zeros((c_out, length))
    for ki in range(k):
        y += np.dot(w[:, :, ki], xp[:, ki : ki + length])
    y += b[:, None]
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for ki in range(k):
        dw[:, :, ki] = np.dot(g, xp[:, ki : ki + length].T)
        dxp[:, ki : ki + length] += np.dot(w[:, :, ki].T, g)
    dx = dxp[:, p : p + length].copy()
    if pad_mode == "replicate" and p > 0:
        dx[:, 0] += dxp[:, :p].sum(axis=1)
        dx[:, -1] += dxp[:, p + length :].sum(axis=1)
    return y, dx, dw, g.sum(axis=1)


def conv2d_np_pad_reference(x, w, b, g, stride, dilation, pad_mode):
    """``np.pad``-based conv2d forward and (dx, dw, db) for output gradient ``g``."""
    c_out, _, kh, kw = w.shape
    _, h, w_in = x.shape
    ph, pw = dilation * (kh - 1) // 2, dilation * (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)), mode=NP_PAD_MODE[pad_mode])
    h_out, w_out = g.shape[1:]
    y = np.zeros((c_out, h_out, w_out))
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for ki in range(kh):
        for kj in range(kw):
            sl = (
                slice(None),
                slice(ki * dilation, ki * dilation + stride * (h_out - 1) + 1, stride),
                slice(kj * dilation, kj * dilation + stride * (w_out - 1) + 1, stride),
            )
            y += np.tensordot(w[:, :, ki, kj], xp[sl], axes=1)
            dw[:, :, ki, kj] = np.tensordot(g, xp[sl], axes=([1, 2], [1, 2]))
            dxp[sl] += np.tensordot(w[:, :, ki, kj], g, axes=([0], [0]))
    y += b[:, None, None]
    if pad_mode == "replicate" and (ph > 0 or pw > 0):
        rows = dxp[:, ph : ph + h, :].copy()
        rows[:, 0, :] += dxp[:, :ph, :].sum(axis=1)
        rows[:, -1, :] += dxp[:, ph + h :, :].sum(axis=1)
        dx = rows[:, :, pw : pw + w_in].copy()
        dx[:, :, 0] += rows[:, :, :pw].sum(axis=2)
        dx[:, :, -1] += rows[:, :, pw + w_in :].sum(axis=2)
    else:
        dx = dxp[:, ph : ph + h, pw : pw + w_in].copy()
    return y, dx, dw, g.sum(axis=(1, 2))


def output_and_grads(y, inputs, rng):
    """Backpropagate a random output gradient ``g``; return (y, g, input grads)."""
    g = rng.normal(size=y.shape)
    mul(y, tensor(g)).sum().backward()
    return y.data, g, [t.grad for t in inputs]


class TestHandRolledPaddingIsBitwise:
    """The hand-rolled padding reproduces ``np.pad`` and the convolutions built on it."""

    @pytest.mark.parametrize("pad_mode", ["replicate"])
    @pytest.mark.parametrize("shape, n_axes", [((3, 1), 1), ((2, 7), 1), ((1, 1), 2), ((2, 1, 1), 2), ((2, 3, 4), 2)])
    def test_matches_np_pad(self, pad_mode, shape, n_axes):
        x = np.random.default_rng(5).normal(size=shape)
        x.flat[0] = -0.0  # a signed zero must survive the copy
        lead = x.ndim - n_axes
        for pads in product(range(6), repeat=n_axes):
            width = [(0, 0)] * lead + [(p, p) for p in pads]
            assert_bitwise(_pad(x, pads), np.pad(x, width, mode=NP_PAD_MODE[pad_mode]))

    @pytest.mark.parametrize("pad_mode", ["replicate"])
    @pytest.mark.parametrize("k, length", [(1, 4), (3, 1), (3, 6), (5, 2), (7, 5)])
    def test_conv1d(self, pad_mode, k, length):
        rng = np.random.default_rng(k * 10 + length)
        x, p = parameter(rng.normal(size=(3, length))), conv_params(rng.normal(size=(4, 3, k)), rng.normal(size=4))
        y, g, grads = output_and_grads(conv1d(x, p), [x, p.kernel, p.bias], rng)
        expected = conv1d_np_pad_reference(x.data, p.kernel.data, p.bias.data, g, pad_mode)
        for actual, want in zip([y] + grads, expected):
            assert_bitwise(actual, want)

    @pytest.mark.parametrize("pad_mode", ["replicate"])
    @pytest.mark.parametrize(
        "kh, kw, stride, dilation, h, w",
        [(3, 3, 1, 1, 5, 6), (3, 3, 2, 1, 6, 5), (3, 3, 1, 4, 3, 3), (3, 3, 2, 4, 3, 3), (1, 1, 1, 1, 4, 4), (5, 3, 2, 2, 7, 4)],
    )
    def test_conv2d(self, pad_mode, kh, kw, stride, dilation, h, w):
        rng = np.random.default_rng(kh * 1000 + stride * 100 + dilation * 10 + h)
        x = parameter(rng.normal(size=(2, h, w)))
        weight, bias = parameter(rng.normal(size=(3, 2, kh, kw))), parameter(rng.normal(size=3))
        y = conv2d(x, weight, bias, stride=stride, dilation=dilation)
        y, g, grads = output_and_grads(y, [x, weight, bias], rng)
        expected = conv2d_np_pad_reference(x.data, weight.data, bias.data, g, stride, dilation, pad_mode)
        for actual, want in zip([y] + grads, expected):
            assert_bitwise(actual, want)


# Each op on (C, L) data, conv2d with the data and kernel given a unit trailing axis.
CONV_CALLS = {
    "conv1d": lambda x, w, b: conv1d(tensor(x), conv_params(w, b)),
    "conv2d": lambda x, w, b: conv2d(tensor(x[..., None]), parameter(w[..., None]), parameter(b)),
}


class TestOneConvKernel:
    """conv1d and conv2d share one kernel: the same numbers and the same checks."""

    @pytest.mark.parametrize("k, length", [(1, 4), (3, 1), (3, 6), (5, 2), (7, 5)])
    def test_conv1d_is_conv2d_on_a_unit_axis(self, k, length):
        rng = np.random.default_rng(k * 10 + length)
        x, p = parameter(rng.normal(size=(3, length))), conv_params(rng.normal(size=(4, 3, k)), rng.normal(size=4))
        x2, w2, b2 = parameter(x.data[..., None]), parameter(p.kernel.data[..., None]), parameter(p.bias.data)
        # equal seeds draw the same output gradient for both shapes
        one = output_and_grads(conv1d(x, p), [x, p.kernel, p.bias], np.random.default_rng(0))
        two = output_and_grads(conv2d(x2, w2, b2), [x2, w2, b2], np.random.default_rng(0))
        for a, b in zip([one[0]] + one[2], [two[0]] + two[2]):
            assert_bitwise(a, b.reshape(a.shape))

    @pytest.mark.parametrize("op", ["conv1d", "conv2d"])
    @pytest.mark.parametrize(
        "kernel, bias, channels, error, message",
        [
            ((2, 3, 4), 2, 3, ConfigError, "kernel extents must be odd"),
            ((2, 3, 3), 2, 4, ShapeError, ": input has 4 channels, kernel expects 3"),
            ((2, 3, 3), 3, 3, ShapeError, r" bias shape \(3,\) does not match 2 output channels"),
        ],
        ids=["even_extent", "channels", "bias"],
    )
    def test_checks_fire_for_both_ops(self, op, kernel, bias, channels, error, message):
        with pytest.raises(error, match=f"^{op}.*{message}"):
            CONV_CALLS[op](np.zeros((channels, 5)), np.zeros(kernel), np.zeros(bias))


class TestPoolWidth:
    def test_constant_input_exact(self):
        for mode in ("avg", "max"):
            x = tensor(np.full((2, 3, 5), 0.1))
            npt.assert_array_equal(pool_width(x, mode).data, np.full((2, 3, 1), 0.1))

    def test_single_row_values(self):
        x = tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4))
        assert pool_width(x, "avg").data.item() == 2.5
        assert pool_width(x, "max").data.item() == 4.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 5))
        avg = pool_width(tensor(x), "avg").data
        mx = pool_width(tensor(x), "max").data
        for c in range(2):
            for h in range(3):
                acc = 0.0
                best = -np.inf
                for w in range(5):
                    acc += x[c, h, w]
                    best = max(best, x[c, h, w])
                assert abs(avg[c, h, 0] - acc / 5) < 1e-12
                assert mx[c, h, 0] == best

    def test_avg_equals_uniform_matvec(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 6, 10))
        uniform = np.full(10, 0.1)
        npt.assert_allclose(pool_width(tensor(x), "avg").data[:, :, 0], x @ uniform, atol=1e-12)


class TestResampleHeight:
    def test_block_means(self):
        out = resample_height(tensor([[0.0, 1.0, 2.0, 3.0]]), 2)
        npt.assert_array_equal(out.data, [[0.5, 2.5]])

    def test_linear_upsample_golden(self):
        # hand evaluation of align-to-centers interpolation for 2 -> 4 rows
        out = resample_height(tensor([[0.0, 1.0]]), 4)
        npt.assert_array_equal(out.data, [[0.0, 0.25, 0.75, 1.0]])
        assert np.all(np.diff(out.data[0]) >= 0)

    def test_identity_is_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 7))
        npt.assert_array_equal(resample_height(tensor(x), 7).data, x)

    def test_round_trip_preserves_constants_exactly(self):
        rng = np.random.default_rng(2)
        for c in (1.0, 0.5, -2.25, 7.0, 0.1, np.pi, rng.uniform(-5, 5)):
            for h, coarse in ((12, 5), (16, 16), (9, 2), (7, 3)):
                x = tensor(np.full((2, h), c))
                down = resample_height(x, coarse)
                npt.assert_array_equal(down.data, np.full((2, coarse), c))
                back = resample_height(down, h)
                npt.assert_array_equal(back.data, np.full((2, h), c))

    def test_downsample_matches_window_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 32))
        out = resample_height(tensor(x), 5).data
        for j in range(5):
            start = (j * 32) // 5
            end = -((-(j + 1) * 32) // 5)
            expected = x[:, start:end].mean(axis=1)
            npt.assert_allclose(out[:, j], expected, atol=1e-12)


class TestActivations:
    def test_relu_nonnegative_and_values(self):
        x = tensor([[-2.0, -0.5, 0.0, 0.5, 2.0]])
        out = relu(x)
        npt.assert_array_equal(out.data, [[0.0, 0.0, 0.0, 0.5, 2.0]])
        assert np.all(out.data >= 0)

    def test_sigmoid_strictly_inside_unit_interval(self):
        # float64 sigmoid saturates beyond |x| ~ 36; test the representable range
        x = np.linspace(-36, 36, 2001)
        s = sigmoid(tensor(x)).data
        assert np.all(s > 0) and np.all(s < 1)
        npt.assert_allclose(s, 1 / (1 + np.exp(-x)), atol=1e-15)

    def test_clip_open_unit_handles_saturation(self):
        s = clip_open_unit(sigmoid(tensor([[-800.0, 0.0, 800.0]])))
        assert np.all(s.data > 0) and np.all(s.data < 1)
        assert s.data[0, 1] == 0.5


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = tensor(np.arange(6.0).reshape(2, 3))
        assert dropout(x, 0.4, None, training=False) is x
        assert dropout(x, 0.0, None, training=True) is x

    def test_train_mode_masks_and_rescales(self):
        rng = np.random.default_rng(0)
        x = tensor(np.ones((20, 50)))
        out = dropout(x, 0.25, rng, training=True).data
        kept = out != 0.0
        npt.assert_allclose(out[kept], 1.0 / 0.75)
        assert 0.6 < kept.mean() < 0.9

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            dropout(tensor(np.ones((2, 2))), 1.0, np.random.default_rng(0), training=True)


class TestBatchNorm:
    def test_train_normalizes_each_channel(self):
        rng = np.random.default_rng(6)
        state = BatchNormState.create(3)
        x = tensor(rng.normal(loc=2.0, scale=4.0, size=(3, 64)))
        y = batch_norm1d(x, state, training=True).data
        npt.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        npt.assert_allclose(y.var(axis=1), 1.0, atol=1e-3)

    def test_eval_uses_running_statistics(self):
        state = BatchNormState.create(2)
        state.running_mean[:] = [1.0, -1.0]
        state.running_var[:] = [4.0, 0.25]
        x = tensor(np.array([[1.0, 3.0], [-1.0, 0.0]]))
        y = batch_norm1d(x, state, training=False).data
        expected = (x.data - state.running_mean[:, None]) / np.sqrt(state.running_var[:, None] + 1e-5)
        npt.assert_allclose(y, expected, atol=1e-12)

    def test_running_stats_move_in_training(self):
        rng = np.random.default_rng(8)
        state = BatchNormState.create(2)
        batch_norm1d(tensor(rng.normal(loc=3.0, size=(2, 32))), state, training=True)
        assert not np.allclose(state.running_mean, 0.0)

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_running_update_is_pinned_bitwise(self, length):
        # r <- r * (1 - momentum) + momentum * term, with the unbiased variance as
        # the variance term; at length 1 that is the biased one, which is zero
        rng = np.random.default_rng(length)
        state = BatchNormState.create(3)
        state.running_mean[:] = rng.normal(size=3)
        state.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        mean0, var0 = state.running_mean.copy(), state.running_var.copy()
        x = rng.normal(size=(3, length))
        batch_norm1d(tensor(x), state, training=True)
        mean = x.sum(axis=1) / length
        centred = x - mean[:, None]
        var = (centred * centred).sum(axis=1) / length
        unbiased = var * (length / (length - 1)) if length > 1 else var
        assert_bitwise(state.running_mean, mean0 * (1.0 - BN_MOMENTUM) + BN_MOMENTUM * mean)
        assert_bitwise(state.running_var, var0 * (1.0 - BN_MOMENTUM) + BN_MOMENTUM * unbiased)
        if length == 1:
            assert_bitwise(state.running_var, var0 * (1.0 - BN_MOMENTUM))


class TestElementwise:
    def test_row_broadcast_over_width(self):
        gate = tensor(np.array([[0.5, 2.0], [1.0, 0.0]]))
        x = tensor(np.arange(12.0).reshape(2, 2, 3))
        out = mul(gate, x)
        npt.assert_array_equal(out.data, gate.data[:, :, None] * x.data)
        out = add(gate, x)
        npt.assert_array_equal(out.data, gate.data[:, :, None] + x.data)

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ShapeError):
            mul(tensor(np.zeros((2, 3))), tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            add(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 4, 5))))
        with pytest.raises(ShapeError, match="^sub:"):
            sub(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 4, 5))))

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (2, 3, 4)), ((2, 3), (2, 3, 4)), ((2, 3, 4), (2, 3))],
                             ids=["same", "row_minus_map", "map_minus_row"])
    def test_sub_is_bitwise_add_of_negation(self, shapes):
        # one sub node must give what add(a, scale(b, -1)) gives, bit for bit,
        # forward and backward, signed zeros and infinities included
        rng = np.random.default_rng(21)
        specials = np.array([0.0, -0.0, np.inf, -np.inf])

        def draw(shape):
            v = rng.normal(size=shape).reshape(-1)
            v[rng.choice(v.size, v.size // 2, replace=False)] = rng.choice(specials, v.size // 2)
            return v.reshape(shape)

        a_data, b_data = draw(shapes[0]), draw(shapes[1])
        weights = draw(np.broadcast_shapes(shapes[0] + (1,) * (3 - len(shapes[0])),
                                           shapes[1] + (1,) * (3 - len(shapes[1]))))
        weights[0, 0, :2] = np.inf, -np.inf  # a NaN gradient, summed or not
        weights[0, 1, :] = -0.0  # a -0 gradient, summed or not
        results = []
        for op in (sub, lambda a, b: add(a, scale(b, -1.0))):
            a, b = parameter(a_data.copy()), parameter(b_data.copy())
            with np.errstate(invalid="ignore"):
                out = op(a, b)
                mul(out, tensor(weights)).sum().backward()
            results.append([out.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()])
        assert results[0] == results[1]

    @pytest.mark.parametrize("op, expected", [
        (lambda x: mul(x, x), lambda d: 2.0 * d),
        (lambda x: add(x, x), lambda d: np.full_like(d, 2.0)),
        (lambda x: sub(x, x), np.zeros_like),
        (lambda x: concat_channels([x, x]), lambda d: np.full_like(d, 2.0)),
    ], ids=["mul", "add", "sub", "concat"])
    def test_input_passed_twice_gets_both_terms(self, op, expected):
        data = np.random.default_rng(22).normal(size=(2, 3, 4))
        x = parameter(data)
        op(x).sum().backward()
        npt.assert_array_equal(x.grad, expected(data))

    @pytest.mark.parametrize("op", [mul, add, sub, lambda a, b: concat_channels([a, b])],
                             ids=["mul", "add", "sub", "concat"])
    def test_constant_beside_parameter_gets_no_gradient(self, op):
        for const_first in (True, False):
            c, p = tensor(np.full((2, 3), 2.0)), parameter(np.full((2, 3), 3.0))
            op(*((c, p) if const_first else (p, c))).sum().backward()
            assert c.grad is None and p.grad is not None


class TestUpsample2d:
    def test_factor_two_golden(self):
        x = tensor(np.array([[0.0, 2.0], [4.0, 6.0]]).reshape(1, 2, 2))
        out = upsample2d(x, 4, 4).data[0]
        # rows/cols follow the same 0, 0.25, 0.75, 1 blend as 1D resampling
        npt.assert_allclose(out[:, 0], [0.0, 1.0, 3.0, 4.0])
        npt.assert_allclose(out[0, :], [0.0, 0.5, 1.5, 2.0])

    def test_constant_preserved(self):
        x = tensor(np.full((3, 4, 5), 0.3))
        npt.assert_array_equal(upsample2d(x, 9, 11).data, np.full((3, 9, 11), 0.3))


class TestSoftmaxCrossEntropy:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(4, 3, 5))
        labels = rng.integers(0, 4, size=(3, 5))
        labels[0, 0] = 255
        loss = softmax_cross_entropy(tensor(logits), labels).item()
        ref = 0.0
        n = 0
        for h in range(3):
            for w in range(5):
                if labels[h, w] == 255:
                    continue
                z = logits[:, h, w]
                ref += -(z[labels[h, w]] - np.log(np.exp(z - z.max()).sum()) - z.max())
                n += 1
        npt.assert_allclose(loss, ref / n, atol=1e-12)

    def test_all_ignored_raises(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(tensor(np.zeros((2, 2, 2))), np.full((2, 2), 255))

    def test_out_of_range_label_raises(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(tensor(np.zeros((2, 2, 2))), np.full((2, 2), 7))


class TestPrimitiveGradients:
    """Central finite differences agree with every primitive's backward.

    Ten seeded trials per primitive, ten primitives: 100 checks total.
    """

    TRIALS = 10

    def _check(self, build, n_params):
        worst = 0.0
        for seed in range(self.TRIALS):
            rng = np.random.default_rng(1000 + seed)
            f, params = build(rng)
            report = gradcheck(f, params, eps=1e-5, tol=1e-4)
            worst = max(worst, report.max_rel_error)
            assert report.passed, report.format()
            assert len(report.params) == n_params
        assert worst < 1e-4

    def test_conv1d(self):
        def build(rng):
            x = parameter(rng.normal(size=(3, 6)))
            p = conv_params(rng.normal(size=(2, 3, 3)), rng.normal(size=2))
            t = rng.normal(size=(2, 6))

            def f():
                d = conv1d(x, p) - tensor(t)
                return mul(d, d).mean()

            return f, [("x", x), ("kernel", p.kernel), ("bias", p.bias)]

        self._check(build, 3)

    def test_conv1d_replicate(self):
        def build(rng):
            x = parameter(rng.normal(size=(2, 5)))
            p = conv_params(rng.normal(size=(2, 2, 3)), rng.normal(size=2))

            def f():
                return conv1d(x, p).mean()

            return f, [("x", x), ("kernel", p.kernel), ("bias", p.bias)]

        self._check(build, 3)

    def test_conv2d(self):
        def build(rng):
            stride = 1 + (rng.integers(0, 2))
            dilation = 1 + (rng.integers(0, 2))
            x = parameter(rng.normal(size=(2, 6, 6)))
            w = parameter(rng.normal(size=(3, 2, 3, 3)))
            b = parameter(rng.normal(size=3))
            t = None

            def f():
                nonlocal t
                y = conv2d(x, w, b, stride=int(stride), dilation=int(dilation))
                if t is None:
                    t = np.random.default_rng(0).normal(size=y.shape)
                d = y - tensor(t)
                return mul(d, d).mean()

            return f, [("x", x), ("w", w), ("b", b)]

        self._check(build, 3)

    def test_pool_width(self):
        def build(rng):
            mode = "avg" if rng.integers(0, 2) == 0 else "max"
            x = parameter(rng.normal(size=(2, 4, 5)))

            def f():
                return pool_width(x, mode).mean()

            return f, [("x", x)]

        self._check(build, 1)

    def test_resample_height(self):
        def build(rng):
            h = int(rng.integers(4, 10))
            target = int(rng.integers(1, 14))
            x = parameter(rng.normal(size=(3, h)))

            def f():
                y = resample_height(x, target)
                return mul(y, y).mean()

            return f, [("x", x)]

        self._check(build, 1)

    def test_activations_and_clip(self):
        def build(rng):
            x = parameter(rng.normal(size=(3, 7)) + 0.05 * np.sign(rng.normal(size=(3, 7))))

            def f():
                return mul(relu(x), sigmoid(clip_open_unit(sigmoid(x)))).mean()

            return f, [("x", x)]

        self._check(build, 1)

    def test_batch_norm_train_and_eval(self):
        def build(rng):
            training = bool(rng.integers(0, 2))
            state = BatchNormState.create(3)
            state.running_mean[:] = rng.normal(size=3)
            state.running_var[:] = rng.uniform(0.5, 2.0, size=3)
            x = parameter(rng.normal(size=(3, 6)))

            def f():
                y = batch_norm1d(x, state, training=training)
                return mul(y, y).mean()

            return f, [("x", x), ("gamma", state.gamma), ("beta", state.beta)]

        self._check(build, 3)

    def test_softmax_cross_entropy(self):
        def build(rng):
            logits = parameter(rng.normal(size=(4, 3, 4)))
            labels = rng.integers(0, 4, size=(3, 4))
            labels[0, 0] = 255

            def f():
                return softmax_cross_entropy(logits, labels)

            return f, [("logits", logits)]

        self._check(build, 1)

    def test_upsample_and_concat(self):
        def build(rng):
            a = parameter(rng.normal(size=(2, 3, 4)))
            b = parameter(rng.normal(size=(1, 3, 4)))

            def f():
                y = upsample2d(concat_channels([a, b]), 5, 7)
                return mul(y, y).mean()

            return f, [("a", a), ("b", b)]

        self._check(build, 2)

    def test_elementwise_and_reshape(self):
        def build(rng):
            gate = parameter(rng.normal(size=(2, 3)))
            x = parameter(rng.normal(size=(2, 3, 4)))

            def f():
                y = add(gate, mul(gate, x))
                return mul(reshape(y, (6, 4)), reshape(y, (6, 4))).mean()

            return f, [("gate", gate), ("x", x)]

        self._check(build, 2)


class TestSGDMomentum:
    def test_single_step_matches_hand_computation(self):
        p = parameter(np.array([1.0, -2.0]))
        p.grad = np.array([0.5, 0.5])
        opt = SGDMomentum([ParamGroup("main", [("p", p)], weight_decay=0.1)])
        opt.step(lr=0.1)
        # v = g + wd*p = [0.6, 0.3]; p = p - 0.1*v
        npt.assert_allclose(p.data, [1.0 - 0.06, -2.0 - 0.03], atol=1e-15)
        p.grad = np.array([0.0, 0.0])
        opt.step(lr=0.1)
        # v = 0.9*v + wd*p_new
        v = 0.9 * np.array([0.6, 0.3]) + 0.1 * np.array([0.94, -2.03])
        npt.assert_allclose(p.data, np.array([0.94, -2.03]) - 0.1 * v, atol=1e-15)

    def test_groups_keep_their_decay(self):
        p1, p2 = parameter(np.ones(2)), parameter(np.ones(2))
        opt = SGDMomentum(
            [
                ParamGroup("main", [("p1", p1)], weight_decay=5e-4),
                ParamGroup("attn", [("p2", p2)], weight_decay=1e-4),
            ]
        )
        decays = {g.name: g.weight_decay for g in opt.groups}
        assert decays == {"main": 5e-4, "attn": 1e-4}


class TestPolyLR:
    def test_schedule_endpoints_and_midpoint(self):
        assert poly_lr(0, 1e-2, 1000) == 1e-2
        assert poly_lr(1000, 1e-2, 1000) == 0.0
        npt.assert_allclose(poly_lr(500, 1e-2, 1000), 5.358867312681466e-3, rtol=1e-12)

    def test_out_of_range_iteration(self):
        with pytest.raises(ConfigError):
            poly_lr(-1, 1e-2, 10)
