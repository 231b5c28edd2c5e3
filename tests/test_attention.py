"""The row-gating pipeline: pooling, coarsening, the conv stack, gating."""

import numpy as np
import numpy.testing as npt
import pytest

from rowgate import attention as attn
from rowgate import posenc
from rowgate.errors import ConfigError, ShapeError
from rowgate.gradcheck import gate_case, gradcheck
from rowgate.tensor import (
    BN_EPS,
    BN_MOMENTUM,
    OPEN_UNIT_MARGIN,
    batch_norm1d,
    clip_open_unit,
    conv1d,
    no_grad,
    pool_width,
    relu,
    relu_input_margin,
    sigmoid,
    tensor,
)


def small_config(**overrides) -> attn.RowGateConfig:
    base = dict(
        in_channels=8,
        out_channels=16,
        coarse_height=4,
        reduction=2,
        pe_mode="none",
        jitter_max=0,
        dropout_p=0.0,
    )
    base.update(overrides)
    return attn.RowGateConfig(**base)


def zeroed_params(config: attn.RowGateConfig) -> attn.RowGateParams:
    params = attn.init_params(config, np.random.default_rng(0))
    for _, p in params.named():
        if "kernel" in _ or "bias" in _:
            p.data[:] = 0.0
    return params


class TestConfig:
    def test_reduction_must_keep_a_channel(self):
        with pytest.raises(ConfigError):
            attn.RowGateConfig(in_channels=4, out_channels=4, reduction=8)

    def test_channel_chain(self):
        cfg = small_config(in_channels=16, reduction=4)
        params = attn.init_params(cfg, np.random.default_rng(1))
        assert params.conv1.kernel.shape == (4, 16, 3)
        assert params.conv2.kernel.shape == (8, 4, 3)
        assert params.conv3.kernel.shape == (16, 8, 3)

    def test_pe_channels_follow_injection_layer(self):
        assert small_config(pe_layer=1).pe_channels == 8
        assert small_config(pe_layer=2).pe_channels == 4
        assert small_config(pe_layer=3).pe_channels == 8

    def test_invalid_pe_layer(self):
        with pytest.raises(ConfigError):
            small_config(pe_layer=4)

    def test_param_count_matches_enumeration(self):
        for pe_mode in ("none", "sinusoidal", "learnable"):
            cfg = small_config(pe_mode=pe_mode)
            params = attn.init_params(cfg, np.random.default_rng(2))
            actual = sum(p.size for _, p in params.named())
            assert actual == attn.param_count(cfg)


class TestWidthPool:
    def test_constant_input(self):
        z = attn.width_pool(tensor(np.full((3, 5, 7), 2.5)))
        npt.assert_array_equal(z.data, np.full((3, 5), 2.5))

    def test_row_index_fill(self):
        x = np.zeros((2, 4, 6))
        for h in range(4):
            x[:, h, :] = h
        z = attn.width_pool(tensor(x))
        for h in range(4):
            npt.assert_array_equal(z.data[:, h], h)

    def test_equals_squeezed_tensor_pool(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6, 9))
        for mode in ("avg", "max"):
            z = attn.width_pool(tensor(x), mode=mode)
            ref = pool_width(tensor(x), mode=mode).data[:, :, 0]
            npt.assert_array_equal(z.data, ref)


class TestCoarsen:
    def test_equal_heights_identity(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(8, 16))
        npt.assert_array_equal(attn.coarsen(tensor(z), 16).data, z)

    def test_block_means(self):
        z = tensor(np.tile([[0.0, 1.0, 2.0, 3.0]], (3, 1)))
        npt.assert_array_equal(attn.coarsen(z, 2).data, np.tile([[0.5, 2.5]], (3, 1)))

    def test_matches_adaptive_pooling_oracle(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(8, 32))
        out = attn.coarsen(tensor(z), 6).data
        for j in range(6):
            start, end = (j * 32) // 6, -((-(j + 1) * 32) // 6)
            npt.assert_allclose(out[:, j], z[:, start:end].mean(axis=1), atol=1e-12)

    def test_coarser_than_input_rejected(self):
        with pytest.raises(ConfigError):
            attn.coarsen(tensor(np.zeros((4, 8))), 9)


class TestAttentionFromContext:
    def test_zero_parameters_give_uniform_half(self):
        cfg = small_config()
        params = zeroed_params(cfg)
        z_hat = tensor(np.random.default_rng(6).normal(size=(8, 4)))
        a = attn.attention_from_context(z_hat, params, cfg, training=False)
        npt.assert_array_equal(a.data, np.full((16, 4), 0.5))

    def test_constant_rows_give_identical_gate_rows(self):
        # replicate padding keeps the conv stack translation-symmetric on
        # row-constant context
        cfg = small_config(coarse_height=6)
        params = attn.init_params(cfg, np.random.default_rng(7))
        col = np.random.default_rng(8).normal(size=(8, 1))
        z_hat = tensor(np.repeat(col, 6, axis=1))
        a = attn.attention_from_context(z_hat, params, cfg, training=False).data
        for j in range(1, 6):
            npt.assert_array_equal(a[:, j], a[:, 0])

    def test_matches_primitive_composition(self):
        cfg = small_config(pe_mode="sinusoidal", pe_layer=2)
        rng = np.random.default_rng(9)
        params = attn.init_params(cfg, rng)
        z_hat = rng.normal(size=(8, 4))

        got = attn.attention_from_context(tensor(z_hat), params, cfg, training=False).data

        q = tensor(z_hat)
        q = relu(batch_norm1d(conv1d(q, params.conv1), params.norm1, False))
        q = posenc.inject(q, params.pe_table)
        q = relu(batch_norm1d(conv1d(q, params.conv2), params.norm2, False))
        q = clip_open_unit(sigmoid(conv1d(q, params.conv3)))
        npt.assert_array_equal(got, q.data)

    def test_train_mode_composition_with_batch_statistics(self):
        cfg = small_config()
        rng = np.random.default_rng(10)
        params = attn.init_params(cfg, rng)
        ref_params = attn.init_params(cfg, np.random.default_rng(10))
        z_hat = rng.normal(size=(8, 4))

        got = attn.attention_from_context(tensor(z_hat), params, cfg, training=True).data

        q = tensor(z_hat)
        q = relu(batch_norm1d(conv1d(q, ref_params.conv1), ref_params.norm1, True))
        q = relu(batch_norm1d(conv1d(q, ref_params.conv2), ref_params.norm2, True))
        q = clip_open_unit(sigmoid(conv1d(q, ref_params.conv3)))
        npt.assert_array_equal(got, q.data)

    def test_output_in_open_unit_interval_even_for_huge_weights(self):
        cfg = small_config()
        params = attn.init_params(cfg, np.random.default_rng(11))
        params.conv3.kernel.data *= 1e6
        params.conv3.bias.data[:] = 1e5
        z_hat = tensor(np.random.default_rng(12).normal(size=(8, 4)))
        a = attn.attention_from_context(z_hat, params, cfg, training=False).data
        assert a.ndim == 2 and np.all(a > 0.0) and np.all(a < 1.0)

    def test_wrong_context_shape_rejected(self):
        cfg = small_config()
        params = attn.init_params(cfg, np.random.default_rng(13))
        with pytest.raises(ShapeError):
            attn.attention_from_context(tensor(np.zeros((8, 5))), params, cfg)


class TestExpandAttention:
    def test_equal_height_identity(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(0.1, 0.9, size=(4, 8))
        npt.assert_array_equal(attn.expand_attention(tensor(a), 8).data, a)

    def test_constant_stays_constant(self):
        a = tensor(np.full((3, 4), 0.25))
        npt.assert_array_equal(attn.expand_attention(a, 11).data, np.full((3, 11), 0.25))

    def test_two_rows_blend_convexly(self):
        a = tensor(np.array([[0.2, 0.8]]))
        out = attn.expand_attention(a, 5).data[0]
        # centers at 0.4k - 0.3 for k=0..4, clamped: weights on row 0 and 1
        expected = np.array([0.2, 0.2 + 0.1 * 0.6, 0.5, 0.8 - 0.1 * 0.6, 0.8])
        npt.assert_allclose(out, expected, atol=1e-12)
        assert np.all(out >= 0.2) and np.all(out <= 0.8)

    def test_shrinking_rejected(self):
        with pytest.raises(ShapeError):
            attn.expand_attention(tensor(np.zeros((2, 8))), 4)


class TestApplyGate:
    def test_unit_gate_is_identity(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 4, 5))
        out = attn.apply_gate(tensor(np.ones((3, 4))), tensor(x))
        npt.assert_array_equal(out.data, x)

    def test_half_gate_halves(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 3, 4))
        out = attn.apply_gate(tensor(np.full((2, 3), 0.5)), tensor(x))
        npt.assert_array_equal(out.data, 0.5 * x)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.0, 1.0, size=(2, 3))
        x = rng.normal(size=(2, 3, 4))
        out = attn.apply_gate(tensor(a), tensor(x)).data
        for c in range(2):
            for h in range(3):
                for w in range(4):
                    assert out[c, h, w] == a[c, h] * x[c, h, w]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attn.apply_gate(tensor(np.ones((2, 3))), tensor(np.zeros((2, 4, 5))))


class TestForward:
    def test_zero_parameters_halve_the_features(self):
        cfg = small_config()
        params = zeroed_params(cfg)
        rng = np.random.default_rng(18)
        x_l = tensor(rng.normal(size=(8, 12, 10)))
        x_h = tensor(rng.normal(size=(16, 12, 10)))
        out, a = attn.forward(x_l, x_h, params, cfg, training=False)
        npt.assert_array_equal(out.data, 0.5 * x_h.data)
        npt.assert_array_equal(a.data, np.full((16, 12), 0.5))

    def test_column_permutation_invariance_avg(self):
        cfg = small_config(pe_mode="sinusoidal")
        params = attn.init_params(cfg, np.random.default_rng(19))
        rng = np.random.default_rng(20)
        # integer-valued rows sum exactly in any order: gate is bitwise equal
        x_l = rng.integers(-4, 5, size=(8, 12, 10)).astype(float)
        x_h = tensor(rng.normal(size=(16, 12, 10)))
        permuted = x_l.copy()
        for c in range(8):
            for h in range(12):
                permuted[c, h] = permuted[c, h][rng.permutation(10)]
        _, a1 = attn.forward(tensor(x_l), x_h, params, cfg, training=False)
        _, a2 = attn.forward(tensor(permuted), x_h, params, cfg, training=False)
        npt.assert_array_equal(a1.data, a2.data)

    def test_column_permutation_invariance_float(self):
        cfg = small_config()
        params = attn.init_params(cfg, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        x_l = rng.normal(size=(8, 8, 16))
        x_h = tensor(rng.normal(size=(16, 8, 16)))
        permuted = np.stack(
            [np.stack([row[rng.permutation(16)] for row in chan]) for chan in x_l]
        )
        _, a1 = attn.forward(tensor(x_l), x_h, params, cfg, training=False)
        _, a2 = attn.forward(tensor(permuted), x_h, params, cfg, training=False)
        npt.assert_allclose(a1.data, a2.data, atol=1e-12)

    def test_eval_mode_is_bitwise_deterministic(self):
        cfg = small_config(pe_mode="sinusoidal", jitter_max=2, dropout_p=0.1)
        params = attn.init_params(cfg, np.random.default_rng(23))
        rng = np.random.default_rng(24)
        x_l = tensor(rng.normal(size=(8, 12, 6)))
        x_h = tensor(rng.normal(size=(16, 12, 6)))
        out1, a1 = attn.forward(x_l, x_h, params, cfg, training=False)
        out2, a2 = attn.forward(x_l, x_h, params, cfg, training=False)
        npt.assert_array_equal(out1.data, out2.data)
        npt.assert_array_equal(a1.data, a2.data)

    def test_row_locality_respects_receptive_field(self):
        # three K=3 convs -> coarse rows farther than 3 from the edited
        # window cannot change (eval mode: normalization is per-position)
        cfg = small_config(coarse_height=8)
        params = attn.init_params(cfg, np.random.default_rng(25))
        rng = np.random.default_rng(26)
        x_l = rng.normal(size=(8, 16, 5))  # rows 2j, 2j+1 pool into coarse row j
        x_h = tensor(rng.normal(size=(16, 16, 5)))
        edited = x_l.copy()
        edited[:, 8:10, :] += rng.normal(size=(8, 2, 5))  # only coarse row 4
        _, a1 = attn.forward(tensor(x_l), x_h, params, cfg, training=False)
        _, a2 = attn.forward(tensor(edited), x_h, params, cfg, training=False)
        coarse1 = attn.attention_from_context(
            attn.coarsen(attn.width_pool(tensor(x_l)), 8), params, cfg, training=False
        ).data
        coarse2 = attn.attention_from_context(
            attn.coarsen(attn.width_pool(tensor(edited)), 8), params, cfg, training=False
        ).data
        changed = np.any(coarse1 != coarse2, axis=0)
        for j in range(8):
            if abs(j - 4) > 3:
                assert not changed[j]
        assert changed[4]

    def test_constant_rows_with_and_without_positional_encoding(self):
        rng = np.random.default_rng(27)
        x_l = np.repeat(rng.normal(size=(8, 1, 6)), 12, axis=1)
        x_h = tensor(rng.normal(size=(16, 12, 6)))

        cfg_none = small_config(coarse_height=4, pe_mode="none")
        params = attn.init_params(cfg_none, np.random.default_rng(28))
        _, a = attn.forward(tensor(x_l), x_h, params, cfg_none, training=False)
        for h in range(1, 12):
            npt.assert_array_equal(a.data[:, h], a.data[:, 0])

        cfg_pe = small_config(coarse_height=4, pe_mode="sinusoidal")
        params_pe = attn.init_params(cfg_pe, np.random.default_rng(28))
        _, a_pe = attn.forward(tensor(x_l), x_h, params_pe, cfg_pe, training=False)
        assert np.any(a_pe.data[:, 0] != a_pe.data[:, 6])

    def test_gate_range_for_random_instances(self):
        rng = np.random.default_rng(29)
        for seed in range(5):
            cfg = small_config(pe_mode=("none", "sinusoidal", "learnable")[seed % 3])
            params = attn.init_params(cfg, np.random.default_rng(seed))
            x_l = tensor(rng.normal(size=(8, 12, 7)))
            x_h = tensor(rng.normal(size=(16, 12, 7)))
            _, a = attn.forward(x_l, x_h, params, cfg, training=False)
            assert a.data.ndim == 2 and np.all((a.data > 0.0) & (a.data < 1.0))


class TestFullPipelineGradients:
    @pytest.mark.parametrize("pe_mode", ["none", "sinusoidal", "learnable"])
    def test_gradients_match_finite_differences(self, pe_mode):
        cfg = small_config(pe_mode=pe_mode)
        case = gate_case(cfg, np.random.default_rng(30), 12, 12, 10)
        assert relu_input_margin(case.f) > 1e-3  # stay clear of the relu kink
        report = gradcheck(case.f, case.params, eps=1e-5, tol=1e-4)
        assert report.passed, report.format()


# ---------------------------------------------------------------------------
# the gate forward restated in plain numpy
# ---------------------------------------------------------------------------


def _np_resize_rows(z, n_out):
    """Anchored height resize: adaptive window means to shrink, align-to-centers blend to grow."""
    n_in = z.shape[1]
    j = np.arange(n_out)
    if n_out < n_in:
        starts = j * n_in // n_out
        counts = -(-((j + 1) * n_in) // n_out) - starts
        taps = [np.where(k < counts, starts + k, starts) for k in range(counts.max())]
        weights = [(k < counts) / counts for k in range(counts.max())]
    else:
        pos = np.clip((j + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        lo = np.minimum(np.floor(pos).astype(int), n_in - 1)
        taps, weights = [lo, np.minimum(lo + 1, n_in - 1)], [1.0 - (pos - lo), pos - lo]
    anchor = z[:, taps[0]]
    out = anchor
    for tap, weight in zip(taps[1:], weights[1:]):
        out = out + weight * (z[:, tap] - anchor)
    return out


def _np_conv_rows(q, kernel, bias):
    """Edge-padded same-length convolution along the rows, one product per tap."""
    length = q.shape[1]
    pad = (kernel.shape[2] - 1) // 2
    padded = np.pad(q, ((0, 0), (pad, pad)), mode="edge")
    y = np.zeros((kernel.shape[0], length))
    for k in range(kernel.shape[2]):
        y += np.dot(kernel[:, :, k], padded[:, k:k + length])
    return y + bias[:, None]


def _np_batch_norm(q, norm, training, buffers):
    """Batch norm of a (C, L) map; in training mode returns the updated running buffers too."""
    mean, var = buffers
    if training:
        n = q.shape[1]
        mu = q.sum(axis=1, keepdims=True) / n
        centred = q - mu
        v = (centred * centred).sum(axis=1, keepdims=True) / n
        xhat = centred * (1.0 / np.sqrt(v + BN_EPS))
        unbiased = v[:, 0] * (n / (n - 1)) if n > 1 else v[:, 0]
        buffers = (mean * (1.0 - BN_MOMENTUM) + BN_MOMENTUM * mu[:, 0],
                   var * (1.0 - BN_MOMENTUM) + BN_MOMENTUM * unbiased)
    else:
        xhat = (q - mean[:, None]) * (1.0 / np.sqrt(var[:, None] + BN_EPS))
    return norm.gamma.data[:, None] * xhat + norm.beta.data[:, None], buffers


def _np_gate(x_l, x_h, params, config, training, buffers):
    """(gated x_h, full-height gate, running buffers after the pass) for an avg-pooled gate."""
    anchor = x_l.max(axis=2, keepdims=True)
    z = (anchor + (x_l - anchor).sum(axis=2, keepdims=True) / x_l.shape[2])[:, :, 0]
    q = _np_resize_rows(z, config.coarse_height)
    layer = 0 if config.pe_mode == "none" else config.pe_layer

    def encode(q, at):
        return q + params.pe_table.data[:q.shape[1]].T if layer == at else q

    q = encode(q, 1)
    q, b1 = _np_batch_norm(_np_conv_rows(q, params.conv1.kernel.data, params.conv1.bias.data),
                           params.norm1, training, buffers[0])
    q = encode(np.where(q > 0.0, q, 0.0), 2)
    q, b2 = _np_batch_norm(_np_conv_rows(q, params.conv2.kernel.data, params.conv2.bias.data),
                           params.norm2, training, buffers[1])
    q = encode(np.where(q > 0.0, q, 0.0), 3)
    d = _np_conv_rows(q, params.conv3.kernel.data, params.conv3.bias.data)
    e = np.exp(-np.abs(d))
    a_hat = np.clip(np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), OPEN_UNIT_MARGIN, 1.0 - OPEN_UNIT_MARGIN)
    a = _np_resize_rows(a_hat, x_h.shape[1])
    return a[:, :, None] * x_h, a, (b1, b2)


class TestForwardIsItsPlainArithmetic:
    """``attention.forward`` is bitwise its arithmetic restated in plain numpy.

    The reference is computed in-process, never stored, because BLAS bits
    differ across hosts.  The configurations are the gradcheck suite's gate
    cases, drawn as it draws them.
    """

    @pytest.mark.parametrize("recorded", [True, False], ids=["graph", "no_grad"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("i, pe_mode", enumerate(["none", "sinusoidal", "learnable"]))
    def test_bitwise(self, i, pe_mode, training, recorded):
        config = small_config(out_channels=6, pe_mode=pe_mode)
        rng = np.random.default_rng(i)
        params = attn.init_params(config, rng)
        x_l, x_h = rng.normal(size=(8, 8, 6)), rng.normal(size=(6, 8, 6))
        norms = (params.norm1, params.norm2)
        for norm in norms:  # running statistics away from their initial zeros and ones
            norm.running_mean[:] = rng.normal(size=norm.running_mean.shape)
            norm.running_var[:] = rng.uniform(0.5, 2.0, size=norm.running_var.shape)
        buffers = [(n.running_mean.copy(), n.running_var.copy()) for n in norms]
        gated, a, after = _np_gate(x_l, x_h, params, config, training, buffers)
        if recorded:
            out, attention = attn.forward(tensor(x_l), tensor(x_h), params, config, training=training)
        else:
            with no_grad():
                out, attention = attn.forward(tensor(x_l), tensor(x_h), params, config, training=training)
        assert out.data.tobytes() == gated.tobytes()
        assert attention.data.tobytes() == a.tobytes()
        for norm, (mean, var) in zip(norms, after):
            assert norm.running_mean.tobytes() == mean.tobytes()
            assert norm.running_var.tobytes() == var.tobytes()
