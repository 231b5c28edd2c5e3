"""When the autodiff graph is recorded and when it is released.

Inside ``no_grad`` every op returns a constant with bitwise the data it
returns in grad mode; ``backward()`` frees each interior node's gradient,
closure and parent links once used, so activations die during the sweep,
and refuses to walk a released graph again.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from rowgate import config as cfgmod
from rowgate import metrics
from rowgate import tensor as engine
from rowgate.attention import GateSettings
from rowgate.data import synth_banded
from rowgate.errors import RowGateError
from rowgate.gradcheck import draw_clear, gradcheck, toy_model, toy_model_case
from rowgate.metrics import confusion_matrix, evaluate
from rowgate.net import ToySegConfig, ToySegModel
from rowgate.posenc import inject, learnable_table
from rowgate.tensor import (
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
    mean_all,
    mul,
    no_grad,
    parameter,
    pool_width,
    relu,
    relu_input_margin,
    resample_height,
    reshape,
    scale,
    sigmoid,
    softmax_cross_entropy,
    sub,
    sum_all,
    upsample2d,
)
from test_tensor_ops import assert_bitwise, conv1d_np_pad_reference, conv2d_np_pad_reference, output_and_grads


def _p(rng, *shape):
    return parameter(rng.normal(size=shape))


def _batch_norm(training):
    def build(rng):
        state = BatchNormState.create(3)
        state.running_mean[:], state.running_var[:] = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        return batch_norm1d(_p(rng, 3, 5), state, training)

    return build


# Each builds one op's output from inputs drawn from ``rng`` alone.
OPS = {
    "add": lambda rng: add(_p(rng, 2, 3, 4), _p(rng, 2, 3)),
    "mul": lambda rng: mul(_p(rng, 2, 3, 4), _p(rng, 2, 3, 4)),
    "sub": lambda rng: sub(_p(rng, 2, 3), _p(rng, 2, 3, 4)),
    "scale": lambda rng: scale(_p(rng, 2, 3), 1.5),
    "reshape": lambda rng: reshape(_p(rng, 2, 6), (3, 4)),
    "sum_all": lambda rng: sum_all(_p(rng, 2, 3)),
    "mean_all": lambda rng: mean_all(_p(rng, 2, 3)),
    "relu": lambda rng: relu(_p(rng, 2, 3, 4)),
    "sigmoid": lambda rng: sigmoid(_p(rng, 2, 3, 4)),
    "clip_open_unit": lambda rng: clip_open_unit(parameter(rng.uniform(-0.5, 1.5, size=(2, 5)))),
    "conv1d": lambda rng: conv1d(_p(rng, 3, 7), ConvParams1D(_p(rng, 2, 3, 3), _p(rng, 2))),
    "conv2d": lambda rng: conv2d(_p(rng, 3, 6, 6), _p(rng, 4, 3, 3, 3), _p(rng, 4), stride=2),
    "concat_channels": lambda rng: concat_channels([_p(rng, 2, 3, 4), _p(rng, 1, 3, 4)]),
    "pool_width_avg": lambda rng: pool_width(_p(rng, 2, 3, 5), "avg"),
    "pool_width_max": lambda rng: pool_width(_p(rng, 2, 3, 5), "max"),
    "resample_height": lambda rng: resample_height(_p(rng, 3, 8), 3),
    "upsample2d": lambda rng: upsample2d(_p(rng, 2, 3, 4), 6, 8),
    "batch_norm1d_train": _batch_norm(True),
    "batch_norm1d_eval": _batch_norm(False),
    "dropout": lambda rng: dropout(_p(rng, 2, 3, 4), 0.3, rng, training=True),
    "softmax_cross_entropy": lambda rng: softmax_cross_entropy(_p(rng, 3, 4, 5), rng.integers(0, 3, size=(4, 5))),
    "inject": lambda rng: inject(_p(rng, 4, 6), learnable_table(6, 4, rng), rng.integers(0, 6, size=6)),
}


def _graph(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root`` through its parents."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


def _sweep_keeping_graph(root: Tensor) -> None:
    """Reference reverse sweep in the engine's order that keeps every gradient and closure."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
        elif id(t) not in seen:
            seen.add(id(t))
            stack.append((t, True))
            stack.extend((p, False) for p in t._parents if id(p) not in seen and p.requires_grad)
    root.accumulate_grad(np.ones_like(root.data))
    for t in reversed(order):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def _toy_loss(model, seed=3):
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(model.config.in_channels, 16, 16))
    labels = rng.integers(0, model.config.num_classes, size=(16, 16))
    return softmax_cross_entropy(model.forward(image, training=True, rng=rng), labels)


class TestNoGrad:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_output_is_a_bitwise_constant(self, name):
        recorded = OPS[name](np.random.default_rng(0))
        assert recorded.requires_grad and recorded._parents and recorded._backward is not None
        with no_grad():
            constant = OPS[name](np.random.default_rng(0))
        assert constant.data.tobytes() == recorded.data.tobytes()
        assert constant.shape == recorded.shape and constant.op == recorded.op
        assert not constant.requires_grad
        assert constant._parents == () and constant._backward is None

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_output_is_c_ordered_float64(self, name):
        # node stores an op's data as given, so each op must compute it in this layout
        recorded = OPS[name](np.random.default_rng(0))
        with no_grad():
            constant = OPS[name](np.random.default_rng(0))
        for out in (recorded, constant):
            assert type(out.data) is np.ndarray and out.data.dtype == np.float64
            assert out.data.flags.c_contiguous

    def test_flag_is_restored_after_an_error(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("inside")
        assert OPS["relu"](np.random.default_rng(0))._parents

    def test_model_forward_is_bitwise_and_records_nothing(self):
        model = toy_model(seed=1)
        image = np.random.default_rng(2).normal(size=(2, 16, 16))
        recorded = model.forward(image, training=False)
        with no_grad():
            constant = model.forward(image, training=False)
        assert constant.data.tobytes() == recorded.data.tobytes()
        assert _graph(constant) == [constant]

    def test_eval_forward_peaks_lower(self):
        config = cfgmod.build_model_config(cfgmod.resolve(None))
        model = ToySegModel.build(config)
        image = np.random.default_rng(0).normal(size=(config.in_channels, 96, 48))
        model.forward(image, training=False)  # warm the plan caches outside the measurement
        peaks = {}
        tracemalloc.start()
        try:
            for mode in ("graph", "no_grad"):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                if mode == "graph":
                    out = model.forward(image, training=False)
                else:
                    with no_grad():
                        out = model.forward(image, training=False)
                peaks[mode] = tracemalloc.get_traced_memory()[1] - base
                del out
        finally:
            tracemalloc.stop()
        assert peaks["no_grad"] < peaks["graph"], peaks


class TestBackwardReleases:
    def test_interior_nodes_drop_grads_and_leaf_grads_are_unchanged(self):
        model = toy_model(seed=0)
        params = [p for _, p in model.named_parameters()]
        _sweep_keeping_graph(_toy_loss(model))
        kept = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None

        loss = _toy_loss(model)
        interior = [t for t in _graph(loss) if t._parents]  # a swept root reaches nothing
        loss.backward()
        for p, g in zip(params, kept):
            assert p.grad.tobytes() == g.tobytes()
        assert len(interior) > 50
        assert all(t.grad is None and t._backward is None for t in interior)
        assert all(t._parents is None for t in interior)

    def test_every_interior_array_is_dead_when_the_sweep_returns(self):
        loss = _toy_loss(toy_model(seed=0))
        # Tensor has __slots__ and no __weakref__, so watch the data arrays
        arrays = [weakref.ref(t.data) for t in _graph(loss) if t._parents and t is not loss]
        assert len(arrays) > 50 and all(ref() is not None for ref in arrays)
        loss.backward()
        assert [ref() for ref in arrays if ref() is not None] == []

    def test_loss_side_arrays_die_before_the_stem_is_swept(self):
        model = toy_model(seed=0)
        loss = _toy_loss(model)
        nodes = _graph(loss)
        full = loss._parents[0]
        cls, stem = ([t for t in nodes if t.op == "conv2d" and model.layers[name].weight in t._parents][0]
                     for name in ("cls", "stem"))
        assert full.op == "upsample2d" and full.shape[1:] == (16, 16)
        watched = {"full-resolution logits": weakref.ref(full.data), "cls": weakref.ref(cls.data),
                   "upsample2d input": weakref.ref(full._parents[0].data)}
        alive_at_stem, stem_backward = [], stem._backward

        def recording_backward(g):
            alive_at_stem.append([name for name, ref in watched.items() if ref() is not None])
            stem_backward(g)

        stem._backward = recording_backward
        del nodes, full, cls, stem
        loss.backward()
        assert alive_at_stem == [[]]

    def test_relu_input_margin_of_a_swept_graph_raises(self):
        model = toy_model(seed=0)
        loss = _toy_loss(model)
        assert np.isfinite(relu_input_margin(loss))
        loss.backward()
        with pytest.raises(RowGateError, match="released graph.*'softmax_ce'"):
            relu_input_margin(loss)

    def test_second_backward_raises_and_leaves_leaf_grads_alone(self):
        x = parameter(np.array([[0.5, -1.0, 2.0]]))
        loss = mul(relu(x), x).sum()
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(RowGateError, match="released graph.*'sum'"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, grad)

    def test_a_graph_shared_with_a_swept_one_raises(self):
        x = parameter(np.array([[1.0, 2.0]]))
        hidden = sigmoid(x)
        hidden.sum().backward()
        with pytest.raises(RowGateError, match="'sigmoid'"):
            mul(hidden, hidden).sum().backward()


class TestConvKeepsNoPaddedInput:
    """A recorded convolution lets its padded input go with the forward and pads again in backward."""

    @pytest.fixture
    def pads(self, monkeypatch):
        """Weak references to every array ``_pad`` returns while the test runs."""
        refs, pad = [], engine._pad

        def recording_pad(a, widths):
            out = pad(a, widths)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(engine, "_pad", recording_pad)
        return refs

    @pytest.mark.parametrize("k, length", [(3, 6), (5, 2)])
    def test_conv1d(self, pads, k, length):
        rng = np.random.default_rng(k * 10 + length)
        x, kernel, bias = _p(rng, 3, length), _p(rng, 4, 3, k), _p(rng, 4)
        y = conv1d(x, ConvParams1D(kernel, bias))
        assert len(pads) == 1 and pads[0]() is None
        assert y._backward is not None
        y, g, grads = output_and_grads(y, [x, kernel, bias], rng)
        expected = conv1d_np_pad_reference(x.data, kernel.data, bias.data, g, "replicate")
        for actual, want in zip([y] + grads, expected):
            assert_bitwise(actual, want)

    @pytest.mark.parametrize("stride, dilation, h, w", [(1, 1, 5, 6), (2, 1, 6, 5), (1, 4, 3, 3), (2, 4, 3, 3)])
    def test_conv2d(self, pads, stride, dilation, h, w):
        rng = np.random.default_rng(3000 + stride * 100 + dilation * 10 + h)
        x, weight, bias = _p(rng, 2, h, w), _p(rng, 3, 2, 3, 3), _p(rng, 3)
        y = conv2d(x, weight, bias, stride=stride, dilation=dilation)
        assert len(pads) == 1 and pads[0]() is None
        assert y._backward is not None
        y, g, grads = output_and_grads(y, [x, weight, bias], rng)
        expected = conv2d_np_pad_reference(x.data, weight.data, bias.data, g, stride, dilation, "replicate")
        for actual, want in zip([y] + grads, expected):
            assert_bitwise(actual, want)


class TestCallSites:
    def test_evaluate_records_no_graph_and_keeps_its_confusion(self, monkeypatch):
        cfg = ToySegConfig(num_classes=6, widths=(4, 6, 6), gate_layers=frozenset({1, 5}),
                           gate=GateSettings(coarse_height=2, reduction=2), seed=0)
        model = ToySegModel.build(cfg)
        data = synth_banded(seed=1, n_images=3, height=16, width=16)
        expected = sum(confusion_matrix(model.forward(s.image).data.argmax(axis=0), s.label, 6)
                       for s in data)
        outputs, forward = [], model.forward

        def recording_forward(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(model, "forward", recording_forward)
        monkeypatch.setattr(metrics, "fork_map", lambda fn, jobs, min_jobs: map(fn, jobs))
        report = evaluate(model, data)
        np.testing.assert_array_equal(report.confusion, expected)
        assert len(outputs) == 3 and all(out._parents == () for out in outputs)

    def test_draw_clear_still_finds_relu_margins(self):
        model = toy_model(seed=0)
        rng = np.random.default_rng(4)
        case, margin = draw_clear(lambda: toy_model_case(model, rng))
        assert np.isfinite(margin) and margin == relu_input_margin(case.f())
        gradcheck(case.f, case.params[:1])  # its probes run under no_grad
        assert relu_input_margin(case.f()) == margin
