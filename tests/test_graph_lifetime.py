"""When the autodiff graph is recorded, what it keeps and when it is released.

Inside ``no_grad`` every op returns a constant with bitwise the data it
returns in grad mode.  A recorded graph holds nodes, not op outputs, so
an output no backward closure reads dies with the forward;
``backward()`` frees each node's gradient, closure and parent links once
used, so activations die during the sweep, and refuses to walk a
released graph again.
"""

import json
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from rowgate import config as cfgmod
from rowgate import metrics, posenc
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


def _graph(root: Tensor) -> list:
    """Every graph node reachable from ``root``'s node through the parent nodes."""
    nodes, seen, stack = [], set(), [root._node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            nodes.append(n)
            stack.extend(n.parents)
    return nodes


def _sweep_keeping_graph(root: Tensor) -> None:
    """Reference reverse sweep in the engine's order that keeps every gradient and closure."""
    order, seen, stack = [], set(), [(root._node, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            order.append(n)
        elif id(n) not in seen:
            seen.add(id(n))
            stack.append((n, True))
            stack.extend((p, False) for p in n.parents if id(p) not in seen)
    root._node.accumulate_grad(np.ones_like(root.data))
    for n in reversed(order):
        if n.grad is not None:
            n.backward(n.grad)


def _toy_loss(model, seed=3):
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(model.config.in_channels, 16, 16))
    labels = rng.integers(0, model.config.num_classes, size=(16, 16))
    return softmax_cross_entropy(model.forward(image, training=True, rng=rng), labels)


@pytest.fixture
def outputs(monkeypatch):
    """(op, shape, weak reference to the data, graph node) of every op output built while the test runs."""
    seen, build = [], engine.node

    def recording_node(data, op, *inputs):
        out = build(data, op, *inputs)
        seen.append((op, out.shape, weakref.ref(out.data), out._node))
        return out

    for module in (engine, posenc):
        monkeypatch.setattr(module, "node", recording_node)
    return seen


def _cli_default_loss(model, seed=0):
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(model.config.in_channels, 96, 48))
    labels = rng.integers(0, model.config.num_classes, size=(96, 48))
    return softmax_cross_entropy(model.forward(image, training=True, rng=rng), labels)


class TestNoGrad:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_output_is_a_bitwise_constant(self, name):
        recorded = OPS[name](np.random.default_rng(0))
        assert recorded.requires_grad and recorded._node is not None and recorded._backward is not None
        with no_grad():
            constant = OPS[name](np.random.default_rng(0))
        assert constant.data.tobytes() == recorded.data.tobytes()
        assert constant.shape == recorded.shape and constant.op == recorded.op
        assert not constant.requires_grad
        assert constant._node is None and constant._backward is None

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
        assert OPS["relu"](np.random.default_rng(0))._node is not None

    def test_model_forward_is_bitwise_and_records_nothing(self):
        model = toy_model(seed=1)
        image = np.random.default_rng(2).normal(size=(2, 16, 16))
        recorded = model.forward(image, training=False)
        with no_grad():
            constant = model.forward(image, training=False)
        assert constant.data.tobytes() == recorded.data.tobytes()
        assert constant._node is None

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


class TestLeafGradients:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_leaf_gradients_are_c_ordered_float64(self, name, monkeypatch):
        leaves, accumulate = [], Tensor.accumulate_grad

        def recording_accumulate(t, g):
            leaves.append(t)
            accumulate(t, g)

        monkeypatch.setattr(Tensor, "accumulate_grad", recording_accumulate)
        rng = np.random.default_rng(0)
        out = OPS[name](rng)
        mul(out, engine.tensor(rng.normal(size=out.shape))).sum().backward()
        grads = [t.grad for t in leaves if t.grad is not None]
        assert grads
        for g in grads:
            assert type(g) is np.ndarray and g.dtype == np.float64
            assert g.flags.c_contiguous, g.strides


class TestGraphKeepsOnlyWhatBackwardReads:
    def test_unread_outputs_are_dead_while_the_graph_lives(self, outputs):
        model = ToySegModel.build(cfgmod.build_model_config(cfgmod.resolve(None)))
        loss = _cli_default_loss(model)
        data = {op: [ref for o, _, ref, _ in outputs if o == op] for op in ("conv2d", "relu", "upsample2d")}
        assert [len(data[op]) for op in ("conv2d", "upsample2d")] == [10, 2]
        assert loss._node.parents  # the graph lives
        # every conv but cls feeds a relu; the first upsample is the `up` fed to concat_channels,
        # the second the full-resolution logits
        assert [ref() for ref in data["conv2d"][:9]] == [None] * 9
        assert [ref() for ref in data["upsample2d"]] == [None, None]
        assert all(ref() is not None for ref in data["relu"])  # each next conv reads its input

    def test_cli_default_graph_is_under_4_mib_after_the_forward(self):
        model = ToySegModel.build(cfgmod.build_model_config(cfgmod.resolve(None)))
        _cli_default_loss(model).backward()  # warm the plan caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = _cli_default_loss(model, seed=1)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert loss._node.parents and held < 4.0 * 2**20, held / 2**20


class TestReluInputMargin:
    def test_matches_hand_minimum_and_records_no_graph(self):
        rng = np.random.default_rng(5)
        x, y = _p(rng, 2, 3, 4), _p(rng, 2, 3, 4)
        results = []

        def f():
            results.append(add(relu(scale(x, 2.0)), relu(sub(x, y))).sum())
            return results[-1]

        by_hand = min(np.abs(x.data * 2.0).min(), np.abs(x.data - y.data).min())
        assert relu_input_margin(f) == by_hand
        assert len(results) == 1 and results[0]._node is None
        assert relu_input_margin(lambda: sigmoid(x)) == np.inf

    def test_collector_is_off_after_f_raises(self):
        x = parameter(np.array([[0.5, -2.0]]))

        def f():
            relu(x)
            raise ValueError("inside")

        with pytest.raises(ValueError):
            relu_input_margin(f)
        assert engine._relu_margin is None
        assert relu(x)._node is not None  # and the graph is recorded again


class TestBackwardReleases:
    def test_interior_nodes_drop_grads_and_leaf_grads_are_unchanged(self):
        model = toy_model(seed=0)
        params = [p for _, p in model.named_parameters()]
        _sweep_keeping_graph(_toy_loss(model))
        kept = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None

        loss = _toy_loss(model)
        interior = _graph(loss)
        loss.backward()
        for p, g in zip(params, kept):
            assert p.grad.tobytes() == g.tobytes()
        assert len(interior) > 50
        assert all(n.grad is None and n.backward is None for n in interior)
        assert all(n.parents is None for n in interior)

    def test_every_interior_array_is_dead_when_the_sweep_returns(self, outputs):
        loss = _toy_loss(toy_model(seed=0))
        # Tensor has __slots__ and no __weakref__, so watch the data arrays
        arrays = [ref for _, _, ref, _ in outputs if ref() is not loss.data]
        assert len(arrays) > 50 and any(ref() is not None for ref in arrays)
        loss.backward()
        assert [ref() for ref in arrays if ref() is not None] == []

    def test_loss_side_arrays_die_before_the_stem_is_swept(self, outputs):
        model = toy_model(seed=0)
        loss = _toy_loss(model)
        convs = [(ref, n) for op, _, ref, n in outputs if op == "conv2d"]
        (_, stem), (cls, _) = convs[0], convs[-1]
        (_, full_shape, full, _), upsample_input = ([o for o in outputs if o[0] == "upsample2d"][-1],
                                                    [ref for op, _, ref, _ in outputs if op == "mul"][-1])
        assert len(convs) == 10 and full_shape[1:] == (16, 16)
        watched = {"full-resolution logits": full, "cls": cls, "upsample2d input": upsample_input}
        alive_at_stem, stem_backward = [], stem.backward

        def recording_backward(g):
            alive_at_stem.append([name for name, ref in watched.items() if ref() is not None])
            stem_backward(g)

        stem.backward = recording_backward
        del convs, stem, cls, full, upsample_input
        outputs.clear()
        loss.backward()
        assert alive_at_stem == [[]]

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
        assert len(outputs) == 3 and all(out._node is None for out in outputs)

    def test_draw_clear_still_finds_relu_margins(self):
        model = toy_model(seed=0)
        rng = np.random.default_rng(4)
        case, margin = draw_clear(lambda: toy_model_case(model, rng))
        assert np.isfinite(margin) and margin == relu_input_margin(case.f)
        gradcheck(case.f, case.params[:1])  # its probes run under no_grad
        assert relu_input_margin(case.f) == margin


class TestTracerAdoption:
    """The benchmark's tracer times each op's backward by wrapping ``out._backward``."""

    def test_traced_train_step_times_every_backward_closure(self):
        root = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train_gated", "--seed", "0",
             "--seconds", "1", "--trace", "1"],
            cwd=root, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        values = {name: m["value"] for name, m in report["metrics"].items()}
        assert report["correct"]
        assert values["tensor.graph_nodes"] > 0
        assert values["tensor.backward_used_frac"] == 1.0
        assert values["tensor.conv2d.bwd_ms"] > 0
