"""The fork-map helper, and the evaluation and training that run through it."""

import os

import numpy as np
import pytest

from rowgate.attention import GateSettings
from rowgate.data import Sample, synth_banded
from rowgate.errors import NumericalError, ShapeError
from rowgate.gradcheck import gradcheck
from rowgate.metrics import evaluate
from rowgate.net import ToySegConfig, ToySegModel
from rowgate.parallel import fork_map
from rowgate.tensor import mul, parameter, tensor
from rowgate.train import TrainConfig, train
from test_gradcheck import force_workers


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_model(gates=frozenset({1, 5})):
    return ToySegModel.build(ToySegConfig(num_classes=6, widths=(4, 6, 6), gate_layers=gates,
                                          gate=GateSettings(coarse_height=2, reduction=2), seed=3))


def val_images(n=5):
    """Labelled 16x16 images with ignore pixels, and class 5 absent, so one IoU is NaN."""
    data = []
    for sample in synth_banded(seed=4, n_images=n, height=16, width=16):
        label = sample.label.copy()
        label[label == 5] = 255
        label[:2, :3] = 255
        data.append(Sample(image=sample.image, label=label))
    return data


def report_bits(report):
    """Every field of an EvalReport, floats as exact bit patterns."""
    return (report.confusion.tobytes(), report.per_class_iou.tobytes(), report.miou.hex(),
            [v.hex() for v in report.per_region_miou], report.pixel_accuracy.hex())


class Failing:
    """A model whose forward passes fail in forked workers only."""

    def __init__(self, model, fail):
        self.model, self.fail, self.config, self.parent = model, fail, model.config, os.getpid()

    def forward(self, image, training):
        if os.getpid() != self.parent:
            if self.fail == "raise":
                raise RuntimeError("worker only")
            os._exit(1 if self.fail == "exit" else 0)  # "quiet": status 0 but no result
        return self.model.forward(image, training=training)


class TestForkMap:
    def test_results_in_job_order_for_any_worker_count(self, monkeypatch):
        for n in (1, 2, 3, 8):
            forks = force_workers(monkeypatch, n)
            assert list(fork_map(lambda j: (j, j * j), range(7), 2)) == [(j, j * j) for j in range(7)]
            assert len(forks) == min(n, 7) - 1
            no_child_left()

    def test_below_min_jobs_stays_in_process(self, monkeypatch):
        forks = force_workers(monkeypatch, 3)
        assert list(fork_map(lambda j: os.getpid(), [0, 0, 0], 4)) == [os.getpid()] * 3
        assert forks == []

    def test_a_worker_does_not_fork_again(self, monkeypatch):
        forks = force_workers(monkeypatch, 2)

        def nested(job):
            before = len(forks)  # the worker's own copy of the list
            inner = list(fork_map(lambda x: 2 * x, [1, 2, 3, 4], 2))
            return os.getpid(), len(forks) - before, inner

        (caller, caller_forks, _), (worker, worker_forks, inner) = fork_map(nested, [0, 1], 2)
        assert caller == os.getpid() and caller_forks == 1
        assert worker != os.getpid() and worker_forks == 0 and inner == [2, 4, 6, 8]
        no_child_left()

    def test_an_error_in_the_callers_chunk_waits_for_its_turn(self, monkeypatch):
        # chunk 0 holds all of a and the start of b; b[100] raises there, but a
        # sequential gradcheck first finishes a, whose four-point probe is inf
        rng = np.random.default_rng(8)
        a, b = parameter(rng.normal(size=10)), parameter(rng.normal(size=300))
        a3, b100 = a.data[3], b.data[100]

        def f():
            if b.data[100] != b100:
                raise ValueError("b[100] moved")
            if abs(a.data[3] - a3) > 1.5e-5:
                return tensor(np.asarray(np.inf))
            return mul(a, a).sum() + mul(b, b).sum() + tensor(np.asarray(float(a.data[3] > a3)))

        messages = []
        for n in (1, 2):
            forks = force_workers(monkeypatch, n)
            with pytest.raises(NumericalError) as exc:
                gradcheck(f, [("a", a), ("b", b)])
            messages.append(str(exc.value))
            assert len(forks) == n - 1
        assert messages == ["gradcheck: non-finite loss while perturbing a[3]"] * 2
        no_child_left()

    def test_trained_parameters_are_bitwise_those_of_an_in_process_run(self, monkeypatch):
        data = synth_banded(seed=6, n_images=4, height=16, width=16)

        def trained(seed):
            model = small_model()
            train(model, data, TrainConfig(max_iteration=3, batch_size=2, crop=(16, 16)),
                  np.random.default_rng(seed))
            return [(name, a.tobytes()) for name, a in model.state_arrays()]

        runs = []
        for n in (1, 2):
            forks = force_workers(monkeypatch, n)
            runs.append(list(fork_map(trained, [0, 1], 2)))
            assert len(forks) == n - 1
        assert runs[1] == runs[0]
        no_child_left()


class TestParallelEvaluate:
    def test_report_is_bitwise_the_same_for_any_worker_count(self, monkeypatch):
        model, data = small_model(), val_images()
        reports = []
        for n in (1, 2, 3):
            forks = force_workers(monkeypatch, n)
            reports.append(report_bits(evaluate(model, data)))
            assert len(forks) == n - 1
            no_child_left()
        assert np.isnan(evaluate(model, data).per_class_iou[5])
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_one_image_does_not_fork(self, monkeypatch):
        forks = force_workers(monkeypatch, 3)
        evaluate(small_model(), val_images(1))
        assert forks == []

    @pytest.mark.parametrize("fail", ["exit", "quiet", "raise"])
    def test_failed_workers_give_the_sequential_report(self, monkeypatch, fail):
        model, data = small_model(), val_images()
        force_workers(monkeypatch, 1)
        expected = report_bits(evaluate(model, data))
        forks = force_workers(monkeypatch, 3)
        assert report_bits(evaluate(Failing(model, fail), data)) == expected
        assert len(forks) == 2
        no_child_left()

    @pytest.mark.parametrize("bad", [(0, 4), (1, 4), (3, 4), (4,)])
    def test_bad_image_in_a_worker_raises_the_sequential_error(self, monkeypatch, bad):
        model, data = small_model(), val_images()
        for i in bad:  # a short label, then an out-of-range label id
            label = data[i].label[:8] if i == bad[0] else np.full_like(data[i].label, 9)
            data[i] = Sample(image=data[i].image, label=label)
        messages = []
        for n in (1, 3):
            forks = force_workers(monkeypatch, n)
            with pytest.raises(ShapeError) as exc:
                evaluate(model, data)
            messages.append(str(exc.value))
            assert len(forks) == n - 1
            no_child_left()
        assert messages[1] == messages[0]
        assert messages[0].startswith("prediction (16, 16) vs label (8, 16)")
