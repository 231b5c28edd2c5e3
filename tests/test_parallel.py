"""The fork-map helper, and the evaluation and training that run through it."""

import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from rowgate import parallel
from rowgate import tensor as engine
from rowgate.attention import GateSettings
from rowgate.data import Sample, augment, synth_banded
from rowgate.errors import DivergenceError, NumericalError, ShapeError
from rowgate.gradcheck import gradcheck
from rowgate.metrics import evaluate
from rowgate.net import ToySegConfig, ToySegModel
from rowgate.optim import poly_lr
from rowgate.parallel import fork_map
from rowgate.tensor import mul, no_grad, parameter, scale, softmax_cross_entropy, tensor, zero_grads
from rowgate.train import TrainConfig, make_optimizer, train
from test_gradcheck import force_workers, live_children, no_child_left
from test_package import fresh_env, run_fresh


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


def process_state(job):
    """The ``no_grad`` flag and numpy error state a job runs under, and where it runs."""
    return engine._grad_enabled, np.geterr(), os.getpid()


def square_unless_interrupted(job):
    """x * x, or a KeyboardInterrupt for a negative x in the calling process."""
    parent, x = job
    if x < 0 and os.getpid() == parent:
        raise KeyboardInterrupt
    return x * x


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

    def test_a_job_never_forks_again(self, monkeypatch):
        forks = force_workers(monkeypatch, 2)

        def nested(job):
            before = len(forks)  # the worker's own copy of the list
            inner = list(fork_map(lambda x: 2 * x, [1, 2, 3, 4], 2))
            return os.getpid(), len(forks) - before, inner

        (caller, caller_forks, _), (worker, worker_forks, inner) = fork_map(nested, [0, 1], 2)
        assert caller == os.getpid() and caller_forks == 0
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
            train(model, data, TrainConfig(max_iteration=3, batch_size=2),
                  np.random.default_rng(seed))
            return [(name, a.tobytes()) for name, a in model.state_arrays()]

        runs = []
        for n in (1, 2):
            forks = force_workers(monkeypatch, n)
            runs.append(list(fork_map(trained, [0, 1], 2)))
            assert len(forks) == n - 1
        assert runs[1] == runs[0]
        no_child_left()

    def test_the_callers_no_grad_and_error_state_travel_with_each_chunk(self, monkeypatch):
        forks = force_workers(monkeypatch, 2)
        outside = (True, np.geterr())
        assert [s[:2] for s in fork_map(process_state, range(4), 2)] == [outside] * 4
        with no_grad(), np.errstate(over="raise", under="warn"):
            inside = (False, np.geterr())
            states = list(fork_map(process_state, range(4), 2))
        assert [s[:2] for s in states] == [inside] * 4 and inside != outside
        assert len({s[2] for s in states}) == 2  # the worker forked outside both ran half
        assert [s[:2] for s in fork_map(process_state, range(4), 2)] == [outside] * 4
        assert len(forks) == 1
        no_child_left()

    def test_an_interrupt_in_the_callers_chunk_leaves_no_reply_to_read_later(self, monkeypatch):
        forks = force_workers(monkeypatch, 2)
        parent = os.getpid()
        with pytest.raises(KeyboardInterrupt):
            list(fork_map(square_unless_interrupted, [(parent, x) for x in (1, -1, 2, 3)], 2))
        jobs = [(parent, x) for x in (4, 5, 6, 7)]
        assert list(fork_map(square_unless_interrupted, jobs, 2)) == [16, 25, 36, 49]
        assert len(forks) == 2  # the interrupted call's worker was killed, then replaced
        no_child_left()


# A 2-worker evaluate in a fresh interpreter.  It prints the kept worker's
# pid, then waits if told to; at exit it reports whether a child is left,
# after the pool's own exit handler, which is registered later.
FRESH_EVALUATE = """
import atexit, os, sys, time

def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
        print("some", flush=True)
    except ChildProcessError:
        print("none", flush=True)

atexit.register(children_left)
os.sched_getaffinity = lambda pid: {0, 1}
from rowgate import parallel
from rowgate.attention import GateSettings
from rowgate.data import synth_banded
from rowgate.metrics import evaluate
from rowgate.net import ToySegConfig, ToySegModel

model = ToySegModel.build(ToySegConfig(num_classes=6, widths=(4, 6, 6), gate_layers=frozenset({1}),
                                       gate=GateSettings(coarse_height=2, reduction=2), seed=3))
evaluate(model, synth_banded(seed=4, n_images=4, height=16, width=16))
print(*(w.pid for w in parallel._workers), flush=True)
if sys.argv[1:] == ["wait"]:
    time.sleep(60)
"""


def running(pid):
    """Whether process ``pid`` exists and has not exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


class TestWorkerLifetime:
    def test_an_interpreter_that_exits_leaves_no_process(self):
        pid, left = run_fresh(FRESH_EVALUATE, ())
        assert left == "none"
        assert not running(int(pid))

    def test_a_killed_interpreters_worker_exits_within_a_second(self):
        proc = subprocess.Popen([sys.executable, "-c", FRESH_EVALUATE, "wait"], env=fresh_env(),
                                stdout=subprocess.PIPE, text=True)
        try:
            pid = int(proc.stdout.readline())
            assert running(pid)
        finally:
            proc.kill()
            proc.communicate(timeout=60)
        deadline = time.monotonic() + 1.0
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not running(pid)

    def test_each_worker_holds_no_pipe_of_another(self, monkeypatch):
        force_workers(monkeypatch, 3)
        list(fork_map(square_unless_interrupted, [(0, x) for x in range(6)], 2))
        pipes = {w.pid: {os.readlink(f"/proc/self/fd/{fd}") for fd in (w.replies, w.commands)}
                 for w in parallel._workers}
        assert len(pipes) == 2
        for pid, own in pipes.items():
            held = {os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")}
            assert own <= held
            assert not held & set().union(*(p for q, p in pipes.items() if q != pid))
        no_child_left()


class TestParallelEvaluate:
    def test_report_is_bitwise_the_same_for_any_worker_count(self, monkeypatch):
        model, data = small_model(), val_images()
        reports = []
        for n in (1, 2, 3):
            forks = force_workers(monkeypatch, n)
            reports.append(report_bits(evaluate(model, data)))
            assert report_bits(evaluate(model, data)) == reports[-1]
            assert len(forks) == n - 1  # the second call forked nothing
            no_child_left()
        assert np.isnan(evaluate(model, data).per_class_iou[5])
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_one_image_does_not_fork(self, monkeypatch):
        forks = force_workers(monkeypatch, 3)
        evaluate(small_model(), val_images(1))
        assert forks == []

    def test_a_worker_killed_between_calls_is_reaped_and_replaced(self, monkeypatch):
        model, data = small_model(), val_images()
        force_workers(monkeypatch, 1)
        expected = report_bits(evaluate(model, data))
        forks = force_workers(monkeypatch, 3)
        assert report_bits(evaluate(model, data)) == expected
        victim = parallel._workers[0].pid
        os.kill(victim, signal.SIGKILL)
        while os.waitid(os.P_PID, victim, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            time.sleep(0.001)  # until it has died, left for the pool to reap
        assert report_bits(evaluate(model, data)) == expected
        assert len(forks) == 3 and victim not in live_children()
        no_child_left()

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


def state_bits(model):
    return [(name, a.tobytes()) for name, a in model.state_arrays()]


def one_image_at_a_time(model, data, config, rng):
    """Train in process, each image backpropagated straight into p.grad, on train's per-image streams."""
    optimizer = make_optimizer(model)
    for iteration in range(config.max_iteration):
        zero_grads(p for _, p in model.named_parameters())
        indices = rng.integers(0, len(data), size=config.batch_size)
        for i, image_rng in zip(indices, rng.spawn(config.batch_size)):
            image, label = augment(data[int(i)], image_rng)
            loss = softmax_cross_entropy(model.forward(image, training=True, rng=image_rng), label)
            scale(loss, 1.0 / config.batch_size).backward()
        optimizer.step(poly_lr(iteration, config.base_lr, config.max_iteration))


class TestParallelTrain:
    @pytest.mark.parametrize("batch", [3, 4])
    def test_training_is_bitwise_the_same_for_any_worker_count(self, monkeypatch, batch):
        data = synth_banded(seed=6, n_images=5, height=16, width=16)
        config = TrainConfig(max_iteration=3, batch_size=batch)
        runs = []
        for n in (1, 2, 3):
            forks = force_workers(monkeypatch, n)
            model = small_model()
            log = train(model, data, config, np.random.default_rng(9))
            runs.append((state_bits(model), [v.hex() for v in log.losses]))
            assert len(forks) == n - 1  # forked at the first step, reused at the others
            no_child_left()
        assert runs[1] == runs[0] and runs[2] == runs[0]
        force_workers(monkeypatch, 1)
        reference = small_model()
        one_image_at_a_time(reference, data, config, np.random.default_rng(9))
        assert state_bits(reference) == runs[0][0]  # running statistics included
        assert state_bits(small_model()) != runs[0][0]

    def test_training_under_no_grad_is_bitwise_the_same_for_any_worker_count(self, monkeypatch):
        # the workers are forked by a step outside no_grad, then serve steps inside it
        data = synth_banded(seed=6, n_images=5, height=16, width=16)
        config = TrainConfig(max_iteration=2, batch_size=3)
        runs = []
        for n in (1, 2, 3):
            forks = force_workers(monkeypatch, n)
            model, rng = small_model(), np.random.default_rng(9)
            losses = train(model, data, config, rng).losses
            with no_grad():
                losses += train(model, data, config, rng).losses
            losses += train(model, data, config, rng).losses
            runs.append((state_bits(model), [v.hex() for v in losses]))
            assert len(forks) == n - 1
            no_child_left()
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_one_image_does_not_fork(self, monkeypatch):
        forks = force_workers(monkeypatch, 3)
        train(small_model(), synth_banded(seed=6, n_images=2, height=16, width=16),
              TrainConfig(max_iteration=2, batch_size=1), np.random.default_rng(0))
        assert forks == []

    @pytest.mark.parametrize("bad", [(0, 2), (1, 3), (3,)], ids=["callers_chunk", "middle", "last"])
    def test_a_failing_sample_raises_the_sequential_error(self, monkeypatch, bad):
        # three workers take batch positions [0], [1] and [2, 3]; the first bad
        # position has a two-channel image, a later one a label too short for its image
        data = synth_banded(seed=6, n_images=16, height=16, width=16)
        indices = np.random.default_rng(4).integers(0, len(data), size=4)
        assert len(set(indices)) == 4
        for pos in bad:
            sample = data[indices[pos]]
            data[indices[pos]] = (Sample(image=sample.image[:2], label=sample.label) if pos == bad[0]
                                  else Sample(image=sample.image, label=sample.label[:8]))
        messages = []
        for n in (1, 3):
            forks = force_workers(monkeypatch, n)
            model = small_model()
            before = [(name, a, a.copy()) for name, a in model.state_arrays()]
            with pytest.raises(ShapeError) as exc:
                train(model, data, TrainConfig(max_iteration=2, batch_size=4),
                      np.random.default_rng(4))
            messages.append(str(exc.value))
            assert len(forks) == n - 1
            assert all(p.grad is None for _, p in model.named_parameters())
            for (name, a, copy), (_, now) in zip(before, model.state_arrays()):
                assert now is a and now.tobytes() == copy.tobytes(), name
            no_child_left()
        assert messages == ["expected (3, H, W) input, got (2, 16, 16)"] * 2

    def test_divergence_message_is_unchanged(self, monkeypatch):
        data = synth_banded(seed=6, n_images=4, height=16, width=16)
        messages = []
        for n in (1, 2):
            force_workers(monkeypatch, n)
            with pytest.raises(DivergenceError) as exc:
                train(small_model(), data, TrainConfig(max_iteration=50, base_lr=1e6, batch_size=2),
                      np.random.default_rng(0))
            messages.append(str(exc.value))
            no_child_left()
        assert messages[1] == messages[0]
        it = int(re.fullmatch(r"non-finite loss nan at iteration (\d+) \(lr=.*\)", messages[0]).group(1))
        assert messages[0] == f"non-finite loss nan at iteration {it} (lr={poly_lr(it, 1e6, 50):g})"
