"""Behaviour of the finite-difference verification harness itself."""

import os
import threading
from dataclasses import astuple

import numpy as np
import pytest

from rowgate import attention as attn
from rowgate.errors import ConfigError, NumericalError
from rowgate.gradcheck import MAX_DRAWS, Case, draw_clear, gate_case, gradcheck
from rowgate.tensor import Tensor, mul, parameter, relu, tensor


class TestGradcheckHarness:
    def test_square_at_three(self):
        theta = parameter(np.array([3.0]))

        def f():
            return mul(theta, theta).sum()

        report = gradcheck(f, [("theta", theta)])
        check = report.params[0]
        assert abs(check.analytic - 6.0) < 1e-12
        assert abs(check.numeric - 6.0) < 1e-8
        assert report.passed

    def test_constant_function_has_zero_gradient(self):
        theta = parameter(np.array([1.0, -2.0, 0.5]))

        def f():
            return tensor(np.asarray(5.0))

        report = gradcheck(f, [("theta", theta)])
        assert report.max_rel_error == 0.0
        assert report.params[0].analytic == 0.0
        assert report.params[0].numeric == 0.0

    def test_epsilon_outside_safe_range_rejected(self):
        theta = parameter(np.array([1.0]))

        def f():
            return mul(theta, theta).sum()

        with pytest.raises(NumericalError):
            gradcheck(f, [("theta", theta)], eps=1e-1)
        with pytest.raises(NumericalError):
            gradcheck(f, [("theta", theta)], eps=1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-4])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        theta = parameter(np.array([1.0]))
        with pytest.raises(ConfigError):
            gradcheck(lambda: mul(theta, theta).sum(), [("theta", theta)], tol=tol)

    def test_truncation_error_grows_with_epsilon(self):
        # cubic f: central differences carry an eps^2 f''' / 6 bias, which is
        # why epsilons far above 1e-3 are refused outright
        def fd(eps):
            t = 1.0
            f = lambda v: v**3
            return (f(t + eps) - f(t - eps)) / (2 * eps)

        exact = 3.0
        small = abs(fd(1e-5) - exact)
        large = abs(fd(1e-1) - exact)
        assert large > 1e3 * small
        assert large > 1e-4  # would blow the default tolerance

    def test_non_finite_loss_is_diagnosed(self):
        theta = parameter(np.array([1.0]))

        def f():
            return tensor(np.asarray(np.inf))

        with pytest.raises(NumericalError):
            gradcheck(f, [("theta", theta)])

    def test_non_scalar_loss_rejected(self):
        theta = parameter(np.ones(3))

        def f():
            return mul(theta, theta)

        with pytest.raises(NumericalError):
            gradcheck(f, [("theta", theta)])

    def test_report_format_lists_every_parameter(self):
        a = parameter(np.array([2.0]))
        b = parameter(np.array([[1.0, 0.5]]))

        def f():
            return (mul(a, a).sum() + mul(b, b).sum()).sum()

        report = gradcheck(f, [("a", a), ("b", b)])
        text = report.format()
        assert "a" in text and "b" in text and "PASS" in text

    def test_perturbation_leaves_parameters_untouched(self):
        values = np.array([0.3, -1.2])
        theta = parameter(values.copy())

        def f():
            return mul(theta, theta).sum()

        gradcheck(f, [("theta", theta)])
        np.testing.assert_array_equal(theta.data, values)
        assert theta.grad is None


def stub_draw(margins, drawn):
    """A draw whose n-th case feeds a relu an input margins[n] from its kink."""
    queue = iter(margins)

    def draw():
        x = parameter(np.array([next(queue), 1.0]))
        drawn.append(x)
        return Case(lambda: relu(x).sum(), [("x", x)])

    return draw


class TestDrawClear:
    def test_kink_adjacent_draws_are_redrawn(self):
        drawn = []
        case, margin = draw_clear(stub_draw([1e-5, 6.4e-4, 0.5, 0.25], drawn))
        assert margin == 0.5
        assert len(drawn) == 3
        assert case.params[0][1] is drawn[-1]

    def test_gives_up_after_max_draws(self):
        drawn = []
        with pytest.raises(NumericalError, match="last margin 3.000e-04"):
            draw_clear(stub_draw([3e-4] * MAX_DRAWS, drawn))
        assert len(drawn) == MAX_DRAWS


def force_workers(monkeypatch, n):
    """Make gradcheck see n usable CPUs, and count the workers it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def bits(report):
    """Every field of every ParamCheck, floats as their exact bit patterns."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in astuple(p)) for p in report.params]


def assert_clean(params, values):
    """Parameters restored, gradients dropped, and no worker left to reap."""
    for (_, t), v in zip(params, values):
        assert t.data.tobytes() == v.tobytes()
        assert t.grad is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def two_squares(n=300):
    """f = |a|^2 + |b|^2 over two n-entry parameters: 2n entries, above the fork floor."""
    rng = np.random.default_rng(5)
    a, b = parameter(rng.normal(size=n)), parameter(rng.normal(size=n))
    params = [("a", a), ("b", b)]
    return params, [t.data.copy() for _, t in params], lambda: mul(a, a).sum() + mul(b, b).sum()


class TestParallelProbes:
    def test_suite_gate_case_report_is_bitwise_the_same_for_any_worker_count(self, monkeypatch):
        config = attn.RowGateConfig(in_channels=8, out_channels=6, coarse_height=4, reduction=2,
                                    pe_mode="learnable", jitter_max=0, dropout_p=0.0)
        reports = []
        for n in (1, 2, 3):
            forks = force_workers(monkeypatch, n)
            rng = np.random.default_rng(2)
            case, _ = draw_clear(lambda: gate_case(config, rng, 8, 8, 6))
            values = [t.data.copy() for _, t in case.params]
            reports.append(bits(gradcheck(case.f, case.params)))
            assert len(forks) == n - 1  # one fork per worker per call, not per tensor
            assert_clean(case.params, values)
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_non_finite_probe_in_the_last_chunk_raises_the_sequential_message(self, monkeypatch):
        messages = []
        for n in (1, 3):
            force_workers(monkeypatch, n)
            params, values, f = two_squares()
            b = params[1][1]

            def bad_when_b250_moves():
                return tensor(np.asarray(np.inf)) if b.data[250] != values[1][250] else f()

            with pytest.raises(NumericalError) as exc:
                gradcheck(bad_when_b250_moves, params)
            messages.append(str(exc.value))
            assert_clean(params, values)
        assert messages == ["gradcheck: non-finite loss while perturbing b[250]"] * 2

    @pytest.mark.parametrize("fail", ["exit", "raise"])
    def test_failed_workers_are_recomputed_in_process(self, monkeypatch, fail):
        force_workers(monkeypatch, 1)
        params, values, f = two_squares()
        expected = bits(gradcheck(f, params))
        forks = force_workers(monkeypatch, 3)
        parent = os.getpid()

        def dies_in_a_worker():
            if os.getpid() != parent:
                if fail == "exit":
                    os._exit(3)
                raise RuntimeError("worker only")
            return f()

        assert bits(gradcheck(dies_in_a_worker, params)) == expected
        assert len(forks) == 2
        assert_clean(params, values)

    def test_interrupt_in_the_parent_reaps_every_worker(self, monkeypatch):
        force_workers(monkeypatch, 3)
        params, values, f = two_squares()
        a = params[0][1]
        parent = os.getpid()

        def interrupted_at_a10():
            if os.getpid() == parent and a.data[10] != values[0][10]:
                raise KeyboardInterrupt
            return f()

        with pytest.raises(KeyboardInterrupt):
            gradcheck(interrupted_at_a10, params)
        assert_clean(params, values)

    @pytest.mark.parametrize("reason", ["small", "threaded"])
    def test_stays_in_process(self, monkeypatch, reason):
        forks = force_workers(monkeypatch, 3)
        params, values, f = two_squares(n=20 if reason == "small" else 300)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        if reason == "threaded":
            thread.start()  # a worker forked now could inherit a lock this thread holds
        try:
            assert gradcheck(f, params).passed
        finally:
            release.set()
            if reason == "threaded":
                thread.join(10)
        assert forks == [] and not thread.is_alive()
