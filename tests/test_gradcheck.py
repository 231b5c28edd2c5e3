"""Behaviour of the finite-difference verification harness itself."""

import numpy as np
import pytest

from rowgate.errors import NumericalError
from rowgate.gradcheck import MAX_DRAWS, Case, draw_clear, gradcheck
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
