"""Sinusoidal tables, learnable tables, jitter, and injection."""

import numpy as np
import numpy.testing as npt
import pytest

from rowgate.errors import ConfigError, ShapeError
from rowgate.gradcheck import gradcheck
from rowgate.posenc import PE_BASE, inject, jitter, learnable_table, sinusoidal_table
from rowgate.tensor import parameter, tensor

# chi-squared critical value for df=4 at alpha=0.01
CHI2_99_DF4 = 13.2767


class TestSinusoidalTable:
    def test_row_zero_alternates_zero_one(self):
        table = sinusoidal_table(8, 6).data
        npt.assert_array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_first_pair_at_position_one(self):
        table = sinusoidal_table(4, 4).data
        assert abs(table[1, 0] - 0.8414709848) < 1e-9  # sin(1)
        assert abs(table[1, 1] - np.cos(1.0)) < 1e-12

    def test_pairs_lie_on_unit_circle(self):
        table = sinusoidal_table(16, 8).data
        for p in range(16):
            for i in range(0, 8, 2):
                assert abs(table[p, i] ** 2 + table[p, i + 1] ** 2 - 1.0) < 1e-12

    def test_matches_direct_formula(self):
        c = 10
        table = sinusoidal_table(12, c).data
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(0, 12))
            i = int(rng.integers(0, c // 2))
            angle = p / PE_BASE ** (2 * i / c)
            assert abs(table[p, 2 * i] - np.sin(angle)) < 1e-12
            assert abs(table[p, 2 * i + 1] - np.cos(angle)) < 1e-12

    def test_values_bounded(self):
        table = sinusoidal_table(32, 12).data
        assert np.all(table >= -1.0) and np.all(table <= 1.0)

    def test_odd_channel_count(self):
        table = sinusoidal_table(4, 5).data
        assert table.shape == (4, 5)
        npt.assert_array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0])

    def test_too_few_channels_rejected(self):
        with pytest.raises(ConfigError):
            sinusoidal_table(4, 1)


class TestJitter:
    def test_zero_jitter_is_identity(self):
        npt.assert_array_equal(jitter(6, 0, None), np.arange(6))

    def test_shift_bounds_hold_for_any_draw(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            idx = jitter(16, 2, rng)
            assert np.all(np.abs(idx - np.arange(16)) <= 2)
            assert idx.min() >= 0 and idx.max() <= 15

    def test_interior_shift_distribution_is_uniform(self):
        # chi-squared goodness of fit on 1e5 draws of index[p] - p at an
        # interior position; df = 4, alpha = 0.01
        rng = np.random.default_rng(2)
        p = 8
        draws = np.array([jitter(16, 2, rng)[p] - p for _ in range(100_000)])
        observed = np.array([(draws == s).sum() for s in range(-2, 3)])
        expected = len(draws) / 5.0
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < CHI2_99_DF4

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigError):
            jitter(4, -1, np.random.default_rng(0))


class TestInject:
    def test_zero_map_identity_index_returns_transposed_table(self):
        table = sinusoidal_table(5, 3)
        q = tensor(np.zeros((3, 5)))
        out = inject(q, table)
        npt.assert_array_equal(out.data, table.data.T)

    def test_zero_table_is_identity(self):
        rng = np.random.default_rng(3)
        q = tensor(rng.normal(size=(4, 6)))
        table = sinusoidal_table(6, 4)
        table.data[:] = 0.0
        npt.assert_array_equal(inject(q, table).data, q.data)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(3, 7))
        table = learnable_table(7, 3, rng)
        index = rng.integers(0, 7, size=7)
        out = inject(tensor(q), table, index).data
        for c in range(3):
            for p in range(7):
                assert out[c, p] == q[c, p] + table.data[index[p], c]

    def test_additivity_exact_on_integer_data(self):
        rng = np.random.default_rng(5)
        q1 = rng.integers(-5, 6, size=(3, 4)).astype(float)
        q2 = rng.integers(-5, 6, size=(3, 4)).astype(float)
        table = sinusoidal_table(4, 3)
        table.data[:] = rng.integers(-3, 4, size=(4, 3)).astype(float)
        lhs = inject(tensor(q1 + q2), table).data - inject(tensor(q2), table).data
        npt.assert_array_equal(lhs, q1)

    def test_additivity_close_on_float_data(self):
        rng = np.random.default_rng(6)
        q1, q2 = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        table = learnable_table(5, 2, rng)
        lhs = inject(tensor(q1 + q2), table).data - inject(tensor(q2), table).data
        npt.assert_allclose(lhs, q1, atol=1e-12)

    def test_learnable_table_receives_gradients(self):
        rng = np.random.default_rng(7)
        table = learnable_table(4, 3, rng)
        q = parameter(rng.normal(size=(3, 4)))
        index = np.array([0, 0, 2, 3])

        def f():
            out = inject(q, table, index)
            from rowgate.tensor import mul

            return mul(out, out).mean()

        report = gradcheck(f, [("q", q), ("table", table)])
        assert report.passed, report.format()

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            inject(tensor(np.zeros((4, 5))), sinusoidal_table(5, 3))

    def test_bad_index_length_rejected(self):
        with pytest.raises(ShapeError):
            inject(tensor(np.zeros((3, 5))), sinusoidal_table(5, 3), np.arange(4))

    @pytest.mark.parametrize("index, message", [
        ([0, 1, 2, 4], "outside"),  # one past the last of 4 rows
        ([0, 1, -1, 2], "outside"),  # would read a row from the end
        ([0.0, 1.0, 2.0, 3.0], "integers"),  # would be truncated
        ([0.5, 1.0, 2.0, 3.0], "integers"),
        ([True, False, True, False], "integers"),  # would be a mask
    ])
    def test_index_must_name_table_rows(self, index, message):
        with pytest.raises(ShapeError, match=message):
            inject(tensor(np.zeros((3, 4))), sinusoidal_table(4, 3), np.array(index))

    def test_identity_index_longer_than_table_rejected(self):
        with pytest.raises(ShapeError, match="exceed"):
            inject(tensor(np.zeros((3, 6))), sinusoidal_table(4, 3))

    def test_map_shorter_than_table_reads_its_first_rows(self):
        table = sinusoidal_table(6, 3)
        out = inject(tensor(np.zeros((3, 4))), table)
        npt.assert_array_equal(out.data, table.data[:4].T)
