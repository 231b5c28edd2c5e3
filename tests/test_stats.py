"""Label statistics: histograms, entropies, band reports, axis distributions."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from rowgate.data import synth_banded
from rowgate.errors import ConfigError, DataError
from rowgate.stats import (
    LabelMap,
    axis_distribution,
    band_rows,
    class_histogram,
    distribution_divergence,
    entropy,
    equal_bands,
    js_divergence,
    region_report,
)


def random_maps(rng, n=5, num_classes=5, with_ignore=True):
    maps = []
    for i in range(n):
        h, w = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        ids = rng.integers(0, num_classes, size=(h, w)).astype(np.int64)
        if with_ignore:
            mask = rng.random((h, w)) < 0.1
            ids[mask] = 255
        maps.append(LabelMap(ids=ids, name=f"map{i}"))
    return maps


class TestClassHistogram:
    def test_single_uniform_map(self):
        counts = class_histogram([LabelMap(ids=np.full((2, 2), 3))], 5)
        npt.assert_array_equal(counts, [0, 0, 0, 4, 0])

    def test_all_ignore_gives_zero_counts(self):
        counts = class_histogram([LabelMap(ids=np.full((3, 3), 255))], 4)
        npt.assert_array_equal(counts, np.zeros(4))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        maps = random_maps(rng)
        counts = class_histogram(maps, 5)
        ref = np.zeros(5, dtype=np.int64)
        for m in maps:
            for r in range(m.height):
                for c in range(m.width):
                    v = m.ids[r, c]
                    if v != 255:
                        ref[v] += 1
        npt.assert_array_equal(counts, ref)

    def test_out_of_range_names_the_offender(self):
        bad = LabelMap(ids=np.array([[0, 1], [9, 0]]), name="bad.pgm")
        with pytest.raises(DataError, match=r"bad\.pgm.*9.*\(1, 0\)"):
            class_histogram([bad], 4)


class TestEntropy:
    def test_uniform_over_19_classes(self):
        assert abs(entropy(np.full(19, 1 / 19)) - np.log(19)) < 1e-12
        assert abs(entropy(np.full(19, 1 / 19)) - 2.9444) < 1e-4

    def test_one_hot_is_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0
        # +0.0, so reports print 0 and 0.000, never -0 and -0.000
        assert math.copysign(1.0, entropy(np.array([1.0, 0.0, 0.0]))) == 1.0

    def test_urban_lower_region_magnitude(self):
        # a dominant-class distribution (87.9 / 7.9 / 2.2 / 0.3 / 0.1 with the
        # remainder spread thin) lands near 0.51 nats under natural log;
        # a base-2 entropy would be ~0.74 and could not match
        top = np.array([87.9, 0.1, 0.3, 2.2, 7.9]) / 100.0
        rest = np.full(14, (1.0 - top.sum()) / 14)
        p = np.concatenate([top, rest])
        h_nats = entropy(p)
        assert abs(h_nats - 0.51) < 0.06
        h_bits = -(p[p > 0] * np.log2(p[p > 0])).sum()
        assert abs(h_bits - 0.51) > 0.2

    def test_permutation_invariant_and_maximal_at_uniform(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(8))
        assert abs(entropy(p) - entropy(p[rng.permutation(8)])) < 1e-12
        assert entropy(p) <= entropy(np.full(8, 1 / 8)) + 1e-12

    def test_invalid_vectors_rejected(self):
        with pytest.raises(DataError):
            entropy(np.array([]))
        with pytest.raises(DataError):
            entropy(np.array([0.5, 0.4]))
        with pytest.raises(DataError):
            entropy(np.array([1.2, -0.2]))


class TestRegionReport:
    def test_two_band_synthetic(self):
        ids = np.zeros((8, 4), dtype=np.int64)
        ids[4:] = 1
        report = region_report([LabelMap(ids=ids)], 2, equal_bands(2))
        npt.assert_array_equal(report.band_entropies, [0.0, 0.0])
        assert report.average_conditional_entropy == 0.0
        assert abs(report.unconditional_entropy - np.log(2)) < 1e-12
        npt.assert_allclose(report.probabilities[0], [100.0, 0.0])
        npt.assert_allclose(report.probabilities[1], [0.0, 100.0])

    def test_single_band_equals_unconditional(self):
        rng = np.random.default_rng(2)
        maps = random_maps(rng)
        report = region_report(maps, 5, equal_bands(1))
        assert report.average_conditional_entropy == report.unconditional_entropy
        counts = class_histogram(maps, 5)
        npt.assert_allclose(report.probabilities[0], 100.0 * counts / counts.sum(), atol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        maps = random_maps(rng)
        bands = equal_bands(3)
        report = region_report(maps, 5, bands)
        for b, (lo, hi) in enumerate(bands):
            ref = np.zeros(5)
            for m in maps:
                top = int(np.floor(lo * m.height))
                bottom = int(np.floor(hi * m.height))
                for r in range(top, bottom):
                    for c in range(m.width):
                        if m.ids[r, c] != 255:
                            ref[m.ids[r, c]] += 1
            assert report.band_masses[b] == ref.sum()
            npt.assert_allclose(report.probabilities[b], 100.0 * ref / ref.sum(), atol=1e-12)

    def test_band_rows_partition_any_height(self):
        for h in (5, 17, 64, 100):
            for n in (1, 2, 3, 4, 7):
                rows = band_rows(h, equal_bands(n))
                flat = [r for lo, hi in rows for r in range(lo, hi)]
                assert flat == list(range(h))

    def test_band_rows_exact_fractions_land_on_exact_rows(self):
        assert band_rows(90, equal_bands(10)) == [(9 * k, 9 * k + 9) for k in range(10)]
        assert band_rows(90, [(0, 0.7), (0.7, 1)]) == [(0, 63), (63, 90)]

    def test_conditioning_never_increases_entropy(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            maps = random_maps(rng, n=3)
            n_bands = int(rng.integers(1, 5))
            report = region_report(maps, 5, equal_bands(n_bands))
            assert report.average_conditional_entropy <= report.unconditional_entropy + 1e-12

    def test_invalid_bands_rejected(self):
        maps = [LabelMap(ids=np.zeros((4, 4), dtype=np.int64))]
        with pytest.raises(ConfigError):
            region_report(maps, 2, [(0.0, 0.5), (0.6, 1.0)])  # gap
        with pytest.raises(ConfigError):
            region_report(maps, 2, [(0.0, 0.7), (0.5, 1.0)])  # overlap
        with pytest.raises(ConfigError):
            region_report(maps, 2, [(0.1, 1.0)])  # does not start at 0

    def test_all_ignore_rejected(self):
        with pytest.raises(DataError):
            region_report([LabelMap(ids=np.full((4, 4), 255))], 3, equal_bands(2))


class TestAxisDistribution:
    def test_banded_map_is_near_one_hot_by_height(self):
        ids = np.repeat(np.arange(4), 4)[:, None] * np.ones((1, 6), dtype=np.int64)
        per_bin, _ = axis_distribution([LabelMap(ids=ids.astype(np.int64))], 4, "height", bins=4)
        npt.assert_allclose(per_bin, np.eye(4), atol=1e-12)

    def test_same_map_is_uniform_by_width(self):
        ids = np.repeat(np.arange(4), 4)[:, None] * np.ones((1, 6), dtype=np.int64)
        per_bin, _ = axis_distribution([LabelMap(ids=ids.astype(np.int64))], 4, "width", bins=3)
        for row in per_bin:
            npt.assert_allclose(row, 0.25, atol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        maps = random_maps(rng)
        bins = 4
        per_bin, per_class = axis_distribution(maps, 5, "height", bins=bins)
        ref = np.zeros((bins, 5))
        for m in maps:
            for r in range(m.height):
                b = min(bins - 1, (r * bins) // m.height)
                for c in range(m.width):
                    if m.ids[r, c] != 255:
                        ref[b, m.ids[r, c]] += 1
        npt.assert_allclose(per_bin, ref / ref.sum(axis=1, keepdims=True), atol=1e-12)
        npt.assert_allclose(per_class, ref / ref.sum(axis=0, keepdims=True), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        per_bin, per_class = axis_distribution(random_maps(rng), 5, "height", bins=5)
        npt.assert_allclose(per_bin.sum(axis=1), 1.0, atol=1e-9)
        npt.assert_allclose(per_class.sum(axis=0), 1.0, atol=1e-9)


class TestDivergence:
    def test_identical_bins_have_zero_spread(self):
        dist = np.tile([0.25, 0.25, 0.5], (4, 1))
        assert distribution_divergence(dist, dist) == (0.0, 0.0)

    def test_disjoint_one_hot_bins_reach_ln2(self):
        assert abs(js_divergence([1.0, 0.0], [0.0, 1.0]) - np.log(2)) < 1e-12
        dist = np.array([[1.0, 0.0], [0.0, 1.0]])
        h, _ = distribution_divergence(dist, np.tile([0.5, 0.5], (2, 1)))
        assert abs(h - np.log(2)) < 1e-12

    def test_banded_data_has_larger_height_spread(self):
        data = synth_banded(seed=9, n_images=6, height=48, width=24, num_classes=6)
        maps = [LabelMap(ids=s.label) for s in data]
        h_bin, _ = axis_distribution(maps, 6, "height", bins=8)
        w_bin, _ = axis_distribution(maps, 6, "width", bins=8)
        h_spread, w_spread = distribution_divergence(h_bin, w_bin)
        assert h_spread > w_spread

    def test_order_independence(self):
        rng = np.random.default_rng(7)
        maps = random_maps(rng)
        fwd = region_report(maps, 5, equal_bands(3))
        rev = region_report(list(reversed(maps)), 5, equal_bands(3))
        npt.assert_array_equal(fwd.probabilities, rev.probabilities)
        assert fwd.unconditional_entropy == rev.unconditional_entropy
