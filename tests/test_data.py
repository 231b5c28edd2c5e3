"""Banded dataset generator and augmentation."""

import numpy as np
import numpy.testing as npt
import pytest

from rowgate.data import Sample, augment, nominal_bands, synth_banded, texture_group
from rowgate.errors import ConfigError
from rowgate.stats import LabelMap, entropy, equal_bands, region_report


class TestSynthBanded:
    def test_shapes_and_label_range(self):
        data = synth_banded(seed=0, n_images=3, height=32, width=24, num_classes=4)
        assert len(data) == 3
        for sample in data:
            assert sample.image.shape == (3, 32, 24)
            assert sample.label.shape == (32, 24)
            assert sample.label.max() == 3 and sample.label.min() == 0

    def test_zero_noise_bands_are_nominal(self):
        data = synth_banded(seed=1, n_images=2, height=36, width=12, num_classes=6, noise=0.0)
        bands = nominal_bands(36, 6)
        for sample in data:
            for k, (top, bottom) in enumerate(bands):
                assert np.all(sample.label[top:bottom] == k)

    def test_zero_noise_band_entropy_is_degenerate(self):
        data = synth_banded(seed=2, n_images=2, height=36, width=12, num_classes=6, noise=0.0)
        maps = [LabelMap(ids=s.label, name=f"{i}") for i, s in enumerate(data)]
        report = region_report(maps, 6, equal_bands(6))
        npt.assert_array_equal(report.band_entropies, np.zeros(6))

    def test_band_conditioning_reduces_entropy(self):
        data = synth_banded(seed=3, n_images=10, height=64, width=32, num_classes=6, noise=0.5)
        maps = [LabelMap(ids=s.label, name=f"{i}") for i, s in enumerate(data)]
        report = region_report(maps, 6, equal_bands(3))
        assert report.average_conditional_entropy < report.unconditional_entropy

    def test_same_seed_identical_dataset(self):
        a = synth_banded(seed=4, n_images=3, height=24, width=16)
        b = synth_banded(seed=4, n_images=3, height=24, width=16)
        for sa, sb in zip(a, b):
            npt.assert_array_equal(sa.image, sb.image)
            npt.assert_array_equal(sa.label, sb.label)

    def test_confusable_groups_share_statistics(self):
        # same-parity classes are painted identically up to noise: their
        # mean colours must agree far more closely than across parities
        data = synth_banded(seed=5, n_images=20, height=60, width=32, num_classes=6, noise=0.3)
        means = np.zeros((6, 3))
        for k in range(6):
            pixels = []
            for s in data:
                mask = s.label == k
                pixels.append(s.image[:, mask].mean(axis=1))
            means[k] = np.mean(pixels, axis=0)
        within = np.abs(means[0] - means[2]).max()
        across = np.abs(means[0] - means[1]).max()
        assert within < 0.02
        assert across > 0.1
        assert texture_group(0) == texture_group(2) == texture_group(4)
        assert texture_group(1) == texture_group(3)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ConfigError):
            synth_banded(seed=0, n_images=1, height=16, width=16, num_classes=2)


class TestAugment:
    def test_identity_crop_is_flip_only(self):
        sample = synth_banded(seed=7, n_images=1, height=16, width=16)[0]
        seen = set()
        rng = np.random.default_rng(1)
        for _ in range(10):
            image, label = augment(sample, rng)
            flipped = bool(np.array_equal(image, sample.image[:, :, ::-1]))
            straight = bool(np.array_equal(image, sample.image))
            assert flipped or straight
            npt.assert_array_equal(label[:, 0], sample.label[:, -1] if flipped else sample.label[:, 0])
            seen.add(flipped)
        assert seen == {True, False}
