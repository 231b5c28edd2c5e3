"""Confusion accumulation, IoU, and the per-band evaluation split."""

import numpy as np
import numpy.testing as npt
import pytest

from rowgate.attention import GateSettings
from rowgate.data import Sample, synth_banded
from rowgate.errors import ShapeError
from rowgate.metrics import confusion_matrix, evaluate, iou_from_confusion, region_slices
from rowgate.net import ToySegConfig, ToySegModel


class TestConfusion:
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, size=(9, 7))
        label = rng.integers(0, 4, size=(9, 7))
        label[0, :3] = 255
        conf = confusion_matrix(pred, label, 4)
        ref = np.zeros((4, 4), dtype=np.int64)
        for r in range(9):
            for c in range(7):
                if label[r, c] != 255:
                    ref[label[r, c], pred[r, c]] += 1
        npt.assert_array_equal(conf, ref)
        assert conf.sum() == (label != 255).sum()

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ShapeError):
            confusion_matrix(np.zeros((2, 2), int), np.full((2, 2), 9), 4)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_prediction_rejected(self, bad):
        prediction = np.zeros((2, 2), int)
        prediction[1, 0] = bad
        with pytest.raises(ShapeError, match=r"prediction ids outside \[0, 4\)"):
            confusion_matrix(prediction, np.ones((2, 2), int), 4)


class TestIoU:
    def test_perfect_prediction(self):
        conf = np.diag([10, 5, 3])
        iou, miou = iou_from_confusion(conf)
        npt.assert_array_equal(iou, [1.0, 1.0, 1.0])
        assert miou == 1.0

    def test_disjoint_single_class_maps(self):
        # ground truth all class 0, prediction all class 1
        conf = confusion_matrix(np.ones((4, 4), int), np.zeros((4, 4), int), 2)
        iou, miou = iou_from_confusion(conf)
        assert iou[0] == 0.0
        assert np.isnan(iou[1])  # class 1 absent from ground truth
        assert miou == 0.0

    def test_absent_classes_do_not_enter_the_mean(self):
        conf = np.zeros((3, 3), dtype=np.int64)
        conf[0, 0] = 8
        conf[0, 1] = 2  # predictions spill into class 1, which has no gt
        iou, miou = iou_from_confusion(conf)
        assert abs(iou[0] - 0.8) < 1e-12
        assert np.isnan(iou[1]) and np.isnan(iou[2])
        assert abs(miou - 0.8) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pred = rng.integers(0, 5, size=(8, 8))
            label = rng.integers(0, 5, size=(8, 8))
            iou, miou = iou_from_confusion(confusion_matrix(pred, label, 5))
            assert 0.0 <= miou <= 1.0
            valid = iou[~np.isnan(iou)]
            assert np.all((valid >= 0) & (valid <= 1))


class TestRegions:
    def test_quarter_slices_partition_rows(self):
        for h in (16, 17, 63, 64):
            slices = region_slices(h)
            rows = np.concatenate([np.arange(h)[s] for s in slices])
            npt.assert_array_equal(rows, np.arange(h))


class TestEvaluate:
    def make_model(self):
        cfg = ToySegConfig(
            num_classes=6, widths=(4, 6, 6), gate_layers=frozenset(),
            gate=GateSettings(coarse_height=2, reduction=2), seed=0,
        )
        return ToySegModel.build(cfg)

    def test_identity_prediction_scores_one(self):
        # feed the model's own argmax back as ground truth
        model = self.make_model()
        data = synth_banded(seed=1, n_images=2, height=16, width=16)
        relabeled = []
        for sample in data:
            pred = model.forward(sample.image).data.argmax(axis=0).astype(np.uint8)
            relabeled.append(Sample(image=sample.image, label=pred))
        report = evaluate(model, relabeled)
        assert report.miou == 1.0
        assert report.pixel_accuracy == 1.0
        for value in report.per_region_miou:
            assert value == 1.0

    def test_report_ranges_on_untrained_model(self):
        model = self.make_model()
        data = synth_banded(seed=2, n_images=2, height=16, width=16)
        report = evaluate(model, data)
        assert 0.0 <= report.miou <= 1.0
        for value in report.per_region_miou:
            assert 0.0 <= value <= 1.0
        assert report.confusion.sum() == 2 * 16 * 16

    def test_ignore_pixels_are_excluded(self):
        model = self.make_model()
        sample = synth_banded(seed=3, n_images=1, height=16, width=16)[0]
        masked = sample.label.copy()
        masked[:4] = 255
        report = evaluate(model, [Sample(image=sample.image, label=masked)])
        assert report.confusion.sum() == (masked != 255).sum()
