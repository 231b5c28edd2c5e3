"""Segmentation evaluation: confusion counts, IoU, and per-band breakdown."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import IGNORE_LABEL, Sample
from .errors import ShapeError
from .parallel import fork_map

REGION_COUNT = 4  # equal horizontal quarters


@dataclass
class EvalReport:
    confusion: np.ndarray  # (K, K) int64, rows = ground truth, cols = prediction
    miou: float
    per_class_iou: np.ndarray  # NaN where the class is absent from ground truth
    per_region_miou: list[float]
    pixel_accuracy: float


def confusion_matrix(prediction: np.ndarray, label: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer confusion counts over non-ignore pixels."""
    if prediction.shape != label.shape:
        raise ShapeError(f"prediction {prediction.shape} vs label {label.shape}")
    valid = label != IGNORE_LABEL
    gt = label[valid].astype(np.int64)
    pr = prediction[valid].astype(np.int64)
    if gt.size and (gt.min() < 0 or gt.max() >= num_classes):
        raise ShapeError(f"label ids outside [0, {num_classes})")
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(conf, (gt, pr), 1)
    return conf


def iou_from_confusion(confusion: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-class IoU (NaN for classes without ground-truth pixels) and their mean."""
    tp = np.diag(confusion).astype(np.float64)
    gt = confusion.sum(axis=1).astype(np.float64)
    pred = confusion.sum(axis=0).astype(np.float64)
    union = gt + pred - tp
    iou = np.full(len(tp), np.nan)
    present = gt > 0
    iou[present] = tp[present] / union[present]
    miou = float(np.nanmean(iou)) if present.any() else float("nan")
    return iou, miou


def region_slices(height: int, regions: int = REGION_COUNT) -> list[slice]:
    edges = [(i * height) // regions for i in range(regions + 1)]
    return [slice(edges[i], edges[i + 1]) for i in range(regions)]


def _image_counts(model, sample: Sample, k: int) -> tuple:
    """One image's confusion, its region confusions, and its correct and labelled pixel counts."""
    prediction = model.forward(sample.image, training=False).data.argmax(axis=0)
    conf = confusion_matrix(prediction, sample.label, k)
    regions = [confusion_matrix(prediction[sl], sample.label[sl], k)
               for sl in region_slices(sample.label.shape[0])]
    valid = sample.label != IGNORE_LABEL
    return conf, regions, int((prediction[valid] == sample.label[valid]).sum()), int(valid.sum())


def evaluate(model, dataset: list[Sample]) -> EvalReport:
    """Accumulate confusions over the dataset in eval mode, the images fanned out by ``fork_map``.

    An eval-mode forward must be fork-safe and free of side effects.  Only
    integer counts are summed, so the report does not depend on the worker count.
    """
    k = model.config.num_classes
    total = np.zeros((k, k), dtype=np.int64)
    regional = [np.zeros((k, k), dtype=np.int64) for _ in range(REGION_COUNT)]
    correct = 0
    counted = 0
    for conf, regions, hits, valid in fork_map(lambda s: _image_counts(model, s, k), dataset, 2):
        total += conf
        for acc, region in zip(regional, regions):
            acc += region
        correct += hits
        counted += valid
    per_class, miou = iou_from_confusion(total)
    per_region = [iou_from_confusion(conf)[1] for conf in regional]
    accuracy = correct / counted if counted else float("nan")
    return EvalReport(
        confusion=total,
        miou=miou,
        per_class_iou=per_class,
        per_region_miou=per_region,
        pixel_accuracy=accuracy,
    )
