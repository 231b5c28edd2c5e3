"""Segmentation evaluation: confusion counts, IoU, and per-band breakdown."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import IGNORE_LABEL, Sample, nominal_bands
from .errors import ShapeError
from .parallel import fork_map
from .tensor import no_grad

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
    if pr.size and (pr.min() < 0 or pr.max() >= num_classes):
        raise ShapeError(f"prediction ids outside [0, {num_classes})")
    cells = np.bincount(gt * num_classes + pr, minlength=num_classes * num_classes)
    return cells.reshape(num_classes, num_classes)


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


def region_slices(height: int) -> list[slice]:
    """``REGION_COUNT`` horizontal bands that together cover every row."""
    return [slice(top, bottom) for top, bottom in nominal_bands(height, REGION_COUNT)]


def _image_counts(model, k: int, sample: Sample) -> list[np.ndarray]:
    """One image's confusion in each region, from a forward that records no graph."""
    with no_grad():
        prediction, label = model.forward(sample.image, training=False).data.argmax(axis=0), sample.label
    if prediction.shape != label.shape:  # before slicing, so the error names the whole maps
        raise ShapeError(f"prediction {prediction.shape} vs label {label.shape}")
    return [confusion_matrix(prediction[sl], label[sl], k) for sl in region_slices(label.shape[0])]


def evaluate(model, dataset: list[Sample]) -> EvalReport:
    """Accumulate confusions over the dataset in eval mode, the images fanned out by ``fork_map``.

    The model is pickled and sent to the workers with each call, so a
    second call forks nothing; an eval-mode forward must be free of side
    effects, and a model that does not pickle runs in workers forked for
    the call instead.  Only integer counts are summed, so the report does
    not depend on the worker count.
    The regions cover every row, so their confusions sum to the whole one.
    """
    k = model.config.num_classes
    regional = [np.zeros((k, k), dtype=np.int64) for _ in range(REGION_COUNT)]
    for regions in fork_map(partial(_image_counts, model, k), dataset, 2):
        for acc, region in zip(regional, regions):
            acc += region
    total = sum(regional)
    per_class, miou = iou_from_confusion(total)
    per_region = [iou_from_confusion(conf)[1] for conf in regional]
    correct, counted = int(np.trace(total)), int(total.sum())
    accuracy = correct / counted if counted else float("nan")
    return EvalReport(
        confusion=total,
        miou=miou,
        per_class_iou=per_class,
        per_region_miou=per_region,
        pixel_accuracy=accuracy,
    )
