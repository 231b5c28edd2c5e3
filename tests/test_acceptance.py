"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The training-based
criteria (5, 7, 8) share one module-scoped fixture that trains all nine
of their runs, about 8 minutes of CPU spread over the usable CPUs
(4.5 minutes on two); the whole suite needs roughly 10 minutes of CPU.
Criterion 6 runs only when
``ROWGATE_CITYSCAPES_DIR`` points at a directory of *labelTrainIds*
rasters and is skipped otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from rowgate import attention as attn
from rowgate.attention import GateSettings
from rowgate.checkpoint import load_checkpoint, save_checkpoint
from rowgate.data import nominal_bands, synth_banded
from rowgate.gradcheck import Case, draw_clear, gate_case, gradcheck, toy_model, toy_model_case
from rowgate.metrics import evaluate
from rowgate.net import LOGIT_STRIDE, ToySegConfig, ToySegModel
from rowgate.parallel import fork_map
from rowgate.stats import (
    LabelMap,
    axis_distribution,
    class_histogram,
    equal_bands,
    region_report,
)
from rowgate.tensor import tensor
from rowgate.train import TrainConfig, train

SEEDS = (0, 1, 2)
DATA_SHAPE = (96, 48)  # tall enough that mid-image rows cannot see a border
EFFICACY_GATE = GateSettings(coarse_height=8, reduction=2)
RUN_BUDGET_SECONDS = 300.0


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _config(seed: int, layers) -> ToySegConfig:
    return ToySegConfig(num_classes=6, gate_layers=frozenset(layers), gate=EFFICACY_GATE, seed=seed)


def _train_state(job):
    """Train the (seed, layers) run wherever this is called: (state arrays, seconds)."""
    seed, layers = job
    height, width = DATA_SHAPE
    model = ToySegModel.build(_config(seed, layers))
    train_set = synth_banded(seed=2 * seed, n_images=200, height=height, width=width)
    train_config = TrainConfig(max_iteration=400, batch_size=4, crop=DATA_SHAPE)
    start = time.monotonic()
    train(model, train_set, train_config, np.random.default_rng(seed))
    return dict(model.state_arrays()), time.monotonic() - start


@pytest.fixture(scope="module")
def trained_runs():
    """Every training run of criteria 5, 7 and 8 by (seed, gate layers), trained across the CPUs.

    Each run is rebuilt from its state arrays and evaluated here.  The
    slowest runs come first (L1-L4 gates, then L5, then none), so on two
    CPUs the contiguous chunks of ``fork_map`` take about as long.
    """
    height, width = DATA_SHAPE
    jobs = [(seed, layers) for layers in ((1, 2, 3, 4), (5,), ()) for seed in SEEDS]
    runs = {}
    for (seed, layers), (state, elapsed) in zip(jobs, fork_map(_train_state, jobs, 2)):
        model = ToySegModel.build(_config(seed, layers))
        model.load_state(state)
        val_set = synth_banded(seed=2 * seed + 1, n_images=50, height=height, width=width)
        runs[seed, layers] = dict(model=model, report=evaluate(model, val_set), elapsed=elapsed,
                                  val_set=val_set)
    return runs


@pytest.fixture(scope="module")
def efficacy_runs(trained_runs):
    return [dict(seed=seed, baseline=trained_runs[seed, ()], gated=trained_runs[seed, (1, 2, 3, 4)])
            for seed in SEEDS]


@pytest.fixture(scope="module")
def logit_gate_runs(trained_runs):
    return [dict(seed=seed, run=trained_runs[seed, (5,)]) for seed in SEEDS]


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def _draw_gate_case(rng: np.random.Generator) -> Case:
    """One random configuration, with its parameters and inputs clear of the relu kink."""
    c_l = int(rng.choice([4, 8, 16]))
    r = int(rng.choice([2, 4]))
    if c_l // r < 1:
        r = 2
    coarse = int(rng.choice([2, 4, 8]))
    pe_mode = str(rng.choice(["none", "sinusoidal", "learnable"]))
    c_h = int(rng.choice([3, 5, 8]))
    h_l = coarse * int(rng.integers(1, 3))
    h_h = h_l + int(rng.integers(0, 3))
    config = attn.RowGateConfig(
        in_channels=c_l, out_channels=c_h, coarse_height=coarse, reduction=r,
        pe_mode=pe_mode, pe_layer=int(rng.integers(1, 4)), jitter_max=0, dropout_p=0.0,
    )
    case, _ = draw_clear(lambda: gate_case(config, rng, h_l, h_h, 3))
    return case


@pytest.mark.slow
def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(20240)
    start = time.monotonic()
    worst_gate = 0.0
    for _ in range(50):
        case = _draw_gate_case(rng)
        report = gradcheck(case.f, case.params, eps=1e-5, tol=1e-4)
        worst_gate = max(worst_gate, report.max_rel_error)
        assert report.passed, report.format()

    model = toy_model()
    case, margin = draw_clear(lambda: toy_model_case(model, rng))
    model_report = gradcheck(case.f, case.params, eps=1e-5, tol=1e-3)
    elapsed = time.monotonic() - start
    ok = model_report.passed and elapsed < 120.0
    verdict(
        1, "gradient correctness", ok,
        f"50 gate configs max rel err {worst_gate:.2e} (<1e-4), full model "
        f"{model_report.max_rel_error:.2e} (<1e-3, relu margin {margin:.1e}), "
        f"runtime {elapsed:.0f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: attention range and invariance suite
# ---------------------------------------------------------------------------


def test_criterion_2_attention_invariants():
    rng = np.random.default_rng(7)
    checks = 0

    for pe_mode in ("none", "sinusoidal", "learnable"):
        config = attn.RowGateConfig(
            in_channels=8, out_channels=6, coarse_height=4, reduction=2, pe_mode=pe_mode
        )
        params = attn.init_params(config, rng)
        x_l = tensor(rng.normal(size=(8, 12, 10)))
        x_h = tensor(rng.normal(size=(6, 12, 10)))

        # sigmoid range, including a deliberately saturated instance
        _, amap = attn.forward(x_l, x_h, params, config, training=False)
        assert np.all((amap.data > 0) & (amap.data < 1))
        saturated = attn.init_params(config, rng)
        saturated.conv3.kernel.data *= 1e7
        _, amap_sat = attn.forward(x_l, x_h, saturated, config, training=False)
        assert np.all((amap_sat.data > 0) & (amap_sat.data < 1))
        checks += 2

        # eval-mode determinism is bitwise
        out1, a1 = attn.forward(x_l, x_h, params, config, training=False)
        out2, a2 = attn.forward(x_l, x_h, params, config, training=False)
        npt.assert_array_equal(out1.data, out2.data)
        npt.assert_array_equal(a1.data, a2.data)
        checks += 1

    # column permutation invariance (integer data: bitwise)
    config = attn.RowGateConfig(in_channels=8, out_channels=6, coarse_height=4, reduction=2)
    params = attn.init_params(config, rng)
    x_l_int = rng.integers(-4, 5, size=(8, 12, 10)).astype(float)
    permuted = np.stack(
        [np.stack([row[rng.permutation(10)] for row in chan]) for chan in x_l_int]
    )
    x_h = tensor(rng.normal(size=(6, 12, 10)))
    _, a1 = attn.forward(tensor(x_l_int), x_h, params, config, training=False)
    _, a2 = attn.forward(tensor(permuted), x_h, params, config, training=False)
    npt.assert_array_equal(a1.data, a2.data)
    checks += 1

    # zero parameters -> uniform 0.5 gates, exactly
    zeroed = attn.init_params(config, rng)
    for name, p in zeroed.named():
        if "conv" in name:
            p.data[:] = 0.0
    gated, amap = attn.forward(tensor(x_l_int), x_h, zeroed, config, training=False)
    npt.assert_array_equal(amap.data, np.full((6, 12), 0.5))
    npt.assert_array_equal(gated.data, 0.5 * x_h.data)
    checks += 1

    verdict(2, "attention range and invariance", True, f"{checks} checks, 100% pass")


# ---------------------------------------------------------------------------
# criterion 3: statistics oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_statistics_oracles():
    rng = np.random.default_rng(99)
    num_classes = 5
    worst = 0.0
    for trial in range(100):
        h, w = int(rng.integers(3, 13)), int(rng.integers(3, 13))
        ids = rng.integers(0, num_classes, size=(h, w)).astype(np.int64)
        ids[rng.random((h, w)) < 0.08] = 255
        label_map = LabelMap(ids=ids, name=f"t{trial}")

        counts = class_histogram([label_map], num_classes)
        ref_counts = np.zeros(num_classes, dtype=np.int64)
        for r in range(h):
            for c in range(w):
                if ids[r, c] != 255:
                    ref_counts[ids[r, c]] += 1
        npt.assert_array_equal(counts, ref_counts)

        bins = int(rng.integers(1, min(5, h) + 1))
        per_bin, _ = axis_distribution([label_map], num_classes, "height", bins=bins)
        ref_bins = np.zeros((bins, num_classes))
        for r in range(h):
            b = min(bins - 1, (r * bins) // h)
            for c in range(w):
                if ids[r, c] != 255:
                    ref_bins[b, ids[r, c]] += 1
        for b in range(bins):
            if ref_bins[b].sum() > 0:
                expected = ref_bins[b] / ref_bins[b].sum()
                worst = max(worst, float(np.abs(per_bin[b] - expected).max()))
                npt.assert_allclose(per_bin[b], expected, atol=1e-12)

        n_bands = int(rng.integers(1, 4))
        report = region_report([label_map], num_classes, equal_bands(n_bands))
        for b in range(n_bands):
            top = int(np.floor(b / n_bands * h))
            bottom = int(np.floor((b + 1) / n_bands * h))
            ref = np.zeros(num_classes)
            for r in range(top, bottom):
                for c in range(w):
                    if ids[r, c] != 255:
                        ref[ids[r, c]] += 1
            assert report.band_masses[b] == int(ref.sum())
            if ref.sum() > 0:
                expected = 100.0 * ref / ref.sum()
                worst = max(worst, float(np.abs(report.probabilities[b] - expected).max()) / 100.0)
                npt.assert_allclose(report.probabilities[b], expected, atol=1e-10)
    verdict(
        3, "statistics oracle equivalence", True,
        f"100 random maps, counts exact, probability deviation <= {worst:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: entropy reduction
# ---------------------------------------------------------------------------


def test_criterion_4_entropy_reduction():
    rng = np.random.default_rng(4)
    for trial in range(20):
        maps = []
        for i in range(3):
            h, w = int(rng.integers(4, 16)), int(rng.integers(4, 16))
            ids = rng.integers(0, 6, size=(h, w)).astype(np.int64)
            ids[rng.random((h, w)) < 0.05] = 255
            maps.append(LabelMap(ids=ids, name=f"r{trial}-{i}"))
        for n_bands in (2, 3, 4):
            report = region_report(maps, 6, equal_bands(n_bands))
            assert report.average_conditional_entropy <= report.unconditional_entropy + 1e-12

    data = synth_banded(seed=17, n_images=30, height=96, width=48, num_classes=6)
    maps = [LabelMap(ids=s.label, name=str(i)) for i, s in enumerate(data)]
    report = region_report(maps, 6, equal_bands(3))
    reduction = report.unconditional_entropy - report.average_conditional_entropy
    assert report.average_conditional_entropy <= report.unconditional_entropy + 1e-12
    ok = reduction >= 0.2
    verdict(
        4, "entropy reduction", ok,
        f"banded data: H(X)={report.unconditional_entropy:.3f}, "
        f"H(X|band)={report.average_conditional_entropy:.3f}, reduction {reduction:.3f} (>=0.2 nats); "
        f"concavity held on all 60 random sets",
    )


# ---------------------------------------------------------------------------
# criterion 5: mechanism efficacy
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_mechanism_efficacy(efficacy_runs):
    gaps = []
    details = []
    budget_ok = True
    for run in efficacy_runs:
        base = run["baseline"]
        gated = run["gated"]
        gap = 100.0 * (gated["report"].miou - base["report"].miou)
        gaps.append(gap)
        budget_ok = budget_ok and base["elapsed"] < RUN_BUDGET_SECONDS
        budget_ok = budget_ok and gated["elapsed"] < RUN_BUDGET_SECONDS
        details.append(
            f"seed {run['seed']}: {100 * base['report'].miou:.2f} -> "
            f"{100 * gated['report'].miou:.2f} (+{gap:.2f}, "
            f"{base['elapsed']:.0f}s/{gated['elapsed']:.0f}s)"
        )
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 2.0 and budget_ok
    verdict(
        5, "mechanism efficacy", ok,
        f"mean mIoU gain {mean_gap:.2f} points (>=2.0) over {len(SEEDS)} seeds; "
        + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# criterion 6: conditional urban-label reproduction
# ---------------------------------------------------------------------------


def test_criterion_6_urban_label_statistics():
    root = os.environ.get("ROWGATE_CITYSCAPES_DIR")
    if not root:
        pytest.skip("ROWGATE_CITYSCAPES_DIR not set; criterion 6 skipped (not failed)")
    from rowgate.rasters import read_label_map

    paths = sorted(Path(root).rglob("*labelTrainIds*"))
    paths = [p for p in paths if p.suffix.lower() in (".png", ".pgm")]
    assert paths, f"no labelTrainIds rasters under {root}"
    maps = [read_label_map(p) for p in paths]
    report = region_report(maps, 19, equal_bands(3))
    road_image = float(
        (report.probabilities * report.band_masses[:, None]).sum(axis=0)[0]
        / report.band_masses.sum()
    )
    road_upper = report.probabilities[0, 0]
    road_lower = report.probabilities[2, 0]
    checks = [
        abs(road_image - 36.9) <= 0.5,
        abs(road_lower - 87.9) <= 0.5,
        road_upper <= 0.05,
        abs(report.unconditional_entropy - 1.84) <= 0.03,
        abs(report.average_conditional_entropy - 1.26) <= 0.03,
    ]
    verdict(
        6, "urban label statistics", all(checks),
        f"p_road image {road_image:.2f}% lower {road_lower:.2f}% upper {road_upper:.4f}%, "
        f"H(X|image) {report.unconditional_entropy:.3f}, "
        f"avg conditional {report.average_conditional_entropy:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 7: logit-gate / class-band alignment
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_logit_gate_alignment(logit_gate_runs):
    height, _ = DATA_SHAPE
    bands = nominal_bands(height, 6)
    fractions = []
    details = []
    for entry in logit_gate_runs:
        model = entry["run"]["model"]
        val_set = entry["run"]["val_set"]
        pooled = None
        for sample in val_set:
            _, maps = model.forward(sample.image, training=False, collect_attention=True)
            pooled = maps[5] if pooled is None else pooled + maps[5]
        hits = 0
        for k in range(6):
            row = int(pooled[k].argmax()) * LOGIT_STRIDE
            lo, hi = bands[k]
            hits += int(any(lo <= r < hi for r in range(row, row + LOGIT_STRIDE)))
        fractions.append(hits / 6)
        details.append(f"seed {entry['seed']}: {hits}/6")
    mean_fraction = float(np.mean(fractions))
    ok = mean_fraction >= 0.8
    verdict(
        7, "logit-gate alignment", ok,
        f"mean in-band argmax fraction {mean_fraction:.2f} (>=0.80); " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# criterion 8: checkpoint round trip
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_checkpoint_round_trip(efficacy_runs, tmp_path):
    run = efficacy_runs[0]["gated"]
    model = run["model"]
    val_set = run["val_set"]
    before = run["report"]

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.state_arrays(), "acceptance-config")
    restored = ToySegModel.build(model.config)
    restored.load_state(load_checkpoint(path, "acceptance-config"))
    after = evaluate(restored, val_set)

    ok = (
        after.miou == before.miou
        and np.array_equal(after.confusion, before.confusion)
        and after.per_region_miou == before.per_region_miou
    )
    verdict(
        8, "checkpoint round trip", ok,
        f"mIoU {before.miou:.6f} reproduced bitwise after save/load",
    )
