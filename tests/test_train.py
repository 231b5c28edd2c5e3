"""Training loop behaviour: schedule, determinism, divergence, overfit."""

import numpy as np
import numpy.testing as npt
import pytest

from rowgate.data import synth_banded
from rowgate.errors import ConfigError, DivergenceError
from rowgate.metrics import evaluate
from rowgate.net import GateSettings, ToySegConfig, ToySegModel
from rowgate.optim import poly_lr
from rowgate.train import TrainConfig, TrainLog, make_optimizer, train

TINY_GATE = GateSettings(coarse_height=2, reduction=2)


def tiny_model(layers=(), seed=0):
    return ToySegModel.build(
        ToySegConfig(num_classes=4, widths=(4, 6, 6), gate_layers=frozenset(layers),
                     gate=TINY_GATE, seed=seed)
    )


def tiny_data(seed=0, n=4, size=16):
    return synth_banded(seed=seed, n_images=n, height=size, width=size, num_classes=4)


class TestSchedule:
    def test_logged_lr_equals_poly_schedule(self):
        model = tiny_model()
        config = TrainConfig(max_iteration=12, batch_size=1, crop=(16, 16))
        log = train(model, tiny_data(), config, np.random.default_rng(0))
        for it, lr in zip(log.iterations, log.lrs):
            assert lr == poly_lr(it, config.base_lr, config.max_iteration, config.power)

    def test_log_csv_round_trip(self, tmp_path):
        log = TrainLog()
        log.append(0, 1e-2, 1.5)
        log.append(1, 9.9e-3, 1.25)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,lr,loss"
        assert lines[1].startswith("0,0.01,")


class TestWeightDecayGroups:
    def test_grouped_decay_is_inspectable(self):
        model = tiny_model(layers=(1, 4))
        config = TrainConfig(max_iteration=1, crop=(16, 16))
        optimizer = make_optimizer(model, config)
        decays = {g.name: g.weight_decay for g in optimizer.groups}
        assert decays == {"main": 5e-4, "attn": 1e-4}
        names = {g.name: [n for n, _ in g.params] for g in optimizer.groups}
        assert all(n.startswith("gate.") for n in names["attn"])
        assert not any(n.startswith("gate.") for n in names["main"])
        assert len(names["attn"]) > 0


class TestDeterminism:
    def test_identical_seeds_identical_parameters(self):
        runs = []
        for _ in range(2):
            model = tiny_model(layers=(1,))
            config = TrainConfig(max_iteration=8, batch_size=2, crop=(16, 16))
            train(model, tiny_data(), config, np.random.default_rng(7))
            runs.append({n: p.data.copy() for n, p in model.named_parameters()})
        for name in runs[0]:
            npt.assert_array_equal(runs[0][name], runs[1][name])

    def test_different_seeds_differ(self):
        finals = []
        for seed in (0, 1):
            model = tiny_model(layers=(1,))
            config = TrainConfig(max_iteration=8, batch_size=2, crop=(16, 16))
            train(model, tiny_data(), config, np.random.default_rng(seed))
            finals.append(model.named_parameters()[0][1].data.copy())
        assert not np.array_equal(finals[0], finals[1])


class TestFailureModes:
    def test_divergence_aborts_with_diagnostic(self):
        model = tiny_model()
        config = TrainConfig(max_iteration=50, base_lr=1e6, batch_size=1, crop=(16, 16))
        with pytest.raises(DivergenceError):
            train(model, tiny_data(), config, np.random.default_rng(0))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train(tiny_model(), [], TrainConfig(max_iteration=1), np.random.default_rng(0))

    def test_invalid_power_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_iteration=1, power=1.5)


class TestOverfit:
    def test_single_sample_overfit(self):
        # one image, 300 iterations: pixel accuracy must exceed 99%
        model = ToySegModel.build(
            ToySegConfig(num_classes=6, gate=TINY_GATE, seed=0)
        )
        data = synth_banded(seed=11, n_images=1, height=64, width=64, noise=0.3)
        config = TrainConfig(max_iteration=300, batch_size=1)
        log = train(model, data, config, np.random.default_rng(5))
        report = evaluate(model, data)
        assert report.pixel_accuracy > 0.99, f"accuracy {report.pixel_accuracy}"
        assert log.losses[-1] < 0.1
