"""Toy segmentation model: shapes, parameter accounting, gate attachment."""

import numpy as np
import numpy.testing as npt
import pytest

from rowgate import attention as attn
from rowgate.errors import ConfigError, ShapeError
from rowgate.attention import GateSettings
from rowgate.gradcheck import gradcheck, toy_model, toy_model_case
from rowgate.net import ToySegConfig, ToySegModel
from rowgate.tensor import relu_input_margin

TINY_GATE = GateSettings(coarse_height=2, reduction=2, jitter_max=0, dropout_p=0.0)


def tiny_config(layers=(), **overrides) -> ToySegConfig:
    base = dict(
        num_classes=3,
        in_channels=2,
        widths=(4, 6, 6),
        gate_layers=frozenset(layers),
        gate=TINY_GATE,
        seed=0,
    )
    base.update(overrides)
    return ToySegConfig(**base)


def param_count(model: ToySegModel) -> int:
    return sum(p.size for _, p in model.named_parameters())


class TestBuild:
    def test_forward_shape_contract(self):
        model = ToySegModel.build(tiny_config(layers=(1, 2, 3, 4)))
        rng = np.random.default_rng(0)
        for h, w in ((16, 16), (24, 32), (64, 48)):
            logits = model.forward(rng.normal(size=(2, h, w)))
            assert logits.shape == (3, h, w)

    def test_indivisible_extent_rejected(self):
        model = ToySegModel.build(tiny_config())
        for shape in [(2, 18, 16), (2, 0, 0), (2, 4, 0), (2, 0, 8)]:
            with pytest.raises(ShapeError):
                model.forward(np.zeros(shape))

    def test_baseline_has_fewest_parameters(self):
        baseline = param_count(ToySegModel.build(tiny_config()))
        for site in (1, 2, 3, 4, 5):
            attached = param_count(ToySegModel.build(tiny_config(layers=(site,))))
            assert attached > baseline

    def test_gate_parameter_delta_matches_closed_form(self):
        baseline = param_count(ToySegModel.build(tiny_config()))
        for site in (1, 2, 3, 4, 5):
            for pe_mode in ("none", "sinusoidal", "learnable"):
                cfg = tiny_config(layers=(site,), gate=GateSettings(
                    coarse_height=2, reduction=2, pe_mode=pe_mode, jitter_max=0, dropout_p=0.0))
                model = ToySegModel.build(cfg)
                assert param_count(model) - baseline == attn.param_count(cfg.gate_config(site))

    def test_last_site_gates_class_logits(self):
        cfg = tiny_config(layers=(5,))
        model = ToySegModel.build(cfg)
        gate_cfg, _ = model.gates[5]
        assert gate_cfg.out_channels == cfg.num_classes

    def test_same_seed_same_weights(self):
        a = ToySegModel.build(tiny_config(layers=(1, 5)))
        b = ToySegModel.build(tiny_config(layers=(1, 5)))
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            npt.assert_array_equal(pa.data, pb.data)

    def test_odd_encoder_width_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(widths=(4, 5, 6))

    def test_unknown_gate_site_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(layers=(0, 1))

    def test_attention_collection(self):
        model = ToySegModel.build(tiny_config(layers=(1, 3, 5)))
        logits, maps = model.forward(
            np.random.default_rng(1).normal(size=(2, 16, 16)), collect_attention=True
        )
        assert sorted(maps) == [1, 3, 5]
        assert maps[1].shape == (6, 4)   # encoder map at stride 4
        assert maps[3].shape == (6, 8)   # fused decoder map at stride 2
        assert maps[5].shape == (3, 8)   # class logits at stride 2
        for amap in maps.values():
            assert np.all((amap > 0) & (amap < 1))


class TestFullModelGradients:
    @pytest.mark.slow
    def test_all_gates_attached(self):
        case = toy_model_case(toy_model(), np.random.default_rng(2))
        assert relu_input_margin(case.f) > 1e-4
        report = gradcheck(case.f, case.params, eps=1e-5, tol=1e-3)
        assert report.passed, report.format()
