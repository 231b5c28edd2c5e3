"""Checkpoint serialization: bitwise round trips and digest guarding."""

import numpy as np
import numpy.testing as npt
import pytest

from rowgate.attention import GateSettings
from rowgate.checkpoint import load_checkpoint, save_checkpoint
from rowgate.data import synth_banded
from rowgate.errors import DataError
from rowgate.metrics import evaluate
from rowgate.net import ToySegConfig, ToySegModel
from rowgate.train import TrainConfig, train


def small_model(seed=0):
    return ToySegModel.build(
        ToySegConfig(num_classes=4, widths=(4, 6, 6), gate_layers=frozenset({1, 5}),
                     gate=GateSettings(coarse_height=2, reduction=2), seed=seed)
    )


class TestRoundTrip:
    def test_arrays_survive_bitwise(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.state_arrays(), "cfg-v1")
        loaded = load_checkpoint(path, "cfg-v1")
        for name, arr in model.state_arrays():
            npt.assert_array_equal(loaded[name], arr)

    def test_digest_mismatch_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.state_arrays(), "cfg-v1")
        with pytest.raises(DataError):
            load_checkpoint(path, "cfg-v2")

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(DataError):
            load_checkpoint(path, "cfg")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt", "cfg")

    def test_truncation_at_every_byte_rejected(self, tmp_path):
        arrays = [("w", np.arange(6.0).reshape(2, 3)), ("scalar", np.float64(2.5)), ("b", np.ones(2))]
        whole = tmp_path / "whole.ckpt"
        save_checkpoint(whole, arrays, "cfg")
        data = whole.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(DataError):
                load_checkpoint(cut, "cfg")
        assert sorted(load_checkpoint(whole, "cfg")) == ["b", "scalar", "w"]

    def test_repeated_blob_name_rejected(self, tmp_path):
        path = tmp_path / "twice.ckpt"
        save_checkpoint(path, [("w", np.zeros(2)), ("w", np.ones(2)), ("b", np.zeros(1))], "cfg")
        with pytest.raises(DataError, match="'w' appears more than once"):
            load_checkpoint(path, "cfg")

    def test_trained_model_reproduces_miou_bitwise(self, tmp_path):
        model = small_model()
        data = synth_banded(seed=1, n_images=4, height=16, width=16, num_classes=4)
        train(model, data, TrainConfig(max_iteration=10, batch_size=2),
              np.random.default_rng(0))
        before = evaluate(model, data)

        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.state_arrays(), "cfg")
        restored = small_model()
        restored.load_state(load_checkpoint(path, "cfg"))
        after = evaluate(restored, data)

        assert after.miou == before.miou
        npt.assert_array_equal(after.confusion, before.confusion)
        assert after.per_region_miou == before.per_region_miou
