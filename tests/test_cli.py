"""End-to-end command-line behaviour and exit codes."""

import contextlib
import io

import numpy as np
import numpy.testing as npt
import pytest

from rowgate.attention import GateSettings
from rowgate.cli import main
from rowgate.config import DEFAULTS, build_model_config, parse_config_text, render, render_model, resolve
from rowgate.data import synth_banded
from rowgate.errors import ConfigError
from rowgate.rasters import read_pgm, write_pgm, write_ppm

FAST_MODEL = [
    "--set", "model.widths=4,6,6", "--set", "model.num_classes=4",
    "--set", "gate.coarse_height=2", "--set", "gate.reduction=2",
    "--set", "data.height=16", "--set", "data.width=16",
    "--set", "data.n_train=6", "--set", "data.n_val=3",
    "--set", "train.max_iteration=5", "--set", "train.batch_size=2",
    "--set", "train.crop=16x16",
]


def write_banded_labels(directory, n=4, num_classes=4):
    directory.mkdir(parents=True, exist_ok=True)
    data = synth_banded(seed=3, n_images=n, height=24, width=16, num_classes=num_classes)
    for i, sample in enumerate(data):
        write_pgm(directory / f"{i:03d}.pgm", sample.label)


class TestConfigResolution:
    def test_round_trip(self):
        values = resolve(None, ["seed=7", "train.lr=5e-3"])
        text = render(values)
        assert parse_config_text(text) == values

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve(None, ["no.such.key=1"])

    def test_file_values_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed=3\ntrain.lr=2e-2\n")
        values = resolve(cfg, ["train.lr=3e-2"])
        assert values["seed"] == "3"
        assert values["train.lr"] == "3e-2"

    def test_defaults_cover_every_key(self):
        text = render(dict(DEFAULTS))
        assert parse_config_text(text) == DEFAULTS

    def test_gate_defaults_are_the_dataclass_defaults(self):
        assert build_model_config(resolve(None)).gate == GateSettings()
        # checkpoint digests cover this text, so it must not drift
        assert {k: v for k, v in DEFAULTS.items() if k.startswith("gate.")} == {
            "gate.coarse_height": "8", "gate.reduction": "2", "gate.pool": "avg",
            "gate.pe": "sinusoidal", "gate.pe_layer": "2", "gate.jitter": "2",
            "gate.dropout": "0.1",
        }

    def test_default_model_text_is_pinned(self):
        # checkpoint digests cover this text, so existing checkpoints load only if it holds
        assert render_model(resolve(None)) == (
            "# resolved run configuration\n"
            "gate.coarse_height=8\ngate.dropout=0.1\ngate.jitter=2\ngate.pe=sinusoidal\n"
            "gate.pe_layer=2\ngate.pool=avg\ngate.reduction=2\n"
            "model.gate_layers=1,2,3,4\nmodel.in_channels=3\nmodel.num_classes=6\n"
            "model.widths=16,32,32\nseed=0\n"
        )

    def test_gate_settings_checked_without_gate_layers(self):
        with pytest.raises(ConfigError):
            build_model_config(resolve(None, ["model.gate_layers=", "gate.pool=bogus"]))


class TestStatsCommand:
    def test_banded_directory_report(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        write_banded_labels(labels)
        out = tmp_path / "out"
        code = main(["stats", str(labels), "--classes", "4", "--bands", "4",
                     "--out", str(out)])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        values = dict(line.split("=") for line in summary.strip().splitlines())
        assert float(values["average_conditional_entropy"]) < float(values["unconditional_entropy"])
        assert float(values["height_spread"]) > float(values["width_spread"])
        assert (out / "report.csv").exists()
        assert read_pgm(out / "height_distribution.pgm").shape[0] == 16

    def test_single_band_matches_unconditional(self, tmp_path):
        labels = tmp_path / "labels"
        write_banded_labels(labels)
        out = tmp_path / "out"
        assert main(["stats", str(labels), "--classes", "4", "--bands", "1",
                     "--out", str(out)]) == 0
        values = dict(
            line.split("=")
            for line in (out / "summary.txt").read_text().strip().splitlines()
        )
        assert values["average_conditional_entropy"] == values["unconditional_entropy"]

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["stats", str(empty), "--classes", "4", "--out", str(tmp_path / "o")]) == 1

    def test_unreadable_file_fails_with_name(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        (labels / "broken.pgm").write_bytes(b"P5\n8 8\n255\nxx")
        assert main(["stats", str(labels), "--classes", "4", "--out", str(tmp_path / "o")]) == 1
        assert "broken.pgm" in capsys.readouterr().err

    def test_unreadable_files_fail_on_one_line(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        (labels / "a_zero.pgm").write_bytes(b"P5 2 2 0\n\0\0\0\0")
        (labels / "b_short.pgm").write_bytes(b"P5\n8 8\n255\nxx")
        assert main(["stats", str(labels), "--classes", "4", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert err.count("a_zero.pgm") == 1 and "b_short.pgm" not in err
        assert "1 more" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def default_gradcheck():
    """Exit code and report of one `rowgate gradcheck` run with the default config."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gradcheck"])
    return code, out.getvalue()


class TestGradcheckCommand:
    # seed 8's first toy-model draw puts a relu input 3.2e-5 from its kink
    @pytest.mark.slow
    @pytest.mark.parametrize("overrides", [[], ["--set", "seed=8"]], ids=["default", "seed8"])
    def test_default_config_passes(self, overrides, request, capsys):
        if overrides:
            code, out = main(["gradcheck", *overrides]), capsys.readouterr().out
        else:
            code, out = request.getfixturevalue("default_gradcheck")
        assert code == 0
        assert out.count("[PASS]") == 4
        assert "[FAIL]" not in out

    @pytest.mark.slow
    def test_report_is_reproducible(self, default_gradcheck, capsys):
        main(["gradcheck"])
        assert capsys.readouterr().out == default_gradcheck[1]

    def test_oversized_epsilon_is_a_numerical_failure(self, capsys):
        assert main(["gradcheck", "--set", "gradcheck.epsilon=1e-1"]) == 2
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    ([], 1),
    (["bogus"], 1),
    (["stats"], 1),
    (["gradcheck", "--epsilon", "1e-6"], 1),
    (["train", "--set"], 1),
    (["--help"], 0),
    (["gradcheck", "--help"], 0),
], ids=["no_command", "unknown_command", "stats_no_args", "epsilon_flag", "set_no_value",
        "help", "gradcheck_help"])
def test_usage_errors_exit_1_with_one_line(argv, code, capsys):
    try:
        got = main(argv)
    except SystemExit as exc:  # --help prints the usage and exits
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if code:
        assert err.count("\n") == 1 and err.startswith("error: rowgate") and out == ""
    else:
        assert out.startswith("usage: rowgate") and err == ""


# Each breaks one input of `rowgate train` at the IO boundary and returns
# the flags that point train at it, and what the error line must name.
def config_missing(tmp):
    return ["--config", str(tmp / "missing.cfg")], "missing.cfg"


def config_unreadable(tmp):
    return ["--config", str(tmp)], "cannot read config"


def config_not_utf8(tmp):
    (tmp / "latin1.cfg").write_bytes(b"seed=\xe9\n")
    return ["--config", str(tmp / "latin1.cfg")], "latin1.cfg"


def label_missing(tmp):
    (tmp / "data" / "val" / "labels" / "00000.pgm").unlink()
    return ["--set", f"data.dir={tmp / 'data'}"], "00000.pgm"


def image_unreadable(tmp):
    image = tmp / "data" / "train" / "images" / "00001.ppm"
    image.unlink()
    image.mkdir()
    return ["--set", f"data.dir={tmp / 'data'}"], "00001.ppm"


@pytest.mark.parametrize(
    "break_input", [config_missing, config_unreadable, config_not_utf8, label_missing, image_unreadable],
    ids=lambda f: f.__name__,
)
def test_io_failure_exits_1_with_one_line(break_input, tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "data"), *FAST_MODEL]) == 0
    flags, named = break_input(tmp_path)
    capsys.readouterr()
    code = main(["train", "--out", str(tmp_path / "run"), *FAST_MODEL, *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("setting", [
    "train.crop=0x0", "train.crop=-4x8", "train.lr=nan", "train.lr=inf", "train.momentum=nan",
    "train.weight_decay_main=nan", "data.noise=nan", "data.noise=inf",
])
def test_bad_training_setting_exits_1_with_one_line(setting, tmp_path, capsys):
    code = main(["train", "--out", str(tmp_path / "run"), *FAST_MODEL, "--set", setting])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert setting.split("=")[1] in err and "Traceback" not in err


# Each sets a run setting only through --set, or tries a flag or key that is
# gone; the error line must name the culprit.
@pytest.mark.parametrize("argv, named", [
    (["train", "--set", "data.source=dir"], "data.source"),
    (["train", "--set", "data.classes=4"], "data.classes"),
    (["train", "--data", "X"], "--data"),
    (["gradcheck", "--epsilon", "1e-6"], "--epsilon"),
    (["train", "--set", "seed=-1"], "seed"),
    (["train", "--set", "data.seed=-1"], "data.seed"),
    (["gradcheck", "--set", "seed=-1"], "seed"),
    (["train", "--set", "data.n_val=0"], "image"),
    (["gradcheck", "--set", "gradcheck.tolerance=nan"], "tolerance"),
    (["gradcheck", "--set", "gradcheck.epsilon=abc"], "abc"),
], ids=["data_source_key", "data_classes_key", "data_flag", "epsilon_flag", "negative_seed",
        "negative_data_seed", "negative_gradcheck_seed", "empty_val_split", "tolerance_nan",
        "epsilon_not_a_float"])
def test_bad_run_setting_exits_1_with_one_line(argv, named, tmp_path, capsys):
    if argv[0] == "train":
        argv = ["train", "--out", str(tmp_path / "run"), *FAST_MODEL, *argv[1:]]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert named in err and "Traceback" not in err


def test_resolved_config_repeats_a_directory_run(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), *FAST_MODEL]) == 0
    first, again = tmp_path / "run", tmp_path / "again"
    assert main(["train", "--out", str(first), "--set", f"data.dir={data_dir}", *FAST_MODEL]) == 0
    assert main(["train", "--out", str(again), "--config", str(first / "resolved.cfg")]) == 0
    for name in ("model.ckpt", "eval.txt"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--out", str(out), *FAST_MODEL])
    assert code == 0
    return out


class TestTrainEvalAttn:
    def test_train_outputs(self, run_dir):
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "resolved.cfg").exists()
        log = (run_dir / "train_log.csv").read_text().strip().splitlines()
        assert log[0] == "iteration,lr,loss"
        assert len(log) == 6
        first = log[1].split(",")
        assert float(first[1]) == 1e-2  # initial learning rate

    def test_eval_reproduces_training_validation(self, run_dir, tmp_path, capsys):
        train_eval = (run_dir / "eval.txt").read_text()
        out = tmp_path / "eval"
        code = main(["eval", "--out", str(out), "--checkpoint", str(run_dir / "model.ckpt"),
                     *FAST_MODEL])
        assert code == 0
        assert (out / "eval.txt").read_text() == train_eval

    def test_eval_ignores_training_keys(self, run_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--out", str(out), "--checkpoint", str(run_dir / "model.ckpt"),
                     *FAST_MODEL, "--set", "train.max_iteration=1"])
        assert code == 0
        assert (out / "eval.txt").read_text() == (run_dir / "eval.txt").read_text()

    def test_checkpoint_config_mismatch_fails(self, run_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["eval", "--out", str(out), "--checkpoint", str(run_dir / "model.ckpt"),
                     *FAST_MODEL, "--set", "seed=99"])
        assert code == 1

    def test_truncated_checkpoint_fails_cleanly(self, run_dir, tmp_path, capsys):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes((run_dir / "model.ckpt").read_bytes()[:-5])
        capsys.readouterr()
        code = main(["eval", "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt), *FAST_MODEL])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_attention_dump(self, run_dir, tmp_path):
        image_path = tmp_path / "input.ppm"
        sample = synth_banded(seed=9, n_images=1, height=16, width=16, num_classes=4)[0]
        write_ppm(image_path, np.clip(np.rint(sample.image * 255), 0, 255).astype(np.uint8))
        out = tmp_path / "attn"
        code = main(["attn", "--out", str(out), "--checkpoint", str(run_dir / "model.ckpt"),
                     "--image", str(image_path), *FAST_MODEL])
        assert code == 0
        for site in (1, 2, 3, 4):
            csv_path = out / f"attention_L{site}.csv"
            assert csv_path.exists()
            values = np.array([
                [float(v) for v in line.split(",")]
                for line in csv_path.read_text().strip().splitlines()
            ])
            assert np.all((values > 0) & (values < 1))
            assert (out / f"attention_L{site}.pgm").exists()

    def test_zero_initialized_gates_dump_mid_gray(self, tmp_path):
        from rowgate.checkpoint import save_checkpoint
        from rowgate.config import build_model_config, render_model, resolve
        from rowgate.net import ToySegModel

        values = resolve(None, [o for o in FAST_MODEL if o != "--set"])
        model = ToySegModel.build(build_model_config(values))
        for site, (_, params) in model.gates.items():
            for name, p in params.named():
                if "conv" in name:
                    p.data[:] = 0.0
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(ckpt, model.state_arrays(), render_model(values))

        sample = synth_banded(seed=10, n_images=1, height=16, width=16, num_classes=4)[0]
        image_path = tmp_path / "input.ppm"
        write_ppm(image_path, np.clip(np.rint(sample.image * 255), 0, 255).astype(np.uint8))
        out = tmp_path / "attn"
        code = main(["attn", "--out", str(out), "--checkpoint", str(ckpt),
                     "--image", str(image_path), "--layer", "L1", *FAST_MODEL])
        assert code == 0
        heat = read_pgm(out / "attention_L1.pgm")
        assert set(np.unique(heat)) <= {127, 128}

    def test_missing_gate_layer_fails(self, run_dir, tmp_path, capsys):
        sample = synth_banded(seed=11, n_images=1, height=16, width=16, num_classes=4)[0]
        image_path = tmp_path / "input.ppm"
        write_ppm(image_path, np.clip(np.rint(sample.image * 255), 0, 255).astype(np.uint8))
        code = main(["attn", "--out", str(tmp_path / "o"), "--checkpoint",
                     str(run_dir / "model.ckpt"), "--image", str(image_path),
                     "--layer", "L5", *FAST_MODEL])
        assert code == 1

    def test_zero_iteration_training_still_evaluates(self, tmp_path):
        out = tmp_path / "zero"
        args = [a if a != "train.max_iteration=5" else "train.max_iteration=0" for a in FAST_MODEL]
        assert main(["train", "--out", str(out), *args]) == 0
        text = (out / "eval.txt").read_text()
        miou = float(text.splitlines()[0].split("=")[1])
        assert 0.0 <= miou < 0.6  # near-chance for an untrained model


class TestSynthCommand:
    def test_materialized_dataset_round_trips(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), *FAST_MODEL]) == 0
        train_images = sorted((out / "train" / "images").glob("*.ppm"))
        train_labels = sorted((out / "train" / "labels").glob("*.pgm"))
        assert len(train_images) == 6 and len(train_labels) == 6
        label = read_pgm(train_labels[0])
        assert label.shape == (16, 16)
        assert label.max() <= 3

    def test_training_from_directory(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), *FAST_MODEL]) == 0
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--set", f"data.dir={data_dir}", *FAST_MODEL]) == 0
        assert (out / "model.ckpt").exists()
