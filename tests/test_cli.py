"""End-to-end command-line behaviour and exit codes."""

import contextlib
import io

import numpy as np
import numpy.testing as npt
import pytest

from rowgate import gradcheck
from rowgate.attention import GateSettings
from rowgate.cli import main
from rowgate.config import (
    DEFAULTS,
    build_model_config,
    build_train_config,
    parse_config_text,
    render,
    render_model,
    resolve,
)
from rowgate.data import synth_banded
from rowgate.errors import ConfigError
from rowgate.net import LOGIT_STRIDE, ToySegConfig
from rowgate.rasters import load_label_dir, read_pgm, unit_to_u8, write_matrix_csv, write_pgm, write_ppm
from rowgate.stats import axis_distribution
from rowgate.train import TrainConfig, TrainLog

FAST_MODEL = [
    "--set", "model.widths=4,6,6", "--set", "model.num_classes=4",
    "--set", "gate.coarse_height=2", "--set", "gate.reduction=2",
    "--set", "data.height=16", "--set", "data.width=16",
    "--set", "data.n_train=6", "--set", "data.n_val=3",
    "--set", "train.max_iteration=5", "--set", "train.batch_size=2",
]


def matrix_csv_text(tmp_path, matrix) -> str:
    write_matrix_csv(tmp_path / "expected.csv", matrix)
    return (tmp_path / "expected.csv").read_text()


def write_input_image(tmp_path, seed):
    sample = synth_banded(seed=seed, n_images=1, height=16, width=16, num_classes=4)[0]
    image_path = tmp_path / "input.ppm"
    write_ppm(image_path, unit_to_u8(sample.image))
    return image_path


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
        assert sorted(DEFAULTS) == [
            "data.dir", "data.height", "data.n_train", "data.n_val", "data.noise", "data.seed",
            "data.width", "gate.coarse_height", "gate.dropout", "gate.jitter", "gate.pe",
            "gate.pe_layer", "gate.pool", "gate.reduction", "gradcheck.epsilon",
            "gradcheck.tolerance", "model.gate_layers", "model.num_classes", "model.widths", "seed",
            "train.batch_size", "train.lr", "train.max_iteration",
        ]

    def test_gate_defaults_are_the_dataclass_defaults(self):
        assert build_model_config(resolve(None)).gate == GateSettings()
        assert build_model_config(resolve(None)) == ToySegConfig(num_classes=6)
        assert build_train_config(resolve(None)) == TrainConfig(max_iteration=400)
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
            "model.gate_layers=1,2,3,4\nmodel.num_classes=6\n"
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
        assert read_pgm(out / "width_distribution.pgm").shape[0] == 16

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

    @pytest.mark.parametrize("bands", ["abc", "0.5,x", "nan,nan", "1e9"])
    def test_malformed_bands_fail_on_one_line(self, bands, tmp_path, capsys):
        labels = tmp_path / "labels"
        write_banded_labels(labels)
        code = main(["stats", str(labels), "--classes", "4", "--bands", bands,
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    # stats has no --bins: the distributions use axis_distribution's default bin count
    @pytest.mark.parametrize("flags, named", [(["--classes", "-1"], "class count"),
                                              (["--classes", "0"], "class count"),
                                              (["--classes", "4", "--bins", "0"], "unrecognized arguments: --bins")],
                             ids=["classes_negative", "classes_zero", "bins_zero"])
    def test_bad_count_fails_on_one_line_and_writes_nothing(self, flags, named, tmp_path, capsys):
        labels = tmp_path / "labels"
        write_banded_labels(labels)
        out = tmp_path / "o"
        code = main(["stats", str(labels), *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("value", ["300", "abc"])
    def test_ascii_label_fails_on_one_line_and_writes_nothing(self, value, tmp_path, capsys):
        labels = tmp_path / "labels"
        write_banded_labels(labels)
        (labels / "ascii.pgm").write_text(f"P2\n1 1\n255\n{value}\n")
        out = tmp_path / "o"
        code = main(["stats", str(labels), "--classes", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and "ascii.pgm" in err
        assert "expected P5 PGM" in err and "Traceback" not in err
        assert not out.exists()


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


# attn has no --layer: it writes every gate the model has
@pytest.mark.parametrize("argv, code, named", [
    ([], 1, "command"),
    (["bogus"], 1, "bogus"),
    (["stats"], 1, "label_dir"),
    (["gradcheck", "--epsilon", "1e-6"], 1, "--epsilon"),
    (["train", "--set"], 1, "--set"),
    (["attn", "--out", "o", "--checkpoint", "c", "--image", "i", "--layer", "foo"], 1,
     "unrecognized arguments: --layer foo"),
    (["attn", "--out", "o", "--checkpoint", "c", "--image", "i", "--layer", "LL5"], 1,
     "unrecognized arguments: --layer LL5"),
    (["--help"], 0, ""),
    (["gradcheck", "--help"], 0, ""),
], ids=["no_command", "unknown_command", "stats_no_args", "epsilon_flag", "set_no_value",
        "attn_layer_foo", "attn_layer_LL5", "help", "gradcheck_help"])
def test_usage_errors_exit_1_with_one_line(argv, code, named, capsys):
    try:
        got = main(argv)
    except SystemExit as exc:  # --help prints the usage and exits
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if code:
        assert err.count("\n") == 1 and err.startswith("error: rowgate") and out == ""
        assert named in err
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


def label_out_of_range(tmp):
    label = tmp / "data" / "val" / "labels" / "00002.pgm"
    write_pgm(label, np.full_like(read_pgm(label), 7))  # FAST_MODEL has 4 classes
    return ["--set", f"data.dir={tmp / 'data'}"], "00002.pgm"


@pytest.mark.parametrize(
    "break_input",
    [config_missing, config_unreadable, config_not_utf8, label_missing, image_unreadable, label_out_of_range],
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
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting", ["train.lr=nan", "train.lr=inf", "data.noise=nan", "data.noise=inf"])
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
    (["train", "--set", "train.crop=96x48"], "train.crop"),
    (["train", "--set", "model.in_channels=3"], "model.in_channels"),
    (["train", "--set", "train.momentum=0.9"], "train.momentum"),
    (["train", "--set", "train.momentum=nan"], "train.momentum"),
    (["train", "--set", "train.weight_decay_main=0.0005"], "train.weight_decay_main"),
    (["train", "--set", "train.weight_decay_main=nan"], "train.weight_decay_main"),
    (["train", "--set", "train.weight_decay_attn=0.0001"], "train.weight_decay_attn"),
    (["train", "--set", "train.power=0.9"], "train.power"),
    (["gradcheck", "--set", "gradcheck.model_tolerance=1e-3"], "gradcheck.model_tolerance"),
    (["train", "--set", "data.width=-4"], "-4"),
    (["train", "--set", "gate.coarse_height=1"], "coarse_height"),
], ids=["data_source_key", "data_classes_key", "data_flag", "epsilon_flag", "negative_seed",
        "negative_data_seed", "negative_gradcheck_seed", "empty_val_split", "tolerance_nan",
        "epsilon_not_a_float", "crop_key", "in_channels_key", "momentum_key", "momentum_nan",
        "weight_decay_main_key", "weight_decay_main_nan", "weight_decay_attn_key", "power_key",
        "model_tolerance_key", "negative_width", "coarse_height_one"])
def test_bad_run_setting_exits_1_with_one_line(argv, named, tmp_path, capsys):
    if argv[0] == "train":
        argv = ["train", "--out", str(tmp_path / "run"), *FAST_MODEL, *argv[1:]]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["gradcheck.tolerance"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-4"])
def test_bad_gradcheck_tolerance_is_caught_before_the_suite(key, value, monkeypatch, capsys):
    monkeypatch.setattr(gradcheck, "suite", lambda *args, **kwargs: pytest.fail("the suite ran"))
    assert main(["gradcheck", "--set", f"{key}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and len(err.strip().splitlines()) == 1


# Each fails a check after its config resolves; the check must come before
# the first write, so --out stays empty.
@pytest.mark.parametrize("argv", [
    ["attn", "--checkpoint", "{tmp}/missing.ckpt", "--image", "{tmp}/missing.ppm"],
    ["eval", "--checkpoint", "{tmp}/missing.ckpt"],
    ["train", "--set", "data.height=18"],
    ["train", "--set", "data.height=16", "--set", "train.max_iteration=0"],
    ["synth", "--set", "data.n_train=0"],
    ["synth", "--set", "data.width=-4"],
    ["gradcheck", "--set", "gradcheck.tolerance=nan"],
], ids=["attn_no_checkpoint", "eval_no_checkpoint", "train_height_not_divisible",
        "train_coarser_than_context", "synth_empty_split", "synth_negative_width",
        "gradcheck_tolerance_nan"])
def test_failing_command_writes_nothing(argv, tmp_path, capsys):
    out = tmp_path / "o"
    code = main([arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


def test_train_draws_from_its_own_stream(tmp_path, monkeypatch):
    """`rowgate train`'s generator replays neither init stream nor the gradcheck inputs."""
    seen = []
    monkeypatch.setattr("rowgate.cli.train", lambda model, data, config, rng: seen.append(rng) or TrainLog())
    assert main(["train", "--out", str(tmp_path / "run"), *FAST_MODEL]) == 0
    first = seen[0].random(3)
    children = np.random.SeedSequence(0).spawn(4)  # FAST_MODEL runs at seed 0
    for child in (0, 1, 3):  # conv init, gate init, gradcheck inputs
        assert not np.array_equal(first, np.random.default_rng(children[child]).random(3)), child


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
                     "--image", str(image_path), *FAST_MODEL])
        assert code == 0
        heat = read_pgm(out / "attention_L1.pgm")
        assert set(np.unique(heat)) <= {127, 128}

    def test_missing_gate_layer_fails(self, run_dir, tmp_path, capsys):
        """--labels asks for the L5 gate's rows; FAST_MODEL gates L1-L4 only."""
        image_path = write_input_image(tmp_path, seed=11)
        labels = tmp_path / "labels"
        write_banded_labels(labels)
        out = tmp_path / "o"
        code = main(["attn", "--out", str(out), "--checkpoint", str(run_dir / "model.ckpt"),
                     "--image", str(image_path), "--labels", str(labels), *FAST_MODEL])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and "L5" in err
        assert not out.exists()

    def test_labels_distribution_at_the_logit_gate_rows(self, tmp_path):
        from rowgate.checkpoint import save_checkpoint
        from rowgate.config import build_model_config, render_model, resolve
        from rowgate.net import ToySegModel

        flags = [*FAST_MODEL, "--set", "model.gate_layers=1,5"]
        values = resolve(None, [o for o in flags if o != "--set"])
        ckpt = tmp_path / "l5.ckpt"
        save_checkpoint(ckpt, ToySegModel.build(build_model_config(values)).state_arrays(),
                        render_model(values))
        image_path = write_input_image(tmp_path, seed=12)
        labels = tmp_path / "labels"
        write_banded_labels(labels)
        out = tmp_path / "attn"
        assert main(["attn", "--out", str(out), "--checkpoint", str(ckpt), "--image", str(image_path),
                     "--labels", str(labels), *flags]) == 0
        assert sorted(p.name for p in out.glob("attention_L*")) == [
            "attention_L1.csv", "attention_L1.pgm", "attention_L5.csv", "attention_L5.pgm"]
        rows = len((out / "attention_L5.csv").read_text().splitlines())
        assert rows == 16 // LOGIT_STRIDE
        per_bin, _ = axis_distribution(load_label_dir(labels), 4, "height", bins=rows)
        assert (out / "height_class_distribution.csv").read_text() == matrix_csv_text(tmp_path, per_bin)

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
