"""Command-line surface.

Subcommands: ``stats`` (label-raster distribution/entropy reports),
``gradcheck`` (finite-difference verification suite), ``train`` /
``eval`` (toy segmentation runs), ``attn`` (attention-map dumps), and
``synth`` (materialize a banded dataset).  Every run resolves one
key=value configuration and logs it as ``resolved.cfg``; no other flag
changes a run setting, so ``--config <run>/resolved.cfg`` repeats the
run.  Synthetic data draws from ``data.seed``, the rest from ``seed``.
Exit codes: 0 success, 1 validation or data error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import gradcheck
from . import stats as statsmod
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Sample, synth_banded
from .errors import ConfigError, NumericalError, RowGateError
from .metrics import evaluate
from .net import ToySegModel
from .rasters import (
    load_label_dir,
    read_label_map,
    read_ppm,
    write_attention_csv,
    write_attention_pgm,
    write_csv_rows,
    write_heatmap_pgm,
    write_matrix_csv,
    write_pgm,
    write_ppm,
)
from .train import train

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2


def _resolve_and_log(args, out_dir: Path | None) -> dict[str, str]:
    values = cfgmod.resolve(args.config, args.set)
    text = cfgmod.render(values)
    print(text, end="")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved.cfg").write_text(text)
    return values


def _parse_bands(spec: str) -> list[tuple[float, float]]:
    spec = spec.strip()
    if "," not in spec:
        return statsmod.equal_bands(int(spec))
    fractions = [float(v) for v in spec.split(",")]
    edges = np.concatenate([[0.0], np.cumsum(fractions)])
    return [(float(edges[i]), float(edges[i + 1])) for i in range(len(fractions))]


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def cmd_stats(args) -> int:
    label_maps = load_label_dir(args.label_dir)
    bands = _parse_bands(args.bands)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    report = statsmod.region_report(label_maps, args.classes, bands)
    text = statsmod.render_report_text(report)
    print(text)
    (out / "report.txt").write_text(text + "\n")
    write_csv_rows(out / "report.csv", statsmod.report_to_csv_rows(report))

    dists = {axis: statsmod.axis_distribution(label_maps, args.classes, axis=axis, bins=args.bins)
             for axis in ("height", "width")}
    axis = "height" if args.axis == "h" else "width"
    per_bin, per_class = dists[axis]
    write_matrix_csv(out / f"{axis}_distribution.csv", per_bin)
    write_heatmap_pgm(out / f"{axis}_distribution.pgm", per_bin)
    write_matrix_csv(out / f"{axis}_distribution_per_class.csv", per_class)
    write_heatmap_pgm(out / f"{axis}_distribution_per_class.pgm", per_class)

    h_spread, w_spread = statsmod.distribution_divergence(dists["height"][0], dists["width"][0])
    summary = (
        f"unconditional_entropy={report.unconditional_entropy:.6g}\n"
        f"average_conditional_entropy={report.average_conditional_entropy:.6g}\n"
        f"height_spread={h_spread:.6g}\nwidth_spread={w_spread:.6g}\n"
    )
    print(summary, end="")
    (out / "summary.txt").write_text(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    values = _resolve_and_log(args, Path(args.out) if args.out else None)
    text, ok = gradcheck.suite(
        cfgmod.get_seed(values, "seed"),
        cfgmod.build_gate_settings(values),
        eps=cfgmod.get_float(values, "gradcheck.epsilon"),
        tol=cfgmod.get_float(values, "gradcheck.tolerance"),
        model_tol=cfgmod.get_float(values, "gradcheck.model_tolerance"),
    )
    print(text)
    if args.out:
        (Path(args.out) / "gradcheck.txt").write_text(text + "\n")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def _synth_split(values: dict[str, str], split: str) -> list[Sample]:
    # disjoint seed streams per split
    seed = cfgmod.get_seed(values, "data.seed") * 2 + (0 if split == "train" else 1)
    return synth_banded(
        seed=seed,
        n_images=cfgmod.get_int(values, "data.n_train" if split == "train" else "data.n_val"),
        height=cfgmod.get_int(values, "data.height"),
        width=cfgmod.get_int(values, "data.width"),
        num_classes=cfgmod.get_int(values, "model.num_classes"),
        noise=cfgmod.get_float(values, "data.noise"),
    )


def _dataset_from_config(values: dict[str, str], split: str) -> list[Sample]:
    """``data.dir``'s split if it is set, else the synthetic split."""
    if not values["data.dir"]:
        return _synth_split(values, split)
    root = Path(values["data.dir"]) / split
    images = sorted((root / "images").glob("*.ppm"))
    if not images:
        raise RowGateError(f"{root}/images: no .ppm images found")
    samples = []
    for img_path in images:
        label_path = root / "labels" / (img_path.stem + ".pgm")
        image = read_ppm(img_path).astype(np.float64) / 255.0
        label = read_label_map(label_path).ids.astype(np.uint8)
        samples.append(Sample(image=image, label=label))
    return samples


def cmd_synth(args) -> int:
    out = Path(args.out)
    values = _resolve_and_log(args, out)
    for split in ("train", "val"):
        samples = _synth_split(values, split)
        img_dir = out / split / "images"
        lab_dir = out / split / "labels"
        img_dir.mkdir(parents=True, exist_ok=True)
        lab_dir.mkdir(parents=True, exist_ok=True)
        for i, sample in enumerate(samples):
            u8 = np.clip(np.rint(sample.image * 255.0), 0, 255).astype(np.uint8)
            write_ppm(img_dir / f"{i:05d}.ppm", u8)
            write_pgm(lab_dir / f"{i:05d}.pgm", sample.label)
        print(f"wrote {len(samples)} {split} samples under {out / split}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / eval / attn
# ---------------------------------------------------------------------------


def _evaluate_to(out: Path, model: ToySegModel, val_set: list[Sample]) -> None:
    """Evaluate on ``val_set``; print the report and write it to ``out/eval.txt``."""
    report = evaluate(model, val_set)
    per_region = " ".join(f"{v:.6f}" for v in report.per_region_miou)
    per_class = " ".join(f"{v:.6f}" for v in report.per_class_iou)  # nan prints as nan
    text = (
        f"miou={report.miou:.6f}\n"
        f"pixel_accuracy={report.pixel_accuracy:.6f}\n"
        f"per_region_miou={per_region}\n"
        f"per_class_iou={per_class}\n"
    )
    print(text, end="")
    (out / "eval.txt").write_text(text)


def cmd_train(args) -> int:
    out = Path(args.out)
    values = _resolve_and_log(args, out)
    model_cfg = cfgmod.build_model_config(values)
    train_cfg = cfgmod.build_train_config(values)
    model = ToySegModel.build(model_cfg)
    train_set = _dataset_from_config(values, "train")
    val_set = _dataset_from_config(values, "val")
    train_rng = np.random.default_rng(np.random.SeedSequence(model_cfg.seed).spawn(1)[0])

    log = train(model, train_set, train_cfg, train_rng)
    log.to_csv(out / "train_log.csv")
    save_checkpoint(out / "model.ckpt", model.state_arrays(), cfgmod.render_model(values))
    _evaluate_to(out, model, val_set)
    return EXIT_OK


def _load_model(values: dict[str, str], checkpoint_path) -> ToySegModel:
    model = ToySegModel.build(cfgmod.build_model_config(values))
    arrays = load_checkpoint(checkpoint_path, cfgmod.render_model(values))
    model.load_state(arrays)
    return model


def cmd_eval(args) -> int:
    out = Path(args.out)
    values = _resolve_and_log(args, out)
    model = _load_model(values, args.checkpoint)
    _evaluate_to(out, model, _dataset_from_config(values, "val"))
    return EXIT_OK


def cmd_attn(args) -> int:
    out = Path(args.out)
    values = _resolve_and_log(args, out)
    model = _load_model(values, args.checkpoint)
    sites = sorted(model.gates) if args.layer == "all" else [int(args.layer.lstrip("L"))]
    for site in sites:
        if site not in model.gates:
            raise RowGateError(f"layer L{site} has no gate in this model")
    image = read_ppm(args.image).astype(np.float64) / 255.0
    _, maps = model.forward(image, training=False, collect_attention=True)
    for site in sites:
        amap = maps[site]
        write_attention_csv(out / f"attention_L{site}.csv", amap)
        write_attention_pgm(out / f"attention_L{site}.pgm", amap)
        print(f"L{site}: attention {amap.shape[0]} channels x {amap.shape[1]} rows -> "
              f"{out / f'attention_L{site}.csv'}")
    if 5 in sites and args.labels:
        label_maps = load_label_dir(args.labels)
        per_bin, _ = statsmod.axis_distribution(
            label_maps, model.config.num_classes, axis="height", bins=maps[5].shape[1]
        )
        write_matrix_csv(out / "height_class_distribution.csv", per_bin)
        write_heatmap_pgm(out / "height_class_distribution.pgm", per_bin)
        print(f"height-wise class distribution -> {out / 'height_class_distribution.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors: exit 1 with one ``error:`` line, not argparse's 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rowgate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, out_required=True):
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("stats", help="label-raster class distribution and entropy report")
    p.add_argument("label_dir", help="directory of .pgm/.png label rasters")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--bands", default="3", help="band count or comma-separated fractions")
    p.add_argument("--axis", choices=["h", "w"], default="h")
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification suite")
    add_config_flags(p, out_required=False)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train", help="train the toy segmentation model")
    add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("attn", help="dump attention maps for an image")
    add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input image (.ppm)")
    p.add_argument("--layer", default="all", help="L1..L5 or 'all'")
    p.add_argument("--labels", default=None,
                   help="label dir for the L5 class-distribution side-by-side")
    p.set_defaults(fn=cmd_attn)

    p = sub.add_parser("synth", help="materialize a synthetic banded dataset")
    add_config_flags(p)
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RowGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
