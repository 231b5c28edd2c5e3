"""Raster and CSV file IO: PGM/PPM images, label maps, heatmap exports.

Labels travel as 8-bit grayscale PGM (pixel value = class id, 255 =
ignore); RGB images as binary PPM.  PNG label rasters are read through
Pillow when it is installed.  Heatmaps scale unit-interval matrices to
0..255 grayscale.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .stats import LabelMap


def write_pgm(path, image: np.ndarray) -> None:
    """Binary (P5) 8-bit grayscale."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise DataError(f"PGM image must be 2-D, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise DataError(f"PGM image must be uint8, got {image.dtype}")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(image.tobytes())


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _read_pnm_header(data: bytes, path) -> tuple[bytes, list[int], int]:
    if len(data) < 2 or data[:1] != b"P":
        raise DataError(f"{path}: not a PNM file")
    magic = data[:2]
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise DataError(f"{path}: malformed PNM header")
        fields.append(int(token))
    for name, value in zip(("width", "height", "maxval"), fields):
        if value == 0:
            raise DataError(f"{path}: PNM {name} is 0")
    return magic, fields, pos + 1  # header ends with one whitespace byte


def read_pgm(path) -> np.ndarray:
    """Read P5 (binary) or P2 (ascii) grayscale with maxval <= 255."""
    data = _read_bytes(path)
    magic, (width, height, maxval), offset = _read_pnm_header(data, path)
    if magic not in (b"P5", b"P2"):
        raise DataError(f"{path}: expected P5/P2 PGM, got {magic!r}")
    if maxval > 255:
        raise DataError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if magic == b"P5":
        if len(data) - offset < width * height:
            raise DataError(f"{path}: truncated PGM payload")
        pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=offset)
    else:
        values = data[offset:].split()
        if len(values) < width * height:
            raise DataError(f"{path}: truncated ascii PGM payload")
        pixels = np.array([int(v) for v in values[: width * height]], dtype=np.uint8)
    return pixels.reshape(height, width)


def write_ppm(path, image: np.ndarray) -> None:
    """Binary (P6) 8-bit RGB from a (3, H, W) uint8 array."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3 or image.dtype != np.uint8:
        raise DataError(f"PPM image must be (3, H, W) uint8, got {image.shape} {image.dtype}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{image.shape[2]} {image.shape[1]}\n255\n".encode())
        fh.write(np.ascontiguousarray(image.transpose(1, 2, 0)).tobytes())


def read_ppm(path) -> np.ndarray:
    data = _read_bytes(path)
    magic, (width, height, maxval), offset = _read_pnm_header(data, path)
    if magic != b"P6" or maxval > 255:
        raise DataError(f"{path}: expected 8-bit P6 PPM")
    if len(data) - offset < 3 * width * height:
        raise DataError(f"{path}: truncated PPM payload")
    pixels = np.frombuffer(data, dtype=np.uint8, count=3 * width * height, offset=offset)
    return pixels.reshape(height, width, 3).transpose(2, 0, 1)


LABEL_SUFFIXES = (".pgm", ".png")


def read_label_map(path) -> LabelMap:
    """Load a label raster from PGM, or PNG when Pillow is available."""
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        return LabelMap(ids=read_pgm(path), name=path.name)
    if path.suffix.lower() == ".png":
        try:
            from PIL import Image
        except ImportError as exc:
            raise DataError(f"{path}: PNG support requires Pillow") from exc
        with Image.open(path) as img:
            if img.mode not in ("L", "P", "I", "I;16"):
                img = img.convert("L")
            ids = np.asarray(img)
        if ids.ndim != 2:
            raise DataError(f"{path}: PNG label raster must be single-channel")
        return LabelMap(ids=ids, name=path.name)
    raise DataError(f"{path}: unsupported label raster format")


def load_label_dir(directory) -> list[LabelMap]:
    """All label rasters in a directory, sorted by name for determinism."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"{directory}: not a directory")
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() in LABEL_SUFFIXES)
    if not paths:
        raise DataError(f"{directory}: no .pgm/.png label rasters found")
    failures = []
    maps = []
    for p in paths:
        try:
            maps.append(read_label_map(p))
        except DataError as exc:
            failures.append(exc)
    if failures:
        more = f" (and {len(failures) - 1} more unreadable)" if len(failures) > 1 else ""
        raise DataError(f"{failures[0]}{more}")
    return maps


def unit_to_u8(values: np.ndarray) -> np.ndarray:
    """Scale a [0, 1] matrix onto 0..255 grayscale."""
    return np.clip(np.rint(np.asarray(values) * 255.0), 0, 255).astype(np.uint8)


def write_heatmap_pgm(path, values: np.ndarray) -> None:
    write_pgm(path, unit_to_u8(values))


def write_matrix_csv(path, matrix: np.ndarray, fmt: str = "%.6g") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(np.asarray(matrix)):
            writer.writerow([fmt % v for v in row])


def write_csv_rows(path, rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_attention_csv(path, attention: np.ndarray) -> None:
    """Gate map as CSV: one row per image row, one column per channel."""
    write_matrix_csv(path, np.asarray(attention).T, fmt="%.6g")


def write_attention_pgm(path, attention: np.ndarray) -> None:
    """Gate map as grayscale heatmap: rows = height, columns = channels."""
    write_heatmap_pgm(path, np.asarray(attention).T)
