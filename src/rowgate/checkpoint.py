"""Flat binary model checkpoints.

Layout: ``RGCK`` magic, u32 format version, 32-byte SHA-256 of the
model configuration text (``config.render_model``), u32 blob count, then per blob a u16
name length, the UTF-8 name, a u8 rank, u32 extents, and the payload as
little-endian float64.  Loading verifies the digest so a checkpoint can
only be restored into the configuration that produced it; an unreadable,
truncated or otherwise malformed file raises ``DataError``.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"RGCK"
VERSION = 1
HEADER_BYTES = 44  # magic, version, digest, blob count


def config_digest(config_text: str) -> bytes:
    return hashlib.sha256(config_text.encode()).digest()


def save_checkpoint(path, arrays: list[tuple[str, np.ndarray]], config_text: str) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION), config_digest(config_text), struct.pack("<I", len(arrays))]
    for name, arr in arrays:
        encoded = name.encode()
        arr = np.asarray(arr, dtype="<f8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr).tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path, config_text: str) -> dict[str, np.ndarray]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from None
    if data[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    if len(data) < HEADER_BYTES:
        raise DataError(f"{path}: truncated checkpoint header ({len(data)} bytes)")
    try:
        return _parse_blobs(data, path, config_text)
    except (struct.error, ValueError) as exc:
        # short reads and undecodable names: the file ends or breaks mid-blob
        raise DataError(f"{path}: truncated or corrupt checkpoint: {exc}") from None


def _parse_blobs(data: bytes, path, config_text: str) -> dict[str, np.ndarray]:
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    digest = data[8:40]
    if digest != config_digest(config_text):
        raise DataError(f"{path}: checkpoint was written for a different configuration")
    (count,) = struct.unpack_from("<I", data, 40)
    offset = HEADER_BYTES
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        name = data[offset : offset + name_len].decode()
        offset += name_len
        (ndim,) = struct.unpack_from("<B", data, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}I", data, offset)
        offset += 4 * ndim
        n = math.prod(shape)
        arr = np.frombuffer(data, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += 8 * n
        arrays[name] = arr.astype(np.float64)
    if offset != len(data):
        raise DataError(f"{path}: trailing bytes in checkpoint")
    return arrays
