"""Versioned binary checkpoint container for model parameters.

Layout (all integers little-endian):

    magic "RJCM" | format version u32 | config length u32 | config JSON UTF-8
    | tensor count u32 | per tensor: name length u32 | UTF-8 name
    | rows u64 | cols u64 | row-major little-endian f64 payload
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .data import _Reader

_MAGIC = b"RJCM"
_VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


def write_checkpoint(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write `tensors` (by name, in sorted order) and `config` to `path`.
    Each tensor's bytes go to the file from its own array: a float64
    C-contiguous array is not copied, and no whole-file buffer is built.
    Every tensor is converted before the file is opened."""
    cfg_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    arrays = [(name.encode("utf-8"),
               np.ascontiguousarray(np.atleast_2d(np.asarray(tensors[name], dtype="<f8"))))
              for name in sorted(tensors)]
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<II", _VERSION, len(cfg_blob)) + cfg_blob
                + struct.pack("<I", len(arrays)))
        for blob, arr in arrays:
            f.write(struct.pack("<I", len(blob)) + blob
                    + struct.pack("<QQ", arr.shape[0], arr.shape[1]))
            f.write(arr.data)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    r = _Reader(Path(path).read_bytes(), path, CheckpointError)
    if r.take(4) != _MAGIC:
        raise CheckpointError(f"{path}: bad magic at byte 0")
    version = r.u32()
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported version {version} at byte 4")
    start = r.off + 4  # the config text follows its u32 length
    text = r.text("config")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as e:
        at = start + len(text[:e.pos].encode("utf-8"))
        raise CheckpointError(
            f"{path}: config is not JSON at byte {at}: {e.msg}") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config at byte {start} is not a JSON object")
    tensors = {}
    for _ in range(r.u32()):
        name = r.text("tensor name")
        rows, cols = r.u64(), r.u64()
        tensors[name] = r.f64_array(rows * cols).reshape(rows, cols)
    if r.off != len(r.blob):
        raise CheckpointError(
            f"{path}: {len(r.blob) - r.off} trailing bytes at byte {r.off}")
    return config, tensors
