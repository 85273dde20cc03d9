"""Checkpoint files: parameter name -> shape + row-major values, as JSON.

The format is self-describing and versioned. Python's json writes floats
with shortest round-trip repr, so float64 values survive a save/load
cycle bit-exactly. Version 2 stores each attention projection as one
fused matrix and every matrix (in, out); older files must be retrained.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import DTYPE, ParameterStore

FORMAT_VERSION = 2


class CheckpointError(Exception):
    pass


def save_checkpoint(path, params: ParameterStore, config: dict | None = None) -> None:
    """Write every parameter to `path`; a non-finite value raises
    CheckpointError naming the file and the parameter, and nothing is
    written."""
    for name, t in params.items():
        if not np.all(np.isfinite(t.data)):
            raise CheckpointError(
                f"{path}: parameter {name!r} holds non-finite values; "
                "not saved")
    blob = {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "params": {
            name: {"shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in params.items()
        },
    }
    Path(path).write_text(json.dumps(blob), encoding="utf-8")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Return ({name: array}, config_dict); any defect of the file raises
    CheckpointError naming it."""
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: not valid JSON at line {e.lineno}") from e
    if not isinstance(blob, dict):
        raise CheckpointError(f"{path}: checkpoint must hold a JSON object")
    version = blob.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format_version {version!r} (expected "
            f"{FORMAT_VERSION}); retrain the model to write a current file")
    params = blob.get("params")
    if not isinstance(params, dict):
        raise CheckpointError(f"{path}: missing 'params' object")
    values: dict[str, np.ndarray] = {}
    for name, entry in params.items():
        try:
            arr = np.asarray(entry["values"], dtype=DTYPE).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: parameter {name!r}: missing or "
                                  f"malformed 'shape'/'values' ({e!r})") from e
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(
                f"{path}: parameter {name!r} holds non-finite values")
        values[name] = arr
    return values, blob.get("config", {})
