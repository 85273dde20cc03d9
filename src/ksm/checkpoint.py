"""Checkpoint files: parameter name -> shape + row-major values, as JSON.

The format is self-describing and versioned. Each parameter is stored as
its ``shape`` and its ``values``: in version 3 one ASCII base64 string of
the array's little-endian float64 bytes in row-major order (numpy
``"<f8"``, so a file is the same on any host), which round-trips every
value bit-exactly. Version 2 files, which hold the same parameters as
lists of decimal floats, are still read. Since version 2 each attention
projection is one fused matrix and every matrix is stored (in, out);
version 1 files must be retrained.

A save goes to a temporary file in the target's directory that replaces
the target only once it is complete, so a failed save leaves an existing
checkpoint untouched and no partial file behind.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .atomic import replacing
from .autodiff import DTYPE, ParameterStore

FORMAT_VERSION = 3
_LIST_VERSION = 2          # oldest readable: values as a list of floats
_WIRE = np.dtype("<f8")


class CheckpointError(Exception):
    pass


def save_checkpoint(path, params: ParameterStore, config: dict | None = None) -> None:
    """Write every parameter to `path` atomically; a non-finite value
    raises CheckpointError naming the file and the parameter, and nothing
    is written."""
    for name, t in params.items():
        if not np.all(np.isfinite(t.data)):
            raise CheckpointError(
                f"{path}: parameter {name!r} holds non-finite values; "
                "not saved")
    blob = {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "params": {
            name: {"shape": list(t.shape),
                   "values": base64.b64encode(
                       t.data.astype(_WIRE, order="C", copy=False)
                   ).decode("ascii")}
            for name, t in params.items()
        },
    }
    with replacing(path) as tmp, open(tmp, "x", encoding="utf-8") as f:
        f.write(json.dumps(blob))


def _decode_values(values, shape, version: int) -> np.ndarray:
    if version == _LIST_VERSION:
        return np.asarray(values, dtype=DTYPE).reshape(shape)
    raw = base64.b64decode(values, validate=True)
    return np.frombuffer(raw, dtype=_WIRE).reshape(shape).astype(DTYPE)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Return ({name: array}, config_dict) with writable native float64
    arrays; any defect of the file raises CheckpointError naming it."""
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: not valid JSON at line {e.lineno}") from e
    if not isinstance(blob, dict):
        raise CheckpointError(f"{path}: checkpoint must hold a JSON object")
    version = blob.get("format_version")
    if version not in (_LIST_VERSION, FORMAT_VERSION):
        raise CheckpointError(
            f"{path}: unsupported format_version {version!r} (reads "
            f"{_LIST_VERSION} and {FORMAT_VERSION}); retrain the model to "
            "write a current file")
    params = blob.get("params")
    if not isinstance(params, dict):
        raise CheckpointError(f"{path}: missing 'params' object")
    values: dict[str, np.ndarray] = {}
    for name, entry in params.items():
        try:
            arr = _decode_values(entry["values"], entry["shape"], version)
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: parameter {name!r}: missing or "
                                  f"malformed 'shape'/'values' ({e!r})") from e
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(
                f"{path}: parameter {name!r} holds non-finite values")
        values[name] = arr
    return values, blob.get("config", {})
