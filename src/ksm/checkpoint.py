"""Checkpoint files: parameter name -> shape + row-major float64 values.

The format is self-describing and versioned. A version 4 file is one line
of JSON, ``{"format_version": 4, "config": ..., "params": {name:
{"shape": [...]}, ...}}`` and a newline (``json.dumps`` escapes every
newline inside it), followed by each parameter's little-endian float64
bytes in row-major order (numpy ``"<f8"``, so a file is the same on any
host), in the header's order. Every value round-trips bit-exactly.

Versions 2 and 3 are still read: the whole file is one JSON document,
which may span lines, and each parameter holds its ``values`` beside its
shape, as a list of decimal floats (2) or as one ASCII base64 string of
the ``"<f8"`` bytes (3). Since version 2 each attention projection is one
fused matrix and every matrix is stored (in, out); version 1 files must
be retrained.

A save goes to a temporary file in the target's directory, synced to
disk, that replaces the target only once it is complete, so a failed
save leaves an existing checkpoint untouched and no partial file behind.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .atomic import replacing
from .autodiff import DTYPE, ParameterStore

FORMAT_VERSION = 4
_JSON_VERSIONS = (2, 3)    # whole-file JSON: values as floats (2), base64 (3)
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
    header = {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "params": {name: {"shape": list(t.shape)}
                   for name, t in params.items()},
    }
    with replacing(path) as tmp, open(tmp, "xb") as f:
        f.write(json.dumps(header).encode("ascii") + b"\n")
        for _, t in params.items():
            f.write(t.data.astype(_WIRE, order="C", copy=False).tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Return ({name: array}, config_dict) with writable native float64
    arrays; any defect of the file raises CheckpointError naming it."""
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    try:
        header = json.loads(data[:end]) if end >= 0 else None
    except (ValueError, RecursionError):
        header = None
    if (isinstance(header, dict)
            and header.get("format_version") not in _JSON_VERSIONS):
        blob, body_start = header, end + 1
    else:  # versions 2 and 3: one JSON document, on one line or on many
        blob, body_start = _whole_file_json(path, data), None
    version = blob.get("format_version")
    if version not in ((FORMAT_VERSION,) if body_start else _JSON_VERSIONS):
        raise CheckpointError(
            f"{path}: unsupported format_version {version!r} (reads 2 and "
            f"3 as one JSON document, {FORMAT_VERSION} as a JSON header "
            "line and values); retrain the model to write a current file")
    params = blob.get("params")
    if not isinstance(params, dict):
        raise CheckpointError(f"{path}: missing 'params' object")
    if body_start:
        values = _read_body(path, params, data, body_start)
    else:
        values = _read_json_values(path, params, version)
    for name, arr in values.items():
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(
                f"{path}: parameter {name!r} holds non-finite values")
    return values, blob.get("config", {})


def _whole_file_json(path, data: bytes) -> dict:
    try:
        blob = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise CheckpointError(
            f"{path}: no JSON header line, and not UTF-8 JSON (byte "
            f"{e.start})") from e
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: not valid JSON at line {e.lineno}") from e
    except RecursionError as e:
        raise CheckpointError(f"{path}: JSON nested too deeply") from e
    if not isinstance(blob, dict):
        raise CheckpointError(f"{path}: checkpoint must hold a JSON object")
    return blob


def _read_body(path, params: dict, data: bytes,
               start: int) -> dict[str, np.ndarray]:
    """Format 4: the arrays stored from byte `start` of `data`, just after
    the header line, each copied out in the header's order."""
    shapes = {}
    for name, entry in params.items():
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(
                f"{path}: parameter {name!r}: missing or malformed 'shape' "
                f"({shape!r}); expected a list of non-negative integers")
        shapes[name] = shape
    need = sum(_WIRE.itemsize * math.prod(s) for s in shapes.values())
    if len(data) - start != need:
        raise CheckpointError(
            f"{path}: {len(data) - start} bytes of values follow the "
            f"header, whose shapes need {need}")
    values = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        values[name] = np.frombuffer(data, _WIRE, count, start).astype(
            DTYPE).reshape(shape)
        start += _WIRE.itemsize * count
    return values


def _read_json_values(path, params: dict,
                      version: int) -> dict[str, np.ndarray]:
    """Formats 2 and 3: the values held beside each shape in the JSON."""
    values = {}
    for name, entry in params.items():
        try:
            if version == 2:
                flat = np.asarray(entry["values"], dtype=DTYPE)
            else:
                raw = base64.b64decode(entry["values"], validate=True)
                flat = np.frombuffer(raw, dtype=_WIRE).astype(DTYPE)
            values[name] = flat.reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: parameter {name!r}: missing or "
                                  f"malformed 'shape'/'values' ({e!r})") from e
    return values
