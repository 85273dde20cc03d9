"""Checkpoint files: parameter name -> shape + row-major float64 values,
and the word table the model reads its inputs through.

The format is self-describing and versioned. A version 5 file is one line
of JSON, ``{"format_version": 5, "config": ..., "params": {name:
{"shape": [...]}, ...}, "words": {"ids": [...], "width": d}}`` and a
newline (``json.dumps`` escapes every newline inside it), followed by each
parameter's little-endian float64 bytes in row-major order (numpy
``"<f8"``, so a file is the same on any host), in the header's order, and
then the (len(ids), width) word matrix in the same encoding. Every value
round-trips bit-exactly. Files of versions 1 to 4 must be retrained.

A save goes to a temporary file in the target's directory, synced to
disk, that replaces the target only once it is complete, so a failed
save leaves an existing checkpoint untouched and no partial file behind.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .atomic import replacing
from .autodiff import DTYPE, ParameterStore
from .kb import Embeddings

FORMAT_VERSION = 5
_WIRE = np.dtype("<f8")


class CheckpointError(Exception):
    pass


def save_checkpoint(path, params: ParameterStore, words: Embeddings,
                    config: dict | None = None) -> None:
    """Write every parameter and the word table `words` to `path`
    atomically; a non-finite value raises CheckpointError naming the file
    and the parameter (or the word table), and nothing is written."""
    arrays = [(f"parameter {name!r}", t.data) for name, t in params.items()]
    arrays.append(("the word table", words.matrix))
    for what, values in arrays:
        if not np.all(np.isfinite(values)):
            raise CheckpointError(
                f"{path}: {what} holds non-finite values; not saved")
    header = {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "params": {name: {"shape": list(t.shape)}
                   for name, t in params.items()},
        "words": {"ids": words.ids, "width": words.matrix.shape[1]},
    }
    with replacing(path) as tmp, open(tmp, "xb") as f:
        f.write(json.dumps(header).encode("ascii") + b"\n")
        for _, values in arrays:
            f.write(np.ascontiguousarray(values, dtype=_WIRE))  # no copy


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict,
                                   Embeddings]:
    """Return ({name: array}, config_dict, word table) with writable native
    float64 arrays. Any defect of the file raises CheckpointError naming
    it."""
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    try:
        header = json.loads(data[:end if end >= 0 else len(data)])
    except RecursionError as e:
        raise CheckpointError(f"{path}: JSON nested too deeply") from e
    except ValueError:
        header = None
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        found = (f"unsupported format_version {version!r}"
                 if isinstance(header, dict) else "first line is no JSON object")
        raise CheckpointError(
            f"{path}: {found} (reads format {FORMAT_VERSION}: a JSON header "
            "line, then values); retrain the model to write a current file")
    if end < 0:
        raise CheckpointError(f"{path}: no line end after the header line")
    params = header.get("params")
    if not isinstance(params, dict):
        raise CheckpointError(f"{path}: missing 'params' object")
    parts = [(f"parameter {name!r}", _shape(path, name, entry))
             for name, entry in params.items()]
    words = header.get("words")
    ids = words.get("ids") if isinstance(words, dict) else None
    if not (isinstance(ids, list) and all(type(i) is str for i in ids)
            and len(set(ids)) == len(ids)
            and type(words.get("width")) is int and words["width"] >= 0):
        raise CheckpointError(
            f"{path}: malformed 'words'; expected unique string 'ids' "
            "and a non-negative integer 'width'")
    parts.append(("the word table", [len(ids), words["width"]]))
    arrays = _read_body(path, [shape for _, shape in parts], data, end + 1)
    for (what, _), values in zip(parts, arrays):
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"{path}: {what} holds non-finite values")
    table = Embeddings(ids, arrays.pop())
    return dict(zip(params, arrays)), header.get("config", {}), table


def _shape(path, name: str, entry) -> list[int]:
    shape = entry.get("shape") if isinstance(entry, dict) else None
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise CheckpointError(
            f"{path}: parameter {name!r}: missing or malformed 'shape' "
            f"({shape!r}); expected a list of non-negative integers")
    return shape


def _read_body(path, shapes: list[list[int]], data: bytes,
               start: int) -> list[np.ndarray]:
    """The arrays of `shapes` stored from byte `start` of `data`, just after
    the header line, each copied out in order."""
    need = sum(_WIRE.itemsize * math.prod(s) for s in shapes)
    if len(data) - start != need:
        raise CheckpointError(
            f"{path}: {len(data) - start} bytes of values follow the "
            f"header, whose shapes need {need}")
    arrays = []
    for shape in shapes:
        count = math.prod(shape)
        arrays.append(np.frombuffer(data, _WIRE, count, start).astype(
            DTYPE).reshape(shape))
        start += _WIRE.itemsize * count
    return arrays
