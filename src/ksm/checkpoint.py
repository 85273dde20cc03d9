"""Checkpoint files: a model's parameters, word table and knowledge store.

The format is self-describing and versioned. A version 7 file is one line
of JSON, ``{"format_version": 7, "config": {"d": d, ...}, "params": {name:
{"shape": [...]}, ...}, "tables": {"words": {"ids": [...], "width": d},
"entities": {...}, "relations": {...}}, "pairs": [[e1, e2, label, ...],
...]}`` and a newline (``json.dumps`` escapes every newline inside it),
then each parameter's little-endian float64 bytes in row-major order
(numpy ``"<f8"``, the same on any host) in the header's order, and each
table's (len(ids), d) matrix so encoded in the order of `TABLES`. `pairs`
is the store's pair map. Every value round-trips bit-exactly. Files of
versions 1 to 6 must be retrained (version 6 had the layout of 7, but each
knowledge gate kept its KB vector's weights in a separate `.u` matrix).

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
from .inputs import InputError
from .kb import Embeddings, KnowledgeStore, index_pairs

FORMAT_VERSION = 7
_WIRE = np.dtype("<f8")
TABLES = ("words", "entities", "relations")  # in body order


def _is_width(value) -> bool:  # an int >= 1, and no bool
    return type(value) is int and value >= 1


def save_checkpoint(path, params: ParameterStore, words: Embeddings,
                    store: KnowledgeStore, config: dict) -> None:
    """Write every parameter, the word table `words` and the knowledge
    `store` to `path` atomically; a config `d` that is no int >= 1, a
    non-finite value or a table not d wide raises InputError naming the
    file, and nothing is written."""
    if not _is_width(config.get("d")):
        raise InputError(f"config d {config.get('d')!r} is no integer >= 1; "
                         f"not saved", path)
    tables = dict(zip(TABLES, (words, store.entity_table,
                               store.relation_table)))
    arrays = [(f"parameter {name!r}", t.data) for name, t in params.items()]
    arrays += [(f"table {name!r}", t.matrix) for name, t in tables.items()]
    for what, values in arrays:
        if not np.all(np.isfinite(values)):
            raise InputError(f"{what} holds non-finite values; not saved",
                             path)
    if any(t.matrix.shape[1] != config.get("d") for t in tables.values()):
        raise InputError("a table is not d wide; not saved", path)
    header = {"format_version": FORMAT_VERSION, "config": config,
              "params": {n: {"shape": list(t.shape)} for n, t in params.items()},
              "tables": {n: {"ids": t.ids, "width": t.matrix.shape[1]}
                         for n, t in tables.items()},
              "pairs": [[a, b, *labels] for (a, b), labels
                        in sorted(store.pair_relations.items())]}
    with replacing(path) as tmp, open(tmp, "xb") as f:
        f.write(json.dumps(header).encode("ascii") + b"\n")
        for _, values in arrays:
            f.write(np.ascontiguousarray(values, dtype=_WIRE))  # no copy


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict, Embeddings,
                                   KnowledgeStore]:
    """({name: array}, config, word table, knowledge store) of the file, as
    writable native float64 arrays; InputError naming it for a defect."""
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    try:
        header = json.loads(data[:end if end >= 0 else len(data)])
    except RecursionError as e:
        raise InputError("JSON nested too deeply", path) from e
    except ValueError:
        header = None
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        found = (f"unsupported format_version {version!r}"
                 if isinstance(header, dict) else "first line is no JSON object")
        raise InputError(
            f"{found} (reads format {FORMAT_VERSION}: a JSON header line, "
            "then values); retrain the model to write a current file", path)
    if end < 0:
        raise InputError("no line end after the header line", path)
    if not (isinstance(config := header.get("config"), dict) and config):
        raise InputError("'config' is no non-empty object", path)
    params = header.get("params")
    if not isinstance(params, dict):
        raise InputError("missing 'params' object", path)
    parts = []
    for name, entry in params.items():
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise InputError(
                f"parameter {name!r}: missing or malformed 'shape' "
                f"({shape!r}); expected a list of non-negative integers", path)
        parts.append((f"parameter {name!r}", shape))
    tables = header.get("tables")
    for name in TABLES:
        table = tables.get(name) if isinstance(tables, dict) else None
        ids = table.get("ids") if isinstance(table, dict) else None
        if not (isinstance(ids, list) and all(type(i) is str for i in ids)
                and len(set(ids)) == len(ids) and _is_width(config.get("d"))
                and _is_width(w := table.get("width")) and w == config["d"]):
            raise InputError(f"malformed {name!r} table; expected unique "
                             f"string 'ids' and 'width' the config's d (at "
                             f"least 1), {config.get('d')!r}", path)
        parts.append((f"table {name!r}", [len(ids), table["width"]]))
    rows, known = header.get("pairs"), set(tables["relations"]["ids"])
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and len(row) >= 3 and all(
                type(s) is str for s in row) and known.issuperset(row[2:])
            for row in rows)):
        raise InputError("malformed 'pairs'; expected rows [e1, e2, label, "
                         "...], labels relation ids", path)
    arrays = _read_body(path, [shape for _, shape in parts], data, end + 1)
    for (what, _), values in zip(parts, arrays):
        if not np.all(np.isfinite(values)):
            raise InputError(f"{what} holds non-finite values", path)
    words, entities, relations = (Embeddings(tables[name]["ids"], matrix)
                                  for name, matrix in zip(TABLES, arrays[-3:]))
    store = KnowledgeStore(entities, relations, config["d"], index_pairs(
        (a, b, labels) for a, b, *labels in rows))
    return dict(zip(params, arrays)), config, words, store


def _read_body(path, shapes: list[list[int]], data: bytes,
               start: int) -> list[np.ndarray]:
    """The arrays of `shapes` stored from byte `start` of `data`, just after
    the header line, each copied out in order."""
    need = sum(_WIRE.itemsize * math.prod(s) for s in shapes)
    if len(data) - start != need:
        raise InputError(f"{len(data) - start} bytes of values follow the "
                         f"header, whose shapes need {need}", path)
    arrays = []
    for shape in shapes:
        count = math.prod(shape)
        try:
            arrays.append(np.frombuffer(data, _WIRE, count, start).astype(
                DTYPE).reshape(shape))
        except ValueError as e:  # an empty shape with a dimension too big
            raise InputError(f"shape {shape}: {e}", path) from e
        start += _WIRE.itemsize * count
    return arrays
