"""Seeded byte mutations of every reader's input: each mutated file either
loads or raises InputError naming that file; any other exception fails."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ksm import cli
from ksm.checkpoint import load_checkpoint
from ksm.corpus import read_corpus, read_instances
from ksm.inputs import InputError
from ksm.kb import read_embeddings, read_triples, write_embeddings
from ksm.synthetic import toy_knowledge_graph
from ksm.train import read_predictions

DATA = Path(__file__).parent / "data"

MUTATIONS = 500  # per reader: about 1 s for all eight on one core

# bytes an insertion draws from: JSON and TSV structure, digits, and
# bytes that are not UTF-8 on their own
_INSERTED = b'\t\n {}[]",:-.0123456789eEnNtf\xc3\xff'


def _mutate(data: bytes, rng: np.random.Generator, span: int) -> bytes:
    """`data` with one seeded flip, deletion, insertion or truncation, at a
    byte of the first `span` half the time, else anywhere."""
    at = int(rng.integers(span if rng.random() < 0.5 else len(data)))
    kind = rng.integers(4)
    if kind == 0:  # flip one bit
        return data[:at] + bytes([data[at] ^ 1 << rng.integers(8)]) \
            + data[at + 1:]
    if kind == 1:  # delete 1-4 bytes
        return data[:at] + data[at + int(rng.integers(1, 5)):]
    if kind == 2:  # insert 1-4 bytes
        new = rng.choice(np.frombuffer(_INSERTED, np.uint8),
                         int(rng.integers(1, 5)))
        return data[:at] + new.tobytes() + data[at:]
    return data[:at]  # truncate


def _triples() -> bytes:
    return "".join("\t".join(t) + "\n"
                   for t in toy_knowledge_graph()[:8]).encode()


def _embeddings(tmp_path) -> bytes:
    path = tmp_path / "base.txt"
    write_embeddings(path, {w: np.arange(4.0) / (i + 1)
                            for i, w in enumerate(("a", "b", "UNK"))})
    return path.read_bytes()


_CONFIG = b'{"d": 8, "n_heads": 2, "lr": 0.5, "shared_encoder": false,\n' \
          b' "pooling": "mutual", "holdout_fraction": 0}\n'


def _resolve_config(path):
    return cli.resolve_config(SimpleNamespace(command="train", config=path))


@pytest.mark.parametrize("reader", [
    "read_corpus", "read_instances", "read_triples", "read_embeddings",
    "load_checkpoint", "config", "mention_lexicon", "read_predictions"])
def test_a_mutated_input_loads_or_is_an_input_error_at_its_file(tmp_path,
                                                                reader):
    load, base = {
        "read_corpus": (read_corpus, (DATA / "toy_corpus.jsonl").read_bytes()),
        "read_instances": (read_instances,
                           (DATA / "toy_instances_train.jsonl").read_bytes()),
        "read_triples": (read_triples, _triples()),
        # in tmp_path, as it leaves a sidecar beside the file
        "read_embeddings": (read_embeddings, _embeddings(tmp_path)),
        "load_checkpoint": (load_checkpoint,
                            (DATA / "toy_model_v8.ckpt").read_bytes()),
        "config": (_resolve_config, _CONFIG),
        "mention_lexicon": (lambda path: cli._read_json(path, "lexicon"),
                            b'{"G1": ["alpha", "beta"],\n "G2": ["gamma"]}'),
        "read_predictions": (read_predictions, b"D1\tG1\tG2\nD2\tG1\tG4\n"),
    }[reader]
    span = base.find(b"\n") + 1 if reader == "load_checkpoint" else len(base)
    rng = np.random.default_rng(sum(map(ord, reader)))
    path = tmp_path / f"input-{reader}"
    outcomes = set()
    for _ in range(MUTATIONS):
        path.write_bytes(_mutate(base, rng, span))
        try:
            load(path)
            outcomes.add("loaded")
        except InputError as e:
            assert e.path == path, f"{e!r}: path {e.path!r}"
            outcomes.add("rejected")
    assert outcomes == {"loaded", "rejected"}
