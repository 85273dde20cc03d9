"""TransE embeddings: init, energy, training dynamics, pair resolution."""

import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksm import kb
from ksm.autodiff import ParameterStore
from ksm.checkpoint import load_checkpoint, save_checkpoint
from ksm.inputs import InputError
from ksm.kb import Embeddings, KnowledgeStore
from ksm.kb import (Triple, init_embeddings, mean_energies, read_embeddings,
                    read_triples, resolve_pair_knowledge,
                    tail_rank, transe_energy, transe_train, write_embeddings)
from ksm.synthetic import toy_knowledge_graph

DATA = Path(__file__).parent / "data"

def _store(d_kb=8, seed=0):
    return init_embeddings(toy_knowledge_graph(), d_kb=d_kb, seed=seed)


def _saved_and_loaded(store, path):
    """`store` after a save to a KB store file, as `ksm train-kb` writes
    one, and a load."""
    save_checkpoint(path, ParameterStore(), Embeddings.of({}, store.d_kb),
                    store, {"d": store.d_kb})
    return load_checkpoint(path)[3]


# ---------------------------------------------------------------------------
# init


def test_entity_vector_averages_mention_words():
    words = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    lexicon = {"e1": ["a", "b"], "e2": ["a"]}
    store = init_embeddings([Triple("e1", "r", "e2")], words, lexicon, d_kb=2)
    np.testing.assert_allclose(store.entity_table["e1"], [0.5, 0.5])
    np.testing.assert_allclose(store.entity_table["e2"], [1.0, 0.0])


def test_unknown_mention_words_are_skipped():
    words = {"a": np.array([2.0, 4.0])}
    lexicon = {"e1": ["a", "zz"], "e2": ["qq"]}
    store = init_embeddings([Triple("e1", "r", "e2")], words, lexicon, d_kb=2)
    np.testing.assert_allclose(store.entity_table["e1"], [2.0, 4.0])
    # all-unknown falls back to a small random vector
    assert np.all(np.abs(store.entity_table["e2"]) <= 0.5 / 2)


def test_relation_init_statistics():
    # 100 relations x 100 dims = 10k samples of N(0, 1/d_kb)
    triples = [Triple("h", f"r{i}", "t") for i in range(100)]
    store = init_embeddings(triples, d_kb=100, seed=5)
    samples = np.concatenate([store.relation_table[f"r{i}"]
                              for i in range(100)])
    assert abs(samples.mean()) < 0.01
    assert abs(samples.var() - 1.0 / 100) < 0.1 / 100


def test_empty_triples_rejected():
    with pytest.raises(InputError):
        init_embeddings([], d_kb=4)


def test_word_dim_mismatch_rejected():
    with pytest.raises(InputError):
        init_embeddings([Triple("a", "r", "b")], {"w": np.zeros(3)},
                        {"a": ["w"]}, d_kb=2)


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_on_exact_translation():
    h = np.array([0.3, -0.2])
    r = np.array([0.1, 0.5])
    assert transe_energy(h, r, h + r) == 0.0


def test_energy_direct_norm():
    e = transe_energy(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                      np.array([0.0, 0.0]))
    assert abs(e - np.sqrt(2.0)) < 1e-12


def test_energy_reverse_symmetry():
    rng = np.random.default_rng(0)
    h, r, t = rng.standard_normal((3, 6))
    assert transe_energy(h, r, t) == pytest.approx(transe_energy(t, -r, h),
                                                   abs=1e-12)


def test_energy_dimension_mismatch():
    with pytest.raises(InputError):
        transe_energy(np.zeros(2), np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# training


def test_zero_epochs_leaves_store_unchanged():
    store = _store(seed=3)
    before = {k: v.copy() for k, v in store.entity_table.items()}
    losses = transe_train(toy_knowledge_graph(), store, epochs=0, seed=1)
    assert losses == []
    for k, v in store.entity_table.items():
        np.testing.assert_array_equal(v, before[k])


def test_training_separates_true_from_corrupted():
    triples = toy_knowledge_graph()
    store = _store(d_kb=16, seed=1)
    losses = transe_train(triples, store, margin=1.0, epochs=200, lr=0.05,
                          seed=2)
    true_e, corrupt_e = mean_energies(triples, store, seed=3)
    assert true_e < corrupt_e
    assert np.isfinite(losses).all()
    assert losses[-1] <= losses[0]


def test_true_tails_rank_high():
    triples = toy_knowledge_graph()
    store = _store(d_kb=16, seed=1)
    transe_train(triples, store, margin=1.0, epochs=200, lr=0.05, seed=2)
    ranks = [tail_rank(store, h, r, t) for h, r, t in triples]
    assert sum(1 for r in ranks if r <= 2) / len(ranks) >= 0.9


def test_entity_norms_projected_to_unit_ball():
    triples = toy_knowledge_graph()
    store = _store(d_kb=16, seed=4)
    # inflate an entity so the projection has to act every epoch
    store.entity_table["e1"] *= 50.0
    for _ in range(3):
        transe_train(triples, store, epochs=1, lr=0.05, seed=5)
        for v in store.entity_table.values():
            assert np.linalg.norm(v) <= 1.0 + 1e-9


def test_training_is_deterministic():
    def run():
        store = _store(d_kb=8, seed=9)
        transe_train(toy_knowledge_graph(), store, epochs=30, lr=0.05, seed=6)
        return {k: v.tobytes() for k, v in store.entity_table.items()}

    assert run() == run()


def test_toy_kb_loss_reaches_zero_once_corruptions_differ():
    # a corruption equal to its true triple would cost a full margin with
    # zero gradient, and floor the mean loss near 0.25 on this 4-entity KB
    for seed in (2, 3, 4):
        store = _store(d_kb=16, seed=1)
        losses = transe_train(toy_knowledge_graph(), store, margin=1.0,
                              epochs=200, lr=0.05, seed=seed)
        assert np.mean(losses[100:]) < 0.05, seed


def test_margin_must_be_positive():
    with pytest.raises(InputError):
        transe_train(toy_knowledge_graph(), _store(), margin=0.0)


@pytest.mark.parametrize("name, value", [
    ("margin", float("nan")), ("margin", float("inf")), ("margin", -1.0),
    ("lr", -0.05), ("lr", float("nan")), ("lr", float("inf"))])
def test_transe_rejects_bad_margin_or_lr_before_touching_the_store(name,
                                                                   value):
    store = _store()
    before = (store.entity_table.matrix.copy(),
              store.relation_table.matrix.copy())
    with pytest.raises(InputError, match=rf"{name} must be .*, got {value}"):
        transe_train(toy_knowledge_graph(), store, epochs=3, **{name: value})
    assert store.entity_table.matrix.tobytes() == before[0].tobytes()
    assert store.relation_table.matrix.tobytes() == before[1].tobytes()


@pytest.mark.parametrize("epochs", [-1, -3])
def test_transe_rejects_negative_epochs_before_reading_the_store(epochs):
    # the triple names ids the store lacks: reading the store first would
    # raise about those instead
    with pytest.raises(InputError,
                       match=rf"epochs must be >= 0, got {epochs}"):
        transe_train([Triple("x", "r", "y")], _store(), epochs=epochs)


# ---------------------------------------------------------------------------
# pair resolution


def test_single_matching_triple_returns_its_relation():
    store = _store()
    kn = resolve_pair_knowledge(store, "e1", "e2")
    np.testing.assert_array_equal(kn.er, store.relation_table["r1"])
    assert not kn.er_is_null


def test_multiple_relations_average_elementwise():
    triples = [Triple("a", "r1", "b"), Triple("a", "r2", "b")]
    store = init_embeddings(triples, d_kb=4, seed=0)
    kn = resolve_pair_knowledge(store, "a", "b")
    expected = (store.relation_table["r1"] + store.relation_table["r2"]) / 2
    np.testing.assert_allclose(kn.er, expected)


def test_three_relations_pool_bit_identical_to_the_mean_of_their_rows():
    # both directions pool, in triple order; the pooled vector is the mean
    # of the table rows, exactly as a mean over the separate vectors
    triples = [Triple("a", "r3", "b"), Triple("b", "r1", "a"),
               Triple("a", "r2", "b"), Triple("a", "r1", "c")]
    store = init_embeddings(triples, d_kb=16, seed=4)
    kn = resolve_pair_knowledge(store, "b", "a")
    want = np.mean([store.relation_table[r] for r in ("r3", "r1", "r2")],
                   axis=0)
    assert kn.er.tobytes() == want.tobytes()
    assert not kn.er_is_null


def test_missing_pair_falls_back_to_null():
    store = _store()
    kn = resolve_pair_knowledge(store, "e1", "nonexistent")
    assert kn.er_is_null
    assert kn.er is None
    assert store.stats["null_relation"] == 1
    assert store.stats["entity_fallback"] == 1  # the unknown entity


def test_fallback_vector_depends_only_on_the_entity_id():
    store = _store(d_kb=8)
    first = resolve_pair_knowledge(store, "nope", "e1").e1
    np.testing.assert_array_equal(
        resolve_pair_knowledge(store, "e1", "nope").e2, first)  # other slot
    np.testing.assert_array_equal(
        resolve_pair_knowledge(store, "other", "nope").e2, first)  # both fall back
    np.testing.assert_array_equal(
        resolve_pair_knowledge(store, "nope", "e2").e1, first)  # a later call
    assert store.stats["entity_fallback"] == 5
    assert first.shape == (8,) and np.all(np.abs(first) <= 0.5 / 8)


def test_distinct_unknown_ids_get_distinct_fallback_vectors():
    store = _store(d_kb=8)
    kn = resolve_pair_knowledge(store, "unknown_a", "unknown_b")
    assert kn.e1_is_fallback and kn.e2_is_fallback
    assert not np.array_equal(kn.e1, kn.e2)


def test_fallback_is_the_same_after_a_save_and_load(tmp_path):
    # the mention lexicon shapes the stored entities only: an entity it
    # names but no triple holds resolves to the id-seeded draw, in memory
    # and from disk alike
    words = {"a": np.array([1.0, 3.0])}
    triples = [Triple("e1", "r", "e2")]
    store = init_embeddings(triples, words, {"e1": ["a"], "new": ["a"]},
                            d_kb=2)
    want = resolve_pair_knowledge(init_embeddings(triples, d_kb=2),
                                  "new", "e1").e1
    for s in (store, _saved_and_loaded(store, tmp_path / "kb.ksm")):
        kn = resolve_pair_knowledge(s, "new", "e1")
        assert kn.e1_is_fallback
        assert kn.e1.tobytes() == want.tobytes()


def test_resolution_is_symmetric_in_pair_order():
    triples = [Triple("a", "r1", "b"), Triple("b", "r2", "a")]
    store = init_embeddings(triples, d_kb=4, seed=0)
    k1 = resolve_pair_knowledge(store, "a", "b")
    k2 = resolve_pair_knowledge(store, "b", "a")
    np.testing.assert_array_equal(k1.er, k2.er)  # both orders pooled


# ---------------------------------------------------------------------------
# files


def test_triple_file_roundtrip_and_dedup(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("a\tr1\tb\nb\tr2\tc\na\tr1\tb\n")
    triples = read_triples(path)
    assert triples == [Triple("a", "r1", "b"), Triple("b", "r2", "c")]


def test_malformed_triple_line_reports_location(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("a\tr1\tb\nbroken line\n")
    with pytest.raises(InputError, match=r"triples\.tsv:2"):
        read_triples(path)


def test_embedding_file_roundtrip(tmp_path):
    table = {"x": np.array([0.125, -3.5]), "y": np.array([1e-17, 2.0])}
    path = tmp_path / "emb.txt"
    write_embeddings(path, table)
    header = path.read_text().splitlines()[0]
    assert header == "2 2"
    back = read_embeddings(path)
    for k in table:
        np.testing.assert_array_equal(back[k], table[k])


def test_bad_embedding_header(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("nonsense\n")
    with pytest.raises(InputError, match=":1"):
        read_embeddings(path)


def _set_last_value(path, lineno, value):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = " ".join(lines[lineno - 1].split()[:-1] + [value])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value,error", [
    ("x", "could not convert string to float: 'x'"),
    ("nan", "non-finite value"),
    ("-inf", "non-finite value")])
@pytest.mark.parametrize("loader", ["read_embeddings", "WordTable.load"])
def test_embedding_value_must_be_finite_number(tmp_path, loader, value,
                                               error):
    from ksm.model import WordTable
    path = tmp_path / "emb.txt"
    write_embeddings(path, {k: np.array([0.5, -1.0]) for k in "abc"})
    load = {"read_embeddings": read_embeddings,
            "WordTable.load": WordTable.load}[loader]
    _set_last_value(path, 3, value)
    with pytest.raises(InputError, match=rf"{path.name}:3: {error}"):
        load(path)


def test_store_roundtrip(tmp_path):
    triples = toy_knowledge_graph()
    store = _store(d_kb=6, seed=2)
    transe_train(triples, store, epochs=5, lr=0.05, seed=3)
    back = _saved_and_loaded(store, tmp_path / "kb.ksm")
    assert back.d_kb == 6
    for got, want in ((back.entity_table, store.entity_table),
                      (back.relation_table, store.relation_table)):
        assert got.ids == want.ids
        assert got.matrix.tobytes() == want.matrix.tobytes()
    assert back.pair_relations == store.pair_relations


def test_store_without_rows_keeps_its_width(tmp_path):
    store = _saved_and_loaded(
        KnowledgeStore(entity_table={}, relation_table={}, d_kb=6),
        tmp_path / "kb.ksm")
    assert store.d_kb == 6 and not store.entity_table
    assert store.relation_table.matrix.shape == (0, 6)
    assert resolve_pair_knowledge(store, "a", "b").e1.shape == (6,)


def test_embedding_matrix_is_sized_from_its_rows_not_its_header(tmp_path):
    # a header width of 2^52 used to allocate 16 rows of it before any row
    # was read (a MemoryError: "Unable to allocate 524. TiB")
    relations = tmp_path / "relations.txt"
    relations.write_text("0 4503504650986\n")
    assert read_embeddings(relations).matrix.shape == (0, 4503504650986)
    relations.write_text("1 4503504650986\nr1 0.5\n")
    with pytest.raises(InputError, match=rf"^{relations}:2: expected id \+ "
                                      rf"4503504650986 values, got 1$"):
        read_embeddings(relations)


@pytest.mark.parametrize("loader", ["read_embeddings", "WordTable.load"])
def test_invalid_utf8_is_a_kb_error_at_the_file(tmp_path, loader):
    from ksm.model import WordTable
    path = tmp_path / "entities.txt"
    write_embeddings(path, _store(d_kb=4, seed=2).entity_table)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xc6" + lines[2][1:]  # one invalid byte
    path.write_bytes(b"\n".join(lines))
    load = {"read_embeddings": read_embeddings,
            "WordTable.load": WordTable.load}[loader]
    with pytest.raises(InputError) as e:
        load(path)
    assert str(e.value) == f"{path}:3: not UTF-8 text"


@pytest.mark.parametrize("reader", ["read_triples", "read_corpus",
                                    "read_instances", "read_predictions"])
def test_invalid_utf8_is_the_readers_own_error_at_the_line(tmp_path, reader):
    # each reader reports the byte as it reports a malformed line
    from ksm.corpus import read_corpus, read_instances
    from ksm.train import read_predictions
    path = tmp_path / "input.txt"
    first = {"read_triples": "e1\tr1\te2",
             "read_corpus": (DATA / "toy_corpus.jsonl").read_text(),
             "read_instances": (DATA / "toy_instances_train.jsonl").read_text(),
             "read_predictions": "doc\tP1\tP2"}[reader]
    path.write_text(first.splitlines()[0] + "\n")
    path.write_bytes(path.read_bytes().splitlines(keepends=True)[0]
                     + b"x\xc6y\n")
    load = {"read_triples": read_triples, "read_corpus": read_corpus,
            "read_instances": read_instances,
            "read_predictions": read_predictions}[reader]
    with pytest.raises(InputError) as e:
        load(path)
    assert type(e.value) is InputError
    assert str(e.value) == f"{path}:2: not UTF-8 text"


@pytest.mark.parametrize("d_kb", [0, -3])
def test_init_embeddings_rejects_a_width_below_1(d_kb):
    with pytest.raises(InputError, match=f"d_kb must be >= 1, got {d_kb}"):
        init_embeddings(toy_knowledge_graph(), d_kb=d_kb)


def test_saved_store_has_no_null_row(tmp_path):
    # the null relation is the model parameter `knowledge.null_relation`
    back = _saved_and_loaded(_store(d_kb=4), tmp_path / "kb.ksm")
    assert list(back.relation_table) == ["r1", "r2"]


def _sidecar(path):
    return kb._sidecar_path(path)


def _counting_parses(monkeypatch):
    """The paths `read_embeddings` parses from text from now on."""
    parsed = []
    parse = kb._parse_embeddings

    def counted(path):
        parsed.append(path)
        return parse(path)

    monkeypatch.setattr(kb, "_parse_embeddings", counted)
    return parsed


def _vector_file(tmp_path, n=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    path = tmp_path / "emb.txt"
    write_embeddings(path, {f"w{i}": rng.standard_normal(d)
                            for i in range(n)})
    return path


def test_sidecar_hit_returns_the_parsed_table(tmp_path, monkeypatch):
    path = _vector_file(tmp_path)
    parsed = _counting_parses(monkeypatch)
    first = read_embeddings(path)
    assert _sidecar(path).exists()
    hits = [read_embeddings(path) for _ in range(2)]
    assert parsed == [path]
    for hit in hits:
        assert hit.ids == first.ids
        assert hit.matrix.tobytes() == first.matrix.tobytes()
        assert hit.matrix.flags.c_contiguous and hit.matrix.flags.writeable
    hits[0]["w1"] = np.zeros(3)
    assert read_embeddings(path).matrix.tobytes() == first.matrix.tobytes()


def test_sidecar_hit_keeps_duplicate_id_semantics(tmp_path, monkeypatch):
    path = tmp_path / "emb.txt"
    path.write_text("4 2\na 1 2\nb 3 4\na 5 6\nc 7 8\n")
    parsed = _counting_parses(monkeypatch)
    for _ in range(2):
        table = read_embeddings(path)
        assert table.ids == ["a", "b", "c"]
        np.testing.assert_array_equal(table.matrix,
                                      [[5, 6], [3, 4], [7, 8]])
    assert len(parsed) == 1


def test_same_size_edit_with_restored_mtime_is_parsed(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\na 0.5 1.5\nb 2.5 3.5\n")
    read_embeddings(path)
    stat = path.stat()
    path.write_text("2 2\na 0.5 1.5\nb 2.5 3.7\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    parsed = _counting_parses(monkeypatch)
    assert read_embeddings(path)["b"][1] == 3.7
    assert parsed == [path]


def test_file_replaced_while_parsed_gets_no_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "emb.txt"
    path.write_text("1 2\na 1 2\n")
    parse = kb._parse_embeddings

    def parse_then_replace(p):
        table = parse(p)
        path.write_text("1 2\na 3 4\n")
        return table

    with monkeypatch.context() as m:
        m.setattr(kb, "_parse_embeddings", parse_then_replace)
        assert read_embeddings(path)["a"].tolist() == [1, 2]
    assert not _sidecar(path).exists()
    assert read_embeddings(path)["a"].tolist() == [3, 4]


def _rewrite_sidecar(header=lambda h: None, body=lambda b: b):
    """A spoil that edits the sidecar's parsed header line in place with
    `header` and replaces its values with `body(values)`."""
    def spoil(sidecar):
        line, _, values = sidecar.read_bytes().partition(b"\n")
        parsed = json.loads(line)
        header(parsed)
        sidecar.write_bytes(json.dumps(parsed).encode("ascii") + b"\n"
                            + body(values))
    return spoil


def _flip_last_sign_bit(sidecar):
    """A torn write the checkpoint reader cannot see: the last value's sign
    bit flipped (the last byte of the last little-endian row of the word
    table; the store's tables are empty). Only the CRC catches it."""
    data = bytearray(sidecar.read_bytes())
    data[-1] ^= 0x80
    sidecar.write_bytes(bytes(data))
    _, config, table, _ = load_checkpoint(sidecar)
    assert config["crc32"] != kb._table_crc(table)


@pytest.mark.parametrize("spoil", [
    lambda s: s.write_bytes(s.read_bytes()[:len(s.read_bytes()) // 2]),
    lambda s: s.write_bytes(b""),
    _rewrite_sidecar(lambda h: h["config"].update(sha256="0" * 64)),
    _rewrite_sidecar(lambda h: h["config"].update(version=0)),
    _rewrite_sidecar(lambda h: h.update(format_version=6)),
    _rewrite_sidecar(body=lambda b: b[:-24]),
    _rewrite_sidecar(lambda h: h["tables"]["words"].update(width=2)),
    _rewrite_sidecar(body=lambda b: b[:40] + struct.pack("<d", np.nan)
                     + b[48:]),
    _flip_last_sign_bit,
    _rewrite_sidecar(lambda h: h["tables"]["words"].update(ids=["w0"] * 5)),
], ids=["truncated", "empty", "wrong_digest", "wrong_version",
        "older_format_version", "too_few_rows", "wrong_width", "non_finite",
        "flipped_byte", "repeated_id"])
def test_bad_sidecar_is_ignored_and_rewritten(tmp_path, monkeypatch, spoil):
    path = _vector_file(tmp_path)
    want = read_embeddings(path)
    spoil(_sidecar(path))
    parsed = _counting_parses(monkeypatch)
    for _ in range(2):
        table = read_embeddings(path)
        assert table.ids == want.ids
        assert table.matrix.tobytes() == want.matrix.tobytes()
    assert parsed == [path]


def test_sidecar_write_failure_still_returns_the_table(tmp_path,
                                                       monkeypatch):
    path = _vector_file(tmp_path)

    def refuse(*args):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    parsed = _counting_parses(monkeypatch)
    for _ in range(2):
        assert read_embeddings(path).ids == [f"w{i}" for i in range(5)]
    assert len(parsed) == 2
    assert os.listdir(tmp_path) == ["emb.txt"]


def test_read_only_directory_parses_without_hashing(tmp_path, monkeypatch):
    path = _vector_file(tmp_path)
    want = read_embeddings(path)
    _sidecar(path).unlink()
    hashed = []
    digest = kb._content_digest

    def counted(p):
        hashed.append(p)
        return digest(p)

    with monkeypatch.context() as m:
        m.setattr(os, "access", lambda p, mode: False)  # as if read-only
        m.setattr(kb, "_content_digest", counted)
        for _ in range(2):
            table = read_embeddings(path)
            assert table.matrix.tobytes() == want.matrix.tobytes()
        assert hashed == []
        assert os.listdir(tmp_path) == ["emb.txt"]
    # a sidecar that came with a read-only directory is still read
    read_embeddings(path)
    parsed = _counting_parses(monkeypatch)
    monkeypatch.setattr(os, "access", lambda p, mode: False)
    assert read_embeddings(path).ids == want.ids
    assert parsed == []


def test_malformed_file_is_rejected_on_every_read_and_gets_no_sidecar(
        tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\na 1 2\nb 3\nc 5 6\n")
    for _ in range(2):
        with pytest.raises(InputError, match=r"emb\.txt:3: expected id \+ 2"):
            read_embeddings(path)
    assert os.listdir(tmp_path) == ["emb.txt"]


def test_header_count_warning_on_miss_and_hit(tmp_path, monkeypatch,
                                              caplog):
    path = tmp_path / "emb.txt"
    path.write_text("5 2\na 1 2\nb 3 4\na 5 6\n")
    parsed = _counting_parses(monkeypatch)
    for _ in range(2):
        caplog.clear()
        with caplog.at_level("WARNING", logger="ksm.kb"):
            read_embeddings(path)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: header count 5 != 2 rows read"]
    assert parsed == [path]


def _owned_by(monkeypatch, path, file_owner, reader):
    """Make `path` read as owned by `file_owner` and the process run as
    `reader`; every other file keeps its real owner."""
    real_stat = os.stat

    def stat(p, *args, **kwargs):
        st = real_stat(p, *args, **kwargs)
        if os.fspath(p) != os.fspath(path):
            return st
        return os.stat_result((st.st_mode, st.st_ino, st.st_dev, st.st_nlink,
                               file_owner, *st[5:10]))

    monkeypatch.setattr(os, "stat", stat)
    monkeypatch.setattr(os, "getuid", lambda: reader)


@pytest.mark.parametrize("file_owner, reader, trusted", [
    (0, 1, True),   # the sidecar's owner owns the file; another user reads
    (1, 0, True),   # another user owns the file; the sidecar is the reader's
    (1, 2, False),  # the sidecar belongs to neither: it could be planted
])
def test_sidecar_is_trusted_only_from_the_files_owner_or_the_reader(
        tmp_path, monkeypatch, file_owner, reader, trusted):
    path = _vector_file(tmp_path)
    want = read_embeddings(path)
    me = _sidecar(path).stat().st_uid
    _owned_by(monkeypatch, path, me + file_owner, me + reader)
    parsed = _counting_parses(monkeypatch)
    for _ in range(2):
        table = read_embeddings(path)
        assert table.ids == want.ids
        assert table.matrix.tobytes() == want.matrix.tobytes()
    assert len(parsed) == (0 if trusted else 2)


def _untrusted(monkeypatch, path):
    """The sidecar beside `path` belongs to neither the file's owner nor
    the reader (see `_owned_by`)."""
    me = _sidecar(path).stat().st_uid
    _owned_by(monkeypatch, path, me + 1, me + 2)


def _read_within(path, fifo, seconds=10):
    """read_embeddings(path) in a thread. A read still waiting on `fifo`
    after `seconds` fails the test; it is sent an end of file, so that it
    ends rather than hanging the suite."""
    got = {}
    reader = threading.Thread(daemon=True, target=lambda: got.update(
        table=read_embeddings(path)))
    reader.start()
    reader.join(timeout=seconds)
    waited = reader.is_alive()
    if waited:
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=seconds)
    assert not waited, f"read of {path} waited on {fifo}"
    return got["table"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_a_fifo_under_the_sidecars_name_is_refused(tmp_path, monkeypatch):
    path = _vector_file(tmp_path)
    want = read_embeddings(path)
    _sidecar(path).unlink()
    os.mkfifo(_sidecar(path))
    parsed = _counting_parses(monkeypatch)
    # opening the FIFO to read would wait for a writer that never comes
    assert _read_within(path, _sidecar(path)).ids == want.ids
    assert parsed == [path]


def test_parsed_table_is_pinned_to_the_sidecar_version(tmp_path):
    # A sidecar holds what the parser made of given bytes, so a parser
    # change that alters this table must bump _SIDECAR_VERSION, or every
    # existing sidecar keeps returning the old parser's table. Update the
    # pin and the version together.
    path = tmp_path / "emb.txt"
    path.write_bytes(
        "7 3\n"
        "a 1 2 3\n"
        "\n"
        "b\t-0.0  1e-300 2.5E+3   \n"
        "  a 4 5 6\r\n"
        "\u00e9t\u00e9 +0.1 1_000 1e-400\n"
        "c 1.7976931348623157e308 -5e-324 .5\n"
        " \t \n".encode("utf-8"))
    table, count = kb._parse_embeddings(path)
    assert (count, table.ids) == (7, ["a", "b", "\u00e9t\u00e9", "c"])
    assert table.matrix.tobytes() == np.array(  # bytes: -0.0 keeps its sign
        [[4, 5, 6], [-0.0, 1e-300, 2.5e3], [0.1, 1e3, 0.0],
         [1.7976931348623157e308, -5e-324, 0.5]]).tobytes()
    assert kb._SIDECAR_VERSION == 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_a_fifo_is_parsed_with_its_writer_connected(tmp_path):
    # the file's type is decided before it is opened: an open that only
    # checked it would let the writer write into a pipe that is then
    # closed unread, and the parse would wait for a writer that is gone
    fifo = tmp_path / "emb.txt"
    os.mkfifo(fifo)
    # a process, not a thread: it writes the moment a reader opens the FIFO
    writer = subprocess.Popen(
        [sys.executable, "-c", "import sys; open(sys.argv[1], 'wb')"
         ".write(b'2 2\\na 1 2\\nb 3 4\\n')", str(fifo)],
        stderr=subprocess.DEVNULL)
    try:
        table = _read_within(fifo, fifo)
    finally:
        writer.kill()
        writer.wait()
    assert table.ids == ["a", "b"]
    np.testing.assert_array_equal(table.matrix, [[1, 2], [3, 4]])
    assert os.listdir(tmp_path) == ["emb.txt"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_pipe_is_parsed_and_gets_no_sidecar(tmp_path):
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, b"2 2\na 1 2\nb 3 4\n")
        os.close(write_fd)
        table = read_embeddings(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
    assert table.ids == ["a", "b"]
    np.testing.assert_array_equal(table.matrix, [[1, 2], [3, 4]])


# ---------------------------------------------------------------------------
# boundary errors: the store is written only when training succeeds


def _snapshot(store):
    return ({k: v.copy() for k, v in store.entity_table.items()},
            {k: v.copy() for k, v in store.relation_table.items()})


def _assert_unchanged(store, snapshot):
    entities, relations = snapshot
    assert store.entity_table.keys() == entities.keys()
    assert store.relation_table.keys() == relations.keys()
    for k, v in entities.items():
        np.testing.assert_array_equal(store.entity_table[k], v)
    for k, v in relations.items():
        np.testing.assert_array_equal(store.relation_table[k], v)


@pytest.mark.parametrize("bad, missing", [
    (Triple("e1", "r1", "zz_unknown"), "zz_unknown"),
    (Triple("zz_unknown", "r1", "e2"), "zz_unknown"),
    (Triple("e1", "r_unknown", "e2"), "r_unknown"),
])
def test_triple_with_unknown_id_rejected_before_any_update(bad, missing):
    store = _store(d_kb=8, seed=1)
    snapshot = _snapshot(store)
    triples = toy_knowledge_graph() + [bad]
    with pytest.raises(InputError, match=rf"triple 4 .*'{missing}'"):
        transe_train(triples, store, epochs=3, lr=0.05, seed=2)
    _assert_unchanged(store, snapshot)


@pytest.mark.parametrize("table, key, value", [
    ("entity_table", "e1", np.nan),
    ("entity_table", "e3", np.inf),
    ("relation_table", "r2", -np.inf),
])
def test_non_finite_training_raises_and_leaves_store(table, key, value):
    store = _store(d_kb=8, seed=1)
    getattr(store, table)[key] = np.full(8, value)
    snapshot = _snapshot(store)
    with np.errstate(invalid="ignore"), pytest.raises(InputError,
                                                      match="epoch 0"):
        transe_train(toy_knowledge_graph(), store, epochs=3, lr=0.05, seed=2)
    _assert_unchanged(store, snapshot)


def test_triples_over_one_entity_rejected_before_any_update():
    triples = [Triple("a", "r", "a")]
    store = init_embeddings(triples, d_kb=4, seed=0)
    snapshot = _snapshot(store)
    with pytest.raises(InputError, match="at least 2"):
        transe_train(triples, store, epochs=3, lr=0.05)
    _assert_unchanged(store, snapshot)
    with pytest.raises(InputError, match="at least 2"):
        mean_energies(triples, store)


def test_empty_store_and_triples_train_to_zero_loss():
    store = KnowledgeStore(entity_table={}, relation_table={}, d_kb=4)
    assert transe_train([], store, epochs=2) == [0.0, 0.0]
    assert store.entity_table == {} and store.relation_table == {}


# ---------------------------------------------------------------------------
# one minibatch step against per-triple gradients at the batch-start point


def _reference_step(E, R, batch, margin, lr):
    """Per-triple analytic gradients, all taken at the batch-start E and R,
    summed into copies with a Python loop; returns (E, R, summed hinge)."""
    E_new, R_new, total = E.copy(), R.copy(), 0.0
    for h, r, t, hn, tn in batch:
        d_pos = E[h] + R[r] - E[t]
        d_neg = E[hn] + R[r] - E[tn]
        e_pos, e_neg = np.linalg.norm(d_pos), np.linalg.norm(d_neg)
        loss = margin + e_pos - e_neg
        if loss <= 0:
            continue
        total += loss
        g_pos = d_pos / e_pos if e_pos > 0 else np.zeros_like(d_pos)
        g_neg = d_neg / e_neg if e_neg > 0 else np.zeros_like(d_neg)
        E_new[h] -= lr * g_pos
        E_new[t] += lr * g_pos
        E_new[hn] += lr * g_neg
        E_new[tn] -= lr * g_neg
        R_new[r] -= lr * (g_pos - g_neg)
    return E_new, R_new, total


def _step(E, R, batch, margin, lr):
    E, R = E.copy(), R.copy()
    h, r, t, hn, tn = np.array(batch, dtype=np.intp).reshape(-1, 5).T
    total = kb._minibatch_step(E, R, h, r, t, hn, tn, margin, lr)
    return E, R, total


def _tables(n_entities=6, n_relations=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-0.5, 0.5, (n_entities, d)),
            rng.uniform(-0.5, 0.5, (n_relations, d)))


def _assert_steps_match(E, R, batch, margin=1.0, lr=0.1):
    got_E, got_R, got_total = _step(E, R, batch, margin, lr)
    ref_E, ref_R, ref_total = _reference_step(E, R, batch, margin, lr)
    np.testing.assert_allclose(got_E, ref_E, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_R, ref_R, rtol=0, atol=1e-12)
    assert got_total == pytest.approx(ref_total, rel=1e-12)
    return got_E, got_R


def test_minibatch_step_sums_per_triple_gradients_at_batch_start():
    E, R = _tables(n_entities=12, n_relations=3, d=7, seed=1)
    rng = np.random.default_rng(2)
    batch = [(int(rng.integers(12)), int(rng.integers(3)), int(rng.integers(12)),
              int(rng.integers(12)), int(rng.integers(12))) for _ in range(40)]
    got_E, _ = _assert_steps_match(E, R, batch, margin=2.0, lr=0.05)
    assert not np.array_equal(got_E, E)


def test_minibatch_step_adds_up_repeated_rows():
    E, R = _tables(seed=3)
    batch = [
        (0, 0, 0, 3, 0),   # self-loop h == t, corrupted head
        (2, 1, 4, 2, 2),   # corrupted tail drawn equal to the head
        (5, 2, 1, 5, 1),   # corruption redrew the true tail: steps cancel
        (1, 1, 2, 1, 4),   # entity 1 as head, corrupted tail
        (1, 0, 3, 0, 3),   # entity 1 again, and 3 as tail and corrupted tail
        (4, 1, 1, 2, 1),   # entity 1 as tail, relation 1 again
    ]
    got_E, got_R = _assert_steps_match(E, R, batch, margin=3.0, lr=0.1)
    # every triple is active at this margin, so rows 0 and 1 take several
    # non-cancelling steps; keeping only one of them would show here
    assert not np.allclose(got_E[1], E[1])


def test_zero_energy_triple_gets_zero_gradient_not_nan():
    # dyadic values: h + r - t is exactly zero
    E = np.array([[0.25, 0.5], [0.5, 0.25], [-0.5, 0.75]])
    R = np.array([[0.25, -0.25]])
    # true and corrupted energy both zero: hinge = margin, every step zero
    got_E, got_R, total = _step(E, R, [(0, 0, 1, 0, 1)], 1.0, 0.1)
    assert total == 1.0
    np.testing.assert_array_equal(got_E, E)
    np.testing.assert_array_equal(got_R, R)
    # true energy zero, corrupted energy positive: only the negative side moves
    got_E, got_R = _assert_steps_match(E, R, [(0, 0, 1, 0, 2)], margin=5.0)
    assert np.isfinite(got_E).all() and np.isfinite(got_R).all()
    np.testing.assert_array_equal(got_E[1], E[1])


def test_inactive_hinge_changes_nothing():
    E = np.array([[0.25, 0.5], [0.5, 0.25], [-0.5, 0.75], [0.0, 0.0]])
    R = np.array([[0.25, -0.25], [0.5, 0.5]])
    # true triple at zero energy, corrupted copy 1.25 away: hinge inactive
    inactive = (0, 0, 1, 0, 2)
    got_E, got_R, total = _step(E, R, [inactive], 1.0, 0.1)
    assert total == 0.0
    np.testing.assert_array_equal(got_E, E)
    np.testing.assert_array_equal(got_R, R)
    # mixed with an active triple, the step equals the active triple's alone
    active = (3, 1, 2, 1, 3)
    mixed = _step(E, R, [inactive, active, inactive], 1.0, 0.1)
    alone = _step(E, R, [active], 1.0, 0.1)
    assert alone[2] > 0
    for got, want in zip(mixed, alone):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# the original per-triple SGD loop, kept as a test-only quality reference


def _reference_project_unit_ball(table):
    for eid, v in table.items():
        norm = np.linalg.norm(v)
        if norm > 1.0:
            table[eid] = v / norm


def reference_transe_train(triples, store, margin=1.0, epochs=100, lr=0.01,
                           seed=0):
    entities = sorted(store.entity_table)
    rng = np.random.default_rng(seed)

    def other_than(eid):
        """A uniform draw from the entities other than `eid`."""
        k = int(rng.integers(len(entities) - 1))
        return entities[k + (k >= entities.index(eid))]

    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        for i in order:
            h_id, r_id, t_id = triples[i]
            if rng.random() < 0.5:
                corrupt_head = True
                neg = (other_than(h_id), r_id, t_id)
            else:
                corrupt_head = False
                neg = (h_id, r_id, other_than(t_id))
            h = store.entity_table[h_id]
            r = store.relation_table[r_id]
            t = store.entity_table[t_id]
            hn = store.entity_table[neg[0]]
            tn = store.entity_table[neg[2]]

            d_pos = h + r - t
            d_neg = hn + r - tn
            e_pos = np.linalg.norm(d_pos)
            e_neg = np.linalg.norm(d_neg)
            loss = margin + e_pos - e_neg
            if loss <= 0:
                continue
            total += loss
            g_pos = d_pos / e_pos if e_pos > 0 else np.zeros_like(d_pos)
            g_neg = d_neg / e_neg if e_neg > 0 else np.zeros_like(d_neg)
            store.entity_table[h_id] = h - lr * g_pos
            store.entity_table[t_id] = store.entity_table[t_id] + lr * g_pos
            store.relation_table[r_id] = r - lr * (g_pos - g_neg)
            if corrupt_head:
                store.entity_table[neg[0]] = store.entity_table[neg[0]] + lr * g_neg
                store.entity_table[t_id] = store.entity_table[t_id] - lr * g_neg
            else:
                store.entity_table[h_id] = store.entity_table[h_id] + lr * g_neg
                store.entity_table[neg[2]] = store.entity_table[neg[2]] - lr * g_neg
        _reference_project_unit_ball(store.entity_table)
        losses.append(total / max(1, len(triples)))
    return losses


def _typed_kb(seed, groups=6, per_group=50, relations=6, n_triples=1500):
    """Relation k links entity group a_k to group b_k, so a corrupted triple
    mostly breaks the typing and training can open an energy gap."""
    rng = np.random.default_rng(seed)
    entities = [f"E{k}" for k in range(groups * per_group)]
    rels = [(f"r{k}", int(rng.integers(groups)), int(rng.integers(groups)))
            for k in range(relations)]
    triples = set()
    while len(triples) < n_triples:
        name, a, b = rels[int(rng.integers(relations))]
        h = entities[a * per_group + int(rng.integers(per_group))]
        t = entities[b * per_group + int(rng.integers(per_group))]
        if h != t:
            triples.add(Triple(h, name, t))
    return sorted(triples)


def test_minibatch_trainer_keeps_the_per_triple_energy_gap():
    triples = _typed_kb(seed=11)
    gaps = []
    for train in (transe_train, reference_transe_train):
        store = init_embeddings(triples, d_kb=20, seed=4)
        train(triples, store, epochs=20, lr=0.01, seed=5)
        true_e, corrupt_e = mean_energies(triples, store, seed=6)
        gaps.append(corrupt_e - true_e)
    new_gap, reference_gap = gaps
    assert reference_gap > 0.1
    assert new_gap >= 0.98 * reference_gap


# ---------------------------------------------------------------------------
# tail rank against a brute-force loop


def reference_tail_rank(store, h_id, r_id, t_id):
    h = store.entity_table[h_id]
    r = store.relation_table[r_id]
    target = transe_energy(h, r, store.entity_table[t_id])
    better = sum(
        1 for eid, v in store.entity_table.items()
        if eid != t_id and transe_energy(h, r, v) < target)
    return better + 1


@st.composite
def grid_stores(draw):
    """Small stores on a dyadic grid: every energy is computed exactly in
    any summation order, and ties are frequent."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    vec = st.lists(st.integers(-8, 8), min_size=d, max_size=d).map(
        lambda v: np.array(v) / 4.0)
    entities = {f"e{k}": draw(vec) for k in range(n)}
    store = KnowledgeStore(entity_table=entities,
                           relation_table={"r": draw(vec)}, d_kb=d)
    return store, draw(st.sampled_from(sorted(entities))), draw(
        st.sampled_from(sorted(entities)))


@settings(max_examples=300, deadline=None)
@given(grid_stores())
def test_tail_rank_matches_brute_force_loop(case):
    store, h_id, t_id = case
    assert tail_rank(store, h_id, "r", t_id) == reference_tail_rank(
        store, h_id, "r", t_id)
