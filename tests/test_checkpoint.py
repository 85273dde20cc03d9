"""Checkpoint format: lossless round trips, versioning, config coupling."""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ksm.checkpoint
from ksm.autodiff import ParameterStore, Tensor
from ksm.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from ksm.gradcheck import toy_batch, toy_model
from ksm.inputs import InputError
from ksm.kb import Embeddings, KnowledgeStore, resolve_pair_knowledge
from ksm.model import KSMModel, WordTable

DATA = Path(__file__).parent / "data"
VERSIONS = pytest.mark.parametrize("version", [7], ids=["v7"])


def _wire(values: np.ndarray) -> bytes:
    """Little-endian float64 bytes in row-major order."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _joined(header: dict, body: bytes) -> bytes:
    return json.dumps(header).encode("ascii") + b"\n" + body


def _file(values: dict, config: dict, version: int,
          words: Embeddings | None = None,
          store: KnowledgeStore | None = None) -> bytes:
    """A whole file of format `version`, built by hand: a JSON header line
    of the shapes, then every parameter's `_wire` bytes in order. Format 6
    adds the ids and width of `words` (by default `_words()`) and of the
    entity and relation tables of `store` (by default an empty one as wide
    as `words`) to the header, with the store's pair rows, sorted, and the
    three matrices to the body; format 7 has the same layout. Format 5 had
    the word table alone, and format 4 no table."""
    header = {"format_version": version, "config": config,
              "params": {k: {"shape": list(v.shape)}
                         for k, v in values.items()}}
    arrays = list(values.values())
    words = _words() if words is None else words
    if version == 5:
        header["words"] = {"ids": words.ids, "width": words.matrix.shape[1]}
        arrays.append(words.matrix)
    if version >= 6:
        if store is None:
            store = KnowledgeStore({}, {}, words.matrix.shape[1])
        tables = [words, store.entity_table, store.relation_table]
        header["tables"] = {
            name: {"ids": t.ids, "width": t.matrix.shape[1]}
            for name, t in zip(("words", "entities", "relations"), tables)}
        header["pairs"] = [[a, b, *labels] for (a, b), labels
                           in sorted(store.pair_relations.items())]
        arrays += [t.matrix for t in tables]
    return _joined(header, b"".join(_wire(v) for v in arrays))


def _split(path) -> tuple[dict, bytes]:
    """A file's header, parsed, and its body."""
    return _split_bytes(path.read_bytes())


def _split_bytes(data: bytes) -> tuple[dict, bytes]:
    header, _, body = data.partition(b"\n")
    return json.loads(header), body


def _random_store(seed=0):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    store.add("layer.w", Tensor(rng.standard_normal((4, 3))))
    store.add("layer.b", Tensor(rng.standard_normal(3) * 1e-17))
    store.add("head.w", Tensor(rng.standard_normal((2, 2)) * 1e12))
    return store


def _words(seed=0):
    """Three words of width 2, UNK among them."""
    rng = np.random.default_rng(seed)
    return Embeddings(["w\u00e9", "two\nlines", "UNK"],
                      rng.standard_normal((3, 2)) * 1e-200)


def _kb(d=2, seed=0):
    """A knowledge store of width d: three entities, two relations and
    two pairs, one of them with both relations."""
    rng = np.random.default_rng(seed)
    return KnowledgeStore(
        Embeddings(["A", "B", "C\u00e9"], rng.standard_normal((3, d))),
        Embeddings(["binds", "in\nhibits"], rng.standard_normal((2, d))), d,
        {("A", "B"): ["binds", "in\nhibits"], ("B", "C\u00e9"): ["binds"]})


def _empty_kb(d=2):
    return KnowledgeStore({}, {}, d)


def _same_store(a: KnowledgeStore, b: KnowledgeStore) -> bool:
    """The same tables, ids and values bit for bit, and the same pairs."""
    return a.d_kb == b.d_kb and a.pair_relations == b.pair_relations and all(
        x.ids == y.ids and x.matrix.tobytes() == y.matrix.tobytes()
        for x, y in ((a.entity_table, b.entity_table),
                     (a.relation_table, b.relation_table)))


def test_roundtrip_is_bit_exact(tmp_path):
    store, words, kb = _random_store(), _words(), _kb()
    path = tmp_path / "model.ckpt"
    config = {"d": 2, "note": "two\nlines"}  # the header stays one line
    save_checkpoint(path, store, words, kb, config)
    values, loaded_config, loaded_words, loaded_kb = load_checkpoint(path)
    assert loaded_config == config
    assert set(values) == set(store.names())
    for name, t in store.items():
        assert values[name].shape == t.shape
        assert values[name].tobytes() == t.data.tobytes()
    assert loaded_words.ids == words.ids
    assert loaded_words.matrix.tobytes() == words.matrix.tobytes()
    assert _same_store(loaded_kb, kb)
    for table in (loaded_words, loaded_kb.entity_table,
                  loaded_kb.relation_table):
        assert table.matrix.flags.writeable


def test_saved_file_is_the_documented_encoding(tmp_path):
    store, words, kb = _random_store(), _words(), _kb()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, words, kb, {"d": 2})
    assert FORMAT_VERSION == 7
    assert path.read_bytes() == _file({n: t.data for n, t in store.items()},
                                      {"d": 2}, 7, words, kb)


def test_pair_rows_of_either_order_are_pooled_under_the_sorted_key(
        tmp_path):
    data = _file({}, {"d": 2}, 7, store=_kb())
    header, _, body = data.partition(b"\n")
    header = json.loads(header)
    header["pairs"] = [["B", "A", "binds"], ["A", "B", "in\nhibits"]]
    path = tmp_path / "model.ckpt"
    path.write_bytes(_joined(header, body))
    assert load_checkpoint(path)[3].pair_relations == {
        ("A", "B"): ["binds", "in\nhibits"]}


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
           np.finfo(np.float64).max, -np.finfo(np.float64).max,
           1e300, -1e300, 1e-300, -1e-300]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64,
                  hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                   max_side=6),
                  elements=st.one_of(st.sampled_from(SPECIAL),
                                     st.floats(allow_nan=False,
                                               allow_infinity=False))))
@example(np.array(SPECIAL))
@example(np.array(SPECIAL[:10]).reshape(2, 5))
def test_roundtrip_is_byte_exact_for_extreme_values(values):
    store = ParameterStore()
    store.add("p", Tensor(values))
    # tables are at least 1 wide: values with no columns give one of no rows
    matrix = (values if values.ndim == 2 and values.shape[1]
              else values.reshape(-1, 1))
    words = Embeddings([f"w{i}" for i in range(len(matrix))], matrix)
    width = words.matrix.shape[1]
    kb = KnowledgeStore(words, Embeddings([], np.empty((0, width))), width)
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Path(d) / "m.ckpt", store, words, kb, {"d": width})
        loaded, _, loaded_words, loaded_kb = load_checkpoint(
            Path(d) / "m.ckpt")
    for back in (loaded["p"], loaded_words.matrix.reshape(values.shape),
                 loaded_kb.entity_table.matrix.reshape(values.shape)):
        assert back.shape == values.shape and back.dtype == np.float64
        assert back.dtype.isnative and back.flags.writeable
        assert back.tobytes() == values.tobytes()


def _same_values(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].tobytes() == b[k].tobytes() for k in a)


@pytest.mark.parametrize("content", [
    b'{"format_version": 2, "config": {}, "params": {"p": {"shape": [1], '
    b'"values": [0.5]}}}',
    b'{"format_version": 3, "config": {}, "params": {"p": {"shape": [1], '
    b'"values": "AAAAAAAA4D8="}}}',
    b'{\n  "format_version": 3,\n  "config": {},\n  "params": {}\n}',
    _file({"p": np.array([0.5])}, {}, 4),  # its word table a separate file
    _file({"p": np.array([0.5])}, {"d": 2}, 5),  # its KB a separate store
    # each gate's KB-vector weights a separate matrix
    _file({"selector.u": np.zeros((2, 2))}, {"d": 2}, 6),
], ids=["v2", "v3", "v3-pretty-printed", "v4", "v5", "v6"])
def test_format_2_and_3_files_rejected_with_retrain_hint(tmp_path, content):
    _rejected(tmp_path / "model.ckpt", content, "retrain the model")


def _model_file(model, config: dict, version: int,
                values: dict | None = None) -> bytes:
    """`model` saved by hand in format `version`, with `config` (and
    `values`, if given, for its parameters)."""
    if values is None:
        values = {n: t.data for n, t in model.params.items()}
    return _file(values, config, version, model.word_table.vectors,
                 model.store)


def test_format_7_file_loads_to_the_same_model_and_store(tmp_path):
    # toy_model(seed=3) saved with _kb(8, seed=3): a change of the format,
    # or of what a file loads to, shows here
    path = DATA / "toy_model_v7.ckpt"
    original, kb = toy_model(seed=3), _kb(8, seed=3)
    saved = KSMModel.load(path)
    assert saved.config == original.config
    assert _same_values({n: t.data for n, t in saved.params.items()},
                        {n: t.data for n, t in original.params.items()})
    assert _same_store(saved.store, kb)
    for (inst, _), pair in zip(toy_batch(5, 8), [("A", "B"), ("B", "C\u00e9"),
                                                ("A", "unknown")]):
        got, want = (m.forward_instance(inst, resolve_pair_knowledge(s, *pair))
                     for m, s in ((saved, saved.store), (original, kb)))
        assert got[0].data.tobytes() == want[0].data.tobytes()
    original.save(tmp_path / "again.ckpt", kb)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _random_store(), _words(), _empty_kb(), {"d": 2})
    header, body = _split(path)
    header["format_version"] = 99
    path.write_bytes(_joined(header, body))
    with pytest.raises(InputError, match="format_version 99"):
        load_checkpoint(path)


def test_garbage_file_rejected_with_location(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_text("not json {")
    with pytest.raises(InputError, match="line"):
        load_checkpoint(path)


@pytest.mark.parametrize("line_end", [b"", b"\n"], ids=["document",
                                                      "header"])
def test_deeply_nested_json_rejected(tmp_path, line_end):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"[" * 100_000 + line_end)
    with pytest.raises(InputError, match="nested too deeply"):
        load_checkpoint(path)


def test_model_roundtrip_restores_forward(tmp_path):
    model = toy_model(seed=4)
    batch = toy_batch(5, model.config.d)
    before = [model.forward_instance(i, k)[0].data.copy() for i, k in batch]
    path = tmp_path / "m.ckpt"
    model.save(path)
    restored = KSMModel.load(path)
    assert restored.word_table.vectors.ids == model.word_table.vectors.ids
    np.testing.assert_array_equal(restored.word_table.vectors.matrix,
                                  model.word_table.vectors.matrix)
    after = [restored.forward_instance(i, k)[0].data for i, k in batch]
    for b, a in zip(before, after):
        np.testing.assert_array_equal(b, a)
    KSMModel.load(path, model.word_table)  # the saved table: accepted
    # saved with no store: an empty one of width d, as a run with no KB
    assert _same_store(restored.store, _empty_kb(model.config.d))


def test_model_saves_the_store_given_and_a_loaded_model_its_own(tmp_path):
    model, kb = toy_model(seed=4), _kb(8)
    model.save(tmp_path / "a.ckpt", kb)
    loaded = KSMModel.load(tmp_path / "a.ckpt")
    assert _same_store(loaded.store, kb)
    loaded.save(tmp_path / "b.ckpt")
    assert (tmp_path / "b.ckpt").read_bytes() == (
        tmp_path / "a.ckpt").read_bytes()


@pytest.mark.parametrize("kb, d", [
    (_kb(7), 8), (KnowledgeStore({}, {}, 9), 8),
    (KnowledgeStore({"A": [np.nan] * 8}, {}, 8), 8),
    (KnowledgeStore({}, {"binds": [0.0] * 7 + [np.inf]}, 8), 8),
    # every table 0 wide, as d: no file of d 0 loads
    (KnowledgeStore({}, {}, 0), 0)],
    ids=["narrow", "empty-wide", "nan-entity", "inf-relation", "zero-wide"])
def test_saving_a_store_of_another_width_or_non_finite_refused(tmp_path, kb,
                                                               d):
    path = tmp_path / "m.ckpt"
    with pytest.raises(InputError, match=r"m\.ckpt: .*; not saved"):
        save_checkpoint(path, ParameterStore(), Embeddings.of({}, d), kb,
                        {"d": d})
    assert not path.exists()


def test_saving_with_a_d_of_true_refused(tmp_path):
    # a bool is no width, though 1 == True; a load refuses it too
    path = tmp_path / "m.ckpt"
    with pytest.raises(InputError, match=r"m\.ckpt: config d True is no "
                                         r"integer >= 1; not saved"):
        save_checkpoint(path, ParameterStore(), Embeddings.of({}, 1),
                        KnowledgeStore({}, {}, 1), {"d": True})
    assert not path.exists()


@pytest.mark.parametrize("change", [
    lambda m: m + np.finfo(np.float64).eps,     # one value, one ulp away
    lambda m: m[::-1],                          # the same rows, reordered
], ids=["values", "row-order"])
def test_model_load_rejects_a_different_word_table(tmp_path, change):
    # before format 5 the table was a separate file, and one of the right
    # width gave other predictions without a word
    model = toy_model(seed=4)
    path = tmp_path / "m.ckpt"
    model.save(path)
    vectors = model.word_table.vectors
    other = WordTable(Embeddings(vectors.ids, change(vectors.matrix)),
                      model.config.d)
    assert other.d == model.word_table.d
    with pytest.raises(InputError) as e:
        KSMModel.load(path, other)
    assert str(e.value) == (f"{path}: the word table passed is not the one "
                            f"saved with the model")
    renamed = WordTable(dict(zip(vectors.ids[::-1], vectors.matrix)),
                        model.config.d)
    with pytest.raises(InputError, match="word table passed"):
        KSMModel.load(path, renamed)


@VERSIONS
def test_checkpoint_without_matching_config_rejected(tmp_path, version):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    model.save(path)

    # a config that implies a different parameter set must be refused
    values, config, _, _ = load_checkpoint(path)
    config["n_blocks"] = 1
    path.write_bytes(_model_file(model, config, version, values))
    with pytest.raises(InputError, match="does not match"):
        KSMModel.load(path, model.word_table)


def test_word_table_of_another_width_than_the_config_rejected(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    words = Embeddings(["UNK"], np.zeros((1, model.config.d + 1)))
    path.write_bytes(_file({n: t.data for n, t in model.params.items()},
                           model.config.to_dict(), 7, words,
                           _empty_kb(model.config.d)))
    with pytest.raises(InputError, match="malformed 'words' table; "
                       "expected unique string 'ids' and 'width' the "
                       r"config's d \(at least 1\), 8"):
        KSMModel.load(path)


def test_checkpoint_missing_config_rejected(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    header, body = _split_bytes(_model_file(model, {}, 7))
    del header["config"]
    path.write_bytes(_joined(header, body))
    with pytest.raises(InputError, match="config"):
        KSMModel.load(path, model.word_table)


@pytest.mark.parametrize("config", ["d=2", [2], 2, None, {}, "missing"],
                         ids=["string", "list", "int", "null", "empty",
                              "missing"])
def test_config_that_is_no_non_empty_object_rejected(tmp_path, config):
    # a string config once failed in the model, naming no file
    header, body = _split_bytes(_file(_store_values(), {"d": 2}, 7))
    if config == "missing":
        del header["config"]
    else:
        header["config"] = config
    path = tmp_path / "model.ckpt"
    path.write_bytes(_joined(header, body))
    with pytest.raises(InputError) as e:
        load_checkpoint(path)
    assert str(e.value) == f"{path}: 'config' is no non-empty object"


# ---------------------------------------------------------------------------
# every defect of a file is an InputError naming the file


def _store_values():
    return {n: t.data.copy() for n, t in _random_store().items()}


def _rejected(path, content: bytes, match):
    """`content` fails to load with an InputError that matches `match`
    and names the file."""
    path.write_bytes(content)
    with pytest.raises(InputError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_version_1_file_rejected_with_retrain_hint(tmp_path):
    _rejected(tmp_path / "model.ckpt",
              _file(_store_values(), {"d": 2}, 1),
              "format_version 1 .*retrain")


def test_non_object_blob_rejected(tmp_path):
    _rejected(tmp_path / "model.ckpt", b"[1, 2, 3]\n", "JSON object")


def test_missing_params_rejected(tmp_path):
    _rejected(tmp_path / "model.ckpt",
              _joined({"format_version": 7, "config": {"d": 2},
                       "tables": None}, b""),
              "missing 'params'")


def _defect(change):
    """The file of `_random_store` and `_words`, with an empty KB store,
    after `change(header, body)`, which returns the file's bytes. The body
    holds layer.w (4, 3) in bytes 0-95, layer.b (3,) in 96-119, head.w
    (2, 2) in 120-151 and the word matrix (3, 2) in 152-199."""
    data = _file(_store_values(), {"d": 2}, 7)
    header, _, body = data.partition(b"\n")
    return change(json.loads(header), body)


def _shape(shape):
    def change(header, body):
        header["params"]["layer.w"]["shape"] = shape
        return _joined(header, body)
    return change


def _nan_at(offset):
    def change(header, body):
        return _joined(header, body[:offset] + _wire(np.array([np.nan]))
                       + body[offset + 8:])
    return change


@pytest.mark.parametrize("change, match", [
    (lambda h, b: _joined(h, b[:-8]),
     "192 bytes of values follow the header, whose shapes need 200"),
    (lambda h, b: _joined(h, b + b"\0" * 8),
     "208 bytes of values follow the header, whose shapes need 200"),
    (lambda h, b: _joined(h, b[:-3]),
     "197 bytes of values follow the header, whose shapes need 200"),
    (_shape([5, 3]),
     "200 bytes of values follow the header, whose shapes need 224"),
    (_shape([-4, -3]), "'layer.w': missing or malformed 'shape'"),
    (_shape([4.0, 3]), "'layer.w': missing or malformed 'shape'"),
    (_shape([True, 3]), "'layer.w': missing or malformed 'shape'"),
    (_shape("4 3"), "'layer.w': missing or malformed 'shape'"),
    (_shape(None), "'layer.w': missing or malformed 'shape'"),
    (lambda h, b: _shape([0, 2**62])(h, b[96:]),  # 0 values, no array
     r"shape \[0, 4611686018427387904\]: "),
    (_nan_at(104), "'layer.b' holds non-finite values"),
    (_nan_at(144), "'head.w' holds non-finite values"),
    (lambda h, b: _joined({**h, "format_version": 99}, b),
     "unsupported format_version 99"),
    (lambda h, b: _joined({k: v for k, v in h.items() if k != "params"}, b),
     "missing 'params'"),
    (lambda h, b: json.dumps(h).encode()[:-1] + b"\n" + b,
     "first line is no JSON object"),
    (lambda h, b: b"\n" + json.dumps(h).encode() + b"\n" + b,
     "first line is no JSON object"),
    (lambda h, b: json.dumps(h).encode(),  # no line end: a JSON document
     "no line end after the header line"),
], ids=["short", "trailing", "ragged", "shape-too-big", "negative-shape",
        "float-shape", "bool-shape", "string-shape", "no-shape",
        "empty-shape-too-big",
        "nan-in-layer.b", "nan-in-last", "version-99", "no-params",
        "truncated-header", "blank-first-line", "header-only"])
def test_format_4_defect_rejected(tmp_path, change, match):
    # defects of the parts a file shares with format 4, the header line and
    # the parameters; the word table's own are the next test's
    _rejected(tmp_path / "model.ckpt", _defect(change), match)


def _v7_defect(body=lambda b: b, table="words", **change):
    """The format 7 file of `_random_store` and `_words`, with an empty KB
    store, its body changed by `body` and its header by `change`: a `pairs`
    key replaces the pair rows, a key named `table` the whole of that
    table's entry, and any other key that key of the entry. The word matrix
    is the last 48 bytes."""
    header, rest = _split_bytes(_file(_store_values(), {"d": 2}, 7))
    if "pairs" in change:
        header["pairs"] = change.pop("pairs")
    tables = header["tables"]
    tables[table] = change.pop(table, {**tables[table], **change})
    return _joined(header, body(rest))


MALFORMED_WORDS = "malformed 'words' table; expected unique string 'ids'"


@pytest.mark.parametrize("content, match", [
    (_v7_defect(ids=["a", "b", "a"]), MALFORMED_WORDS),
    (_v7_defect(ids=["a", 2, "c"]), MALFORMED_WORDS),
    (_v7_defect(ids=["a", None, "c"]), MALFORMED_WORDS),
    (_v7_defect(ids="abc"), MALFORMED_WORDS),
    (_v7_defect(width=2.0), MALFORMED_WORDS),
    (_v7_defect(width=-2), MALFORMED_WORDS),
    (_v7_defect(width=True), MALFORMED_WORDS),
    (_v7_defect(words=None), MALFORMED_WORDS),
    (_v7_defect(words=["a", "b", "c"]), MALFORMED_WORDS),
    (_v7_defect(ids=["a", "b", "c", "d"]),
     "200 bytes of values follow the header, whose shapes need 216"),
    (_v7_defect(body=lambda b: b[:-8]),
     "192 bytes of values follow the header, whose shapes need 200"),
    (_v7_defect(body=lambda b: b[:-48]),
     "152 bytes of values follow the header, whose shapes need 200"),
    (_v7_defect(body=lambda b: b[:-8] + _wire(np.array([np.inf]))),
     "table 'words' holds non-finite values"),
], ids=["repeated-id", "int-id", "null-id", "string-ids", "float-width",
        "negative-width", "bool-width", "null-words", "list-words",
        "more-ids-than-rows", "short",
        "no-matrix", "inf-in-words"])
def test_format_5_word_table_defect_rejected(tmp_path, content, match):
    # the word table, as format 5 held it; the KB tables and pair rows that
    # format 6 adds are the next test's
    _rejected(tmp_path / "model.ckpt", content, match)


def _malformed(table, d=2):
    return (f"malformed '{table}' table; expected unique string 'ids' and "
            rf"'width' the config's d \(at least 1\), {d}")


MALFORMED_PAIRS = r"malformed 'pairs'; expected rows \[e1, e2, label, ...\]"


@pytest.mark.parametrize("content, match", [
    (_v7_defect(pairs=[["A", "B", "binds"]]), MALFORMED_PAIRS),
    (_v7_defect(table="relations", ids=["binds"], pairs=[["A", "B", "binds"],
                                                         ["A", "C", "x"]],
                body=lambda b: b + _wire(np.zeros(2))), MALFORMED_PAIRS),
    (_v7_defect(pairs=[["A", "B"]]), MALFORMED_PAIRS),
    (_v7_defect(pairs=[["A", "B", 3]]), MALFORMED_PAIRS),
    (_v7_defect(pairs=["A", "B", "binds"]), MALFORMED_PAIRS),
    (_v7_defect(pairs=None), MALFORMED_PAIRS),
    (_v7_defect(table="entities", width=3), _malformed("entities")),
    (_v7_defect(table="relations", width=3), _malformed("relations")),
    (_v7_defect(width=3), _malformed("words")),
    (_v7_defect(table="relations", ids=["r", "r"]), _malformed("relations")),
    (_v7_defect(table="entities", ids=["A", "A"]), _malformed("entities")),
    (_v7_defect(table="relations", relations=None), _malformed("relations")),
    (_v7_defect(table="entities", ids=["A"]),
     "200 bytes of values follow the header, whose shapes need 216"),
    (_v7_defect(table="relations", ids=["binds"],
                body=lambda b: b + _wire(np.array([0.0, np.nan]))),
     "table 'relations' holds non-finite values"),
    (_file({}, {"d": 0}, 7, Embeddings([], np.zeros((0, 0)))),
     _malformed("words", 0)),
    # 1 == True: a save refuses a d of true, and so does a load
    (_file({}, {"d": True}, 7, Embeddings([], np.zeros((0, 1)))),
     _malformed("words", True)),
], ids=["label-not-a-relation", "one-label-not-a-relation", "two-strings",
        "int-label", "row-not-a-list", "null-pairs", "entities-of-width-3",
        "relations-of-width-3", "words-of-width-3", "repeated-relation", "repeated-entity",
        "null-relations", "entity-without-row", "nan-in-relations",
        "zero-width", "true-width"])
def test_format_6_table_and_pair_defect_rejected(tmp_path, content, match):
    _rejected(tmp_path / "model.ckpt", content, match)


def test_values_not_filling_shape_rejected(tmp_path):
    # a body that ends inside the word matrix: every parameter is there,
    # the words' rows are not
    _rejected(tmp_path / "model.ckpt",
              _v7_defect(body=lambda b: b[:-20]),
              "180 bytes of values follow the header, whose shapes need 200")


@pytest.mark.parametrize("n_bytes", [88, 90, 104], ids=["short", "ragged",
                                                        "long"])
def test_byte_count_not_filling_shape_rejected(tmp_path, n_bytes):
    # layer.w is (4, 3): 96 bytes, the first of the body
    _rejected(tmp_path / "model.ckpt",
              _v7_defect(body=lambda b: bytes(range(n_bytes)) + b[96:]),
              f"{104 + n_bytes} bytes of values follow the header, whose "
              f"shapes need 200")


@VERSIONS
def test_non_finite_values_rejected(tmp_path, version):
    values = _store_values()
    values["layer.b"][1] = float("nan")
    _rejected(tmp_path / "model.ckpt", _file(values, {"d": 2}, version),
              "'layer.b' holds non-finite values")


def test_saving_non_finite_parameter_refused_and_writes_nothing(tmp_path):
    store = _random_store()
    store["layer.w"].data[2, 1] = float("nan")
    path = tmp_path / "model.ckpt"
    with pytest.raises(InputError,
                       match=r"model\.ckpt: parameter 'layer\.w' holds "
                             r"non-finite values"):
        save_checkpoint(path, store, _words(), _empty_kb(), {"d": 2})
    assert not path.exists()


def test_saving_a_non_finite_word_table_refused_and_writes_nothing(
        tmp_path):
    words = _words()
    words.matrix[1, 0] = float("inf")
    path = tmp_path / "model.ckpt"
    with pytest.raises(InputError,
                       match=r"model\.ckpt: table 'words' holds "
                             r"non-finite values; not saved"):
        save_checkpoint(path, _random_store(), words, _empty_kb(), {"d": 2})
    assert not path.exists()


class _FailingFile:
    """Writes half of what it is given, then fails as a full disk would."""

    def __init__(self, f):
        self.f = f

    def write(self, text):
        self.f.write(text[:len(text) // 2])
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)


@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch,
                                             existing):
    path = tmp_path / "model.ckpt"
    if existing:
        save_checkpoint(path, _random_store(seed=1), _words(), _kb(),
                        {"d": 2})
    before = path.read_bytes() if existing else None
    monkeypatch.setattr(ksm.checkpoint, "open",
                        lambda *a, **kw: _FailingFile(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, _random_store(seed=2), _words(), _kb(),
                        {"d": 2})
    assert os.listdir(tmp_path) == (["model.ckpt"] if existing else [])
    if existing:
        assert path.read_bytes() == before


# a version 1 config field, and the values every format 2 to 4 config
# carried while a learned position table was selectable and the KB width
# was a field
@pytest.mark.parametrize("key, value", [
    ("d_head", 4), ("position_encoding", "sinusoidal"),
    ("max_distance", 16), ("d_kb", 8)],
    ids=["d_head", "position_encoding", "max_distance", "d_kb"])
def test_model_config_with_unknown_key_rejected(tmp_path, key, value):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    model.save(path)
    header, body = _split(path)
    header["config"][key] = value
    path.write_bytes(_joined(header, body))
    with pytest.raises(InputError) as e:
        KSMModel.load(path, model.word_table)
    assert str(e.value).startswith(f"{path}: invalid model config: ")
    assert repr(key) in str(e.value)
