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
from ksm.checkpoint import (FORMAT_VERSION, CheckpointError,
                            load_checkpoint, save_checkpoint)
from ksm.gradcheck import toy_batch, toy_model
from ksm.kb import Embeddings
from ksm.model import KSMModel, WordTable

DATA = Path(__file__).parent / "data"
VERSIONS = pytest.mark.parametrize("version", [5], ids=["v5"])


def _wire(values: np.ndarray) -> bytes:
    """Little-endian float64 bytes in row-major order."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _joined(header: dict, body: bytes) -> bytes:
    return json.dumps(header).encode("ascii") + b"\n" + body


def _file(values: dict, config: dict, version: int,
          words: Embeddings | None = None) -> bytes:
    """A whole file of format `version`, built by hand: a JSON header line
    of the shapes (and for 5 the word ids and width of `words`, by default
    `_words()`), then every parameter's `_wire` bytes in order and, for 5,
    the word matrix's. Format 4 was format 5 without the word table."""
    header = {"format_version": version, "config": config,
              "params": {k: {"shape": list(v.shape)}
                         for k, v in values.items()}}
    arrays = list(values.values())
    if version == 5:
        words = _words() if words is None else words
        header["words"] = {"ids": words.ids, "width": words.matrix.shape[1]}
        arrays.append(words.matrix)
    return _joined(header, b"".join(_wire(v) for v in arrays))


def _split(path) -> tuple[dict, bytes]:
    """A file's header, parsed, and its body."""
    header, _, body = path.read_bytes().partition(b"\n")
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


def test_roundtrip_is_bit_exact(tmp_path):
    store, words = _random_store(), _words()
    path = tmp_path / "model.ckpt"
    config = {"d": 4, "note": "two\nlines"}  # the header stays one line
    save_checkpoint(path, store, words, config=config)
    values, loaded_config, loaded_words = load_checkpoint(path)
    assert loaded_config == config
    assert set(values) == set(store.names())
    for name, t in store.items():
        assert values[name].shape == t.shape
        assert values[name].tobytes() == t.data.tobytes()
    assert loaded_words.ids == words.ids
    assert loaded_words.matrix.tobytes() == words.matrix.tobytes()
    assert loaded_words.matrix.flags.writeable


def test_saved_file_is_the_documented_encoding(tmp_path):
    store, words = _random_store(), _words()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, words, config={"d": 4})
    assert FORMAT_VERSION == 5
    assert path.read_bytes() == _file({n: t.data for n, t in store.items()},
                                      {"d": 4}, 5, words)


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
    words = Embeddings([f"w{i}" for i in range(len(values))],
                       values if values.ndim == 2 else values[:, None])
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Path(d) / "m.ckpt", store, words)
        loaded, _, loaded_words = load_checkpoint(Path(d) / "m.ckpt")
    for back in (loaded["p"], loaded_words.matrix.reshape(values.shape)):
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
], ids=["v2", "v3", "v3-pretty-printed", "v4"])
def test_format_2_and_3_files_rejected_with_retrain_hint(tmp_path, content):
    _rejected(tmp_path / "model.ckpt", content, "retrain the model")


def _model_file(model, config: dict, version: int,
                values: dict | None = None) -> bytes:
    """`model` saved by hand in format `version`, with `config` (and
    `values`, if given, for its parameters)."""
    if values is None:
        values = {n: t.data for n, t in model.params.items()}
    return _file(values, config, version, model.word_table.vectors)


@pytest.mark.parametrize("gate", [False, None, 1])
def test_config_whose_gate_left_out_the_relation_rejected(tmp_path, gate):
    model = toy_model(seed=3)
    values = {n: t.data for n, t in model.params.items()
              if n != "selector.u"}          # such a model had no U
    path = tmp_path / "m.ckpt"
    path.write_bytes(_model_file(
        model, {**model.config.to_dict(), "gate_uses_relation": gate}, 5,
        values))
    with pytest.raises(CheckpointError) as e:
        KSMModel.load(path)
    assert str(e.value) == (f"{path}: invalid model config: "
                            f"gate_uses_relation {gate!r} is no longer "
                            f"supported; retrain the model")


def test_format_5_file_saved_with_the_gate_key_loads_to_the_same_model():
    # toy_model(seed=3) as saved while ModelConfig had gate_uses_relation
    path = DATA / "toy_model_v5.ckpt"
    assert _split(path)[0]["config"]["gate_uses_relation"] is True
    original, old = toy_model(seed=3), KSMModel.load(path)
    assert old.config == original.config
    assert _same_values({n: t.data for n, t in old.params.items()},
                        {n: t.data for n, t in original.params.items()})
    for inst, kn in toy_batch(5, old.config.d):
        assert (old.forward_instance(inst, kn)[0].data.tobytes()
                == original.forward_instance(inst, kn)[0].data.tobytes())


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _random_store(), _words())
    header, body = _split(path)
    header["format_version"] = 99
    path.write_bytes(_joined(header, body))
    with pytest.raises(CheckpointError, match="format_version 99"):
        load_checkpoint(path)


def test_garbage_file_rejected_with_location(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_text("not json {")
    with pytest.raises(CheckpointError, match="line"):
        load_checkpoint(path)


@pytest.mark.parametrize("line_end", [b"", b"\n"], ids=["document",
                                                      "header"])
def test_deeply_nested_json_rejected(tmp_path, line_end):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"[" * 100_000 + line_end)
    with pytest.raises(CheckpointError, match="nested too deeply"):
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
    with pytest.raises(CheckpointError) as e:
        KSMModel.load(path, other)
    assert str(e.value) == (f"{path}: the word table passed is not the one "
                            f"saved with the model")
    renamed = WordTable(dict(zip(vectors.ids[::-1], vectors.matrix)),
                        model.config.d)
    with pytest.raises(CheckpointError, match="word table passed"):
        KSMModel.load(path, renamed)


@VERSIONS
def test_checkpoint_without_matching_config_rejected(tmp_path, version):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    model.save(path)

    # a config that implies a different parameter set must be refused
    values, config, _ = load_checkpoint(path)
    config["n_blocks"] = 1
    path.write_bytes(_model_file(model, config, version, values))
    with pytest.raises(CheckpointError, match="does not match"):
        KSMModel.load(path, model.word_table)


def test_word_table_of_another_width_than_the_config_rejected(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    words = Embeddings(["UNK"], np.zeros((1, model.config.d + 1)))
    save_checkpoint(path, model.params, words, config=model.config.to_dict())
    with pytest.raises(CheckpointError, match="does not match its config: "
                                              "word table dim 9 != model d 8"):
        KSMModel.load(path)


def test_checkpoint_missing_config_rejected(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.params, model.word_table.vectors, config=None)
    with pytest.raises(CheckpointError, match="config"):
        KSMModel.load(path, model.word_table)


# ---------------------------------------------------------------------------
# every defect of a file is a CheckpointError naming the file


def _store_values():
    return {n: t.data.copy() for n, t in _random_store().items()}


def _rejected(path, content: bytes, match):
    """`content` fails to load with a CheckpointError that matches `match`
    and names the file."""
    path.write_bytes(content)
    with pytest.raises(CheckpointError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_version_1_file_rejected_with_retrain_hint(tmp_path):
    _rejected(tmp_path / "model.ckpt",
              _file(_store_values(), {"d": 4}, 1),
              "format_version 1 .*retrain")


def test_non_object_blob_rejected(tmp_path):
    _rejected(tmp_path / "model.ckpt", b"[1, 2, 3]\n", "JSON object")


def test_missing_params_rejected(tmp_path):
    _rejected(tmp_path / "model.ckpt",
              _joined({"format_version": 5, "config": {}, "words": None},
                      b""),
              "missing 'params'")


def _defect(change):
    """The file of `_random_store` and `_words` after `change(header,
    body)`, which returns the file's bytes. The body holds layer.w (4, 3) in
    bytes 0-95, layer.b (3,) in 96-119, head.w (2, 2) in 120-151 and the
    word matrix (3, 2) in 152-199."""
    data = _file(_store_values(), {"d": 4}, 5)
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
        "nan-in-layer.b", "nan-in-last", "version-99", "no-params",
        "truncated-header", "blank-first-line", "header-only"])
def test_format_4_defect_rejected(tmp_path, change, match):
    # defects of the parts a file shares with format 4, the header line and
    # the parameters; the word table's own are the next test's
    _rejected(tmp_path / "model.ckpt", _defect(change), match)


def _v5_defect(body=lambda b: b, **change):
    """The format 5 file of `_random_store` and `_words`, its body changed
    by `body` and its header's `words` by `change`: each key given replaces
    that entry, and a `words` key the whole of it. The word matrix is the
    last 48 bytes."""
    data = _file(_store_values(), {"d": 4}, 5, _words())
    header, _, rest = data.partition(b"\n")
    header = json.loads(header)
    header["words"] = change.pop("words", {**header["words"], **change})
    return _joined(header, body(rest))


MALFORMED_WORDS = "malformed 'words'; expected unique string 'ids'"


@pytest.mark.parametrize("content, match", [
    (_v5_defect(ids=["a", "b", "a"]), MALFORMED_WORDS),
    (_v5_defect(ids=["a", 2, "c"]), MALFORMED_WORDS),
    (_v5_defect(ids=["a", None, "c"]), MALFORMED_WORDS),
    (_v5_defect(ids="abc"), MALFORMED_WORDS),
    (_v5_defect(width=2.0), MALFORMED_WORDS),
    (_v5_defect(width=-2), MALFORMED_WORDS),
    (_v5_defect(width=True), MALFORMED_WORDS),
    (_v5_defect(words=None), MALFORMED_WORDS),
    (_v5_defect(words=["a", "b", "c"]), MALFORMED_WORDS),
    (_v5_defect(ids=["a", "b", "c", "d"]),
     "200 bytes of values follow the header, whose shapes need 216"),
    (_v5_defect(body=lambda b: b[:-8]),
     "192 bytes of values follow the header, whose shapes need 200"),
    (_v5_defect(body=lambda b: b[:-48]),
     "152 bytes of values follow the header, whose shapes need 200"),
    (_v5_defect(body=lambda b: b[:-8] + _wire(np.array([np.inf]))),
     "the word table holds non-finite values"),
], ids=["repeated-id", "int-id", "null-id", "string-ids", "float-width",
        "negative-width", "bool-width", "null-words", "list-words",
        "more-ids-than-rows", "short",
        "no-matrix", "inf-in-words"])
def test_format_5_word_table_defect_rejected(tmp_path, content, match):
    _rejected(tmp_path / "model.ckpt", content, match)


def test_values_not_filling_shape_rejected(tmp_path):
    # a body that ends inside the word matrix: every parameter is there,
    # the words' rows are not
    _rejected(tmp_path / "model.ckpt",
              _v5_defect(body=lambda b: b[:-20]),
              "180 bytes of values follow the header, whose shapes need 200")


@pytest.mark.parametrize("n_bytes", [88, 90, 104], ids=["short", "ragged",
                                                        "long"])
def test_byte_count_not_filling_shape_rejected(tmp_path, n_bytes):
    # layer.w is (4, 3): 96 bytes, the first of the body
    _rejected(tmp_path / "model.ckpt",
              _v5_defect(body=lambda b: bytes(range(n_bytes)) + b[96:]),
              f"{104 + n_bytes} bytes of values follow the header, whose "
              f"shapes need 200")


@VERSIONS
def test_non_finite_values_rejected(tmp_path, version):
    values = _store_values()
    values["layer.b"][1] = float("nan")
    _rejected(tmp_path / "model.ckpt", _file(values, {"d": 4}, version),
              "'layer.b' holds non-finite values")


def test_saving_non_finite_parameter_refused_and_writes_nothing(tmp_path):
    store = _random_store()
    store["layer.w"].data[2, 1] = float("nan")
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError,
                       match=r"model\.ckpt: parameter 'layer\.w' holds "
                             r"non-finite values"):
        save_checkpoint(path, store, _words())
    assert not path.exists()


def test_saving_a_non_finite_word_table_refused_and_writes_nothing(
        tmp_path):
    words = _words()
    words.matrix[1, 0] = float("inf")
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError,
                       match=r"model\.ckpt: the word table holds non-finite "
                             r"values; not saved"):
        save_checkpoint(path, _random_store(), words)
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
        save_checkpoint(path, _random_store(seed=1), _words(),
                        config={"d": 4})
    before = path.read_bytes() if existing else None
    monkeypatch.setattr(ksm.checkpoint, "open",
                        lambda *a, **kw: _FailingFile(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, _random_store(seed=2), _words(),
                        config={"d": 4})
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
    with pytest.raises(CheckpointError) as e:
        KSMModel.load(path, model.word_table)
    assert str(e.value).startswith(f"{path}: invalid model config: ")
    assert repr(key) in str(e.value)
