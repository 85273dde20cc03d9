"""Checkpoint format: lossless round trips, versioning, config coupling."""

import base64
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
from ksm.model import KSMModel

DATA = Path(__file__).parent / "data"
VERSIONS = pytest.mark.parametrize("version", [2, 3, 4],
                                   ids=["v2", "v3", "v4"])


def _wire(values: np.ndarray) -> bytes:
    """Little-endian float64 bytes in row-major order."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _encoded(values: np.ndarray, version: int):
    """One parameter's values as JSON format `version` stores them, built
    by hand: a list of floats (2) or base64 of `_wire` (3)."""
    if version == 2:
        return values.reshape(-1).tolist()
    return base64.b64encode(_wire(values)).decode("ascii")


def _blob(values: dict, config: dict, version: int) -> dict:
    """The JSON document of a format 2 or 3 file."""
    return {"format_version": version, "config": config,
            "params": {k: {"shape": list(v.shape),
                           "values": _encoded(v, version)}
                       for k, v in values.items()}}


def _joined(header: dict, body: bytes) -> bytes:
    return json.dumps(header).encode("ascii") + b"\n" + body


def _file(values: dict, config: dict, version: int) -> bytes:
    """A whole file of format `version`, built by hand: for 4 a JSON header
    line of the shapes and then every parameter's `_wire` bytes in order."""
    if version != 4:
        return json.dumps(_blob(values, config, version)).encode("ascii")
    header = {"format_version": 4, "config": config,
              "params": {k: {"shape": list(v.shape)}
                         for k, v in values.items()}}
    return _joined(header, b"".join(_wire(v) for v in values.values()))


def _split(path) -> tuple[dict, bytes]:
    """A format 4 file's header, parsed, and its body."""
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), body


def _random_store(seed=0):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    store.add("layer.w", Tensor(rng.standard_normal((4, 3))))
    store.add("layer.b", Tensor(rng.standard_normal(3) * 1e-17))
    store.add("head.w", Tensor(rng.standard_normal((2, 2)) * 1e12))
    return store


def test_roundtrip_is_bit_exact(tmp_path):
    store = _random_store()
    path = tmp_path / "model.ckpt"
    config = {"d": 4, "note": "two\nlines"}  # the header stays one line
    save_checkpoint(path, store, config=config)
    values, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert set(values) == set(store.names())
    for name, t in store.items():
        assert values[name].shape == t.shape
        assert values[name].tobytes() == t.data.tobytes()


def test_saved_file_is_the_documented_encoding(tmp_path):
    store = _random_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config={"d": 4})
    assert FORMAT_VERSION == 4
    assert path.read_bytes() == _file({n: t.data for n, t in store.items()},
                                      {"d": 4}, 4)


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
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Path(d) / "m.ckpt", store)
        loaded, _ = load_checkpoint(Path(d) / "m.ckpt")
    back = loaded["p"]
    assert back.shape == values.shape and back.dtype == np.float64
    assert back.dtype.isnative and back.flags.writeable
    assert back.tobytes() == values.tobytes()


def test_format_2_file_loads_to_the_same_model(tmp_path):
    # tests/data/toy_model_v2.ckpt is toy_model(seed=3) as saved by the
    # format 2 writer (values as JSON lists of floats)
    original = toy_model(seed=3)
    word_table = original.word_table
    old = KSMModel.load(DATA / "toy_model_v2.ckpt", word_table)
    assert all(t.data.tobytes() == old.params[n].data.tobytes()
               for n, t in original.params.items())
    path = tmp_path / "m.ckpt"
    old.save(path)
    assert _split(path)[0]["format_version"] == FORMAT_VERSION
    new = KSMModel.load(path, word_table)
    v2, _ = load_checkpoint(DATA / "toy_model_v2.ckpt")
    v4, _ = load_checkpoint(path)
    assert all(v2[k].tobytes() == v4[k].tobytes() for k in v2) and \
        v2.keys() == v4.keys()
    for inst, kn in toy_batch(5, old.config.d):
        a = old.forward_instance(inst, kn)[0].data
        b = new.forward_instance(inst, kn)[0].data
        assert a.tobytes() == b.tobytes()


def _same_values(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].tobytes() == b[k].tobytes() for k in a)


# what every config saved while a learned position table was selectable
# and the KB width was a field carries (toy_model_v2.ckpt and
# toy_model_v3.ckpt among them)
LEGACY_KEYS = {"position_encoding": "sinusoidal", "max_distance": 16,
               "d_kb": 8}


def test_format_3_file_loads_to_the_same_values(tmp_path):
    # tests/data/toy_model_v3.ckpt is toy_model(seed=3) as saved by the
    # format 3 writer (values as base64 strings)
    v2, config2 = load_checkpoint(DATA / "toy_model_v2.ckpt")
    v3, config3 = load_checkpoint(DATA / "toy_model_v3.ckpt")
    path = tmp_path / "m.ckpt"
    KSMModel.load(DATA / "toy_model_v3.ckpt",
                  toy_model(seed=3).word_table).save(path)
    v4, config4 = load_checkpoint(path)
    assert config2 == config3 == {**config4, **LEGACY_KEYS}
    assert _same_values(v3, v2) and _same_values(v4, v2)


def test_pretty_printed_format_3_file_is_read(tmp_path):
    v3_path = DATA / "toy_model_v3.ckpt"
    path = tmp_path / "m.ckpt"
    path.write_text(json.dumps(json.loads(v3_path.read_text()), indent=2))
    assert path.read_text().count("\n") > 10
    values, config = load_checkpoint(path)
    want, want_config = load_checkpoint(v3_path)
    assert config == want_config and _same_values(values, want)


@VERSIONS
def test_config_with_the_older_position_keys_loads(tmp_path, version):
    model = toy_model(seed=3)
    values = {n: t.data for n, t in model.params.items()}
    path = tmp_path / "m.ckpt"
    path.write_bytes(_file(values, {**model.config.to_dict(), **LEGACY_KEYS},
                           version))
    loaded = KSMModel.load(path, model.word_table)
    assert loaded.config == model.config
    assert _same_values({n: t.data for n, t in loaded.params.items()}, values)


@VERSIONS
def test_config_with_a_kb_width_other_than_d_rejected(tmp_path, version):
    model = toy_model(seed=3)
    values = {n: t.data for n, t in model.params.items()}
    path = tmp_path / "m.ckpt"
    path.write_bytes(_file(values, {**model.config.to_dict(), "d_kb": 16},
                           version))
    with pytest.raises(CheckpointError) as e:
        KSMModel.load(path, model.word_table)
    assert str(e.value) == (f"{path}: invalid model config: "
                            f"d_kb (16) must equal d (8)")


@VERSIONS
def test_learned_position_checkpoint_rejected(tmp_path, version):
    model = toy_model(seed=3)
    values = {n: t.data for n, t in model.params.items()}
    values["position.table"] = np.zeros((17, model.config.d))
    config = {**model.config.to_dict(), **LEGACY_KEYS,
              "position_encoding": "learned"}
    path = tmp_path / "m.ckpt"
    path.write_bytes(_file(values, config, version))
    with pytest.raises(CheckpointError) as e:
        KSMModel.load(path, model.word_table)
    assert str(e.value).startswith(f"{path}: invalid model config: "
                                   f"position_encoding 'learned'")
    assert "retrain" in str(e.value)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _random_store())
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
    restored = KSMModel.load(path, model.word_table)
    after = [restored.forward_instance(i, k)[0].data for i, k in batch]
    for b, a in zip(before, after):
        np.testing.assert_array_equal(b, a)


@VERSIONS
def test_checkpoint_without_matching_config_rejected(tmp_path, version):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    model.save(path)

    # a config that implies a different parameter set must be refused
    values, config = load_checkpoint(path)
    config["n_blocks"] = 1
    path.write_bytes(_file(values, config, version))
    with pytest.raises(CheckpointError, match="does not match"):
        KSMModel.load(path, model.word_table)


def test_checkpoint_missing_config_rejected(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.params, config=None)
    with pytest.raises(CheckpointError, match="config"):
        KSMModel.load(path, model.word_table)


# ---------------------------------------------------------------------------
# every defect of a file is a CheckpointError naming the file


def _store_values():
    return {n: t.data.copy() for n, t in _random_store().items()}


def _path_and_blob(tmp_path, version):
    """A file path and the JSON blob of `_random_store` in format
    `version` (2 or 3)."""
    return tmp_path / "model.ckpt", _blob(_store_values(), {"d": 4}, version)


def _rejected(path, content, match):
    """`content` (file bytes, or a blob to write as JSON) fails to load
    with a CheckpointError that matches `match` and names the file."""
    path.write_bytes(content if isinstance(content, bytes)
                     else json.dumps(content).encode("ascii"))
    with pytest.raises(CheckpointError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_version_1_file_rejected_with_retrain_hint(tmp_path):
    path, blob = _path_and_blob(tmp_path, 3)
    blob["format_version"] = 1
    _rejected(path, blob, "format_version 1 .*retrain")


def test_non_object_blob_rejected(tmp_path):
    path, _ = _path_and_blob(tmp_path, 3)
    _rejected(path, [1, 2, 3], "JSON object")


def test_missing_params_rejected(tmp_path):
    path, blob = _path_and_blob(tmp_path, 3)
    del blob["params"]
    _rejected(path, blob, "missing 'params'")


@pytest.mark.parametrize("key,version", [("shape", 3), ("values", 2),
                                         ("values", 3)],
                         ids=["shape", "values-v2", "values-v3"])
def test_parameter_without_shape_or_values_rejected(tmp_path, key, version):
    path, blob = _path_and_blob(tmp_path, version)
    del blob["params"]["layer.w"][key]
    _rejected(path, blob, f"'layer.w': missing or malformed.*'{key}'")


def _v4_defect(change):
    """The format 4 file of `_random_store` after `change(header, body)`,
    which returns the file's bytes. The body holds layer.w (4, 3) in bytes
    0-95, layer.b (3,) in 96-119 and head.w (2, 2) in 120-151."""
    data = _file(_store_values(), {"d": 4}, 4)
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
     "144 bytes of values follow the header, whose shapes need 152"),
    (lambda h, b: _joined(h, b + b"\0" * 8),
     "160 bytes of values follow the header, whose shapes need 152"),
    (lambda h, b: _joined(h, b[:-3]),
     "149 bytes of values follow the header, whose shapes need 152"),
    (_shape([5, 3]),
     "152 bytes of values follow the header, whose shapes need 176"),
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
     "no JSON header line, and not UTF-8 JSON"),
    (lambda h, b: b"\n" + json.dumps(h).encode() + b"\n" + b,
     "no JSON header line, and not UTF-8 JSON"),
    (lambda h, b: json.dumps(h).encode(),  # no line end: a JSON document
     "unsupported format_version 4"),
], ids=["short", "trailing", "ragged", "shape-too-big", "negative-shape",
        "float-shape", "bool-shape", "string-shape", "no-shape",
        "nan-in-layer.b", "nan-in-last", "version-99", "no-params",
        "truncated-header", "blank-first-line", "header-only"])
def test_format_4_defect_rejected(tmp_path, change, match):
    _rejected(tmp_path / "model.ckpt", _v4_defect(change), match)


def test_values_not_filling_shape_rejected(tmp_path):
    path, blob = _path_and_blob(tmp_path, 3)
    blob["params"]["layer.w"]["shape"] = [5, 3]
    _rejected(path, blob, "'layer.w': missing or malformed.*reshape")


@VERSIONS
def test_non_finite_values_rejected(tmp_path, version):
    values = _store_values()
    values["layer.b"][1] = float("nan")
    _rejected(tmp_path / "model.ckpt", _file(values, {"d": 4}, version),
              "'layer.b' holds non-finite values")


def _b64(n_bytes):
    return base64.b64encode(bytes(range(n_bytes))).decode("ascii")


@pytest.mark.parametrize("values", [
    "*" + _b64(96)[1:],            # a character outside the alphabet
    _b64(48) + "\n" + _b64(48),     # whitespace is not skipped
    _b64(96)[:-1],                 # a truncated quantum
    [0.5] * 12,                    # the format 2 encoding in a 3 file
], ids=["bad-char", "newline", "truncated", "list"])
def test_malformed_base64_rejected(tmp_path, values):
    path, blob = _path_and_blob(tmp_path, 3)
    blob["params"]["layer.w"]["values"] = values
    _rejected(path, blob, "'layer.w': missing or malformed")


@pytest.mark.parametrize("n_bytes", [88, 90, 104], ids=["short", "ragged",
                                                        "long"])
def test_byte_count_not_filling_shape_rejected(tmp_path, n_bytes):
    # layer.w is (4, 3): 96 bytes
    path, blob = _path_and_blob(tmp_path, 3)
    blob["params"]["layer.w"]["values"] = _b64(n_bytes)
    _rejected(path, blob, "'layer.w': missing or malformed")


def test_saving_non_finite_parameter_refused_and_writes_nothing(tmp_path):
    store = _random_store()
    store["layer.w"].data[2, 1] = float("nan")
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError,
                       match=r"model\.ckpt: parameter 'layer\.w' holds "
                             r"non-finite values"):
        save_checkpoint(path, store)
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
        save_checkpoint(path, _random_store(seed=1), config={"d": 4})
    before = path.read_bytes() if existing else None
    monkeypatch.setattr(ksm.checkpoint, "open",
                        lambda *a, **kw: _FailingFile(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, _random_store(seed=2), config={"d": 4})
    assert os.listdir(tmp_path) == (["model.ckpt"] if existing else [])
    if existing:
        assert path.read_bytes() == before


def test_model_config_with_unknown_key_rejected(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    model.save(path)
    header, body = _split(path)
    header["config"]["d_head"] = 4    # a version 1 config field
    path.write_bytes(_joined(header, body))
    with pytest.raises(CheckpointError, match="invalid model config"):
        KSMModel.load(path, model.word_table)
