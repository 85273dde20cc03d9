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
VERSIONS = pytest.mark.parametrize("version", [2, 3], ids=["v2", "v3"])


def _encoded(values: np.ndarray, version: int):
    """One parameter's values as format `version` stores them, built by
    hand: a list of floats (2) or base64 of little-endian float64 (3)."""
    if version == 2:
        return values.reshape(-1).tolist()
    return base64.b64encode(
        np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def _blob(values: dict, config: dict, version: int) -> dict:
    return {"format_version": version, "config": config,
            "params": {k: {"shape": list(v.shape),
                           "values": _encoded(v, version)}
                       for k, v in values.items()}}


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
    save_checkpoint(path, store, config={"d": 4})
    values, config = load_checkpoint(path)
    assert config == {"d": 4}
    assert set(values) == set(store.names())
    for name, t in store.items():
        assert values[name].shape == t.shape
        assert values[name].tobytes() == t.data.tobytes()


def test_saved_file_is_the_documented_encoding(tmp_path):
    store = _random_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config={"d": 4})
    expected = _blob({n: t.data for n, t in store.items()}, {"d": 4},
                     FORMAT_VERSION)
    assert FORMAT_VERSION == 3
    assert json.loads(path.read_text()) == expected


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
    assert json.loads(path.read_text())["format_version"] == 3
    new = KSMModel.load(path, word_table)
    v2, _ = load_checkpoint(DATA / "toy_model_v2.ckpt")
    v3, _ = load_checkpoint(path)
    assert all(v2[k].tobytes() == v3[k].tobytes() for k in v2) and \
        v2.keys() == v3.keys()
    for inst, kn in toy_batch(5, old.config.d_kb):
        a = old.forward_instance(inst, kn)[0].data
        b = new.forward_instance(inst, kn)[0].data
        assert a.tobytes() == b.tobytes()


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _random_store())
    blob = json.loads(path.read_text())
    blob["format_version"] = 99
    path.write_text(json.dumps(blob))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(path)


def test_garbage_file_rejected_with_location(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_text("not json {")
    with pytest.raises(CheckpointError, match="line"):
        load_checkpoint(path)


def test_model_roundtrip_restores_forward(tmp_path):
    model = toy_model(seed=4)
    batch = toy_batch(5, model.config.d_kb)
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
    path.write_text(json.dumps(_blob(values, config, version)))
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


def _path_and_blob(tmp_path, version=FORMAT_VERSION):
    """A file path and the blob of `_random_store` in format `version`."""
    return tmp_path / "model.ckpt", _blob(_store_values(), {"d": 4}, version)


def _rejected(path, blob, match):
    path.write_text(json.dumps(blob))
    with pytest.raises(CheckpointError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_version_1_file_rejected_with_retrain_hint(tmp_path):
    path, blob = _path_and_blob(tmp_path)
    blob["format_version"] = 1
    _rejected(path, blob, "format_version 1 .*retrain")


def test_non_object_blob_rejected(tmp_path):
    path, _ = _path_and_blob(tmp_path)
    _rejected(path, [1, 2, 3], "JSON object")


def test_missing_params_rejected(tmp_path):
    path, blob = _path_and_blob(tmp_path)
    del blob["params"]
    _rejected(path, blob, "missing 'params'")


@pytest.mark.parametrize("key,version", [("shape", 3), ("values", 2),
                                         ("values", 3)],
                         ids=["shape", "values-v2", "values-v3"])
def test_parameter_without_shape_or_values_rejected(tmp_path, key, version):
    path, blob = _path_and_blob(tmp_path, version)
    del blob["params"]["layer.w"][key]
    _rejected(path, blob, f"'layer.w': missing or malformed.*'{key}'")


def test_values_not_filling_shape_rejected(tmp_path):
    path, blob = _path_and_blob(tmp_path)
    blob["params"]["layer.w"]["shape"] = [5, 3]
    _rejected(path, blob, "'layer.w': missing or malformed.*reshape")


@VERSIONS
def test_non_finite_values_rejected(tmp_path, version):
    values = _store_values()
    values["layer.b"][1] = float("nan")
    _rejected(tmp_path / "model.ckpt", _blob(values, {"d": 4}, version),
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
    path, blob = _path_and_blob(tmp_path)
    blob["params"]["layer.w"]["values"] = values
    _rejected(path, blob, "'layer.w': missing or malformed")


@pytest.mark.parametrize("n_bytes", [88, 90, 104], ids=["short", "ragged",
                                                        "long"])
def test_byte_count_not_filling_shape_rejected(tmp_path, n_bytes):
    # layer.w is (4, 3): 96 bytes
    path, blob = _path_and_blob(tmp_path)
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
    blob = json.loads(path.read_text())
    blob["config"]["d_head"] = 4      # a version 1 config field
    path.write_text(json.dumps(blob))
    with pytest.raises(CheckpointError, match="invalid model config"):
        KSMModel.load(path, model.word_table)
