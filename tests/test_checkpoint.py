"""Checkpoint format: lossless round trips, versioning, config coupling."""

import json

import numpy as np
import pytest

from ksm.autodiff import ParameterStore, Tensor
from ksm.checkpoint import (FORMAT_VERSION, CheckpointError,
                            load_checkpoint, save_checkpoint)
from ksm.gradcheck import toy_model
from ksm.model import KSMModel


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
    from ksm.gradcheck import toy_batch
    model = toy_model(seed=4)
    batch = toy_batch(5, model.config.d_kb)
    before = [model.forward_instance(i, k)[0].data.copy() for i, k in batch]
    path = tmp_path / "m.ckpt"
    model.save(path)
    restored = KSMModel.load(path, model.word_table)
    after = [restored.forward_instance(i, k)[0].data for i, k in batch]
    for b, a in zip(before, after):
        np.testing.assert_array_equal(b, a)


def test_checkpoint_without_matching_config_rejected(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    model.save(path)

    # a config that implies a different parameter set must be refused
    values, config = load_checkpoint(path)
    config["n_blocks"] = 1
    blob = {"format_version": FORMAT_VERSION, "config": config,
            "params": {k: {"shape": list(v.shape),
                           "values": v.reshape(-1).tolist()}
                       for k, v in values.items()}}
    path.write_text(json.dumps(blob))
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


def _saved_blob(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _random_store(), config={"d": 4})
    return path, json.loads(path.read_text())


def _rejected(path, blob, match):
    path.write_text(json.dumps(blob))
    with pytest.raises(CheckpointError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_version_1_file_rejected_with_retrain_hint(tmp_path):
    path, blob = _saved_blob(tmp_path)
    blob["format_version"] = 1
    _rejected(path, blob, "format_version 1 .*retrain")


def test_non_object_blob_rejected(tmp_path):
    path, _ = _saved_blob(tmp_path)
    _rejected(path, [1, 2, 3], "JSON object")


def test_missing_params_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    del blob["params"]
    _rejected(path, blob, "missing 'params'")


@pytest.mark.parametrize("key", ["shape", "values"])
def test_parameter_without_shape_or_values_rejected(tmp_path, key):
    path, blob = _saved_blob(tmp_path)
    del blob["params"]["layer.w"][key]
    _rejected(path, blob, f"'layer.w': missing or malformed.*'{key}'")


def test_values_not_filling_shape_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    blob["params"]["layer.w"]["shape"] = [5, 3]
    _rejected(path, blob, "'layer.w': missing or malformed.*reshape")


def test_non_finite_values_rejected(tmp_path):
    path, blob = _saved_blob(tmp_path)
    blob["params"]["layer.b"]["values"][1] = float("nan")
    _rejected(path, blob, "'layer.b' holds non-finite values")


def test_saving_non_finite_parameter_refused_and_writes_nothing(tmp_path):
    store = _random_store()
    store["layer.w"].data[2, 1] = float("nan")
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError,
                       match=r"model\.ckpt: parameter 'layer\.w' holds "
                             r"non-finite values"):
        save_checkpoint(path, store)
    assert not path.exists()


def test_model_config_with_unknown_key_rejected(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "m.ckpt"
    model.save(path)
    blob = json.loads(path.read_text())
    blob["config"]["d_head"] = 4      # a version 1 config field
    path.write_text(json.dumps(blob))
    with pytest.raises(CheckpointError, match="invalid model config"):
        KSMModel.load(path, model.word_table)
