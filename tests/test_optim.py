"""Adadelta: the Zeiler recurrence, edge cases, state handling."""

import math

import numpy as np
import pytest

from ksm.autodiff import ParameterStore, Tensor
from ksm.optim import Adadelta


def _store_with(value, shape=()):
    store = ParameterStore()
    store.add("p", Tensor(np.full(shape or (1,), float(value))))
    return store


def test_zero_gradient_leaves_parameters_unchanged():
    store = _store_with(7.0, (3,))
    store["p"].grad = np.zeros(3)
    Adadelta(store, lr=0.5).step()
    np.testing.assert_array_equal(store["p"].data, np.full(3, 7.0))


def test_hand_executed_recurrence_two_steps():
    # oracle: the recurrence written out longhand, rho=0.95, eps=1e-6, g=1
    rho, eps, g = 0.95, 1e-6, 1.0
    eg = rho * 0.0 + (1 - rho) * g * g
    d1 = -math.sqrt(0.0 + eps) / math.sqrt(eg + eps) * g
    p1 = 0.0 + d1
    ex = rho * 0.0 + (1 - rho) * d1 * d1
    eg2 = rho * eg + (1 - rho) * g * g
    d2 = -math.sqrt(ex + eps) / math.sqrt(eg2 + eps) * g
    p2 = p1 + d2

    store = _store_with(0.0)
    opt = Adadelta(store, lr=1.0, rho=rho, eps=eps)
    store["p"].grad = np.ones(1)
    opt.step()
    np.testing.assert_allclose(store["p"].data, [p1], atol=1e-10)
    store["p"].grad = np.ones(1)
    opt.step()
    np.testing.assert_allclose(store["p"].data, [p2], atol=1e-10)


def test_lr_scales_only_the_applied_update():
    # two optimizers, same gradients: with lr=0.5 each applied step is half
    # the lr=1 step, while the accumulators (driven by unscaled deltas) match
    s1, s2 = _store_with(0.0), _store_with(0.0)
    o1 = Adadelta(s1, lr=1.0)
    o2 = Adadelta(s2, lr=0.5)
    s1["p"].grad = np.ones(1)
    s2["p"].grad = np.ones(1)
    o1.step()
    o2.step()
    np.testing.assert_allclose(s2["p"].data, 0.5 * s1["p"].data, atol=1e-15)
    np.testing.assert_allclose(o1._sq_grad["p"], o2._sq_grad["p"])
    np.testing.assert_allclose(o1._sq_delta["p"], o2._sq_delta["p"])


def test_lr_zero_never_moves_parameters():
    store = _store_with(3.0, (4,))
    opt = Adadelta(store, lr=0.0)
    for _ in range(5):
        store["p"].grad = np.random.default_rng(0).standard_normal(4)
        opt.step()
    np.testing.assert_array_equal(store["p"].data, np.full(4, 3.0))


def test_missing_gradient_is_a_usage_error():
    store = _store_with(1.0)
    with pytest.raises(ValueError, match="no gradient"):
        Adadelta(store).step()


def test_step_clears_gradients():
    store = _store_with(1.0)
    store["p"].grad = np.ones(1)
    Adadelta(store).step()
    assert store["p"].grad is None


def test_accumulators_stay_nonnegative_and_shaped():
    rng = np.random.default_rng(2)
    store = ParameterStore()
    store.add("w", Tensor(rng.standard_normal((3, 5))))
    opt = Adadelta(store, lr=0.1)
    for _ in range(20):
        store["w"].grad = rng.standard_normal((3, 5))
        opt.step()
    assert np.all(opt._sq_grad["w"] >= 0)
    assert np.all(opt._sq_delta["w"] >= 0)
    assert opt._sq_grad["w"].shape == opt._sq_delta["w"].shape == (3, 5)


def test_invalid_hyperparameters_rejected():
    store = _store_with(0.0)
    with pytest.raises(ValueError):
        Adadelta(store, rho=1.0)
    for eps in (0.0, float("nan")):
        with pytest.raises(ValueError, match="eps must be positive"):
            Adadelta(store, eps=eps)
    for lr in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite"):
            Adadelta(store, lr=lr)
