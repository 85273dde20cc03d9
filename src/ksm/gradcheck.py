"""Finite-difference gradient verification.

Central differences with step 1e-5 at double precision, compared against
the tape's gradients. The discrepancy is relative where gradients are
appreciable; the denominator is floored at 1e-3 so roundoff noise in
near-zero gradients does not register as failure (an absolute tolerance
of tol * 1e-3 there).

`check_all_ops` sweeps every differentiable op in the engine;
`check_full_model` differentiates the function training runs,
`train.accumulate_batch_gradient` (dropout off), through embedding, both
encoders, mutual attention, knowledge selection, the classifier and the
loss, for sequence lengths 1, 2 and 5 at toy dimensions, over every
parameter element.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import CandidateInstance, LABEL_NEGATIVE, LABEL_POSITIVE
from .kb import PairKnowledge
from .model import KSMModel, ModelConfig, WordTable, dropout_keep, nll_loss
from .train import accumulate_batch_gradient

FD_STEP = 1e-5


class CheckResult(NamedTuple):
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case discrepancy between gradient estimates (see module doc)."""
    a = np.asarray(analytic, dtype=float).reshape(-1)
    n = np.asarray(numeric, dtype=float).reshape(-1)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
    return float((np.abs(a - n) / denom).max())


def finite_difference(f: Callable[[], float], leaf: Tensor,
                      step: float = FD_STEP) -> np.ndarray:
    """Central-difference d f / d leaf, evaluating the scalar f twice per
    element (forward only: nothing is recorded)."""
    grad = np.zeros_like(leaf.data, order="C")
    gflat = grad.reshape(-1)  # a view: grad is C-ordered
    flat = leaf.data.flat  # writes through whatever the leaf's order
    with ad.no_grad():
        for i in range(leaf.data.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def check_tensors(f: Callable[[], float], leaves: dict[str, Tensor],
                  name: str, tolerance: float = 1e-4) -> CheckResult:
    """Compare the gradients a backward pass left in the leaves' ``grad``
    (None reads as zero) against finite differences of the scalar f()."""
    worst = 0.0
    for t in leaves.values():
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = finite_difference(f, t)
        worst = max(worst, gradient_error(analytic, numeric))
    return CheckResult(name, worst, tolerance)


# ---------------------------------------------------------------------------
# per-op suite


def _suite(seed: int) -> list[tuple[str, dict[str, Tensor], Callable[[], Tensor]]]:
    """(name, leaves, f) per case, f() the scalar checked. A case's inputs
    are shapes, drawn standard normal as leaves, or functions of the
    generator that give a Tensor; those that require a gradient are its
    leaves. Each case draws its inputs, in order, from a generator of its
    own, seeded from the suite seed and its name alone (crc32, not hash(),
    which varies with PYTHONHASHSEED), so adding, removing or reordering
    cases leaves every other case's inputs as they were."""
    def leaf(values):
        return Tensor(values, requires_grad=True)

    cases = [
        ("matmul", {"x": (3, 4), "y": (4, 5)},
         lambda x, y: ad.tensor_sum((x @ y) * 0.3)),
        ("add_broadcast", {"x": (3, 4), "b": (4,)},
         lambda x, b: ad.tensor_sum(ad.tanh(x + b))),
        ("multiply", {"x": (3, 4), "y": (3, 4)},
         lambda x, y: ad.tensor_sum(ad.multiply(x, y) * 0.5)),
        ("mean_axis", {"x": (3, 5)},
         lambda x: ad.tensor_sum(
             ad.tanh(ad.mean(x, axis=1, keepdims=True)))),
        ("amax", {"x": (4, 3)},
         lambda x: ad.tensor_sum(ad.amax(x, axis=0) * 2.0)),
        *((name, {"x": (3, 4)}, lambda x, fn=fn: ad.tensor_sum(fn(x)))
          for name, fn in (("tanh", ad.tanh), ("sigmoid", ad.sigmoid),
                           ("relu", ad.relu))),
        ("softmax", {"x": (3, 4), "w": (4, 1)},
         lambda x, w: ad.tensor_sum(ad.softmax(x, axis=1) @ w)),
        ("scale_mean", {"x": (2, 3)},
         lambda x: ad.mean(x * -1.7)),
        ("pair_tanh_score", {"a1": (3, 4), "a2": (2, 4), "w": (4, 1)},
         lambda a1, a2, w: ad.tensor_sum(
             ad.tanh(ad.pair_tanh_score(a1, a2, w)))),
        # x with and without a gradient (an encoder's first block reads a
        # constant sequence), and a single position
        *((name,
           {"x": lambda rng, rows=rows, x_grad=x_grad: Tensor(
               rng.standard_normal((rows, 4)), requires_grad=x_grad),
            "e": (1, 3), "wq_x": (4, 4), "wq_e": (3, 4), "wk": (4, 4),
            "wv": (4, 4), "wh": (4, 5)},
           lambda x, e, wq_x, wq_e, wk, wv, wh: ad.tensor_sum(ad.tanh(
               ad.projected_attention(x, e, wq_x, wq_e, wk, wv, wh, 2))))
          for name, rows, x_grad in (
              ("projected_attention", 3, True),
              ("projected_attention_const_x", 3, False),
              ("projected_attention_one_row", 1, True))),
        ("feed_forward",
         {"x": (3, 4), "w1": (4, 5), "b1": (5,), "w2": (5, 4), "b2": (4,)},
         lambda x, w1, b1, w2, b2: ad.tensor_sum(
             ad.tanh(ad.feed_forward(x, w1, b1, w2, b2)))),
        ("residual_layer_norm",
         {"x": (3, 6), "y": (3, 6),
          "gamma": lambda rng: leaf(rng.uniform(0.5, 1.5, 6)), "beta": (6,)},
         lambda x, y, gamma, beta: ad.tensor_sum(
             ad.tanh(ad.residual_layer_norm(x, y, gamma, beta, 1e-5)))),
        # the third gold probability is about e^-40, below NLL_FLOOR by more
        # than any finite-difference step moves it: clamped, with no gradient
        ("nll_loss",
         {"logits0": (1, 3), "logits1": (1, 3),
          "logits2": lambda rng: leaf(rng.standard_normal((1, 3))
                                      + [[0.0, 40.0, 0.0]])},
         lambda logits0, logits1, logits2: nll_loss(
             [ad.softmax(z, axis=1) for z in (logits0, logits1, logits2)],
             [2, 0, 2])),
        *((name, {"scores": (3, 4), "v": (v_rows, 5)},
           lambda scores, v, axis=axis: ad.tensor_sum(
               ad.tanh(ad.softmax_pool(scores, v, axis)[0])))
          for name, v_rows, axis in (("softmax_pool_rows", 3, 1),
                                     ("softmax_pool_columns", 4, 0))),
        ("affine", {"x": (3, 4), "w": (4, 5), "b": (5,)},
         lambda x, w, b: ad.tensor_sum(ad.tanh(ad.affine([x], w, b)))),
        # two blocks, the second a constant, which gets no gradient
        ("affine_blocks", {"x": (2, 3), "y": lambda rng: Tensor(
            rng.standard_normal((2, 5))), "w": (8, 4), "b": (4,)},
         lambda x, y, w, b: ad.tensor_sum(ad.tanh(ad.affine([x, y], w, b)))),
        # y through a dropout mask at rate 0.5, each entry 0 or 2; a fresh
        # generator per evaluation: every evaluation drops the same entries
        ("residual_layer_norm_masked",
         {"x": (3, 6), "y": (3, 6), "gamma": (6,), "beta": (6,)},
         lambda x, y, gamma, beta: ad.tensor_sum(ad.tanh(
             ad.residual_layer_norm(x, y, gamma, beta, 1e-5, dropout_keep(
                 (3, 6), 0.5, np.random.default_rng(seed)))))),
    ]
    suite = []
    for name, inputs, f in cases:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
        tensors = {k: spec(rng) if callable(spec)
                   else leaf(rng.standard_normal(spec))
                   for k, spec in inputs.items()}
        suite.append((name, {k: t for k, t in tensors.items()
                             if t.requires_grad}, partial(f, **tensors)))
    return suite


def check_all_ops(seed: int = 0, tolerance: float = 1e-4) -> list[CheckResult]:
    """FD-check every differentiable op on random inputs."""
    results = []
    for name, leaves, fn in _suite(seed):
        fn().backward()
        results.append(check_tensors(lambda fn=fn: fn().item(), leaves, name,
                                     tolerance))
    return results


# ---------------------------------------------------------------------------
# full-model suite


def toy_model(seed: int = 0, d: int = 8, n_heads: int = 2,
              n_blocks: int = 2, **overrides) -> KSMModel:
    config = ModelConfig(d=d, n_heads=n_heads, n_blocks=n_blocks,
                         dropout_rate=0.0, **overrides)
    vocab = [f"tok{i}" for i in range(12)]
    table = WordTable.random(vocab, d, seed=seed + 1)
    return KSMModel(config, table, seed=seed)


def toy_batch(seed: int, d: int, lengths=(1, 2, 5), null_for: int = 0
              ) -> list[tuple[CandidateInstance, PairKnowledge]]:
    """Instances of the given lengths with random pair knowledge; instance
    `null_for` exercises the trainable null-relation path."""
    rng = np.random.default_rng(seed)
    batch = []
    for k, length in enumerate(lengths):
        tokens = [f"tok{rng.integers(12)}" for _ in range(length)]
        pos1 = [int(rng.integers(1, 9)) for _ in range(length)]
        pos2 = [int(rng.integers(1, 9)) for _ in range(length)]
        inst = CandidateInstance(
            doc_id="doc", pair=("A", "B"), tokens=tokens, pos1=pos1,
            pos2=pos2,
            label=LABEL_POSITIVE if k % 2 == 0 else LABEL_NEGATIVE)
        kn = PairKnowledge(
            e1=rng.standard_normal(d) * 0.5,
            e2=rng.standard_normal(d) * 0.5,
            er=rng.standard_normal(d) * 0.5,
            er_is_null=(k == null_for),
            e1_is_fallback=False, e2_is_fallback=False)
        batch.append((inst, kn))
    return batch


def check_full_model(seed: int = 0, tolerance: float = 1e-3,
                     **config_overrides) -> CheckResult:
    """End-to-end FD check of training's loss over a toy configuration."""
    model = toy_model(seed=seed, **config_overrides)
    # a nonzero null vector so its gradient path is generic
    model.params["knowledge.null_relation"].data[:] = \
        np.random.default_rng(seed + 2).standard_normal(model.config.d) * 0.1
    batch = toy_batch(seed + 3, model.config.d)
    label = "full_model" + ("" if not config_overrides
                            else f"[{config_overrides}]")
    # dropout is off, so no rng is read
    loss = partial(accumulate_batch_gradient, model, batch, None)
    loss()
    return check_tensors(loss, dict(model.params.items()), label, tolerance)


def run_report(seed: int = 0) -> tuple[list[CheckResult], bool]:
    """All suites, as (results, all_passed). Used by the CLI."""
    results = check_all_ops(seed=seed)
    results.append(check_full_model(seed=seed))
    return results, all(r.passed for r in results)
