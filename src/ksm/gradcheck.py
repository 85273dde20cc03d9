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

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import CandidateInstance, LABEL_NEGATIVE, LABEL_POSITIVE
from .kb import PairKnowledge
from .model import KSMModel, ModelConfig, WordTable, nll_loss
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
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gflat = grad.reshape(-1)
    with ad.no_grad():
        for i in range(flat.size):
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
    rng = np.random.default_rng(seed)

    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    suite = []

    x, y = t(3, 4), t(4, 5)
    suite.append(("matmul", {"x": x, "y": y},
                  lambda x=x, y=y: ad.tensor_sum((x @ y) * 0.3)))

    x, b = t(3, 4), t(4)
    suite.append(("add_broadcast", {"x": x, "b": b},
                  lambda x=x, b=b: ad.tensor_sum(ad.tanh(x + b))))

    x, y = t(3, 4), t(3, 4)
    suite.append(("multiply", {"x": x, "y": y},
                  lambda x=x, y=y: ad.tensor_sum(ad.multiply(x, y) * 0.5)))

    x, y = t(2, 3), t(2, 5)
    suite.append(("concat", {"x": x, "y": y},
                  lambda x=x, y=y: ad.tensor_sum(
                      ad.tanh(ad.concat([x, y])))))

    x = t(4, 3)
    idx = [0, 2, 2, 1, 3]
    suite.append(("gather_rows", {"x": x},
                  lambda x=x: ad.tensor_sum(
                      ad.sigmoid(ad.gather_rows(x, idx)))))

    x = t(3, 4)
    suite.append(("reshape_transpose", {"x": x},
                  lambda x=x: ad.tensor_sum(
                      ad.tanh(ad.transpose(ad.reshape(x, (4, 3)))))))

    x = t(3, 5)
    suite.append(("mean_axis", {"x": x},
                  lambda x=x: ad.tensor_sum(
                      ad.tanh(ad.mean(x, axis=1, keepdims=True)))))

    x = t(4, 3)
    suite.append(("amax", {"x": x},
                  lambda x=x: ad.tensor_sum(ad.amax(x, axis=0) * 2.0)))

    for name, fn in (("tanh", ad.tanh), ("sigmoid", ad.sigmoid),
                     ("relu", ad.relu)):
        x = t(3, 4)
        suite.append((name, {"x": x},
                      lambda x=x, fn=fn: ad.tensor_sum(fn(x))))

    x = t(3, 4)
    w = t(4, 1)
    suite.append(("softmax", {"x": x, "w": w},
                  lambda x=x, w=w: ad.tensor_sum(ad.softmax(x, axis=1) @ w)))

    x = t(2, 3)
    suite.append(("neg_scale_sum", {"x": x},
                  lambda x=x: ad.mean(ad.neg(x) * 1.7)))

    a1, a2, w = t(3, 4), t(2, 4), t(4, 1)
    suite.append(("pair_tanh_score", {"a1": a1, "a2": a2, "w": w},
                  lambda a1=a1, a2=a2, w=w: ad.tensor_sum(
                      ad.tanh(ad.pair_tanh_score(a1, a2, w)))))

    # x with and without a gradient (an encoder's first block reads a
    # constant sequence), and a single position
    for name, x in (("projected_attention", t(3, 4)),
                    ("projected_attention_const_x",
                     Tensor(rng.standard_normal((3, 4)))),
                    ("projected_attention_one_row", t(1, 4))):
        ws = [t(1, 3), t(4, 4), t(3, 4), t(4, 4), t(4, 4), t(4, 5)]
        leaves = dict(zip(("e", "wq_x", "wq_e", "wk", "wv", "wh"), ws))
        if x.requires_grad:
            leaves["x"] = x
        suite.append((name, leaves, lambda x=x, ws=ws: ad.tensor_sum(
            ad.tanh(ad.projected_attention(x, *ws, 2)))))

    x, w1, b1, w2, b2 = t(3, 4), t(4, 5), t(5), t(5, 4), t(4)
    suite.append(("feed_forward",
                  {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2},
                  lambda x=x, w1=w1, b1=b1, w2=w2, b2=b2: ad.tensor_sum(
                      ad.tanh(ad.feed_forward(x, w1, b1, w2, b2)))))

    x, y = t(3, 6), t(3, 6)
    g, b = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True), t(6)
    suite.append(("residual_layer_norm", {"x": x, "y": y, "gamma": g,
                                          "beta": b},
                  lambda x=x, y=y, g=g, b=b: ad.tensor_sum(
                      ad.tanh(ad.residual_layer_norm(x, y, g, b, 1e-5)))))

    # the third gold probability is about e^-40, below NLL_FLOOR by more
    # than any finite-difference step moves it: clamped, with no gradient
    logits = [t(1, 3), t(1, 3), Tensor(rng.standard_normal((1, 3))
                                       + [[0.0, 40.0, 0.0]],
                                       requires_grad=True)]
    suite.append(("nll_loss", {f"logits{i}": z for i, z in enumerate(logits)},
                  lambda z=logits: nll_loss(
                      [ad.softmax(zi, axis=1) for zi in z], [2, 0, 2])))

    scores, v_rows, v_cols = t(3, 4), t(3, 5), t(4, 5)
    for name, v, axis in (("softmax_pool_rows", v_rows, 1),
                          ("softmax_pool_columns", v_cols, 0)):
        suite.append((name, {"scores": scores, "v": v},
                      lambda s=scores, v=v, axis=axis: ad.tensor_sum(
                          ad.tanh(ad.softmax_pool(s, v, axis)[0]))))

    x, w, b = t(3, 4), t(4, 5), t(5)
    suite.append(("affine", {"x": x, "w": w, "b": b},
                  lambda x=x, w=w, b=b: ad.tensor_sum(
                      ad.tanh(ad.affine(x, w, b)))))

    # a fresh generator per evaluation: every evaluation drops the same entries
    x = t(3, 4)
    suite.append(("dropout", {"x": x},
                  lambda x=x: ad.tensor_sum(ad.tanh(ad.dropout(
                      x, 0.3, np.random.default_rng(seed), train=True)))))
    return suite


def check_all_ops(seed: int = 0, tolerance: float = 1e-4) -> list[CheckResult]:
    """FD-check every differentiable op on random inputs."""
    results = []
    for name, leaves, fn in _suite(seed):
        for t in leaves.values():   # cases may share a leaf
            t.zero_grad()
        fn().backward()
        results.append(check_tensors(lambda fn=fn: fn().item(), leaves, name,
                                     tolerance))
    return results


# ---------------------------------------------------------------------------
# full-model suite


def toy_model(seed: int = 0, d: int = 8, n_heads: int = 2,
              n_blocks: int = 2, **overrides) -> KSMModel:
    config = ModelConfig(d=d, d_kb=d, n_heads=n_heads, n_blocks=n_blocks,
                         dropout_rate=0.0, max_distance=16, **overrides)
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
        np.random.default_rng(seed + 2).standard_normal(model.config.d_kb) * 0.1
    batch = toy_batch(seed + 3, model.config.d_kb)
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
