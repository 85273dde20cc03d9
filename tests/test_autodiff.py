"""Tensor engine: op semantics, gradient correctness, determinism."""

import inspect
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksm import autodiff as ad
from ksm.autodiff import ParameterStore, Tensor
from ksm.gradcheck import check_all_ops, check_tensors, finite_difference


def test_softmax_single_element():
    out = ad.softmax(Tensor([[5.0]]), axis=1)
    assert out.data.tolist() == [[1.0]]


def test_softmax_symmetry():
    out = ad.softmax(Tensor([[0.0, 0.0]]), axis=1)
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_against_direct_exponentiation():
    # oracle: plain exp-normalization, no max subtraction
    e1, e2 = math.exp(1.0), math.exp(2.0)
    expected = [e1 / (e1 + e2), e2 / (e1 + e2)]
    out = ad.softmax(Tensor([[1.0, 2.0]]), axis=1)
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)
    np.testing.assert_allclose(out.data[0], [0.26894, 0.73106], atol=1e-5)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ad.softmax(Tensor(rng.standard_normal((7, 11)) * 30), axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out.data > 0) and np.all(out.data <= 1)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_shift_invariance(row, shift):
    base = ad.softmax(Tensor([row]), axis=1).data
    shifted = ad.softmax(Tensor([[v + shift for v in row]]), axis=1).data
    np.testing.assert_allclose(base, shifted, atol=1e-9)


def test_softmax_invalid_axis():
    with pytest.raises(ValueError):
        ad.softmax(Tensor([[1.0, 2.0]]), axis=2)


def test_softmax_large_inputs_stable():
    out = ad.softmax(Tensor([[1000.0, 1001.0]]), axis=1)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-9)


def _layer_norm(x, gamma, beta, eps):
    """Layer norm of x alone: the residual form with a zero second term."""
    return ad.residual_layer_norm(x, Tensor(np.zeros(x.shape)), gamma, beta,
                                  eps)


def test_layer_norm_constant_vector_collapses_to_beta():
    gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
    out = _layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), gamma, beta, 1e-5)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_two_values():
    # mean 2, population std 1 -> normalized [-1, 1]
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = _layer_norm(Tensor([[1.0, 3.0]]), gamma, beta, 1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=16))
def test_layer_norm_slice_statistics(values):
    gamma = Tensor(np.ones(len(values)))
    beta = Tensor(np.zeros(len(values)))
    out = _layer_norm(Tensor([values]), gamma, beta, 1e-12).data[0]
    assert abs(out.mean()) < 1e-9
    if np.var(values) > 1e-6:  # nonconstant input
        assert abs(out.var() - 1.0) < 1e-6


def test_layer_norm_rejects_zero_length():
    with pytest.raises(ValueError, match="residual_layer_norm"):
        _layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.ones(0)),
                    Tensor(np.zeros(0)), 1e-5)


def test_layer_norm_rejects_nonpositive_eps():
    with pytest.raises(ValueError, match="residual_layer_norm: eps"):
        _layer_norm(Tensor([[1.0, 2.0]]), Tensor(np.ones(2)),
                    Tensor(np.zeros(2)), 0.0)


# ---------------------------------------------------------------------------
# backward


def test_backward_matvec_matches_finite_differences():
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 1)))

    def loss():
        return ad.tensor_sum(w @ x)

    loss().backward()
    result = check_tensors(lambda: loss().item(), {"w": w}, "matvec",
                           tolerance=1e-4)
    assert result.passed, result
    # d sum(Wx) / dW is the outer product of ones with x
    np.testing.assert_allclose(w.grad, np.ones((3, 1)) @ x.data.T, atol=1e-12)


def test_backward_detached_constant_leaves_grads_zero():
    store = ParameterStore()
    store.add("p", Tensor(np.ones((2, 2))))
    loss = Tensor(5.0)
    ad.backward(loss, store)
    np.testing.assert_array_equal(store["p"].grad, np.zeros((2, 2)))


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (t + t).backward()


def test_backward_accumulates_on_repeated_calls():
    x = Tensor([[2.0]], requires_grad=True)
    loss = ad.tensor_sum(x * 3.0)
    loss.backward()
    loss.backward()
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_grad_flows_through_shared_subexpression():
    x = Tensor([[1.5]], requires_grad=True)
    y = ad.tanh(x)
    loss = ad.tensor_sum(ad.add(y, y))
    loss.backward()
    expected = 2.0 * (1.0 - np.tanh(1.5) ** 2)
    np.testing.assert_allclose(x.grad, [[expected]], atol=1e-12)


def test_shared_gradient_is_not_corrupted_by_later_accumulation():
    # add hands the same array to both operands; a later in-place += on
    # a's adopted gradient would also change b's
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    loss = ad.tensor_sum(a + b) + ad.tensor_sum(a * 3.0)
    loss.backward()
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def _small_graph():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    h = ad.tanh(x @ w)
    loss = ad.mean(ad.softmax(h, axis=1) * h)
    return x, w, [h, loss], loss


def test_backward_frees_interior_gradients_and_keeps_leaves():
    x, w, interior, loss = _small_graph()
    loss.backward()
    assert all(node.grad is None for node in interior)
    assert x.grad is not None and w.grad is not None


def test_second_backward_doubles_leaf_gradients():
    x, w, _, loss = _small_graph()
    loss.backward()
    first = (x.grad.copy(), w.grad.copy())
    loss.backward()
    np.testing.assert_allclose(x.grad, 2.0 * first[0], rtol=1e-15)
    np.testing.assert_allclose(w.grad, 2.0 * first[1], rtol=1e-15)


def test_pair_tanh_score_against_loops():
    rng = np.random.default_rng(6)
    a1, a2 = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
    w = rng.standard_normal((4, 1))
    out = ad.pair_tanh_score(Tensor(a1), Tensor(a2), Tensor(w))
    want = [[np.tanh(a1[i] + a2[j]) @ w[:, 0] for j in range(2)]
            for i in range(3)]
    np.testing.assert_allclose(out.data, want, atol=1e-14)


@pytest.mark.parametrize("shapes", [((3, 4), (2, 5), (4, 1)),
                                    ((3, 4), (2, 4), (4, 2)),
                                    ((3, 4), (2, 4), (4,)),
                                    ((3, 4), (2, 4), (5, 1)),
                                    ((3, 4, 1), (2, 4), (4, 1))])
def test_pair_tanh_score_rejects_mismatched_shapes(shapes):
    a1, a2, w = (Tensor(np.ones(s)) for s in shapes)
    with pytest.raises(ValueError, match="pair_tanh_score"):
        ad.pair_tanh_score(a1, a2, w)


def _pair_oracle(a1, a2, w, g):
    """Score and its three gradients by explicit loops over np.tanh."""
    out = np.zeros((len(a1), len(a2)))
    dw, da1, da2 = np.zeros(len(w)), np.zeros(a1.shape), np.zeros(a2.shape)
    for i in range(len(a1)):
        for j in range(len(a2)):
            t = np.tanh(a1[i] + a2[j])
            out[i, j] = t @ w
            dw += g[i, j] * t
            dz = g[i, j] * (1.0 - t * t) * w
            da1[i] += dz
            da2[j] += dz
    return out, dw, da1, da2


# (tile, L1, L2, d): one row per tile; 3 rows per tile, not dividing 7;
# a row (L2 * d = 15) larger than the tile; the one-element case
_PAIR_TILINGS = [(12, 5, 3, 4), (36, 7, 3, 4), (8, 4, 3, 5), (1 << 16, 1, 1, 3)]


@pytest.mark.parametrize("tile, n1, n2, d", _PAIR_TILINGS)
@pytest.mark.parametrize("scale", [0.01, 1.0, 20.0, 60.0])
def test_pair_tanh_score_matches_loop_oracle_in_every_tiling(
        monkeypatch, tile, n1, n2, d, scale):
    monkeypatch.setattr(ad, "_PAIR_TILE", tile)
    rng = np.random.default_rng(int(scale * 100) + n1)
    a1 = Tensor(rng.uniform(-scale, scale, (n1, d)), requires_grad=True)
    a2 = Tensor(rng.uniform(-scale, scale, (n2, d)), requires_grad=True)
    w = Tensor(rng.standard_normal((d, 1)), requires_grad=True)
    g = rng.standard_normal((n1, n2))
    out = ad.pair_tanh_score(a1, a2, w)
    ad.tensor_sum(out * Tensor(g)).backward()
    want = _pair_oracle(a1.data, a2.data, w.data[:, 0], g)
    got = (out.data, w.grad[:, 0], a1.grad, a2.grad)
    for name, x, ref in zip(("out", "dw", "da1", "da2"), got, want):
        bound = 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(x - ref).max() <= bound, (name, np.abs(x - ref).max())


def test_pair_tanh_score_saturating_sums_match_oracle(monkeypatch):
    monkeypatch.setattr(ad, "_PAIR_TILE", 20)
    rng = np.random.default_rng(11)
    base = rng.uniform(-20.0, 20.0, (6, 5))
    a1 = Tensor(base, requires_grad=True)
    a2 = Tensor(base[::-1] * rng.choice([-1.0, 1.0], (6, 5)),
                requires_grad=True)
    w = Tensor(rng.standard_normal((5, 1)), requires_grad=True)
    g = rng.standard_normal((6, 6))
    assert np.abs(a1.data[:, None] + a2.data[None]).max() > 35.0
    out = ad.pair_tanh_score(a1, a2, w)
    ad.tensor_sum(out * Tensor(g)).backward()
    want = _pair_oracle(a1.data, a2.data, w.data[:, 0], g)
    for x, ref in zip((out.data, w.grad[:, 0], a1.grad, a2.grad), want):
        assert np.abs(x - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_pair_tanh_score_domain_edge_is_finite_and_beyond_it_raises():
    w = Tensor(np.ones((2, 1)))
    edge = Tensor([[350.0, -350.0]])
    out = ad.pair_tanh_score(edge, Tensor([[-350.0, 350.0], [350.0, 1.0]]), w)
    np.testing.assert_allclose(out.data, [[0.0, np.tanh(-349.0) + 1.0]],
                               atol=1e-15)
    with pytest.raises(ValueError, match=r"pair_tanh_score.*351.*350"):
        ad.pair_tanh_score(edge, Tensor([[0.0, 351.0]]), w)
    with pytest.raises(ValueError, match="pair_tanh_score"):
        ad.pair_tanh_score(Tensor([[np.inf, 0.0]]), edge, w)


@pytest.mark.parametrize("where", ["a1", "a2", "both"])
def test_pair_tanh_score_rejects_nan(where):
    # a NaN next to a larger finite input: a NaN-dropping max would pass it
    nan_row, big_row = Tensor([[np.nan, 0.0]]), Tensor([[300.0, -1.0]])
    a1, a2 = {"a1": (nan_row, big_row), "a2": (big_row, nan_row),
              "both": (nan_row, nan_row)}[where]
    with pytest.raises(ValueError, match=r"pair_tanh_score.*nan.*350"):
        ad.pair_tanh_score(a1, a2, Tensor(np.ones((2, 1))))


def test_pair_tanh_score_memory_stays_tile_sized():
    rng = np.random.default_rng(12)
    n, d, mb = 160, 100, 1 << 20
    a1 = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    a2 = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    w = Tensor(rng.standard_normal((d, 1)), requires_grad=True)
    tracemalloc.start()
    try:
        with ad.no_grad():
            ad.pair_tanh_score(a1, a2, w)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ad.tensor_sum(ad.pair_tanh_score(a1, a2, w)).backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak < 4 * mb, forward_peak
    assert backward_peak < 4 * mb, backward_peak


def _attention_oracle(q, k, v, n_heads, g):
    """Multi-head attention over (L, H*dh) q, k and v, and its q, k and v
    gradients, by explicit loops."""
    length, width = q.shape
    dh = width // n_heads
    out, dq, dk, dv = (np.zeros((length, width)) for _ in range(4))
    for h in range(n_heads):
        c = slice(h * dh, (h + 1) * dh)
        for i in range(length):
            s = [q[i, c] @ k[j, c] / math.sqrt(dh) for j in range(length)]
            e = [math.exp(x - max(s)) for x in s]
            p = [x / sum(e) for x in e]
            dp = [g[i, c] @ v[j, c] for j in range(length)]
            dot = sum(p[j] * dp[j] for j in range(length))
            for j in range(length):
                out[i, c] += p[j] * v[j, c]
                dv[j, c] += p[j] * g[i, c]
                ds = p[j] * (dp[j] - dot) / math.sqrt(dh)
                dq[i, c] += ds * k[j, c]
                dk[j, c] += ds * q[i, c]
    return out, dq, dk, dv


# (L, heads, d_head): one position; one head; heads wider than the rows
@pytest.mark.parametrize("length, n_heads, dh",
                         [(1, 2, 3), (5, 1, 4), (4, 3, 2), (7, 4, 5)])
@pytest.mark.parametrize("scale", [0.1, 1.0, 8.0])
def test_projected_attention_matches_loop_oracle(length, n_heads, dh, scale):
    # x = [q | k | v]; 0/1 selection matrices pick q, k and v back out of
    # it and wh = I, so every projection is exact and x.grad = [dq | dk | dv]
    rng = np.random.default_rng(length * 10 + n_heads)
    width = n_heads * dh
    q, k, v = (rng.uniform(-scale, scale, (length, width)) for _ in range(3))
    g = rng.standard_normal((length, width))
    x = Tensor(np.hstack([q, k, v]), requires_grad=True)
    eye = np.eye(3 * width)
    wq_x, wk, wv = (Tensor(eye[:, i * width:(i + 1) * width]) for i in range(3))
    e, wq_e = Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, width)))
    out = ad.projected_attention(x, e, wq_x, wq_e, wk, wv,
                                 Tensor(np.eye(width)), n_heads)
    ad.tensor_sum(out * Tensor(g)).backward()
    want = _attention_oracle(q, k, v, n_heads, g)
    got = (out.data, *np.hsplit(x.grad, 3))
    for name, a, ref in zip(("out", "dq", "dk", "dv"), got, want):
        bound = 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(a - ref).max() <= bound, (name, np.abs(a - ref).max())


_HEADS = [(3, 4), (1, 5), (4, 6), (5, 6), (4, 6), (4, 6), (6, 4)]


@pytest.mark.parametrize("op, shapes, extra", [
    # e of two rows; wq_e, wv and wh not matching; 6 columns over 4 heads
    (ad.projected_attention, [(3, 4), (2, 5)] + _HEADS[2:], [2]),
    (ad.projected_attention, _HEADS[:3] + [(4, 6)] + _HEADS[4:], [2]),
    (ad.projected_attention, _HEADS[:5] + [(4, 7), (6, 4)], [2]),
    (ad.projected_attention, _HEADS[:6] + [(5, 4)], [2]),
    (ad.projected_attention, _HEADS, [4]),
    (ad.feed_forward, [(3, 4), (4, 5), (4,), (5, 4), (4,)], []),
    (ad.feed_forward, [(3, 4), (4, 5), (5,), (4, 4), (4,)], []),
    (ad.residual_layer_norm, [(3, 4), (3, 5), (4,), (4,)], []),
    (ad.affine, [(3, 4), (4, 5), (4,)], []),
    (ad.affine, [(3, 4), (5, 5), (5,)], []),
    (ad.softmax_pool, [(3, 4), (3, 5)], [0]),
    (ad.softmax_pool, [(3, 4), (4, 5)], [1]),
    (ad.softmax_pool, [(3, 4), (3, 5)], [2]),
    (ad.softmax_pool, [(0, 4), (4, 5)], [0]),
    # x of three axes and of one; wk not matching; no heads
    (ad.projected_attention, [(2, 3, 4)] + _HEADS[1:], [2]),
    (ad.projected_attention, [(4,)] + _HEADS[1:], [2]),
    (ad.projected_attention, _HEADS[:4] + [(4, 7)] + _HEADS[5:], [2]),
    (ad.projected_attention, _HEADS, [0]),
])
def test_fused_block_ops_reject_shapes_that_do_not_chain(op, shapes, extra):
    with pytest.raises(ValueError, match=op.__name__):
        op(*(Tensor(np.ones(s)) for s in shapes), *extra)


def test_mean_nll_clamps_warns_and_passes_no_gradient(caplog):
    low, ok = (Tensor([[1.0, 0.0]], requires_grad=True),
               Tensor([[0.75, 0.25]], requires_grad=True))
    loss = ad.mean_nll([low, ok], [1, 0], floor=1e-12)
    assert "log: clamped 1 value(s)" in caplog.text
    assert loss.item() == pytest.approx(-(np.log(1e-12) + np.log(0.75)) / 2)
    loss.backward()
    assert low.grad.tolist() == [[0.0, 0.0]]
    np.testing.assert_allclose(ok.grad, [[-0.5 / 0.75, 0.0]])


@pytest.mark.parametrize("probs, index", [
    ([(1, 2)], [2]), ([(2, 2)], [0]), ([(1, 2)], []), ([], [])])
def test_mean_nll_rejects_bad_picks(probs, index):
    with pytest.raises(ValueError, match="mean_nll"):
        ad.mean_nll([Tensor(np.ones(s)) for s in probs], index, floor=1e-12)


def _chain_pool(scores, v, axis):
    """softmax_pool's value as the chain of plain ops it replaces."""
    p = ad.softmax(ad.mean(scores, axis=axis, keepdims=True), axis=1 - axis)
    return (ad.transpose(p) if axis == 1 else p) @ v


@pytest.mark.parametrize("op, shapes, fused, chain", [
    ("softmax_pool_rows", [(7, 7), (7, 6)],
     lambda s, v: ad.softmax_pool(s, v, 1)[0],
     lambda s, v: _chain_pool(s, v, 1)),
    ("softmax_pool_columns", [(5, 9), (9, 6)],
     lambda s, v: ad.softmax_pool(s, v, 0)[0],
     lambda s, v: _chain_pool(s, v, 0)),
    ("softmax_pool_one_row", [(1, 1), (1, 6)],
     lambda s, v: ad.softmax_pool(s, v, 1)[0],
     lambda s, v: _chain_pool(s, v, 1)),
    ("affine", [(5, 300), (300, 2), (2,)],
     ad.affine, lambda x, w, b: x @ w + b),
])
def test_fused_pool_and_affine_equal_their_chains_bit_for_bit(
        op, shapes, fused, chain):
    rng = np.random.default_rng(len(op))
    values = [rng.standard_normal(s) for s in shapes]
    g = None
    runs = []
    for fn in (fused, chain):
        ins = [Tensor(x, requires_grad=True) for x in values]
        out = fn(*ins)
        g = rng.standard_normal(out.shape) if g is None else g
        ad.tensor_sum(ad.multiply(out, Tensor(g))).backward()
        runs.append((out.data.tobytes(), [t.grad.tobytes() for t in ins]))
    assert runs[0] == runs[1]


def test_softmax_pool_returns_the_weights_as_a_plain_tensor():
    rng = np.random.default_rng(3)
    scores = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    for axis, v, shape in ((1, Tensor(np.ones((4, 2))), (4, 1)),
                           (0, Tensor(np.ones((3, 2))), (1, 3))):
        _, p = ad.softmax_pool(scores, v, axis)
        assert p.shape == shape and not p.requires_grad
        assert p.data.sum() == pytest.approx(1.0)


# every op whose kernel writes in place: name -> (input shapes, op)
_IN_PLACE_OPS = {
    "projected_attention": ([(4, 5), (1, 3), (5, 6), (3, 6), (5, 6), (5, 6),
                             (6, 5)],
                            lambda *ts: ad.projected_attention(*ts, 3)),
    "feed_forward": ([(4, 5), (5, 7), (7,), (7, 5), (5,)], ad.feed_forward),
    "residual_layer_norm": ([(4, 6), (4, 6), (6,), (6,)],
                            ad.residual_layer_norm),
    "pair_tanh_score": ([(4, 5), (3, 5), (5, 1)], ad.pair_tanh_score),
    "softmax_pool_rows": ([(4, 3), (4, 5)],
                          lambda s, v: ad.softmax_pool(s, v, 1)[0]),
    "softmax_pool_columns": ([(4, 3), (3, 5)],
                             lambda s, v: ad.softmax_pool(s, v, 0)[0]),
    "affine": ([(4, 5), (5, 3), (3,)], ad.affine),
}


@pytest.mark.parametrize("name", _IN_PLACE_OPS)
def test_in_place_kernels_leave_inputs_and_repeat_walks_unchanged(name):
    shapes, op = _IN_PLACE_OPS[name]
    rng = np.random.default_rng(len(name))
    inputs = [Tensor(rng.standard_normal(s), requires_grad=True)
              for s in shapes]
    before = [t.data.tobytes() for t in inputs]
    loss = ad.tensor_sum(ad.tanh(op(*inputs)))
    assert [t.data.tobytes() for t in inputs] == before
    walks = []
    for _ in range(2):
        for t in inputs:
            t.zero_grad()
        loss.backward()
        assert [t.data.tobytes() for t in inputs] == before
        walks.append([t.grad.tobytes() for t in inputs])
    assert walks[0] == walks[1]


def test_every_op_matches_finite_differences():
    for result in check_all_ops(seed=7):
        assert result.passed, result


def test_every_op_has_a_finite_difference_case(monkeypatch):
    ops = [name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and name not in ("no_grad", "backward")]
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ops:
        monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
    check_all_ops(seed=0)
    assert [name for name in ops if name not in called] == []


def test_dropout_inference_is_identity():
    x = Tensor(np.ones((3, 3)))
    assert ad.dropout(x, 0.5, None, train=False) is x


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((200, 50)), requires_grad=True)
    out = ad.dropout(x, 0.25, rng, train=True)
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75)
    # kept fraction close to 0.75
    assert abs((out.data != 0).mean() - 0.75) < 0.02


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9])
def test_dropout_equals_float_mask_bit_for_bit(rate):
    # oracle: the float mask bool/keep applied by one product, signed zeros
    # included (a dropped negative entry stays -0.0)
    keep = 1.0 - rate
    x = Tensor(np.random.default_rng(0).normal(size=(40, 30)),
               requires_grad=True)
    g = np.random.default_rng(1).normal(size=(40, 30))
    mask = (np.random.default_rng(2).random(x.shape) < keep) / keep
    out = ad.dropout(x, rate, np.random.default_rng(2), train=True)
    ad.tensor_sum(ad.multiply(out, Tensor(g))).backward()
    for got, want in ((out.data, x.data * mask), (x.grad, g * mask)):
        assert got.tobytes() == want.tobytes()


def test_dropout_active_without_rng_raises():
    with pytest.raises(ValueError):
        ad.dropout(Tensor(np.ones(3)), 0.5, None, train=True)


def test_gather_rows_rejects_bad_index():
    with pytest.raises(IndexError):
        ad.gather_rows(Tensor(np.ones((2, 2))), [0, 5])


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))))


def test_mean_rejects_empty_axis():
    with pytest.raises(ValueError):
        ad.mean(Tensor(np.zeros((0, 2))), axis=0)


def test_concat_rejects_empty_sequence():
    with pytest.raises(ValueError):
        ad.concat([])


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((4, 6)) * 100, requires_grad=True)
    g = Tensor(np.ones(6))
    b = Tensor(np.zeros(6))
    out = _layer_norm(ad.softmax(ad.tanh(x), axis=1), g, b, 1e-5)
    loss = ad.mean(out)
    loss.backward()
    assert np.isfinite(out.data).all()
    assert np.isfinite(x.grad).all()


def test_determinism_same_seed_bit_identical():
    def build(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        out = ad.dropout(ad.softmax(x, axis=1), 0.3,
                         np.random.default_rng(seed + 1), train=True)
        loss = ad.mean(out)
        loss.backward()
        return out.data.tobytes(), x.grad.tobytes()

    assert build(11) == build(11)


# ---------------------------------------------------------------------------
# parameter store


def test_parameter_store_rejects_duplicates():
    store = ParameterStore()
    store.add("a", Tensor(np.zeros(2)))
    with pytest.raises(ValueError):
        store.add("a", Tensor(np.zeros(2)))


def test_parameter_store_preserves_insertion_order():
    store = ParameterStore()
    for name in ("z", "a", "m"):
        store.add(name, Tensor(np.zeros(1)))
    assert store.names() == ["z", "a", "m"]


def test_parameter_store_load_values_validates():
    store = ParameterStore()
    store.add("a", Tensor(np.zeros((2, 2))))
    with pytest.raises(KeyError):
        store.load_values({"b": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        store.load_values({"a": np.zeros(3)})


# ---------------------------------------------------------------------------
# no_grad


def test_no_grad_records_no_graph_and_keeps_values():
    x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
    w = Tensor(np.ones((3, 1)))
    recorded = ad.tanh(x @ w)
    with ad.no_grad():
        plain = ad.tanh(x @ w)
    assert recorded.requires_grad and recorded._parents
    assert not plain.requires_grad
    assert plain._parents == () and plain._backward is None
    np.testing.assert_array_equal(plain.data, recorded.data)


def test_no_grad_is_restored_after_an_exception_and_after_nesting():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert ad.neg(x).requires_grad
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert not ad.neg(x).requires_grad   # the outer block still holds
    assert ad.neg(x).requires_grad


def test_no_grad_in_another_thread_leaves_this_thread_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    inside, release = threading.Event(), threading.Event()
    seen = {}

    def worker():
        with ad.no_grad():
            seen["worker"] = ad.neg(x).requires_grad
            inside.set()
            release.wait(10)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert inside.wait(10)
        assert ad.neg(x).requires_grad
    finally:
        release.set()
        thread.join()
    assert seen["worker"] is False
