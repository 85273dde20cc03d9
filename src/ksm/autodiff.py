"""Dense-tensor engine with reverse-mode automatic differentiation.

Every tensor is a float64 numpy array wrapped in a :class:`Tensor` node.
Operations record their inputs and a backward closure; calling
``Tensor.backward()`` on a scalar walks the recorded graph in reverse
topological order and accumulates ``d loss / d node`` into ``node.grad``.

Semantics worth knowing:

- repeated ``backward()`` calls accumulate leaf gradients (call
  ``zero_grad`` between steps);
- an interior node's gradient is freed as soon as its backward closure
  has run, so after a walk only leaves hold a ``grad``;
- gradient arrays are never written in place: accumulating adopts the
  first contribution and adds later ones into a new array, so a ``grad``
  may be a view of, or the same array as, another node's gradient;
- the graph's data is plain Python objects and stays alive as long as the
  loss tensor does, so a loss can be backpropagated more than once;
- gradients flow only into nodes with ``requires_grad=True`` (set directly
  or inherited from any input);
- inside ``with no_grad():`` ops record nothing: every result is a plain
  tensor with no parents and no backward closure, so a forward-only pass
  frees each intermediate as soon as it is no longer referenced. The
  switch is a context variable, so it covers only the current thread (or
  task) and is restored when the block exits, also on an exception.

The op vocabulary is fixed and small: 2-D matmul, add, scale, multiply,
sum/mean over an axis, amax, tanh, sigmoid, relu, softmax, and fused
ops, each one tape node with a hand-written backward in place of a chain
of small ones:

- the affine map ``[x_1 ... x_k] w + b`` of row blocks side by side;
- multi-head scaled dot-product attention with its query, key, value
  and output projections;
- the feed-forward sublayer ``relu(x w1 + b1) w2 + b2``;
- layer norm of a residual sum ``x + y``, y optionally scaled entry by
  entry by a dropout keep mask;
- the mean negative log of one picked entry per probability row,
  clamped below at a floor;
- the pair score ``tanh(a1[i] + a2[j]) @ w`` over all row pairs of two
  matrices;
- softmax pooling: the rows of v weighted by the softmax of a score
  matrix's means over one axis (the weights come back as a plain tensor).

The fused ops take the same products and sums as the chains they
replace, so their values are the chains' bit for bit, and so are their
gradients up to the order in which an input read by several nodes adds
up its contributions.

Kernels compute in place only in arrays they have just allocated
themselves: an op never writes into an input's data, into an array
another node keeps, or into a gradient it was handed, so a recorded
graph can be walked again with the same result.

The pair score is the one op whose intermediate grows with the square of
the sequence length; `pair_tanh_score` streams it through one buffer that
stays in cache, and says which inputs it rejects.

Tensors are plain values and safe to copy between threads; a recorded
graph belongs to the thread that built it. Training is single-threaded;
forward passes over frozen parameters may run concurrently.
"""

from __future__ import annotations

import contextvars
import logging
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

DTYPE = np.float64


class Tensor:
    """A dense float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward=None):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # adopt, never write in place: `g` may be shared with another node
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Leaf gradients accumulate across repeated calls (zero them between
        optimizer steps). Each interior node's gradient is dropped as soon
        as its backward closure has consumed it, so the walk holds only the
        gradients still waiting to be passed on; afterwards every interior
        ``grad`` is None. The graph's data stays alive with the loss tensor,
        so the loss may be walked again.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:  # leaves have no closure to run
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))
        for node in topo:  # left behind only by a walk cut short
            if node._backward is not None:
                node.grad = None
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                g, node.grad = node.grad, None
                node._backward(g)

    # arithmetic sugar; everything routes through the op functions below
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return multiply(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=DTYPE))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape`, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


_recording = contextvars.ContextVar("ksm_autodiff_recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Ops inside the block record no graph (see the module docstring)."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    if not _recording.get():
        return Tensor(data)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req,
                  _parents=tuple(parents) if req else (),
                  _backward=backward if req else None)


# ---------------------------------------------------------------------------
# ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return _make(a.data * c, (a,), backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(
            f"matmul expects two 2-D operands, got {a.shape} @ {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


def tensor_sum(a: Tensor, axis: int | None = None,
               keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.shape).copy())

    return _make(out_data, (a,), backward)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    if n == 0:
        raise ValueError("mean over an empty axis")
    return scale(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def amax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max over an axis; gradient flows to the (first) argmax positions."""
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    hit = (a.data == a.data.max(axis=axis, keepdims=True))
    # ties: route the gradient to the first maximal entry only
    first = np.cumsum(hit, axis=axis) == 1
    mask = (hit & first).astype(DTYPE)

    def backward(g):
        if a.requires_grad:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(mask * gg)

    return _make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


_PAIR_TILE = 1 << 16     # float64 elements per pair tile: 512 KB, stays in L2
_PAIR_DOMAIN = 350.0     # |input| bound: exp(700) finite, exp(-700) normal


def _tile_buffer(shape: tuple) -> np.ndarray:
    """An uninitialised float64 array starting on a 64-byte boundary.

    Where malloc happens to place a pair tile moves the tile loop's time
    by about a fifth (measured on x86-64 with numpy 2.4); a cache-line
    start takes the fast case every time.
    """
    n = int(np.prod(shape))
    raw = np.empty(n + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + n].reshape(shape)


def pair_tanh_score(a1: Tensor, a2: Tensor, w: Tensor) -> Tensor:
    """Score every row pair: ``out[i, j] = tanh(a1[i] + a2[j]) @ w``.

    a1 is (L1, d), a2 is (L2, d), w is (d, 1); the result is (L1, L2).
    With ``u = exp(-2 a1)`` and ``v = exp(2 a2)``,
    ``tanh(a1[i] + a2[j]) = 1 - 2 r`` where ``r = u[i] / (u[i] + v[j])``,
    so the score is ``sum(w) - 2 r @ w``: 2 (L1 + L2) d exponentials in
    place of L1 L2 d tanh. The (L1, L2, d) array r is never formed; rows
    of it are streamed through one buffer of about ``_PAIR_TILE``
    elements. The tape keeps u and v, and backward recomputes r tile by
    tile, with ``1 - tanh^2 = 4 r (1 - r)``.

    The identity is exact while every |input| is at most 350 (u and v
    stay finite and normal); a larger or NaN input raises ValueError.
    """
    if a1.data.ndim != 2 or a2.data.ndim != 2 or a1.shape[1] != a2.shape[1]:
        raise ValueError(f"pair_tanh_score expects (L1, d) and (L2, d), got "
                         f"{a1.shape} and {a2.shape}")
    (n1, d), n2 = a1.shape, a2.shape[0]
    if w.shape != (d, 1):
        raise ValueError(f"pair_tanh_score weight must be ({d}, 1), "
                         f"got {w.shape}")
    # ndarray max and min propagate NaN, and `not peak <= bound` catches it
    peak = np.abs((a1.data.max(initial=0.0), a1.data.min(initial=0.0),
                   a2.data.max(initial=0.0), a2.data.min(initial=0.0))).max()
    if not peak <= _PAIR_DOMAIN:
        raise ValueError(f"pair_tanh_score: largest |input| {peak:.6g} is "
                         f"outside the exp-form bound {_PAIR_DOMAIN:g}")
    u = np.multiply(a1.data, -2.0)
    np.exp(u, out=u)
    v = np.multiply(a2.data, 2.0)
    np.exp(v, out=v)
    rows = max(1, _PAIR_TILE // max(1, n2 * d))

    def tiles():
        """Yield (row slice, r over those rows), reusing one buffer."""
        buf = _tile_buffer((min(rows, n1), n2, d))
        for lo in range(0, n1, rows):
            hi = min(lo + rows, n1)
            ui, r = u[lo:hi, None, :], buf[:hi - lo]
            np.add(ui, v, out=r)
            np.divide(ui, r, out=r)
            yield slice(lo, hi), r

    def backward(g):
        dw = np.zeros(d)
        da1 = np.empty((n1, d))
        da2 = np.zeros((n2, d))
        need_a = a1.requires_grad or a2.requires_grad
        q = _tile_buffer((min(rows, n1), n2, d)) if need_a else None
        for sl, r in tiles():
            gt = g[sl]
            if w.requires_grad:
                dw += gt.reshape(-1) @ r.reshape(-1, d)
            if need_a:
                qt = q[:r.shape[0]]
                np.subtract(1.0, r, out=qt)
                qt *= r                 # r (1 - r) = (1 - tanh^2) / 4
                da1[sl] = np.matmul(gt[:, None, :], qt)[:, 0]
                da2 += np.matmul(gt.T[:, None, :], qt.transpose(1, 0, 2))[:, 0]
        if w.requires_grad:
            w._accumulate((g.sum() - 2.0 * dw)[:, None])
        w4 = 4.0 * w.data[:, 0]
        if a1.requires_grad:
            a1._accumulate(da1 * w4)
        if a2.requires_grad:
            a2._accumulate(da2 * w4)

    out_data = np.empty((n1, n2))
    wv = w.data[:, 0]
    for sl, r in tiles():
        out_data[sl] = (r.reshape(-1, d) @ wv).reshape(r.shape[:2])
    out_data *= -2.0
    out_data += wv.sum()
    return _make(out_data, (a1, a2, w), backward)


def sigmoid(a: Tensor) -> Tensor:
    # split by sign for stability on large |x|
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(out_data, (a,), backward)


def mean_nll(probs: Sequence[Tensor], index: Sequence[int],
             floor: float) -> Tensor:
    """``-mean_i log(max(probs[i][0, index[i]], floor))`` as one node.

    Each ``probs[i]`` is a (1, C) row. A picked entry below `floor` is
    clamped there and gets no gradient; a warning names how many were.
    """
    if len(probs) != len(index) or not probs:
        raise ValueError("mean_nll needs equal-length, nonempty probs and "
                         "index")
    for p, k in zip(probs, index):
        if p.data.ndim != 2 or p.shape[0] != 1 or not 0 <= k < p.shape[1]:
            raise ValueError(f"mean_nll: index {k} does not pick an entry of "
                             f"a (1, C) row of shape {p.shape}")
    picked = np.array([p.data[0, k] for p, k in zip(probs, index)])
    if (low := picked < floor).any():
        logger.warning("log: clamped %d value(s) below %.3g",
                       int(low.sum()), floor)
    clipped = np.maximum(picked, floor)
    c = 1.0 / len(probs)

    def backward(g):
        dpick = -(g * c) / clipped
        for p, k, d, clamped in zip(probs, index, dpick, low):
            if p.requires_grad:
                dp = np.zeros_like(p.data)
                dp[0, k] = 0.0 if clamped else d
                p._accumulate(dp)

    return _make(np.asarray(-np.log(clipped).sum() * c), probs, backward)


def _softmax_in_place(x: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite x, an array the caller has just allocated, with its
    numerically stable softmax along `axis` (max-subtraction); returns x."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def _softmax_grad(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """d loss / d logits from d loss / d p, for p the softmax of logits."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along `axis` (max-subtraction)."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"softmax axis {axis} invalid for shape {a.shape}")
    out_data = _softmax_in_place(a.data.copy(), axis)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_softmax_grad(out_data, g, axis))

    return _make(out_data, (a,), backward)


def softmax_pool(scores: Tensor, v: Tensor, axis: int) -> tuple[Tensor, Tensor]:
    """Pool the rows of v by the softmax of the mean of scores over `axis`.

    scores is (L1, L2) and axis is 0 or 1; the weights run over the other
    axis, whose length is the number of rows of v. Returns the (1, d)
    pooled row as one node and the weights as a plain tensor, (L1, 1) for
    axis 1 and (1, L2) for axis 0. Forward and backward take the same
    sums and products as ``mean``, ``softmax``, a reshape to a row (axis
    1) and ``matmul`` would, so values and gradients are theirs bit for bit.
    """
    if (scores.data.ndim != 2 or axis not in (0, 1) or not scores.size
            or v.data.ndim != 2 or v.shape[0] != scores.shape[1 - axis]):
        raise ValueError(f"softmax_pool: scores {scores.shape} over axis "
                         f"{axis} do not weight the rows of {v.shape}")
    c = 1.0 / scores.shape[axis]
    p = _softmax_in_place(scores.data.sum(axis=axis, keepdims=True) * c,
                          1 - axis)
    row = p.reshape(1, -1)      # a view of the contiguous weights

    def backward(g):
        if v.requires_grad:
            v._accumulate(row.T @ g)
        if scores.requires_grad:
            dp = (g @ v.data.T).reshape(p.shape)
            dm = _softmax_grad(p, dp, 1 - axis) * c
            scores._accumulate(np.broadcast_to(dm, scores.shape).copy())

    return _make(row @ v.data, (scores, v), backward), Tensor(p)


def projected_attention(x: Tensor, e: Tensor, wq_x: Tensor, wq_e: Tensor,
                        wk: Tensor, wv: Tensor, wh: Tensor,
                        n_heads: int) -> Tensor:
    """Multi-head attention with its four projections, as one node.

    x is (L, d) and e is one (1, d_e) row added to every query; wq_x, wk
    and wv are (d, H*dh), wq_e is (d_e, H*dh) and wh is (H*dh, d_out).
    Head h owns columns h*dh:(h+1)*dh of ``q = x wq_x + e wq_e``,
    ``k = x wk`` and ``v = x wv`` and computes
    ``softmax(q_h k_h^T / sqrt(dh)) v_h`` over the rows; the heads'
    outputs, side by side in the same columns, are multiplied by wh. The
    tape keeps q, k, v, the (H, L, L) attention weights and the mix.
    """
    width = wq_x.shape[-1]
    if (x.data.ndim != 2 or e.data.ndim != 2 or e.shape[0] != 1
            or not wq_x.shape == wk.shape == wv.shape == (x.shape[1], width)
            or wq_e.shape != (e.shape[1], width)
            or wh.data.ndim != 2 or wh.shape[0] != width):
        raise ValueError(f"projected_attention: shapes x {x.shape}, "
                         f"e {e.shape}, wq_x {wq_x.shape}, wq_e {wq_e.shape}, "
                         f"wk {wk.shape}, wv {wv.shape}, wh {wh.shape} do "
                         "not chain")
    if n_heads < 1 or width % n_heads:
        raise ValueError(f"projected_attention: width {width} is not a "
                         f"positive multiple of n_heads {n_heads}")
    xd = x.data
    length, dh = xd.shape[0], width // n_heads

    def split(t: np.ndarray) -> np.ndarray:      # (L, H*dh) -> (H, L, dh)
        return t.reshape(length, n_heads, dh).transpose(1, 0, 2)

    def merge(t: np.ndarray) -> np.ndarray:      # (H, L, dh) -> (L, H*dh)
        return t.transpose(1, 0, 2).reshape(length, width)

    q = xd @ wq_x.data
    q += e.data @ wq_e.data
    qh, kh, vh = split(q), split(xd @ wk.data), split(xd @ wv.data)
    c = 1.0 / np.sqrt(dh)
    p = qh @ kh.transpose(0, 2, 1)      # (H, L, L): scores, then weights
    p *= c
    _softmax_in_place(p, axis=-1)
    mix = merge(p @ vh)

    def backward(g):
        if wh.requires_grad:
            wh._accumulate(mix.T @ g)
        gh = split(g @ wh.data.T)
        ds = _softmax_grad(p, gh @ vh.transpose(0, 2, 1), axis=-1) * c
        dq, dk, dv = (merge(ds @ kh), merge(ds.transpose(0, 2, 1) @ qh),
                      merge(p.transpose(0, 2, 1) @ gh))
        dq_e = dq.sum(axis=0, keepdims=True)     # e's row serves every query
        for w, a, dw in ((wq_x, xd, dq), (wq_e, e.data, dq_e), (wk, xd, dk),
                         (wv, xd, dv)):
            if w.requires_grad:
                w._accumulate(a.T @ dw)
        if e.requires_grad:
            e._accumulate(dq_e @ wq_e.data.T)
        if x.requires_grad:  # term by term, in the unfused chain's order
            for dt, w in ((dq, wq_x), (dk, wk), (dv, wv)):
                x._accumulate(dt @ w.data.T)

    return _make(mix @ wh.data, (x, e, wq_x, wq_e, wk, wv, wh), backward)


def affine(xs: Sequence[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """``[x_1 ... x_k] w + b`` as one node over (L, d_i) row blocks x_i side
    by side (one block is used as it is); w is (sum d_i, d_out), b (d_out,)
    is added to every row, and block i gets its columns of ``g w^T``."""
    if (not xs or any(x.data.ndim != 2 or x.shape[0] != xs[0].shape[0]
                      for x in xs)
            or w.data.ndim != 2 or w.shape[0] != sum(x.shape[1] for x in xs)
            or b.shape != w.shape[1:]):
        raise ValueError(f"affine: shapes xs {[x.shape for x in xs]}, "
                         f"w {w.shape}, b {b.shape} do not chain")
    x = (xs[0].data if len(xs) == 1
         else np.concatenate([t.data for t in xs], axis=1))
    out = x @ w.data
    out += b.data
    bounds = np.cumsum([0] + [t.shape[1] for t in xs])

    def backward(g):
        if any(t.requires_grad for t in xs):
            gx = g @ w.data.T
            for t, lo, hi in zip(xs, bounds[:-1], bounds[1:]):
                if t.requires_grad:
                    t._accumulate(gx[:, lo:hi])
        if w.requires_grad:
            w._accumulate(x.T @ g)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(out, (*xs, w, b), backward)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor) -> Tensor:
    """``relu(x w1 + b1) w2 + b2`` over the rows of x, as one node.

    x is (L, d), w1 (d, h), b1 (h,), w2 (h, d_out) and b2 (d_out,). The
    tape keeps the hidden activation.
    """
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or w1.shape[0] != x.shape[1] or b1.shape != w1.shape[1:]
            or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ValueError(f"feed_forward: shapes x {x.shape}, w1 {w1.shape}, "
                         f"b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape} do "
                         "not chain")
    hidden = x.data @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)

    def backward(g):
        if w2.requires_grad:
            w2._accumulate(hidden.T @ g)
        if b2.requires_grad:
            b2._accumulate(g.sum(axis=0))
        dh = g @ w2.data.T
        dh *= hidden > 0
        if w1.requires_grad:
            w1._accumulate(x.data.T @ dh)
        if b1.requires_grad:
            b1._accumulate(dh.sum(axis=0))
        if x.requires_grad:
            x._accumulate(dh @ w1.data.T)

    out = hidden @ w2.data
    out += b2.data
    return _make(out, (x, w1, b1, w2, b2), backward)


def residual_layer_norm(x: Tensor, y: Tensor, gamma: Tensor, beta: Tensor,
                        eps: float = 1e-5,
                        keep: np.ndarray | None = None) -> Tensor:
    """Layer norm of the residual sum ``s = x + y * keep`` as one node.

    Each last-axis slice of s becomes
    ``(s - mean) / sqrt(var + eps) * gamma + beta``; gamma and beta span
    the last axis. keep, a plain array of y's shape or None (all ones),
    holds y's inverted-dropout multipliers: x gets the gradient of s, and
    y that gradient times keep. Mean and variance are sums over the
    slice's n entries divided by n, what ``np.mean`` and ``np.var``
    compute without their wrappers. The tape keeps the normalized sum and
    the inverse deviations.
    """
    if x.shape != y.shape or (keep is not None and keep.shape != y.shape):
        raise ValueError(f"residual_layer_norm: {x.shape} + {y.shape} * "
                         f"keep {None if keep is None else keep.shape}")
    if eps <= 0:
        raise ValueError(f"residual_layer_norm: eps {eps} is not positive")
    n = x.shape[-1] if x.data.ndim else 0
    if n == 0 or gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError(f"residual_layer_norm: gamma {gamma.shape} and beta "
                         f"{beta.shape} must span a nonempty last axis of "
                         f"{x.shape}")
    s = x.data + (y.data if keep is None else y.data * keep)
    xhat = s - s.sum(axis=-1, keepdims=True) / n    # the deviations, then xhat
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / n + eps)
    xhat *= inv

    def backward(g):
        dxhat = g * gamma.data
        m1 = dxhat.sum(axis=-1, keepdims=True) / n
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
        ds = inv * (dxhat - m1 - xhat * m2)
        for t, dt in ((x, ds), (y, ds if keep is None else ds * keep)):
            if t.requires_grad:
                t._accumulate(dt)
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, n).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, n).sum(axis=0))

    out = xhat * gamma.data
    out += beta.data
    return _make(out, (x, y, gamma, beta), backward)


# ---------------------------------------------------------------------------
# parameters


class ParameterStore:
    """Ordered, uniquely-named registry of trainable tensors.

    Names are '.'-separated paths (e.g. "encoder1.block0.wq_x");
    iteration follows insertion order, so checkpoints and optimizer state
    are deterministic.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._entries[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.zero_grad()

    def clone_values(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._entries.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        missing = set(self._entries) - set(values)
        extra = set(values) - set(self._entries)
        if missing or extra:
            raise KeyError(
                f"parameter name mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}")
        for k, t in self._entries.items():
            v = np.asarray(values[k], dtype=DTYPE)
            if v.shape != t.shape:
                raise ValueError(
                    f"shape mismatch for {k}: stored {v.shape}, "
                    f"expected {t.shape}")
            t.data = v.copy()


def backward(loss: Tensor, params: ParameterStore | None = None) -> None:
    """Backpropagate a scalar loss; gradients land in parameter ``.grad``s."""
    loss.backward()
    if params is not None:
        for name, t in params.items():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
