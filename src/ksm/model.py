"""The knowledge-selection network.

Per candidate instance the forward pass runs:

1. context embedding: word vector + sinusoidal encoding of the distance to
   each focal entity, giving two views X1, X2 of the same token sequence;
2. two entity-conditioned encoders: multi-head scaled dot-product
   attention whose queries add an entity term to every position
   (x W_qx + e W_qe), plus a position-wise feed-forward sublayer, each
   wrapped in dropout -> residual -> layer norm;
3. pooling over the two encoded sequences (mutual attention by default,
   five tape nodes; separate additive attention, average or max as
   variants) giving context features s1, s2;
4. a gated knowledge selector, g = act([features, v] W + b) applied to
   a KB vector v as g (.) v (or g + v): the pair's relation vector (or
   the trainable null relation) against [s1, s2] by default; as a
   variant also, or instead, each entity vector against the mean of its
   context view, before it enters the encoder (or no selection at all);
5. a softmax classifier over [s1, s2, selected relation].

One paper-configuration instance records 86 tape nodes on its loss
graph, 59 of them parameters, with dropout on or off; 87 with the null
relation, a (1, d) parameter row fed in as a KB relation vector is.

All trainable tensors are registered in a ParameterStore under stable
dotted names, so checkpointing and gradient checks can address every
weight individually; every matrix is stored (in, out), as it is used.
Forward passes over distinct instances with frozen parameters may run
in parallel; only the training loop mutates them.

`nll_loss` is the loss of the training objective, the mean NLL of the
gold classes over a batch; `train.accumulate_batch_gradient` applies it
to one instance's probabilities at a time, and is what training runs and
the gradient checks verify.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import CandidateInstance, LABEL_POSITIVE
from .inputs import InputError, check_types
from .kb import Embeddings, KnowledgeStore, PairKnowledge, read_embeddings

CLASS_NEGATIVE = 0
CLASS_POSITIVE = 1

_ACTIVATIONS = {"tanh": ad.tanh, "sigmoid": ad.sigmoid, "relu": ad.relu}

LAYER_NORM_EPS = 1e-5

NLL_FLOOR = 1e-12   # gold-class probabilities are clamped here in the loss


# allowed values of the enumerated ModelConfig fields
_CHOICES = {
    "selector_activation": tuple(_ACTIVATIONS),
    "selector_op": ("hadamard", "sum"),
    "selector_target": ("relation", "entity", "both", "none"),
    "pooling": ("mutual", "separate", "average", "max"),
}


@dataclass(frozen=True)
class ModelConfig:
    d: int = 100
    n_blocks: int = 2
    n_heads: int = 4
    dropout_rate: float = 0.1
    selector_activation: str = "tanh"
    selector_op: str = "hadamard"
    selector_target: str = "relation"
    pooling: str = "mutual"
    shared_encoder: bool = False

    @property
    def d_head(self) -> int:
        return self.d // self.n_heads

    def __post_init__(self) -> None:
        check_types(self)
        if self.d < 1 or self.n_heads < 1 or self.d % self.n_heads:
            raise InputError(f"d ({self.d}) must be a positive multiple of "
                             f"n_heads ({self.n_heads})")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InputError(f"dropout_rate must be in [0,1), "
                             f"got {self.dropout_rate}")
        if self.n_blocks < 1:
            raise InputError("n_blocks must be >= 1")
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise InputError(f"unknown {key} {getattr(self, key)!r} "
                                 f"(expected one of {', '.join(allowed)})")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# embeddings


def _sinusoid_rows(positions: np.ndarray, d: int) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    k = np.arange(d)
    angles = pos / np.power(10000.0, (k - k % 2) / d)
    return np.where(k % 2 == 0, np.sin(angles), np.cos(angles))


_SINUSOID_TABLE_LIMIT = 1 << 16   # positions from here on are computed directly
_sinusoid_tables: dict[int, np.ndarray] = {}


def sinusoidal_encoding(positions: Sequence[int], d: int) -> np.ndarray:
    """Fixed sin/cos encoding of integer distances, shape (len(positions), d);
    ValueError for a negative position or one of no integer dtype.

    Rows come from a per-``d`` table of the same formula, grown to the next
    power of two above the largest position seen (up to 2^16; larger
    positions are computed directly). Growth swaps in a new array, so a
    concurrent caller sees either the old table or the new one, whole.
    """
    pos = np.asarray(positions).reshape(-1)
    if pos.size == 0:
        return np.empty((0, d))
    if bool in map(type, positions):  # numpy gives [1, True] an int dtype
        pos = pos.astype(bool)
    if pos.dtype.kind not in "iu":
        raise ValueError(f"sinusoidal_encoding: positions of dtype "
                         f"{pos.dtype}, expected integers")
    low, top = int(pos.min()), int(pos.max())
    if low < 0:
        raise ValueError(f"sinusoidal_encoding: negative position {low}")
    if top >= _SINUSOID_TABLE_LIMIT:
        return _sinusoid_rows(pos, d)
    table = _sinusoid_tables.get(d)
    if table is None or table.shape[0] <= top:
        table = _sinusoid_rows(np.arange(1 << top.bit_length()), d)
        _sinusoid_tables[d] = table
    return table[pos]


class WordTable:
    """Frozen token -> vector lookup over one `Embeddings` matrix; its UNK
    row (the mapping's UNK vector, else zeros, appended last) serves unknown
    tokens. InputError for a vector, UNK included, not of width d."""

    UNK = "UNK"

    def __init__(self, vectors: Mapping[str, np.ndarray], d: int):
        try:
            table = Embeddings.of(vectors, d)
            if self.UNK not in table:
                # a new matrix, so a caller's Embeddings is never written
                table = Embeddings(table.ids + [self.UNK],
                                   np.vstack([table.matrix, np.zeros(d)]))
        except ValueError as e:
            raise InputError(f"word table of width {d}: {e}") from None
        self.vectors = table
        self.d = d
        self.unk = self.vectors[self.UNK]

    @classmethod
    def random(cls, vocab: Sequence[str], d: int, seed: int = 0) -> "WordTable":
        rng = np.random.default_rng(seed)
        lim = 0.5 / d
        vectors = {tok: rng.uniform(-lim, lim, size=d)
                   for tok in sorted(set(vocab))}
        vectors[cls.UNK] = rng.uniform(-lim, lim, size=d)
        return cls(vectors, d)

    @classmethod
    def load(cls, path) -> "WordTable":
        vectors = read_embeddings(path)
        if not vectors:
            raise InputError("empty embedding file", path)
        return cls(vectors, vectors.matrix.shape[1])

    def lookup(self, tokens: Sequence[str]) -> np.ndarray:
        index = self.vectors.index
        unk = index[self.UNK]
        return self.vectors.matrix[[index.get(t, unk) for t in tokens]]


def embed_context(instance: CandidateInstance, word_table: WordTable,
                  config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Two L x d context views: word vector + sinusoidal encoding of the
    distance to each entity."""
    if not instance.tokens:
        raise ValueError("cannot embed an empty instance")
    n = len(instance.tokens)
    if len(instance.pos1) != n or len(instance.pos2) != n:
        raise ValueError(
            f"pos1/pos2 lengths {len(instance.pos1)}/{len(instance.pos2)} "
            f"differ from {n} tokens")
    words = word_table.lookup(instance.tokens)
    return (Tensor(words + sinusoidal_encoding(instance.pos1, config.d)),
            Tensor(words + sinusoidal_encoding(instance.pos2, config.d)))


# ---------------------------------------------------------------------------
# parameter construction


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape: tuple) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


def _encoder_prefixes(config: ModelConfig) -> tuple[str, str]:
    """Parameter prefixes of the encoders reading X1 and X2."""
    if config.shared_encoder:
        return "encoder", "encoder"
    return "encoder1", "encoder2"


def build_params(config: ModelConfig, seed: int = 0) -> ParameterStore:
    """Register exactly the tensors the configured forward pass touches."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    d, dh = config.d, config.d_head

    def add(name, data):
        store.add(name, Tensor(data))

    def mat(name, fan_in, fan_out):
        add(name, _xavier(rng, fan_in, fan_out, (fan_in, fan_out)))

    def mat_drawn_out_in(name, fan_in, fan_out):
        # drawn (out, in) and stored transposed: seeded values stay those
        # of the earlier layout, which stored these matrices (out, in)
        add(name, _xavier(rng, fan_in, fan_out, (fan_out, fan_in)).T.copy())

    for enc in dict.fromkeys(_encoder_prefixes(config)):
        for b in range(config.n_blocks):
            p = f"{enc}.block{b}"
            # head h owns columns h*dh:(h+1)*dh of each projection; the
            # draws keep their per-head order and fan sizes
            heads = [[_xavier(rng, fan_in, dh, (fan_in, dh))
                      for fan_in in (2 * d, d, d)]
                     for _ in range(config.n_heads)]
            wq, wk, wv = (np.concatenate(ws, axis=1) for ws in zip(*heads))
            add(f"{p}.wq_x", wq[:d])
            add(f"{p}.wq_e", wq[d:])
            add(f"{p}.wk", wk)
            add(f"{p}.wv", wv)
            mat(f"{p}.wh", config.n_heads * dh, d)
            mat(f"{p}.ffn_w1", d, d)
            add(f"{p}.ffn_b1", np.zeros(d))
            mat(f"{p}.ffn_w2", d, d)
            add(f"{p}.ffn_b2", np.zeros(d))
            for ln in ("ln1", "ln2"):
                add(f"{p}.{ln}.gamma", np.ones(d))
                add(f"{p}.{ln}.beta", np.zeros(d))

    if config.pooling == "mutual":
        mat_drawn_out_in("mutual.w1", d, d)
        mat_drawn_out_in("mutual.w2", d, d)
        mat("mutual.w", d, 1)
    elif config.pooling == "separate":
        mat_drawn_out_in("separate.w_proj", d, d)
        add("separate.b", np.zeros(d))
        mat("separate.w", d, 1)

    def gate(prefix, n_features):
        # W: the features' rows over v's, drawn as two separate matrices were
        add(f"{prefix}.w", np.hstack([_xavier(rng, n, d, (d, n))
                                      for n in (n_features, d)]).T.copy())
        add(f"{prefix}.b", np.zeros(d))

    if config.selector_target in ("relation", "both"):
        gate("selector", 2 * d)
    if config.selector_target in ("entity", "both"):
        gate("entity_selector", d)

    mat_drawn_out_in("classifier.w", 3 * d, 2)
    add("classifier.b", np.zeros(2))
    add("knowledge.null_relation", np.zeros((1, d)))  # a row, as er is
    return store


# ---------------------------------------------------------------------------
# forward pieces


def multi_head_attention(x: Tensor, e: Tensor, params: ParameterStore,
                         prefix: str, config: ModelConfig) -> Tensor:
    """Entity-conditioned multi-head attention; returns the L x d mix.

    Queries are x W_qx + e W_qe, the (1, H*d_head) entity term broadcast
    over the rows; keys and values are the plain sequence. Head h owns
    columns h*d_head:(h+1)*d_head of each projection, and the heads'
    outputs, side by side, go through the output projection W_h. The
    projections, every head's scaled dot-product attention and W_h are
    one fused node (``ad.projected_attention``).
    """
    return ad.projected_attention(
        x, e, params[f"{prefix}.wq_x"], params[f"{prefix}.wq_e"],
        params[f"{prefix}.wk"], params[f"{prefix}.wv"],
        params[f"{prefix}.wh"], config.n_heads)


def dropout_keep(shape: tuple, rate: float, rng: np.random.Generator | None,
                 train: bool = True) -> np.ndarray | None:
    """Inverted-dropout multipliers of `shape`: 1/(1-rate) with probability
    1 - rate, else 0. None, drawing nothing, if not `train` or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("active dropout needs an rng")
    return (rng.random(shape) < 1.0 - rate) / (1.0 - rate)


def encoder_block(x: Tensor, e: Tensor, params: ParameterStore, prefix: str,
                  config: ModelConfig, train: bool,
                  rng: np.random.Generator | None) -> Tensor:
    """One Transformer block: attention, then the feed-forward sublayer
    relu(x W1 + b1) W2 + b2, each through dropout and a residual layer
    norm. Attention, feed-forward and each masked residual layer norm are
    one fused node apiece, so a block records four nodes at any dropout
    rate; the attention mask draws before the feed-forward one."""
    keep1, keep2 = (dropout_keep(x.shape, config.dropout_rate, rng, train)
                    for _ in range(2))
    mh = multi_head_attention(x, e, params, prefix, config)
    sub1 = ad.residual_layer_norm(x, mh, params[f"{prefix}.ln1.gamma"],
                                  params[f"{prefix}.ln1.beta"], LAYER_NORM_EPS,
                                  keep1)
    ff = ad.feed_forward(sub1, params[f"{prefix}.ffn_w1"],
                         params[f"{prefix}.ffn_b1"], params[f"{prefix}.ffn_w2"],
                         params[f"{prefix}.ffn_b2"])
    return ad.residual_layer_norm(sub1, ff, params[f"{prefix}.ln2.gamma"],
                                  params[f"{prefix}.ln2.beta"], LAYER_NORM_EPS,
                                  keep2)


def encode(x: Tensor, e: Tensor, params: ParameterStore, encoder_prefix: str,
           config: ModelConfig, train: bool = False,
           rng: np.random.Generator | None = None) -> Tensor:
    """Run all blocks; the entity vector re-enters the queries of each block."""
    out = x
    for b in range(config.n_blocks):
        out = encoder_block(out, e, params, f"{encoder_prefix}.block{b}",
                            config, train, rng)
    return out


def mutual_attention(v1: Tensor, v2: Tensor, params: ParameterStore
                     ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Additive attention over all position pairs of the two sequences.

    Returns (s1, s2, p1, p2): pooled vectors (1 x d) and the attention
    weights over positions ((L x 1) and (1 x L)), the weights as plain
    tensors. The pair scores alpha[i, j] = tanh(v1[i] W1 + v2[j] W2) w
    come from one fused op (``ad.pair_tanh_score``) that streams the
    L x L x d pair terms through one cache-sized buffer and keeps only two
    L x d arrays for backward. Row means of alpha drive the weights for
    the first sequence, column means for the second; each side's mean,
    softmax and weighted sum is one node (``ad.softmax_pool``), so the
    whole pooling records five nodes.
    """
    length = v1.shape[0]
    if v2.shape[0] != length:
        raise ValueError(f"sequence lengths differ: {length} vs {v2.shape[0]}")
    alpha = ad.pair_tanh_score(v1 @ params["mutual.w1"],
                               v2 @ params["mutual.w2"], params["mutual.w"])
    s1, p1 = ad.softmax_pool(alpha, v1, axis=1)
    s2, p2 = ad.softmax_pool(alpha, v2, axis=0)
    return s1, s2, p1, p2


def separate_attention(v: Tensor, params: ParameterStore
                       ) -> tuple[Tensor, Tensor]:
    """Single-sequence additive attention with a bias; params are shared
    between the two sequences by construction (one set in the store).
    Returns the pooled (1, d) row and the (L, 1) weights; the softmax and
    weighted sum are one node (``ad.softmax_pool`` over the width-1 axis
    of the scores, whose mean is the scores themselves)."""
    scores = ad.tanh(ad.affine([v], params["separate.w_proj"],
                               params["separate.b"])) @ params["separate.w"]
    return ad.softmax_pool(scores, v, axis=1)


def pool_variants(v1: Tensor, v2: Tensor, params: ParameterStore,
                  config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Context features (s1, s2) under the configured pooling."""
    if config.pooling == "mutual":
        s1, s2, _, _ = mutual_attention(v1, v2, params)
        return s1, s2
    if config.pooling == "separate":
        return separate_attention(v1, params)[0], separate_attention(v2, params)[0]
    if config.pooling == "average":
        return (ad.mean(v1, axis=0, keepdims=True),
                ad.mean(v2, axis=0, keepdims=True))
    return (ad.amax(v1, axis=0, keepdims=True),
            ad.amax(v2, axis=0, keepdims=True))


def knowledge_select(features: list[Tensor], v: Tensor, params: ParameterStore,
                     prefix: str, config: ModelConfig) -> Tensor:
    """Gate the (1, d) KB vector `v` against the (1, n_i) `features`.

    g = act([features, v] W + b), one affine node over the blocks
    features and v, with the parameters `prefix`.w and .b; the output is
    g (.) v, or g + v for the sum variant. The relation runs through
    "selector" with features [s1, s2]; each entity through
    "entity_selector", both entities sharing it, with the mean of its
    context view.
    """
    pre = ad.affine([*features, v], params[f"{prefix}.w"],
                    params[f"{prefix}.b"])
    g = _ACTIVATIONS[config.selector_activation](pre)
    return ad.multiply(g, v) if config.selector_op == "hadamard" else ad.add(g, v)


def classify(s1: Tensor, s2: Tensor, er_selected: Tensor,
             params: ParameterStore) -> tuple[Tensor, int]:
    """Class probabilities (1 x 2 tensor) and the predicted class; the
    logits are one affine node over the blocks s1, s2 and er_selected.

    Exact probability ties resolve to the negative class.
    """
    logits = ad.affine([s1, s2, er_selected], params["classifier.w"],
                       params["classifier.b"])
    probs = ad.softmax(logits, axis=1)
    label = (CLASS_POSITIVE
             if probs.data[0, CLASS_POSITIVE] > probs.data[0, CLASS_NEGATIVE]
             else CLASS_NEGATIVE)
    return probs, label


def gold_class(instance: CandidateInstance) -> int:
    return (CLASS_POSITIVE if instance.label == LABEL_POSITIVE
            else CLASS_NEGATIVE)


def nll_loss(batch_probs: Sequence[Tensor], gold_labels: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of the gold class over a batch, as one
    node (``ad.mean_nll``).

    Gold-class probabilities are clamped at NLL_FLOOR (a warning is logged
    if the clamp fires, and a clamped probability gets no gradient).
    """
    return ad.mean_nll(batch_probs, gold_labels, NLL_FLOOR)


# ---------------------------------------------------------------------------
# the assembled model


class KSMModel:
    """Configuration + parameters + forward pass over candidate instances;
    `store` is the knowledge store it was loaded with, else empty."""

    def __init__(self, config: ModelConfig, word_table: WordTable,
                 seed: int = 0):
        if word_table.d != config.d:
            raise InputError(
                f"word table dim {word_table.d} != model d {config.d}")
        self.config = config
        self.word_table = word_table
        self.params = build_params(config, seed=seed)
        self.store = KnowledgeStore({}, {}, config.d)

    def forward_instance(self, instance: CandidateInstance,
                         knowledge: PairKnowledge, train: bool = False,
                         rng: np.random.Generator | None = None
                         ) -> tuple[Tensor, int]:
        """Probabilities and predicted class for one instance."""
        cfg = self.config
        x1, x2 = embed_context(instance, self.word_table, cfg)
        e1 = Tensor(np.asarray(knowledge.e1).reshape(1, -1))
        e2 = Tensor(np.asarray(knowledge.e2).reshape(1, -1))
        er = (self.params["knowledge.null_relation"] if knowledge.er_is_null
              else Tensor(np.asarray(knowledge.er).reshape(1, -1)))
        if cfg.selector_target in ("entity", "both"):
            e1, e2 = (knowledge_select([ad.mean(x, axis=0, keepdims=True)],
                                       e, self.params, "entity_selector", cfg)
                      for x, e in ((x1, e1), (x2, e2)))
        p1, p2 = _encoder_prefixes(cfg)
        v1 = encode(x1, e1, self.params, p1, cfg, train, rng)
        v2 = encode(x2, e2, self.params, p2, cfg, train, rng)
        s1, s2 = pool_variants(v1, v2, self.params, cfg)
        if cfg.selector_target in ("relation", "both"):
            er = knowledge_select([s1, s2], er, self.params, "selector", cfg)
        return classify(s1, s2, er, self.params)

    def save(self, path, store: KnowledgeStore | None = None) -> None:
        """Write the model, its word table and `store` (or its own)."""
        from .checkpoint import save_checkpoint
        save_checkpoint(path, self.params, self.word_table.vectors,
                        self.store if store is None else store,
                        self.config.to_dict())

    @classmethod
    def load(cls, path, word_table: WordTable | None = None) -> "KSMModel":
        """The model saved at `path` with its word table and store; a
        `word_table` passed must equal the saved one, or InputError."""
        from .checkpoint import load_checkpoint
        values, config_dict, words, store = load_checkpoint(path)
        if not values:  # a KB store file, written by train-kb
            raise InputError("holds no model parameters", path)
        try:
            config = ModelConfig(**config_dict)
        except (TypeError, InputError) as e:
            raise InputError(f"invalid model config: {e}", path) from e
        if word_table is not None and not (
                word_table.vectors.ids == words.ids
                and np.array_equal(word_table.vectors.matrix, words.matrix)):
            raise InputError("the word table passed is not the one saved "
                             "with the model", path)
        try:
            model = cls(config, WordTable(words, config.d), seed=0)
            model.params.load_values(values)
        except (KeyError, ValueError) as e:
            raise InputError(f"checkpoint does not match its config: {e}",
                             path) from e
        model.store = store
        return model
