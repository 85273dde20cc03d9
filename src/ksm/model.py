"""The knowledge-selection network.

Per candidate instance the forward pass runs:

1. context embedding: word vector + position encoding of the distance to
   each focal entity, giving two views X1, X2 of the same token sequence;
2. two entity-conditioned encoders: multi-head scaled dot-product
   attention whose queries add an entity term to every position
   (x W_qx + e W_qe), plus a position-wise feed-forward sublayer, each
   wrapped in dropout -> residual -> layer norm;
3. pooling over the two encoded sequences (mutual attention by default,
   five tape nodes; separate additive attention, average or max as
   variants) giving context features s1, s2;
4. a gated knowledge selector that distills the pair's KB relation
   vector against the context features (optionally also the entity
   vectors, or nothing);
5. a softmax classifier over [s1, s2, selected relation].

With dropout on, one paper-configuration instance records 100 tape
nodes on its loss graph, 60 of them parameters.

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

import logging
from dataclasses import dataclass, asdict
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import CandidateInstance, LABEL_POSITIVE
from .kb import Embeddings, PairKnowledge, read_embeddings, write_embeddings

logger = logging.getLogger(__name__)

CLASS_NEGATIVE = 0
CLASS_POSITIVE = 1

_ACTIVATIONS = {"tanh": ad.tanh, "sigmoid": ad.sigmoid, "relu": ad.relu}

LAYER_NORM_EPS = 1e-5

NLL_FLOOR = 1e-12   # gold-class probabilities are clamped here in the loss


class ConfigError(Exception):
    pass


# allowed values of the enumerated ModelConfig fields
_CHOICES = {
    "selector_activation": tuple(_ACTIVATIONS),
    "selector_op": ("hadamard", "sum"),
    "selector_target": ("relation", "entity", "both", "none"),
    "pooling": ("mutual", "separate", "average", "max"),
    "position_encoding": ("sinusoidal", "learned"),
}


@dataclass
class ModelConfig:
    d: int = 100
    n_blocks: int = 2
    n_heads: int = 4
    d_kb: int = 100
    dropout_rate: float = 0.1
    selector_activation: str = "tanh"
    selector_op: str = "hadamard"
    selector_target: str = "relation"
    gate_uses_relation: bool = True    # False: gate from context features only
    pooling: str = "mutual"
    shared_encoder: bool = False
    position_encoding: str = "sinusoidal"
    max_distance: int = 512            # learned-table size; distances clipped

    @property
    def d_head(self) -> int:
        return self.d // self.n_heads

    def __post_init__(self) -> None:
        if self.n_heads < 1 or self.d % self.n_heads:
            raise ConfigError(
                f"d ({self.d}) must be a positive multiple of n_heads "
                f"({self.n_heads})")
        if self.d_kb != self.d:
            raise ConfigError(
                f"d_kb ({self.d_kb}) must equal d ({self.d}): the selector "
                "gate and the 3d classifier features couple the two")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0,1), "
                              f"got {self.dropout_rate}")
        if self.n_blocks < 1:
            raise ConfigError("n_blocks must be >= 1")
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r} "
                                  f"(expected one of {', '.join(allowed)})")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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
    """Fixed sin/cos encoding of integer distances, shape (len(positions), d).

    Rows come from a per-``d`` table of the same formula, grown to the next
    power of two above the largest position seen (up to 2^16; larger
    positions are computed directly). Growth swaps in a new array, so a
    concurrent caller sees either the old table or the new one, whole.
    """
    pos = np.asarray(positions, dtype=np.int64).reshape(-1)
    if pos.size == 0:
        return np.empty((0, d))
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
    row (`unk`, else the mapping's UNK vector, else zeros) serves unknown
    tokens. ConfigError for a vector, UNK included, not of width d."""

    UNK = "UNK"

    def __init__(self, vectors: Mapping[str, np.ndarray], d: int,
                 unk: np.ndarray | None = None):
        try:
            table = Embeddings.of(vectors, d)
            if unk is not None or self.UNK not in table:
                # a new matrix, so a caller's Embeddings is never written
                row = np.zeros(d) if unk is None else np.asarray(unk, float)
                if row.shape != (d,):
                    raise ValueError(f"{self.UNK!r} has shape {row.shape}, "
                                     f"expected ({d},)")
                if self.UNK in table:
                    matrix = table.matrix.copy()
                    matrix[table.index[self.UNK]] = row
                    table = Embeddings(table.ids, matrix)
                else:
                    table = Embeddings(table.ids + [self.UNK],
                                       np.vstack([table.matrix, row]))
        except ValueError as e:
            raise ConfigError(f"word table of width {d}: {e}") from None
        self.vectors = table
        self.d = d
        self.unk = self.vectors[self.UNK]

    @classmethod
    def random(cls, vocab: Sequence[str], d: int, seed: int = 0) -> "WordTable":
        rng = np.random.default_rng(seed)
        lim = 0.5 / d
        vectors = {tok: rng.uniform(-lim, lim, size=d)
                   for tok in sorted(set(vocab))}
        return cls(vectors, d, unk=rng.uniform(-lim, lim, size=d))

    @classmethod
    def load(cls, path) -> "WordTable":
        vectors = read_embeddings(path)
        if not vectors:
            raise ConfigError(f"{path}: empty embedding file")
        return cls(vectors, vectors.matrix.shape[1])

    def save(self, path) -> None:
        write_embeddings(path, self.vectors)

    def lookup(self, tokens: Sequence[str]) -> np.ndarray:
        index = self.vectors.index
        unk = index[self.UNK]
        return self.vectors.matrix[[index.get(t, unk) for t in tokens]]


def embed_context(instance: CandidateInstance, word_table: WordTable,
                  config: ModelConfig,
                  params: ParameterStore | None = None) -> tuple[Tensor, Tensor]:
    """Two L x d context views: word vector + position encoding per entity."""
    if not instance.tokens:
        raise ValueError("cannot embed an empty instance")
    n = len(instance.tokens)
    if len(instance.pos1) != n or len(instance.pos2) != n:
        raise ValueError(
            f"pos1/pos2 lengths {len(instance.pos1)}/{len(instance.pos2)} "
            f"differ from {n} tokens")
    if min(min(instance.pos1), min(instance.pos2)) < 0:
        raise ValueError("positions must be nonnegative")
    words = word_table.lookup(instance.tokens)
    if config.position_encoding == "sinusoidal":
        x1 = Tensor(words + sinusoidal_encoding(instance.pos1, config.d))
        x2 = Tensor(words + sinusoidal_encoding(instance.pos2, config.d))
        return x1, x2
    table = params["position.table"]
    hi = config.max_distance
    i1 = np.clip(instance.pos1, 0, hi)
    i2 = np.clip(instance.pos2, 0, hi)
    w = Tensor(words)
    return (ad.add(w, ad.gather_rows(table, i1)),
            ad.add(w, ad.gather_rows(table, i2)))


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
    d, dh, dkb = config.d, config.d_head, config.d_kb

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
                      for fan_in in (d + dkb, d, d)]
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

    if config.selector_target in ("relation", "both"):
        mat_drawn_out_in("selector.w", 2 * d, d)
        if config.gate_uses_relation:
            mat_drawn_out_in("selector.u", d, d)
        add("selector.b", np.zeros(d))
    if config.selector_target in ("entity", "both"):
        mat_drawn_out_in("entity_selector.w", d, d)
        mat_drawn_out_in("entity_selector.u", d, d)
        add("entity_selector.b", np.zeros(d))

    mat_drawn_out_in("classifier.w", 3 * d, 2)
    add("classifier.b", np.zeros(2))
    add("knowledge.null_relation", np.zeros(dkb))

    if config.position_encoding == "learned":
        lim = 0.5 / d
        add("position.table",
            rng.uniform(-lim, lim, size=(config.max_distance + 1, d)))
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


def encoder_block(x: Tensor, e: Tensor, params: ParameterStore, prefix: str,
                  config: ModelConfig, train: bool,
                  rng: np.random.Generator | None) -> Tensor:
    """One Transformer block: attention, then the feed-forward sublayer
    relu(x W1 + b1) W2 + b2, each through dropout and a residual layer
    norm. Attention, feed-forward and each residual layer norm are one
    fused node apiece, so a block records six nodes (four with dropout
    off); the attention dropout draws before the feed-forward one."""
    mh = multi_head_attention(x, e, params, prefix, config)
    mh = ad.dropout(mh, config.dropout_rate, rng, train)
    sub1 = ad.residual_layer_norm(x, mh, params[f"{prefix}.ln1.gamma"],
                                  params[f"{prefix}.ln1.beta"], LAYER_NORM_EPS)
    ff = ad.feed_forward(sub1, params[f"{prefix}.ffn_w1"],
                         params[f"{prefix}.ffn_b1"], params[f"{prefix}.ffn_w2"],
                         params[f"{prefix}.ffn_b2"])
    ff = ad.dropout(ff, config.dropout_rate, rng, train)
    return ad.residual_layer_norm(sub1, ff, params[f"{prefix}.ln2.gamma"],
                                  params[f"{prefix}.ln2.beta"], LAYER_NORM_EPS)


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
    between the two sequences by construction (one set in the store)."""
    scores = ad.tanh(ad.affine(v, params["separate.w_proj"],
                               params["separate.b"])) @ params["separate.w"]
    p = ad.softmax(scores, axis=0)        # (L,1)
    return ad.transpose(p) @ v, p


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


def _gated(pre: Tensor, e: Tensor, config: ModelConfig) -> Tensor:
    """Activate the gate pre-activation and combine it with `e`."""
    g = _ACTIVATIONS[config.selector_activation](pre)
    return ad.multiply(g, e) if config.selector_op == "hadamard" else ad.add(g, e)


def knowledge_select(s1: Tensor, s2: Tensor, er: Tensor,
                     params: ParameterStore, config: ModelConfig) -> Tensor:
    """Gate the relation vector against the context features.

    Default: g = tanh(W [s1,s2] + U er + b), output g (.) er. The
    context-only variant drops the U er term; the sum variant adds g
    to er instead of scaling it.
    """
    if config.selector_target == "entity":
        raise ConfigError("entity selection is routed through "
                          "entity_knowledge_select")
    feats = ad.concat([s1, s2])
    if config.gate_uses_relation:
        pre = (feats @ params["selector.w"] + er @ params["selector.u"]
               + params["selector.b"])
    else:
        pre = ad.affine(feats, params["selector.w"], params["selector.b"])
    return _gated(pre, er, config)


def entity_knowledge_select(x: Tensor, e: Tensor, params: ParameterStore,
                            config: ModelConfig) -> Tensor:
    """Gate an entity vector against the mean of its input sequence.

    Both entities run through the same parameter set.
    """
    mx = ad.mean(x, axis=0, keepdims=True)
    pre = (mx @ params["entity_selector.w"]
           + e @ params["entity_selector.u"]
           + params["entity_selector.b"])
    return _gated(pre, e, config)


def classify(s1: Tensor, s2: Tensor, er_selected: Tensor,
             params: ParameterStore) -> tuple[Tensor, int]:
    """Class probabilities (1 x 2 tensor) and the predicted class; the
    logits are one affine node.

    Exact probability ties resolve to the negative class.
    """
    feats = ad.concat([s1, s2, er_selected])
    logits = ad.affine(feats, params["classifier.w"], params["classifier.b"])
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
    """Configuration + parameters + forward pass over candidate instances."""

    def __init__(self, config: ModelConfig, word_table: WordTable,
                 seed: int = 0, null_relation: np.ndarray | None = None):
        if word_table.d != config.d:
            raise ConfigError(
                f"word table dim {word_table.d} != model d {config.d}")
        self.config = config
        self.word_table = word_table
        self.params = build_params(config, seed=seed)
        if null_relation is not None:
            null = np.array(null_relation, dtype=np.float64)
            if null.shape != (config.d_kb,):
                raise ConfigError(f"null_relation shape {null.shape} != "
                                  f"({config.d_kb},)")
            self.params["knowledge.null_relation"].data = null

    def forward_instance(self, instance: CandidateInstance,
                         knowledge: PairKnowledge, train: bool = False,
                         rng: np.random.Generator | None = None
                         ) -> tuple[Tensor, int]:
        """Probabilities and predicted class for one instance."""
        cfg = self.config
        x1, x2 = embed_context(instance, self.word_table, cfg, self.params)
        e1 = Tensor(np.asarray(knowledge.e1).reshape(1, -1))
        e2 = Tensor(np.asarray(knowledge.e2).reshape(1, -1))
        er = (ad.reshape(self.params["knowledge.null_relation"], (1, cfg.d_kb))
              if knowledge.er_is_null
              else Tensor(np.asarray(knowledge.er).reshape(1, -1)))
        if cfg.selector_target in ("entity", "both"):
            e1 = entity_knowledge_select(x1, e1, self.params, cfg)
            e2 = entity_knowledge_select(x2, e2, self.params, cfg)
        p1, p2 = _encoder_prefixes(cfg)
        v1 = encode(x1, e1, self.params, p1, cfg, train, rng)
        v2 = encode(x2, e2, self.params, p2, cfg, train, rng)
        s1, s2 = pool_variants(v1, v2, self.params, cfg)
        if cfg.selector_target in ("relation", "both"):
            er = knowledge_select(s1, s2, er, self.params, cfg)
        return classify(s1, s2, er, self.params)

    def save(self, path) -> None:
        from .checkpoint import save_checkpoint
        save_checkpoint(path, self.params, config=self.config.to_dict())

    @classmethod
    def load(cls, path, word_table: WordTable) -> "KSMModel":
        from .checkpoint import CheckpointError, load_checkpoint
        values, config_dict = load_checkpoint(path)
        if not config_dict:
            raise CheckpointError(f"{path}: checkpoint carries no model config")
        try:
            config = ModelConfig.from_dict(config_dict)
        except (TypeError, ConfigError) as e:
            raise CheckpointError(f"{path}: invalid model config: {e}") from e
        model = cls(config, word_table, seed=0)
        try:
            model.params.load_values(values)
        except (KeyError, ValueError) as e:
            raise CheckpointError(
                f"{path}: checkpoint does not match its config: {e}") from e
        return model
