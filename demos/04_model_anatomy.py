#!/usr/bin/env python3
"""A walk through the network, one stage at a time.

Shows how the entity vector conditions the encoder, what the mutual
attention distributes its weight over, and how the knowledge gate scales
the relation vector before classification.
"""

import numpy as np

from ksm.autodiff import Tensor
from ksm.corpus import CandidateInstance
from ksm.model import (KSMModel, ModelConfig, WordTable, classify,
                       embed_context, encode, knowledge_select,
                       mutual_attention)

d = 16
rng = np.random.default_rng(0)

tokens = ["gene0", "phosphorylates", "the", "target", "NUMBER", "complex"]
inst = CandidateInstance(
    doc_id="demo", pair=("P_A", "P_B"), tokens=tokens,
    pos1=[2, 1, 1, 2, 3, 4], pos2=[5, 4, 3, 2, 1, 1], label="positive")

table = WordTable.random(tokens, d, seed=1)
config = ModelConfig(d=d, n_heads=2, n_blocks=2, dropout_rate=0.0)
model = KSMModel(config, table, seed=2)
params = model.params
print(f"{len(params.names())} parameter tensors, "
      f"{sum(p.size for _, p in params.items())} scalars\n")

# --- embedding: same words, two position views ------------------------------

x1, x2 = embed_context(inst, table, config)
print(f"context views X1/X2: {x1.shape}; they differ only through the "
      f"position encodings (max gap "
      f"{np.abs(x1.data - x2.data).max():.3f})\n")

# --- the entity vector steers the encoder -----------------------------------

e_a = Tensor(rng.standard_normal((1, d)) * 0.5)
e_b = Tensor(rng.standard_normal((1, d)) * 0.5)
v_same = encode(x1, e_a, params, "encoder1", config)
v_other = encode(x1, e_b, params, "encoder1", config)
print("entity-conditioned encoding: swapping the entity embedding moves "
      f"the output by {np.abs(v_same.data - v_other.data).max():.4f} "
      "(max abs)\n")

# --- mutual attention --------------------------------------------------------

v1 = encode(x1, e_a, params, "encoder1", config)
v2 = encode(x2, e_b, params, "encoder2", config)
s1, s2, p1, p2 = mutual_attention(v1, v2, params)
print("mutual attention weights over positions:")
print("  view 1:", np.round(p1.data[:, 0], 3))
print("  view 2:", np.round(p2.data[0], 3))
print(f"  (each sums to 1: {p1.data.sum():.9f}, {p2.data.sum():.9f})\n")

# --- the knowledge gate -------------------------------------------------------

er = Tensor(rng.standard_normal((1, d)))
er_selected = knowledge_select([s1, s2], er, params, "selector", config)
ratio = np.abs(er_selected.data) / np.abs(er.data)
print("knowledge selector (tanh gate, Hadamard): per-coordinate shrink "
      f"factors range {ratio.min():.3f}..{ratio.max():.3f} (never > 1)\n")

# --- classification -----------------------------------------------------------

probs, label = classify(s1, s2, er_selected, params)
print(f"classifier probabilities {np.round(probs.data[0], 4)} -> "
      f"{'positive' if label == 1 else 'negative'} (untrained weights)")
