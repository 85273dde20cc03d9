#!/usr/bin/env python3
"""TransE knowledge-base embeddings: training, energies, pair lookup.

Trains translations on a 4-entity knowledge graph shaped like a square
(r1 = one side, r2 = the other), then shows energies, link-prediction
ranks and the pair -> relation resolution policy with its null fallback.
"""

import numpy as np

from ksm.kb import (init_embeddings, mean_energies, resolve_pair_knowledge,
                    tail_rank, transe_energy, transe_train)
from ksm.synthetic import toy_knowledge_graph

triples = toy_knowledge_graph()
print("knowledge graph:")
for h, r, t in triples:
    print(f"  {h} --{r}--> {t}")

store = init_embeddings(triples, d_kb=16, seed=1)
losses = transe_train(triples, store, margin=1.0, epochs=200, lr=0.05, seed=2)
print(f"\nmargin ranking loss: {losses[0]:.3f} -> {losses[-1]:.3f} "
      f"over {len(losses)} epochs")

true_e, corrupt_e = mean_energies(triples, store, seed=3)
print(f"mean energy, true triples:      {true_e:.3f}")
print(f"mean energy, corrupted triples: {corrupt_e:.3f}")

print("\nlink prediction (rank of the true tail among all entities):")
for h, r, t in triples:
    print(f"  ({h}, {r}, ?) -> {t} ranks {tail_rank(store, h, r, t)}")

e = store.entity_table
r1 = store.relation_table["r1"]
print(f"\ntranslation check: |e1 + r1 - e2| = "
      f"{transe_energy(e['e1'], r1, e['e2']):.4f}")

print("\npair resolution:")
kn = resolve_pair_knowledge(store, "e1", "e2")
print(f"  (e1, e2): relation vector norm {np.linalg.norm(kn.er):.3f}, "
      f"null={kn.er_is_null}")
kn = resolve_pair_knowledge(store, "e2", "e1")
print(f"  (e2, e1): same vector either way "
      f"(symmetric pooling), null={kn.er_is_null}")
kn = resolve_pair_knowledge(store, "e1", "e3")
print(f"  (e1, e3): no triple in the KB -> no KB relation, "
      f"null={kn.er_is_null} (the model uses its trainable null relation)")
print(f"  fallback statistics: {dict(store.stats)}")
