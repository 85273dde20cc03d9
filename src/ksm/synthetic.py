"""Synthetic corpora and knowledge graphs for tests and demos.

`separable_instances` builds a labeled instance set a classifier can
drive to 100% training accuracy: positive instances carry an unambiguous
trigger token, negatives a different one, and each class gets its own
relation signature in the toy KB.
"""

from __future__ import annotations

import numpy as np

from .corpus import (CandidateInstance, Document, LABEL_NEGATIVE,
                     LABEL_POSITIVE, Mention, sorted_pair)
from .kb import KnowledgeStore, Triple, init_embeddings
from .model import WordTable


def toy_documents() -> list[Document]:
    """A handful of documents exercising windowing, masking and labeling."""
    docs = [
        Document(
            doc_id="D1",
            sentences=[["A", "B", "P1", "C", "D", "42", "P2", "E", "F", "G"]],
            mentions=[Mention("G1", 0, (2, 3)), Mention("G2", 0, (6, 7))],
            gold_relations={sorted_pair("G1", "G2")},
        ),
        Document(
            doc_id="D2",
            sentences=[
                ["P1", "binds", "the", "XYZ", "kinase", "complex", "*"],
                ["it", "also", "regulates", "P3", "(", "strongly", ")"],
                ["no", "mentions", "here"],
                ["far", "away", "P4", "sits", "alone"],
            ],
            mentions=[
                Mention("G1", 0, (0, 1)),
                Mention("G3", 0, (3, 5)),   # two-token mention
                Mention("G4", 1, (3, 4)),
                Mention("G5", 3, (2, 3)),   # 3 sentences from G1: filtered
            ],
            gold_relations={sorted_pair("G1", "G4")},
        ),
        Document(
            doc_id="D3",
            sentences=[["only", "one", "P9", "mention", "7%", "here"]],
            mentions=[Mention("G9", 0, (2, 3))],
            gold_relations=set(),
        ),
    ]
    return docs


def separable_instances(n: int = 40, length: int = 6, seed: int = 0
                        ) -> list[CandidateInstance]:
    """n labeled instances, half positive, linearly separable by a trigger
    token ('binds' vs 'ignores')."""
    rng = np.random.default_rng(seed)
    filler = ["the", "protein", "complex", "cell", "assay", "level",
              "study", "result"]
    out = []
    for i in range(n):
        positive = i % 2 == 0
        trigger = "binds" if positive else "ignores"
        tokens = [str(filler[rng.integers(len(filler))])
                  for _ in range(length - 1)]
        tokens.insert(int(rng.integers(length - 1)), trigger)
        pos1 = list(range(1, length + 1))
        pos2 = list(range(length, 0, -1))
        pair = (f"E{2 * i}", f"E{2 * i + 1}")
        out.append(CandidateInstance(
            doc_id=f"doc{i}", pair=pair, tokens=tokens,
            pos1=pos1, pos2=pos2,
            label=LABEL_POSITIVE if positive else LABEL_NEGATIVE))
    return out


def kb_for_instances(instances: list[CandidateInstance], d_kb: int,
                     seed: int = 0) -> KnowledgeStore:
    """Toy KB giving positive pairs one relation and negative pairs another."""
    triples = []
    for inst in instances:
        rel = "activates" if inst.label == LABEL_POSITIVE else "unrelated_to"
        triples.append(Triple(inst.pair[0], rel, inst.pair[1]))
    return init_embeddings(triples, d_kb=d_kb, seed=seed)


def separable_task(n: int = 40, d: int = 16, seed: int = 0
                   ) -> tuple[list[CandidateInstance], KnowledgeStore, WordTable]:
    """Instances + KB + word table for the overfit check.

    The two trigger tokens get strong opposite vectors (the position
    encodings are O(1), so weak word vectors would drown); everything
    else is small noise. Separable with a wide margin for any seed.
    """
    instances = separable_instances(n=n, seed=seed)
    store = kb_for_instances(instances, d_kb=d, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    vocab = sorted({t for inst in instances for t in inst.tokens})
    vectors = {tok: rng.normal(0.0, 0.1, size=d) for tok in vocab}
    signature = rng.choice([-1.0, 1.0], size=d) / np.sqrt(d)
    vectors["binds"] = 2.0 * signature
    vectors["ignores"] = -2.0 * signature
    table = WordTable(vectors, d, unk=np.zeros(d))
    return instances, store, table


def toy_knowledge_graph() -> list[Triple]:
    """4 entities on a square, 2 relation types as the edge directions.

    Exactly satisfiable by translations (r1 = one side, r2 = the other),
    so a correct trainer drives true-triple energies well below corrupted
    ones.
    """
    return [
        Triple("e1", "r1", "e2"),
        Triple("e4", "r1", "e3"),
        Triple("e1", "r2", "e4"),
        Triple("e2", "r2", "e3"),
    ]
