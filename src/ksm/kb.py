"""Knowledge-base embeddings: TransE training and pair -> relation lookup.

Entities and relation labels from (head, relation, tail) triples are
embedded in R^d_kb so that head + relation ~= tail. Entity vectors are
initialized as the mean word vector of the entity's mention words,
relation vectors from N(0, 1/d_kb); a trainable zero-initialized
null-relation vector stands in for pairs absent from the KB.

Training minimizes the margin ranking loss
    max(0, margin + E(h,r,t) - E(h',r,t'))
over uniformly corrupted triples (head or tail replaced with probability
0.5 each), with entity vectors projected into the unit ball after every
epoch. E is the L2 norm of h + r - t. Everything is plain numpy with
analytic gradients; runs are deterministic given the seed.

Training is single-threaded; a trained store's tables are read-only and
safe for concurrent lookups (the fallback counters in `stats` are
best-effort bookkeeping, not synchronization).
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)


class KBError(Exception):
    pass


class Triple(NamedTuple):
    head: str
    relation: str
    tail: str


class PairKnowledge(NamedTuple):
    e1: np.ndarray
    e2: np.ndarray
    er: np.ndarray
    er_is_null: bool
    e1_is_fallback: bool
    e2_is_fallback: bool


@dataclass
class KnowledgeStore:
    entity_table: dict[str, np.ndarray]
    relation_table: dict[str, np.ndarray]
    null_relation: np.ndarray
    d_kb: int
    # sorted unordered pair -> relation labels of matching triples, both orders pooled
    pair_relations: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    relation_pool: str = "mean"  # or "first" (lowest relation label)
    word_table: dict[str, np.ndarray] | None = None
    mention_lexicon: dict[str, list[str]] | None = None
    stats: Counter = field(default_factory=Counter)

    def index_triples(self, triples: list[Triple]) -> None:
        self.pair_relations = {}
        for h, r, t in triples:
            key = (h, t) if h <= t else (t, h)
            self.pair_relations.setdefault(key, []).append(r)


def _entity_vector_from_mentions(entity_id: str,
                                 word_table: dict[str, np.ndarray] | None,
                                 mention_lexicon: dict[str, list[str]] | None,
                                 d_kb: int,
                                 rng: np.random.Generator) -> np.ndarray:
    words = (mention_lexicon or {}).get(entity_id, [])
    vecs = [word_table[w] for w in words if word_table and w in word_table]
    if vecs:
        return np.mean(vecs, axis=0).astype(np.float64)
    return rng.uniform(-0.5 / d_kb, 0.5 / d_kb, size=d_kb)


def init_embeddings(triples: list[Triple],
                    word_table: dict[str, np.ndarray] | None = None,
                    mention_lexicon: dict[str, list[str]] | None = None,
                    d_kb: int = 100,
                    seed: int = 0) -> KnowledgeStore:
    """Build a KnowledgeStore for the entities/relations in `triples`.

    Entity vectors average the word vectors of the entity's mention words
    (unknown words skipped; all unknown -> small uniform random). Relation
    vectors are N(0, 1/d_kb); the null relation starts at zero.
    """
    if not triples:
        raise KBError("init_embeddings: empty triple set")
    if word_table:
        d_words = len(next(iter(word_table.values())))
        if d_words != d_kb:
            raise KBError(
                f"word embedding dim {d_words} != d_kb {d_kb}")
    rng = np.random.default_rng(seed)
    entities = sorted({t.head for t in triples} | {t.tail for t in triples})
    relations = sorted({t.relation for t in triples})
    entity_table = {
        eid: _entity_vector_from_mentions(eid, word_table, mention_lexicon,
                                          d_kb, rng)
        for eid in entities
    }
    relation_table = {
        r: rng.normal(0.0, np.sqrt(1.0 / d_kb), size=d_kb) for r in relations
    }
    store = KnowledgeStore(
        entity_table=entity_table, relation_table=relation_table,
        null_relation=np.zeros(d_kb), d_kb=d_kb,
        word_table=word_table, mention_lexicon=mention_lexicon)
    store.index_triples(triples)
    return store


def transe_energy(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> float:
    """L2 norm of h + r - t."""
    h, r, t = np.asarray(h), np.asarray(r), np.asarray(t)
    if not h.shape == r.shape == t.shape:
        raise KBError(
            f"transe_energy: dimension mismatch {h.shape}/{r.shape}/{t.shape}")
    return float(np.linalg.norm(h + r - t))


def _project_unit_ball(table: dict[str, np.ndarray]) -> None:
    for eid, v in table.items():
        norm = np.linalg.norm(v)
        if norm > 1.0:
            table[eid] = v / norm


def transe_train(triples: list[Triple], store: KnowledgeStore,
                 margin: float = 1.0, epochs: int = 100, lr: float = 0.01,
                 seed: int = 0) -> list[float]:
    """Margin-ranking SGD over corrupted triples; returns per-epoch mean loss.

    Corruption replaces the head or the tail (probability 0.5 each) with a
    uniformly drawn entity. Entity vectors are projected into the unit
    ball after each epoch. Zero epochs leave the store untouched.
    """
    if margin <= 0:
        raise KBError(f"margin must be positive, got {margin}")
    entities = sorted(store.entity_table)
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        for i in order:
            h_id, r_id, t_id = triples[i]
            if rng.random() < 0.5:
                corrupt_head = True
                c_id = entities[rng.integers(len(entities))]
                neg = (c_id, r_id, t_id)
            else:
                corrupt_head = False
                c_id = entities[rng.integers(len(entities))]
                neg = (h_id, r_id, c_id)
            h = store.entity_table[h_id]
            r = store.relation_table[r_id]
            t = store.entity_table[t_id]
            hn = store.entity_table[neg[0]]
            tn = store.entity_table[neg[2]]

            d_pos = h + r - t
            d_neg = hn + r - tn
            e_pos = np.linalg.norm(d_pos)
            e_neg = np.linalg.norm(d_neg)
            loss = margin + e_pos - e_neg
            if loss <= 0:
                continue
            total += loss
            g_pos = d_pos / e_pos if e_pos > 0 else np.zeros_like(d_pos)
            g_neg = d_neg / e_neg if e_neg > 0 else np.zeros_like(d_neg)
            # d loss / d h = +g_pos, / d t = -g_pos, / d r = g_pos - g_neg,
            # corrupted entities get the -(d e_neg) side
            store.entity_table[h_id] = h - lr * g_pos
            store.entity_table[t_id] = store.entity_table[t_id] + lr * g_pos
            store.relation_table[r_id] = r - lr * (g_pos - g_neg)
            if corrupt_head:
                store.entity_table[neg[0]] = store.entity_table[neg[0]] + lr * g_neg
                store.entity_table[t_id] = store.entity_table[t_id] - lr * g_neg
            else:
                store.entity_table[h_id] = store.entity_table[h_id] + lr * g_neg
                store.entity_table[neg[2]] = store.entity_table[neg[2]] - lr * g_neg
        _project_unit_ball(store.entity_table)
        losses.append(total / max(1, len(triples)))
    return losses


def mean_energies(triples: list[Triple], store: KnowledgeStore,
                  seed: int = 0) -> tuple[float, float]:
    """(mean energy of the given triples, mean energy of corrupted copies)."""
    rng = np.random.default_rng(seed)
    entities = sorted(store.entity_table)
    true_e, corrupt_e = [], []
    for h, r, t in triples:
        true_e.append(transe_energy(store.entity_table[h],
                                    store.relation_table[r],
                                    store.entity_table[t]))
        if rng.random() < 0.5:
            c = (entities[rng.integers(len(entities))], r, t)
        else:
            c = (h, r, entities[rng.integers(len(entities))])
        corrupt_e.append(transe_energy(store.entity_table[c[0]],
                                       store.relation_table[r],
                                       store.entity_table[c[2]]))
    return float(np.mean(true_e)), float(np.mean(corrupt_e))


def tail_rank(store: KnowledgeStore, h_id: str, r_id: str, t_id: str) -> int:
    """1-based rank of the true tail among all entities by energy."""
    h = store.entity_table[h_id]
    r = store.relation_table[r_id]
    target = transe_energy(h, r, store.entity_table[t_id])
    better = sum(
        1 for eid, v in store.entity_table.items()
        if eid != t_id and transe_energy(h, r, v) < target)
    return better + 1


def _entity_seed(entity_id: str) -> int:
    """A seed fixed by the id alone (unlike hash(), whatever PYTHONHASHSEED)."""
    digest = hashlib.sha256(entity_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def resolve_pair_knowledge(store: KnowledgeStore, e_id1: str,
                           e_id2: str) -> PairKnowledge:
    """Entity and relation vectors for an unordered pair, with fallbacks.

    Entities missing from the table fall back to the mention-word average
    (the init rule), or without mention words to a uniform draw seeded from
    a digest of the entity id, so the vector depends on the id alone; pairs
    with no KB triple in either direction get the null-relation vector.
    Fallbacks are silent but counted in store.stats.
    """
    def entity_vec(eid: str) -> tuple[np.ndarray, bool]:
        if eid in store.entity_table:
            return store.entity_table[eid], False
        store.stats["entity_fallback"] += 1
        rng = np.random.default_rng(_entity_seed(eid))
        return _entity_vector_from_mentions(
            eid, store.word_table, store.mention_lexicon, store.d_kb, rng), True

    e1, f1 = entity_vec(e_id1)
    e2, f2 = entity_vec(e_id2)
    key = (e_id1, e_id2) if e_id1 <= e_id2 else (e_id2, e_id1)
    labels = store.pair_relations.get(key, [])
    if not labels:
        store.stats["null_relation"] += 1
        return PairKnowledge(e1, e2, store.null_relation, True, f1, f2)
    if store.relation_pool == "first":
        er = store.relation_table[min(labels)]
    else:
        er = np.mean([store.relation_table[r] for r in labels], axis=0)
    return PairKnowledge(e1, e2, er, False, f1, f2)


# ---------------------------------------------------------------------------
# file formats


def read_triples(path) -> list[Triple]:
    """Unique triples from a head<TAB>relation<TAB>tail file."""
    seen = set()
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(p for p in parts):
                raise KBError(
                    f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
            trip = Triple(*parts)
            if trip not in seen:
                seen.add(trip)
                out.append(trip)
    return out


def write_embeddings(path, table: dict[str, np.ndarray]) -> None:
    """Text format: first line `count dim`, then `id v1 ... v_d` per line."""
    items = list(table.items())
    dim = len(items[0][1]) if items else 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(items)} {dim}\n")
        for key, vec in items:
            f.write(key + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def read_embeddings(path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise KBError(f"{path}:1: expected header `count dim`")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as e:
            raise KBError(f"{path}:1: non-integer header") from e
        table: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise KBError(
                    f"{path}:{lineno}: expected id + {dim} values, "
                    f"got {len(parts) - 1}")
            table[parts[0]] = np.array([float(x) for x in parts[1:]])
    if len(table) != count:
        logger.warning("%s: header count %d != %d rows read",
                       path, count, len(table))
    return table


_NULL_RELATION_KEY = "__null__"


def save_store(store: KnowledgeStore, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_embeddings(d / "entities.txt", store.entity_table)
    relations = dict(store.relation_table)
    relations[_NULL_RELATION_KEY] = store.null_relation
    write_embeddings(d / "relations.txt", relations)
    with open(d / "pairs.tsv", "w", encoding="utf-8", newline="\n") as f:
        for (a, b), labels in sorted(store.pair_relations.items()):
            f.write("\t".join([a, b] + labels) + "\n")


def load_store(directory) -> KnowledgeStore:
    d = Path(directory)
    entities = read_embeddings(d / "entities.txt")
    relations = read_embeddings(d / "relations.txt")
    null = relations.pop(_NULL_RELATION_KEY, None)
    d_kb = len(next(iter(entities.values()))) if entities else 0
    store = KnowledgeStore(
        entity_table=entities, relation_table=relations,
        null_relation=null if null is not None else np.zeros(d_kb),
        d_kb=d_kb)
    pairs_path = d / "pairs.tsv"
    if pairs_path.exists():
        with open(pairs_path, encoding="utf-8") as f:
            for line in f:
                parts = line.rstrip("\n").split("\t")
                if len(parts) >= 2:
                    store.pair_relations[(parts[0], parts[1])] = parts[2:]
    return store
