"""Knowledge-base embeddings: TransE training and pair -> relation lookup.

Entities and relation labels from (head, relation, tail) triples are
embedded in R^d_kb so that head + relation ~= tail. Entity vectors are
initialized as the mean word vector of the entity's mention words,
relation vectors from N(0, 1/d_kb); a trainable zero-initialized
null-relation vector stands in for pairs absent from the KB.

Training minimizes the margin ranking loss
    max(0, margin + E(h,r,t) - E(h',r,t'))
over corrupted triples (head or tail replaced, with probability 0.5
each, by a uniform draw from the other entities) by minibatched SGD
(Bordes et al. 2013): in each minibatch of 256 triples every gradient is
taken at the batch-start parameters and each triple with an active hinge
steps by lr times its own gradient. Entity vectors are projected into the
unit ball after every epoch. E is the L2 norm of h + r - t. Everything is
plain numpy with analytic gradients on index arrays; runs are
deterministic given the seed.

Entity, relation and word vectors are each one `Embeddings` matrix. Training
is single-threaded and swaps in trained copies of the matrices at its end, so
a concurrent lookup reads each matrix whole (the fallback counters in `stats`
are best-effort bookkeeping, not synchronization).
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
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


class Embeddings(Mapping[str, np.ndarray]):
    """A fixed, ordered set of ids over one C-contiguous (n, d) float64 matrix.

    `table[id]` is that id's row, a view into `matrix`; assigning a vector
    of the table's width to a known id writes its row (ValueError for another
    shape). The id set never changes: an unknown id raises KeyError on
    both. Iteration and `items()` follow row order, and `index` maps each id
    to its row.
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        self.ids = list(ids)
        self.index = {k: i for i, k in enumerate(self.ids)}
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or not (
                len(self.matrix) == len(self.index) == len(self.ids)):
            raise ValueError(f"{len(self.ids)} ids ({len(self.index)} unique)"
                             f" over a matrix of shape {self.matrix.shape}")

    @classmethod
    def of(cls, vectors: Mapping[str, np.ndarray], d: int) -> "Embeddings":
        """The table of `vectors`, in its order (an `Embeddings` of width d
        is returned as it is). ValueError for a vector that is not 1-D of
        width d."""
        if isinstance(vectors, cls) and vectors.matrix.shape[1] == d:
            return vectors
        matrix = np.empty((len(vectors), d))
        for row, (key, vec) in zip(matrix, vectors.items()):
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (d,):
                raise ValueError(f"{key!r} has shape {vec.shape}, "
                                 f"expected ({d},)")
            row[:] = vec
        return cls(list(vectors), matrix)

    def __getitem__(self, key: str) -> np.ndarray:
        return self.matrix[self.index[key]]

    def __setitem__(self, key: str, vec) -> None:
        row = self.index[key]
        if np.shape(vec) != self.matrix.shape[1:]:  # never broadcast
            raise ValueError(f"{key!r}: shape {np.shape(vec)}, "
                             f"table width {self.matrix.shape[1]}")
        self.matrix[row] = vec

    def __contains__(self, key) -> bool:
        return key in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class KnowledgeStore:
    entity_table: Embeddings
    relation_table: Embeddings
    null_relation: np.ndarray
    d_kb: int
    # sorted unordered pair -> relation labels of matching triples, both orders pooled
    pair_relations: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    relation_pool: str = "mean"  # or "first" (lowest relation label)
    word_table: Mapping[str, np.ndarray] | None = None
    mention_lexicon: dict[str, list[str]] | None = None
    stats: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:  # any mapping becomes an Embeddings
        try:
            self.entity_table = Embeddings.of(self.entity_table, self.d_kb)
            self.relation_table = Embeddings.of(self.relation_table, self.d_kb)
        except ValueError as e:
            raise KBError(f"KnowledgeStore with d_kb {self.d_kb}: {e}") from None
        if np.shape(self.null_relation) != (self.d_kb,):
            raise KBError(f"null_relation has shape "
                          f"{np.shape(self.null_relation)}, d_kb is {self.d_kb}")

    def index_triples(self, triples: list[Triple]) -> None:
        self.pair_relations = {}
        for h, r, t in triples:
            key = (h, t) if h <= t else (t, h)
            self.pair_relations.setdefault(key, []).append(r)


def _entity_vector_from_mentions(entity_id: str,
                                 word_table: Mapping[str, np.ndarray] | None,
                                 mention_lexicon: dict[str, list[str]] | None,
                                 d_kb: int,
                                 rng: np.random.Generator) -> np.ndarray:
    words = (mention_lexicon or {}).get(entity_id, [])
    vecs = [word_table[w] for w in words if word_table and w in word_table]
    if vecs:
        return np.mean(vecs, axis=0).astype(np.float64)
    return rng.uniform(-0.5 / d_kb, 0.5 / d_kb, size=d_kb)


def init_embeddings(triples: list[Triple],
                    word_table: Mapping[str, np.ndarray] | None = None,
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


_BATCH = 256  # triples per minibatch; 128 and 512 run within ~10% of it,
# and the per-batch temporaries that set peak memory grow with it


def _triple_rows(triples: list[Triple], store: KnowledgeStore) -> np.ndarray:
    """(n, 3) head/relation/tail rows of the store's tables.

    KBError on an unknown id, and on triples over fewer than 2 entities,
    where no triple can be corrupted.
    """
    e_row, r_row = store.entity_table.index, store.relation_table.index
    if triples and len(e_row) < 2:
        raise KBError(f"{len(triples)} triple(s) over {len(e_row)} "
                      f"entities: corruption needs at least 2")
    rows = np.empty((len(triples), 3), dtype=np.intp)
    for i, (h, r, t) in enumerate(triples):
        try:
            rows[i] = e_row[h], r_row[r], e_row[t]
        except KeyError as missing:
            raise KBError(f"triple {i} ({h}, {r}, {t}): {missing} is not "
                          f"in the store") from None
    return rows


def _corrupt(rng: np.random.Generator, h: np.ndarray, t: np.ndarray,
             n_entities: int) -> tuple[np.ndarray, np.ndarray]:
    """Corrupted head and tail rows: with probability 0.5 each the head or
    the tail is replaced by a uniform draw from the n_entities - 1 others."""
    corrupt_head = rng.random(len(h)) < 0.5
    drawn = rng.integers(n_entities - 1, size=len(h))
    drawn += drawn >= np.where(corrupt_head, h, t)
    return np.where(corrupt_head, drawn, h), np.where(corrupt_head, t, drawn)


def _steps(d: np.ndarray, norm: np.ndarray, lr: float) -> np.ndarray:
    """lr times each row of d over its norm, in place; zero-norm rows give 0."""
    d *= np.divide(lr, norm, out=np.zeros_like(norm), where=norm > 0)[:, None]
    return d


def _flat(rows: np.ndarray, d: int) -> np.ndarray:
    """Flat indices of every element of `rows` in a C-contiguous (n, d) table.

    Updates go through `np.add.at`/`np.subtract.at` on these indices into
    the table's flat view: a repeated row takes every step (fancy-index
    `+=` would keep only the last), and the 2-D `np.add.at` is about 5x
    slower.
    """
    return (rows[:, None] * d + np.arange(d)).ravel()


def _minibatch_step(E: np.ndarray, R: np.ndarray, h, r, t, hn, tn,
                    margin: float, lr: float) -> float:
    """One SGD step over a minibatch, in place; returns its summed hinge.

    Rows h/r/t index the true triples and hn/r/tn their corrupted copies in
    the entity matrix E and relation matrix R. Every energy, hinge and
    gradient is taken at E and R as passed in; each triple with an active
    hinge then takes lr times its own gradient, so a row shared by several
    triples gets all of their steps.
    """
    rel = R[r]
    d_pos = E[h]
    d_pos += rel
    d_pos -= E[t]
    d_neg = E[hn]
    d_neg += rel
    d_neg -= E[tn]
    del rel  # freeing batch temporaries early keeps the call's peak low
    e_pos = np.linalg.norm(d_pos, axis=1)
    e_neg = np.linalg.norm(d_neg, axis=1)
    loss = margin + e_pos - e_neg
    active = loss > 0
    if not active.any():
        return 0.0
    g_pos = _steps(d_pos[active], e_pos[active], lr).ravel()
    del d_pos
    g_neg = _steps(d_neg[active], e_neg[active], lr).ravel()
    del d_neg
    # loss = margin + |h + r - t| - |hn + r - tn|: descend on both terms
    d = E.shape[1]
    flat_E, flat_R, r_rows = E.reshape(-1), R.reshape(-1), _flat(r[active], d)
    np.subtract.at(flat_E, _flat(h[active], d), g_pos)
    np.add.at(flat_E, _flat(t[active], d), g_pos)
    np.add.at(flat_E, _flat(hn[active], d), g_neg)
    np.subtract.at(flat_E, _flat(tn[active], d), g_neg)
    np.subtract.at(flat_R, r_rows, g_pos)
    np.add.at(flat_R, r_rows, g_neg)
    return float(loss[active].sum())


def transe_train(triples: list[Triple], store: KnowledgeStore,
                 margin: float = 1.0, epochs: int = 100, lr: float = 0.01,
                 seed: int = 0) -> list[float]:
    """Minibatched margin-ranking SGD; returns each epoch's mean hinge loss.

    Each epoch visits the triples in a fresh random order, in minibatches
    of 256, and pairs each with a corrupted copy whose head or tail
    (probability 0.5 each) is a uniform draw from the other entities, so a
    corruption never repeats its true triple. Within a minibatch
    every energy, hinge and gradient is taken at the parameters as they
    stood at the start of the batch; each triple with an active hinge then
    moves its vectors by lr times its own gradient (the steps add up, they
    are not averaged). Entity vectors are projected into the unit ball
    after each epoch. An epoch's loss is the sum of the active hinges over
    the number of triples.

    Copies of the store's two matrices are trained and swapped in when
    every epoch has finished. KBError is raised, with the store untouched,
    for a margin that is not finite and positive, an lr that is not finite
    and nonnegative, a triple naming an entity or relation missing from
    the store, triples over fewer than 2 entities and a loss or parameter
    that turns non-finite. Zero epochs leave the store untouched.
    """
    if not (np.isfinite(margin) and margin > 0):
        raise KBError(f"margin must be finite and positive, got {margin}")
    if not (np.isfinite(lr) and lr >= 0):
        raise KBError(f"lr must be finite and nonnegative, got {lr}")
    rows = _triple_rows(triples, store)
    if epochs <= 0:
        return []
    E = store.entity_table.matrix.copy()
    R = store.relation_table.matrix.copy()
    rng = np.random.default_rng(seed)
    n = len(triples)
    losses = []
    for epoch in range(epochs):
        h, r, t = rows[rng.permutation(n)].T
        hn, tn = _corrupt(rng, h, t, len(E))
        total = 0.0
        for s in range(0, n, _BATCH):
            b = slice(s, s + _BATCH)
            total += _minibatch_step(E, R, h[b], r[b], t[b], hn[b], tn[b],
                                     margin, lr)
        norms = np.linalg.norm(E, axis=1)
        outside = norms > 1.0
        E[outside] /= norms[outside, None]
        if not (np.isfinite(total) and np.isfinite(E).all()
                and np.isfinite(R).all()):
            raise KBError(f"TransE epoch {epoch}: non-finite loss or "
                          f"parameter; store left unchanged")
        losses.append(total / max(1, n))
    store.entity_table.matrix, store.relation_table.matrix = E, R
    return losses


def mean_energies(triples: list[Triple], store: KnowledgeStore,
                  seed: int = 0) -> tuple[float, float]:
    """(mean energy of the given triples, mean energy of corrupted copies).

    Each triple is corrupted once, the way `transe_train` corrupts. The
    energies are taken in minibatches, so temporaries stay batch-sized.
    No triples give (0.0, 0.0).
    """
    h, r, t = _triple_rows(triples, store).T
    E, R = store.entity_table.matrix, store.relation_table.matrix
    hn, tn = _corrupt(np.random.default_rng(seed), h, t, len(E))
    true_e = corrupt_e = 0.0
    for s in range(0, len(h), _BATCH):
        b = slice(s, s + _BATCH)
        rel = R[r[b]]
        true_e += np.linalg.norm(E[h[b]] + rel - E[t[b]], axis=1).sum()
        corrupt_e += np.linalg.norm(E[hn[b]] + rel - E[tn[b]], axis=1).sum()
    n = max(1, len(h))
    return float(true_e / n), float(corrupt_e / n)


def tail_rank(store: KnowledgeStore, h_id: str, r_id: str, t_id: str) -> int:
    """1-based rank of the true tail among all entities by energy.

    Ties go to the true tail: only entities with strictly lower energy rank
    above it. All energies, the true tail's included, come from one
    row-wise norm, so equal vectors always compare equal. KeyError for an
    unknown id.
    """
    table = store.entity_table
    target = table.index[t_id]
    shift = table[h_id] + store.relation_table[r_id]
    energies = np.linalg.norm(shift - table.matrix, axis=1)
    return int(np.count_nonzero(energies < energies[target])) + 1


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
        table = store.relation_table
        er = table.matrix[[table.index[r] for r in labels]].mean(axis=0)
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


def write_embeddings(path, table: Mapping[str, np.ndarray]) -> None:
    """Text format: first line `count dim`, then `id v1 ... v_d` per line."""
    items = list(table.items())
    dim = len(items[0][1]) if items else 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(items)} {dim}\n")
        for key, vec in items:
            f.write(key + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def read_embeddings(path) -> Embeddings:
    """Read the text format of `write_embeddings` straight into one matrix.
    KBError at `file:line` for a bad header, a row of the wrong width, and a
    value that is not a finite number, also on a line whose id repeats later
    (a repeated id keeps its first position and its last row)."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise KBError(f"{path}:1: expected header `count dim`")
        try:
            count, dim = int(header[0]), int(header[1])
            matrix = np.empty((16, dim))  # a row per line, grown by doubling
        except ValueError as e:
            raise KBError(f"{path}:1: count and dim must be integers, "
                          f"dim >= 0") from e
        ids, linenos = [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise KBError(
                    f"{path}:{lineno}: expected id + {dim} values, "
                    f"got {len(parts) - 1}")
            if len(ids) == len(matrix):
                matrix = np.concatenate([matrix, np.empty_like(matrix)])
            try:
                matrix[len(ids)] = parts[1:]
            except ValueError as e:
                raise KBError(f"{path}:{lineno}: {e}") from e
            ids.append(parts[0])
            linenos.append(lineno)
    finite = np.isfinite(matrix[:len(ids)]).all(axis=1)
    if not finite.all():
        raise KBError(f"{path}:{linenos[int(np.argmin(finite))]}: "
                      "non-finite value")
    last = {key: row for row, key in enumerate(ids)}
    if len(last) != count:
        logger.warning("%s: header count %d != %d rows read",
                       path, count, len(last))
    return Embeddings(list(last), matrix[list(last.values())])


_NULL_RELATION_KEY = "__null__"


def save_store(store: KnowledgeStore, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_embeddings(d / "entities.txt", store.entity_table)
    write_embeddings(d / "relations.txt", {
        **store.relation_table, _NULL_RELATION_KEY: store.null_relation})
    with open(d / "pairs.tsv", "w", encoding="utf-8", newline="\n") as f:
        for (a, b), labels in sorted(store.pair_relations.items()):
            f.write("\t".join([a, b] + labels) + "\n")


def load_store(directory) -> KnowledgeStore:
    """Read a directory written by `save_store`.

    KBError, naming the file (and the line of ``pairs.tsv``), for a relation
    or ``__null__`` vector whose width differs from the entity vectors', a
    ``pairs.tsv`` line with fewer than 3 fields, or a pair label missing
    from ``relations.txt``. Pair keys are stored sorted.
    """
    d = Path(directory)
    entities = read_embeddings(d / "entities.txt")
    relations = read_embeddings(d / "relations.txt")
    d_kb = entities.matrix.shape[1] if entities else 0
    if relations and relations.matrix.shape[1] != d_kb:
        raise KBError(f"{d / 'relations.txt'}: width "
                      f"{relations.matrix.shape[1]}, entities.txt has {d_kb}")
    store = KnowledgeStore(
        entity_table=entities,
        relation_table={k: v for k, v in relations.items()
                        if k != _NULL_RELATION_KEY},
        null_relation=relations.get(_NULL_RELATION_KEY, np.zeros(d_kb)),
        d_kb=d_kb)
    pairs_path = d / "pairs.tsv"
    if pairs_path.exists():
        with open(pairs_path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) < 3:
                    raise KBError(f"{pairs_path}:{lineno}: expected "
                                  f"entity<TAB>entity<TAB>relation...")
                a, b, *labels = parts
                unknown = [r for r in labels if r not in store.relation_table]
                if unknown:
                    raise KBError(f"{pairs_path}:{lineno}: relation "
                                  f"{unknown[0]!r} is not in relations.txt")
                key = (a, b) if a <= b else (b, a)
                store.pair_relations.setdefault(key, []).extend(labels)
    return store
