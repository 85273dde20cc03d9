"""Knowledge-base embeddings: TransE training and pair -> relation lookup.

Entities and relation labels from (head, relation, tail) triples are
embedded in R^d_kb so that head + relation ~= tail. Entity vectors are
initialized as the mean word vector of the entity's mention words,
relation vectors from N(0, 1/d_kb). An entity missing from the store
resolves to a small uniform draw seeded by its id, so its vector is the
same in memory and after a save and load. A pair absent from the KB
resolves to no relation vector; the model's trainable null relation stands
in for it.

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

Stores and parsed word tables are kept in one format, a checkpoint file
(`checkpoint.py`): `ksm train-kb` saves a store as one with no parameters
and no word rows, and `read_embeddings` caches a parsed word table as one
with no parameters and an empty store.
"""

from __future__ import annotations

import hashlib
import logging
import os
import stat
import zlib
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .autodiff import ParameterStore
from .inputs import InputError, records, text_lines

logger = logging.getLogger(__name__)


class Triple(NamedTuple):
    head: str
    relation: str
    tail: str


class PairKnowledge(NamedTuple):
    e1: np.ndarray
    e2: np.ndarray
    er: np.ndarray | None  # None when the pair has no KB relation
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
    d_kb: int
    # sorted unordered pair -> relation labels of matching triples, both orders pooled
    pair_relations: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    stats: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:  # any mapping becomes an Embeddings
        try:
            self.entity_table = Embeddings.of(self.entity_table, self.d_kb)
            self.relation_table = Embeddings.of(self.relation_table, self.d_kb)
        except ValueError as e:
            raise InputError(f"KnowledgeStore with d_kb {self.d_kb}: "
                             f"{e}") from None


def sorted_pair(a: str, b: str) -> tuple[str, str]:
    """The key of the unordered pair {a, b}."""
    return (a, b) if a <= b else (b, a)


def index_pairs(rows) -> dict[tuple[str, str], list[str]]:
    """The pair map of (a, b, labels) rows: each pair's labels, in order."""
    pairs: dict[tuple[str, str], list[str]] = {}
    for a, b, labels in rows:
        pairs.setdefault(sorted_pair(a, b), []).extend(labels)
    return pairs


def init_embeddings(triples: list[Triple],
                    word_table: Mapping[str, np.ndarray] | None = None,
                    mention_lexicon: dict[str, list[str]] | None = None,
                    d_kb: int = 100,
                    seed: int = 0) -> KnowledgeStore:
    """Build a KnowledgeStore for the entities/relations in `triples`.

    Entity vectors average the word vectors of the entity's mention words
    (unknown words skipped; all unknown -> small uniform random). Relation
    vectors are N(0, 1/d_kb).
    """
    if not triples:
        raise InputError("init_embeddings: empty triple set")
    if d_kb < 1:
        raise InputError(f"init_embeddings: d_kb must be >= 1, got {d_kb}")
    if word_table:
        d_words = len(next(iter(word_table.values())))
        if d_words != d_kb:
            raise InputError(f"word embedding dim {d_words} != d_kb {d_kb}")
    rng = np.random.default_rng(seed)
    entities = sorted({t.head for t in triples} | {t.tail for t in triples})
    relations = sorted({t.relation for t in triples})
    lexicon = mention_lexicon or {}

    def entity_vector(eid: str) -> np.ndarray:
        vecs = [word_table[w] for w in lexicon.get(eid, [])
                if word_table and w in word_table]
        if vecs:
            return np.mean(vecs, axis=0).astype(np.float64)
        return rng.uniform(-0.5 / d_kb, 0.5 / d_kb, size=d_kb)

    entity_table = {eid: entity_vector(eid) for eid in entities}
    relation_table = {
        r: rng.normal(0.0, np.sqrt(1.0 / d_kb), size=d_kb) for r in relations
    }
    return KnowledgeStore(entity_table, relation_table, d_kb, index_pairs(
        (h, t, (r,)) for h, r, t in triples))


def transe_energy(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> float:
    """L2 norm of h + r - t."""
    h, r, t = np.asarray(h), np.asarray(r), np.asarray(t)
    if not h.shape == r.shape == t.shape:
        raise InputError(
            f"transe_energy: dimension mismatch {h.shape}/{r.shape}/{t.shape}")
    return float(np.linalg.norm(h + r - t))


_BATCH = 256  # triples per minibatch; 128 and 512 run within ~10% of it,
# and the per-batch temporaries that set peak memory grow with it


def _triple_rows(triples: list[Triple], store: KnowledgeStore) -> np.ndarray:
    """(n, 3) head/relation/tail rows of the store's tables.

    InputError on an unknown id, and on triples over fewer than 2 entities,
    where no triple can be corrupted.
    """
    e_row, r_row = store.entity_table.index, store.relation_table.index
    if triples and len(e_row) < 2:
        raise InputError(f"{len(triples)} triple(s) over {len(e_row)} "
                         f"entities: corruption needs at least 2")
    rows = np.empty((len(triples), 3), dtype=np.intp)
    for i, (h, r, t) in enumerate(triples):
        try:
            rows[i] = e_row[h], r_row[r], e_row[t]
        except KeyError as missing:
            raise InputError(f"triple {i} ({h}, {r}, {t}): {missing} is "
                             f"not in the store") from None
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
    every epoch has finished. InputError is raised, with the store
    untouched, for a margin that is not finite and positive, an lr that is
    not finite and nonnegative, a triple naming an entity or relation
    missing from the store, triples over fewer than 2 entities, a negative
    number of epochs and a loss or parameter that turns non-finite. Zero
    epochs leave the store untouched.
    """
    if epochs < 0:
        raise InputError(f"epochs must be >= 0, got {epochs}")
    if not (np.isfinite(margin) and margin > 0):
        raise InputError(f"margin must be finite and positive, got {margin}")
    if not (np.isfinite(lr) and lr >= 0):
        raise InputError(f"lr must be finite and nonnegative, got {lr}")
    rows = _triple_rows(triples, store)
    if epochs == 0:
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
            raise InputError(f"TransE epoch {epoch}: non-finite loss or "
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

    An entity missing from the table falls back to a uniform draw in
    +-0.5/d_kb seeded from a digest of the entity id, so the vector depends
    on the id alone. `er` is the mean relation of the pair's triples,
    either way round, or None (and `er_is_null`) without any. Fallbacks are
    counted in store.stats.
    """
    def entity_vec(eid: str) -> tuple[np.ndarray, bool]:
        if eid in store.entity_table:
            return store.entity_table[eid], False
        store.stats["entity_fallback"] += 1
        rng = np.random.default_rng(_entity_seed(eid))
        lim = 0.5 / store.d_kb
        return rng.uniform(-lim, lim, size=store.d_kb), True

    e1, f1 = entity_vec(e_id1)
    e2, f2 = entity_vec(e_id2)
    labels = store.pair_relations.get(sorted_pair(e_id1, e_id2), [])
    if not labels:
        store.stats["null_relation"] += 1
        return PairKnowledge(e1, e2, None, True, f1, f2)
    table = store.relation_table
    er = table.matrix[[table.index[r] for r in labels]].mean(axis=0)
    return PairKnowledge(e1, e2, er, False, f1, f2)


# ---------------------------------------------------------------------------
# file formats

def _triple(line: str) -> Triple:
    if len(parts := line.split("\t")) != 3 or not all(parts):
        raise InputError("expected head<TAB>relation<TAB>tail")
    return Triple(*parts)


def read_triples(path) -> list[Triple]:
    """Unique triples from a head<TAB>relation<TAB>tail file, in file order.
    InputError at the line for one without three nonempty fields."""
    return list(dict.fromkeys(records(path, _triple)))


def write_embeddings(path, table: Mapping[str, np.ndarray]) -> None:
    """Text format: first line `count dim`, then `id v1 ... v_d` per line."""
    items = list(table.items())
    dim = (table.matrix.shape[1] if isinstance(table, Embeddings)
           else len(items[0][1]) if items else 0)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(items)} {dim}\n")
        for key, vec in items:
            f.write(key + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def read_embeddings(path) -> Embeddings:
    """Read the text format of `write_embeddings` straight into one matrix.
    InputError at the file and line for a bad header, a line that is not
    UTF-8, a row of the wrong width, and a value that is not a finite
    number, also on a line whose id repeats later (a repeated id keeps its
    first position and its last row).

    A file's bytes are parsed once: the parsed table is then kept in a
    hidden sidecar beside the file (``.name.ksm-cache.ckpt``) that holds the
    SHA-256 of the bytes it was parsed from, and every later read of the
    same bytes loads it instead. A sidecar is trusted only whole (see
    `_read_sidecar`) and is rebuilt otherwise; it is written only for a
    file that parsed cleanly and did not change while it was parsed, and
    a sidecar that cannot be written is skipped. Only a sidecar owned by
    the file's owner or by the reader is trusted, so in a shared directory
    another user cannot plant one. Anything but a regular file (a pipe, a
    FIFO, a terminal), which can be read only once, is parsed every time,
    and so is a file in a directory the reader cannot write that holds no
    sidecar: neither is hashed.
    """
    sidecar = _sidecar_path(path)
    st = os.stat(path)
    # Only a regular file is hashed, and only where a sidecar can be read
    # or written. The type is decided before the file is opened: opening a
    # FIFO connects to its writer, and closing it unread would leave no
    # writer for the parse.
    hashed = stat.S_ISREG(st.st_mode) and (
        os.path.lexists(sidecar) or os.access(sidecar.parent, os.W_OK))
    digest = _content_digest(path) if hashed else None
    cached = digest and _read_sidecar(sidecar, digest,
                                      owners={st.st_uid, os.getuid()})
    if cached:
        table, count = cached
    else:
        table, count = _parse_embeddings(path)
        if digest and _content_digest(path) == digest:
            _write_sidecar(sidecar, digest, count, table)
    if len(table) != count:
        logger.warning("%s: header count %d != %d rows read",
                       path, count, len(table))
    return table


def _parse_embeddings(path) -> tuple[Embeddings, int]:
    """The table of an embedding text file and its header count. The
    matrix is sized from the rows read, never from the header alone."""
    lines = text_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        raise InputError("expected header `count dim`", path, 1)
    try:
        count, dim = int(header[0]), int(header[1])
        matrix = np.empty((0, dim))  # a row per line, grown by doubling
    except ValueError as e:
        raise InputError("count and dim must be integers, dim >= 0",
                         path, 1) from e
    ids, linenos = [], []
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != dim + 1:
            raise InputError(f"expected id + {dim} values, got "
                             f"{len(parts) - 1}", path, lineno)
        if len(ids) == len(matrix):
            matrix = np.concatenate(
                [matrix, np.empty((max(16, len(matrix)), dim))])
        try:
            matrix[len(ids)] = parts[1:]
        except ValueError as e:
            raise InputError(str(e), path, lineno) from e
        ids.append(parts[0])
        linenos.append(lineno)
    finite = np.isfinite(matrix[:len(ids)]).all(axis=1)
    if not finite.all():
        raise InputError("non-finite value", path,
                         linenos[int(np.argmin(finite))])
    last = {key: row for row, key in enumerate(ids)}
    return Embeddings(list(last), matrix[list(last.values())]), count


# The embedding sidecar is a checkpoint file of the parsed table, whose config
# holds its "d", header "count", the text's "sha256", "version" and "crc32"
_SIDECAR_SUFFIX = ".ksm-cache.ckpt"
_SIDECAR_VERSION = 1  # bump whenever the table parsed from given bytes changes
_DIGEST_CHUNK = 1 << 16  # bytes hashed per read, so memory stays flat


def _sidecar_path(path) -> Path:
    """Where `read_embeddings` keeps the parsed table of `path`."""
    path = Path(path)
    return path.with_name(f".{path.name}{_SIDECAR_SUFFIX}")


def _content_digest(path) -> str:
    """Hex SHA-256 of a file's bytes."""
    with open(path, "rb") as f:
        h = hashlib.sha256()
        while chunk := f.read(_DIGEST_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def _table_crc(table: Embeddings) -> int:
    """CRC-32 of a table's newline-joined ids and its "<f8" rows."""
    crc = zlib.crc32("\n".join(table.ids).encode("utf-8"))
    return zlib.crc32(table.matrix.astype("<f8", copy=False), crc)


def _read_sidecar(sidecar: Path, digest: str,
                  owners: set[int]) -> tuple[Embeddings, int] | None:
    """The table and header count a sidecar holds for the file of `digest`,
    or None unless it is a regular file a uid in `owners` owns, it is a
    checkpoint file, and its digest, version and CRC match. Nothing is
    memory-mapped: the rows are writable."""
    from .checkpoint import read_checkpoint
    try:
        # non-blocking: a FIFO under the sidecar's name opens at once, and
        # is refused, instead of waiting for a writer
        with open(os.open(sidecar, os.O_RDONLY | os.O_NONBLOCK), "rb") as f:
            st = os.fstat(f.fileno())
            if not stat.S_ISREG(st.st_mode) or st.st_uid not in owners:
                raise InputError("not a regular file of the file's owner "
                                 "or the reader", sidecar)
            _, config, table, _ = read_checkpoint(f, sidecar)
        if (config.get("sha256") != digest
                or config.get("version") != _SIDECAR_VERSION
                or type(count := config.get("count")) is not int
                or config.get("crc32") != _table_crc(table)):
            raise InputError("another digest, version, count or CRC",
                             sidecar)
        return table, count
    except FileNotFoundError:
        return None
    except (OSError, InputError) as e:
        logger.debug("sidecar ignored: %s", e)
        return None


def _write_sidecar(sidecar: Path, digest: str, count: int,
                   table: Embeddings) -> None:
    """Write the sidecar as a checkpoint, atomically and synced to disk; an
    OSError or InputError (a table 0 wide) is logged, not raised."""
    from .checkpoint import save_checkpoint
    d = table.matrix.shape[1]
    config = {"d": d, "count": count, "sha256": digest,
              "version": _SIDECAR_VERSION, "crc32": _table_crc(table)}
    try:
        save_checkpoint(sidecar, ParameterStore(), table,
                        KnowledgeStore({}, {}, d), config)
    except (OSError, InputError) as e:
        logger.debug("%s: not written (%s)", sidecar, e)
