"""Seeded inputs for the benchmark workloads.

Everything here is plain data built from one ``numpy`` generator seeded
by ``--seed``: token windows, documents, word vectors and KB triples. The
program under test only ever sees these generated inputs. ``ksm.synthetic``
builds toy sizes for unit tests; these generators build the paper's sizes
(d=100, windows of about 40 tokens, batches of 64) and the long windows and
dense documents that stress single layers.

Length distributions are stratified: each workload draws its window or
sentence lengths from fixed quantiles of the distribution, jittered
within each stratum by the seed. So two seeds give different tokens,
entities, labels and orderings but nearly the same total work, which keeps
run-to-run spread down without hiding any per-input cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

D = 100  # the paper's word, KB and model width
HOLDOUT_FRACTION = 0.1  # train's held-out split, as in the paper setup

VOCAB_SIZE = 2000
POSITIVE_TRIGGERS = ("binds", "activates", "phosphorylates", "interacts")
NEGATIVE_TRIGGERS = ("unrelated", "independent", "absent")
NUMBER_FORMS = ("12", "3.5", "40%", "-7", "0.25")
SPECIAL_FORMS = ("*", "(", ")", "kinase*", "[", "]")
POSITIVE_RELATIONS = ("interacts_with", "activates", "binds")
NEGATIVE_RELATIONS = ("coexpressed", "paralog_of", "located_with")


def _vocab() -> list[str]:
    return [f"w{k:04d}" for k in range(VOCAB_SIZE)]


def _zipf_probs(n: int) -> np.ndarray:
    p = 1.0 / (np.arange(n) + 10.0)
    return p / p.sum()


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float,
               power: float = 1.0) -> np.ndarray:
    """n integer lengths in [lo, hi]: one per equal-probability stratum of
    ``lo + (hi - lo) * u**power``, jittered within the stratum, shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    lengths = np.rint(lo + (hi - lo) * u ** power).astype(int)
    return rng.permutation(lengths)


def heldout_by_train_rule(doc_id: str, fraction: float) -> bool:
    """The documented ``ksm.train`` split: SHA-1 of doc_id below fraction.

    Used only to pick document ids so that the held-out share is exact;
    the program applies its own rule to whatever ids it receives.
    """
    digest = hashlib.sha1(doc_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 2**32 < fraction


def word_vectors(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Vectors for the vocabulary, the label triggers and the mask tokens.

    Trigger words get strong opposite directions so labels are learnable.
    Tokens outside this table (the ``oov*`` draws) hit the UNK row.
    """
    vectors = {w: rng.normal(0.0, 0.1, size=D)
               for w in _vocab() + ["gene0", "NUMBER"]}
    signature = rng.choice([-1.0, 1.0], size=D) / np.sqrt(D)
    for w in POSITIVE_TRIGGERS:
        vectors[w] = signature + rng.normal(0.0, 0.05, size=D)
    for w in NEGATIVE_TRIGGERS:
        vectors[w] = -signature + rng.normal(0.0, 0.05, size=D)
    return vectors


@dataclass
class WindowProfile:
    """Shape of the labeled-instance workloads (train_paper, predict_long)."""
    n_docs: int
    instances_per_doc: int
    min_len: int
    max_len: int
    length_power: float         # >1 skews lengths toward min_len
    heldout_docs: int           # documents placed in train's held-out split
    entity_pool: int
    unknown_entity_share: float  # entities left out of the KB (fallback)
    kb_miss_share: float        # known pairs given no triple (null relation)
    positive_share: float
    oov_share: float            # tokens missing from the word table
    trigger_share: float        # share of windows carrying a label trigger
    mask_share: float           # gene0 / NUMBER tokens, as preprocess emits


@dataclass
class CorpusProfile:
    """Shape of the raw documents for prepare_corpus."""
    n_docs: int
    sentences: int
    min_sentence_len: int
    max_sentence_len: int
    mentions: int
    entities: int
    gold_pairs: int
    two_token_mention_share: float
    number_share: float
    special_share: float


@dataclass
class KBProfile:
    """Shape of the knowledge graph for prepare_kb."""
    entity_groups: int
    entities_per_group: int
    relations: int
    triples: int
    lexicon_share: float        # entities whose init averages mention words
    epochs: int                 # TransE epochs per measured call


@dataclass
class Window:
    doc_id: str
    pair: tuple[str, str]
    tokens: list[str]
    pos1: list[int]
    pos2: list[int]
    positive: bool


@dataclass
class WindowSet:
    windows: list[Window]
    vectors: dict[str, np.ndarray]
    triples: list[tuple[str, str, str]]
    gold: dict[str, set[tuple[str, str]]]
    stats: dict


def _window_tokens(rng: np.random.Generator, length: int, positive: bool,
                   profile: WindowProfile, vocab: list[str],
                   probs: np.ndarray) -> list[str]:
    tokens = [vocab[i] for i in rng.choice(len(vocab), size=length, p=probs)]
    draws = rng.random(length)
    for i, u in enumerate(draws):
        if u < profile.oov_share:
            tokens[i] = f"oov{rng.integers(10**6)}"
        elif u < profile.oov_share + profile.mask_share:
            tokens[i] = "gene0" if rng.random() < 0.5 else "NUMBER"
    if rng.random() < profile.trigger_share:
        pool = POSITIVE_TRIGGERS if positive else NEGATIVE_TRIGGERS
        tokens[int(rng.integers(length))] = pool[int(rng.integers(len(pool)))]
    return tokens


def _distances(length: int) -> tuple[list[int], list[int]]:
    """Distances to the two focal mentions for a window with up to three
    expansion tokens outside each focal mention, as preprocess emits."""
    left = min(3, max(0, (length - 1) // 3))
    right = min(3, max(0, (length - 1 - left) // 2))
    between = length - left - right
    pos1 = ([left - i for i in range(left)]
            + [i + 1 for i in range(between)]
            + [between + i + 1 for i in range(right)])
    pos2 = ([between + left - i for i in range(left)]
            + [between - i for i in range(between)]
            + [i + 1 for i in range(right)])
    return pos1, pos2


def _doc_ids(prefix: str, n_docs: int, heldout_docs: int) -> list[str]:
    """Ids of which exactly ``heldout_docs`` fall in train's held-out split."""
    held: list[str] = []
    kept: list[str] = []
    k = 0
    while len(held) < heldout_docs or len(kept) < n_docs - heldout_docs:
        doc_id = f"{prefix}-d{k}"
        k += 1
        if heldout_by_train_rule(doc_id, HOLDOUT_FRACTION):
            if len(held) < heldout_docs:
                held.append(doc_id)
        elif len(kept) < n_docs - heldout_docs:
            kept.append(doc_id)
    return held + kept


def windows(seed: int, profile: WindowProfile, prefix: str) -> WindowSet:
    """Labeled windows grouped by document, with a KB and word vectors."""
    rng = np.random.default_rng(seed)
    vocab = _vocab()
    probs = _zipf_probs(len(vocab))
    entities = [f"{prefix}-P{k}" for k in range(profile.entity_pool)]
    unknown = set(rng.choice(entities, size=int(round(
        profile.unknown_entity_share * len(entities))), replace=False))
    # held-out and training documents get their own strata, so which
    # windows are held out does not change the training work
    ipd = profile.instances_per_doc
    doc_ids = _doc_ids(f"{prefix}{seed}", profile.n_docs, profile.heldout_docs)
    lengths = np.concatenate([
        stratified(rng, k * ipd, profile.min_len, profile.max_len,
                   profile.length_power)
        for k in (profile.heldout_docs, profile.n_docs - profile.heldout_docs)])
    doc_lengths = dict(zip(doc_ids, lengths.reshape(-1, ipd)))
    doc_ids = list(rng.permutation(doc_ids))

    out: list[Window] = []
    labels: dict[tuple[str, str], bool] = {}
    gold: dict[str, set[tuple[str, str]]] = {}
    for doc_id in doc_ids:
        ents = list(rng.choice(entities, size=4, replace=False))
        for j in range(ipd):
            a, b = rng.choice(len(ents), size=2, replace=False)
            pair = tuple(sorted((str(ents[a]), str(ents[b]))))
            positive = labels.setdefault(
                pair, bool(rng.random() < profile.positive_share))
            if positive:
                gold.setdefault(str(doc_id), set()).add(pair)
            length = int(doc_lengths[doc_id][j])
            pos1, pos2 = _distances(length)
            out.append(Window(str(doc_id), pair,
                              _window_tokens(rng, length, positive, profile,
                                             vocab, probs),
                              pos1, pos2, positive))

    triples = []
    for (h, t), positive in sorted(labels.items()):
        if h in unknown or t in unknown or rng.random() < profile.kb_miss_share:
            continue
        pool = POSITIVE_RELATIONS if positive else NEGATIVE_RELATIONS
        triples.append((h, pool[int(rng.integers(len(pool)))], t))
    known = [e for e in entities if e not in unknown]
    while len(triples) < 2 * len(labels):  # background facts between known entities
        h, t = rng.choice(known, size=2, replace=False)
        rel = NEGATIVE_RELATIONS[int(rng.integers(len(NEGATIVE_RELATIONS)))]
        triples.append((str(h), rel, str(t)))
    kb_pairs = {tuple(sorted((h, t))) for h, _, t in triples}

    used = {e for w in out for e in w.pair}
    stats = {
        "instances": len(out),
        "length_min": int(lengths.min()), "length_max": int(lengths.max()),
        "length_mean": float(lengths.mean()),
        "length_p50": float(np.percentile(lengths, 50)),
        "length_p95": float(np.percentile(lengths, 95)),
        "pairs": len(labels),
        "kb_miss_share": len(set(labels) - kb_pairs) / len(labels),
        "unknown_entity_share": len(used & unknown) / len(used),
        "positive_share": sum(w.positive for w in out) / len(out),
    }
    return WindowSet(out, word_vectors(rng), triples, gold, stats)


@dataclass
class RawDocument:
    doc_id: str
    sentences: list[list[str]]
    mentions: list[tuple[str, int, int, int]]  # entity, sentence, start, end
    gold: list[tuple[str, str]]


def corpus(seed: int, profile: CorpusProfile) -> tuple[list[RawDocument], dict]:
    """Long multi-sentence documents with many protein mentions."""
    rng = np.random.default_rng(seed)
    vocab = _vocab()
    probs = _zipf_probs(len(vocab))
    n_sent = profile.n_docs * profile.sentences
    lengths = stratified(rng, n_sent, profile.min_sentence_len,
                         profile.max_sentence_len)
    docs = []
    for d in range(profile.n_docs):
        sentences = []
        for s in range(profile.sentences):
            n = int(lengths[d * profile.sentences + s])
            toks = [vocab[i] for i in rng.choice(len(vocab), size=n, p=probs)]
            for i, u in enumerate(rng.random(n)):
                if u < profile.number_share:
                    toks[i] = NUMBER_FORMS[int(rng.integers(len(NUMBER_FORMS)))]
                elif u < profile.number_share + profile.special_share:
                    toks[i] = SPECIAL_FORMS[int(rng.integers(len(SPECIAL_FORMS)))]
            sentences.append(toks)
        entities = [f"C{seed}-{d}-E{k}" for k in range(profile.entities)]
        mentions = []
        taken: set[tuple[int, int]] = set()
        while len(mentions) < profile.mentions:
            s = int(rng.integers(profile.sentences))
            width = 2 if rng.random() < profile.two_token_mention_share else 1
            start = int(rng.integers(len(sentences[s]) - width + 1))
            span = {(s, i) for i in range(start - 1, start + width + 1)}
            if span & taken:
                continue
            taken |= span
            # the first mentions cover every entity once
            eid = (entities[len(mentions)] if len(mentions) < len(entities)
                   else entities[int(rng.integers(len(entities)))])
            for i in range(start, start + width):
                sentences[s][i] = f"PROT{eid.rsplit('E', 1)[1]}"
            mentions.append((eid, s, start, start + width))
        gold = set()
        while len(gold) < profile.gold_pairs:
            a, b = rng.choice(len(entities), size=2, replace=False)
            gold.add(tuple(sorted((entities[a], entities[b]))))
        docs.append(RawDocument(f"C{seed}-doc{d}", sentences, mentions,
                                sorted(gold)))
    stats = {
        "documents": len(docs),
        "tokens_per_document": float(np.mean(
            [sum(map(len, doc.sentences)) for doc in docs])),
        "sentence_length_min": int(lengths.min()),
        "sentence_length_max": int(lengths.max()),
        "mentions_per_document": profile.mentions,
        "entities_per_document": profile.entities,
    }
    return docs, stats


def knowledge_graph(seed: int, profile: KBProfile
                    ) -> tuple[list[tuple[str, str, str]],
                               dict[str, np.ndarray], dict[str, list[str]], dict]:
    """A typed KB TransE can fit: relation r links group a_r to group b_r.

    Returns (triples, word vectors, mention lexicon, stats). A corrupted
    triple mostly breaks the group constraint, so training opens a gap
    between true and corrupted energies.
    """
    rng = np.random.default_rng(seed)
    per = profile.entities_per_group
    entities = [f"K{seed}-E{k}" for k in range(profile.entity_groups * per)]
    relations = [(f"rel{k}", int(rng.integers(profile.entity_groups)),
                  int(rng.integers(profile.entity_groups)))
                 for k in range(profile.relations)]
    seen: set[tuple[str, str, str]] = set()
    triples = []
    while len(triples) < profile.triples:
        name, a, b = relations[int(rng.integers(len(relations)))]
        h = entities[a * per + int(rng.integers(per))]
        t = entities[b * per + int(rng.integers(per))]
        if h != t and (h, name, t) not in seen:
            seen.add((h, name, t))
            triples.append((h, name, t))
    vectors = word_vectors(rng)
    vocab = _vocab()
    lexicon = {
        e: [vocab[int(i)] for i in rng.integers(len(vocab), size=2)]
        for e in entities if rng.random() < profile.lexicon_share
    }
    stats = {
        "entities": len({x for h, _, t in triples for x in (h, t)}),
        "relations": len({r for _, r, _ in triples}),
        "triples": len(triples),
        "lexicon_share": len(lexicon) / len(entities),
    }
    return triples, vectors, lexicon, stats
