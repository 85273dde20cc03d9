"""Document parsing and candidate-instance generation.

Documents arrive pre-tokenized (whitespace tokens, case preserved) with
protein mentions annotated as token spans and interaction pairs annotated
at the document level. Each co-occurrence of two different entities within
a sentence distance below the configured limit becomes one candidate
instance: the tokens between the pair plus up to three expansion tokens on
each side, with the focal mentions removed, every other protein mention
collapsed to a single "gene0" token, numeric tokens replaced by "NUMBER"
and special characters stripped (in that order).

Token distances to the two focal mentions are counted in the token
sequence with both focal spans deleted, before any other masking: a token
directly adjacent to a focal span has distance 1, and the other focal
mention's tokens never contribute to a count. A collapsed "gene0" run
carries the minimum distance over its original tokens.

Cost: `preprocess_document` spends O(n + mention tokens) once per document
on a layout (sentence offsets, the masked form of every token, the first
mention covering each index) and then O(window) per candidate pair, so a
document of n tokens with p pairs costs O(n + p * window), not O(p * n).
Each distinct token is masked once per process: `_mask_token` sits behind
a bounded memo keyed on the token alone, so the layout of a document is
one memo lookup per token.

Everything here is a pure function over immutable documents; the memo is
thread-safe and only caches a pure function, so processing is still
trivially parallel per document.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import re
from dataclasses import dataclass
from typing import NamedTuple

from .inputs import InputError, check_types, loads, records
from .kb import sorted_pair

logger = logging.getLogger(__name__)

LABEL_POSITIVE = "positive"
LABEL_NEGATIVE = "negative"
LABEL_UNLABELED = "unlabeled"
_LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_UNLABELED)
PHASES = ("train", "test")  # labeled from the gold pairs; unlabeled

GENE_MASK_TOKEN = "gene0"
NUMBER_TOKEN = "NUMBER"

# optional sign, integer or decimal, optional trailing percent
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)%?$")
_STRIP = str.maketrans("", "", "*†‡§®™")
_DROP_TOKENS = frozenset("()[]{}")  # lone brackets left after stripping
_ID_BREAK = re.compile("[\t\r\n]")  # ends a field of the predictions file


def _check_ids(ids: list[str]) -> None:
    """InputError for the first id the predictions file cannot hold, one
    empty or with a TAB, CR or LF; checked in C, not in a Python loop."""
    if not all(ids) or _ID_BREAK.search("".join(ids)):
        bad = next(i for i in ids if not i or _ID_BREAK.search(i))
        raise InputError(f"id {bad!r} is empty or holds a TAB, CR or LF")


@dataclass(frozen=True)
class Mention:
    entity_id: str
    sentence_index: int
    token_span: tuple[int, int]  # [start, end) within the sentence

    def __post_init__(self):
        try:
            s, e = self.token_span
        except (TypeError, ValueError):
            s = e = None
        if type(s) is not int or type(e) is not int:
            raise InputError(f"mention span must be two integers, "
                             f"got {self.token_span!r}")
        if type(self.sentence_index) is not int:
            raise InputError(f"mention sentence index must be an integer, "
                             f"got {self.sentence_index!r}")
        if not (0 <= s < e):
            raise InputError(f"mention span must satisfy 0 <= start < end, "
                             f"got {self.token_span}")


@dataclass(frozen=True)
class Document:
    """A tokenized document, checked once when built and immutable: lists
    in, tuples and a frozenset of sorted gold pairs kept; every id passes
    `_check_ids`."""
    doc_id: str
    sentences: tuple[tuple[str, ...], ...]
    mentions: tuple[Mention, ...]
    gold_relations: frozenset[tuple[str, str]]  # sorted entity-id pairs

    def __post_init__(self):
        doc_id, sentences = self.doc_id, self.sentences
        if type(doc_id) is not str or not all(
                type(m.entity_id) is str for m in self.mentions):
            raise InputError("doc_id and mention entity ids must be strings")
        if type(sentences) not in (list, tuple) or not all(
                type(s) in (list, tuple) for s in sentences):
            raise InputError("sentences must be a list of token lists")
        sentences = tuple(map(tuple, sentences))
        try:  # in C: join raises TypeError for a token that is no str
            list(map("".join, sentences))
        except TypeError:
            bad = next(t for s in sentences for t in s
                       if not isinstance(t, str))
            raise InputError(f"{doc_id}: token {bad!r} is not a string") \
                from None
        if not all(type(p) in (list, tuple) and [*map(type, p)] == [str, str]
                   for p in self.gold_relations):
            raise InputError("gold_relations entries must be lists of "
                             "2 strings")
        _check_ids([doc_id, *(m.entity_id for m in self.mentions),
                    *itertools.chain.from_iterable(self.gold_relations)])
        object.__setattr__(self, "sentences", sentences)
        object.__setattr__(self, "mentions", tuple(self.mentions))
        object.__setattr__(self, "gold_relations", frozenset(
            sorted_pair(*p) for p in self.gold_relations))
        for m in self.mentions:
            if not 0 <= m.sentence_index < len(sentences):
                raise InputError(f"{doc_id}: mention sentence index "
                                 f"{m.sentence_index} out of range (document "
                                 f"has {len(sentences)} sentences)")
            if m.token_span[1] > (n := len(sentences[m.sentence_index])):
                raise InputError(f"{doc_id}: mention span {m.token_span} "
                                 f"exceeds sentence {m.sentence_index} "
                                 f"length {n}")


@dataclass
class CandidateInstance:
    doc_id: str
    pair: tuple[str, str]  # sorted entity ids
    tokens: list[str]
    pos1: list[int]
    pos2: list[int]
    label: str = LABEL_UNLABELED


@dataclass(frozen=True)
class PreprocessConfig:
    max_sentence_distance: int = 3   # pairs with distance >= this are skipped
    expansion: int = 3               # context tokens kept on each side

    def __post_init__(self):
        check_types(self)
        if self.max_sentence_distance < 1:
            raise InputError(f"max_sentence_distance must be >= 1, got "
                             f"{self.max_sentence_distance}")
        if self.expansion < 0:
            raise InputError(f"expansion must be >= 0, got {self.expansion}")


def _sentence_offsets(doc: Document) -> list[int]:
    return list(itertools.accumulate(map(len, doc.sentences), initial=0))


def _flat_span(doc: Document, m: Mention, offsets: list[int]) -> tuple[int, int]:
    base = offsets[m.sentence_index]
    return (base + m.token_span[0], base + m.token_span[1])


def generate_candidate_pairs(
    doc: Document, config: PreprocessConfig | None = None,
) -> list[tuple[Mention, Mention]]:
    """All mention pairs with distinct entity ids within the sentence limit.

    The first mention of each pair precedes the second in document order;
    output order is deterministic (by start offsets).
    """
    limit = (config or PreprocessConfig()).max_sentence_distance
    offsets = _sentence_offsets(doc)
    ordered = sorted(
        doc.mentions,
        key=lambda m: (*_flat_span(doc, m, offsets), m.entity_id))
    pairs = []
    for i, m1 in enumerate(ordered):
        for m2 in ordered[i + 1:]:
            if m1.entity_id != m2.entity_id and abs(
                    m1.sentence_index - m2.sentence_index) < limit:
                pairs.append((m1, m2))
    return pairs


# Tokens repeat across documents: the benchmark corpus has 100,000 tokens
# and about 2,000 distinct ones. An entry holds about 160 bytes plus the
# token and its masked form: a full memo of 20-character tokens is about
# 10 MB.
_MASK_MEMO_SIZE = 32_768


@functools.lru_cache(maxsize=_MASK_MEMO_SIZE)
def _mask_token(token: str) -> str | None:
    """Apply NUMBER replacement, then char stripping, then lone-punct drop."""
    if _NUMBER_RE.match(token):
        return NUMBER_TOKEN
    stripped = token.translate(_STRIP)
    if not stripped or stripped in _DROP_TOKENS:
        return None
    return stripped


class _Layout(NamedTuple):
    """Facts about one document that every pair reads."""
    offsets: list[int]            # sentence start offsets, then n
    masked: list[str | None]      # _mask_token of every flat token
    owner: list[int]              # per flat index, the doc.mentions index of
                                  # the first mention covering it, else -1


def _document_layout(doc: Document) -> _Layout:
    offsets = _sentence_offsets(doc)
    masked = [_mask_token(tok) for sent in doc.sentences for tok in sent]
    # filled from the last mention to the first, so the first one wins
    owner = [-1] * offsets[-1]
    for mi in range(len(doc.mentions) - 1, -1, -1):
        s, e = _flat_span(doc, doc.mentions[mi], offsets)
        owner[s:e] = [mi] * (e - s)
    return _Layout(offsets, masked, owner)


def build_context_window(
    doc: Document, m1: Mention, m2: Mention,
    config: PreprocessConfig | None = None, *, _layout: _Layout | None = None,
) -> CandidateInstance | None:
    """One candidate instance for the mention pair, or None if masking
    empties the window (logged).

    Given the document layout the cost is O(window): `preprocess_document`
    builds the layout once per document and passes it as ``_layout``; a
    call without it first builds one in O(document).
    """
    config = config or PreprocessConfig()
    layout = _layout if _layout is not None else _document_layout(doc)
    s1, e1 = _flat_span(doc, m1, layout.offsets)
    s2, e2 = _flat_span(doc, m2, layout.offsets)
    if s2 < s1:
        (s1, e1), (s2, e2) = (s2, e2), (s1, e1)
        m1, m2 = m2, m1

    # The window is every non-focal index in [lo, hi), in order. Since the
    # distance counts run over non-focal tokens only, a window token's
    # distance follows from its rank k and the number c of window tokens
    # before the focal span: c - k before it, k - c + 1 after it. No window
    # index lies in a focal span, so its owner is never a focal mention.
    lo = max(0, s1 - config.expansion)
    hi = min(layout.offsets[-1], e2 + config.expansion)
    window = [*range(lo, s1), *range(e1, s2), *range(max(e1, e2), hi)]
    c1 = s1 - lo
    c2 = c1 + max(0, s2 - e1)

    owners, masked = layout.owner, layout.masked
    tokens: list[str] = []
    pos1: list[int] = []
    pos2: list[int] = []
    prev_owner, prev_idx = -1, -1
    for k, idx in enumerate(window):
        owner = owners[idx]
        if owner >= 0 and owner == prev_owner and idx == prev_idx + 1:
            # a collapsed gene0 run keeps its minimum distances
            d1 = c1 - k if k < c1 else k - c1 + 1
            d2 = c2 - k if k < c2 else k - c2 + 1
            if d1 < pos1[-1]:
                pos1[-1] = d1
            if d2 < pos2[-1]:
                pos2[-1] = d2
        else:
            token = masked[idx] if owner < 0 else GENE_MASK_TOKEN
            if token is not None:
                tokens.append(token)
                pos1.append(c1 - k if k < c1 else k - c1 + 1)
                pos2.append(c2 - k if k < c2 else k - c2 + 1)
        prev_owner, prev_idx = owner, idx

    if not tokens:
        logger.info("%s: dropped empty window for pair (%s, %s)",
                    doc.doc_id, m1.entity_id, m2.entity_id)
        return None
    return CandidateInstance(
        doc_id=doc.doc_id,
        pair=sorted_pair(m1.entity_id, m2.entity_id),
        tokens=tokens, pos1=pos1, pos2=pos2)


def check_phase(phase: str) -> None:
    if phase not in PHASES:
        raise InputError(f"phase must be one of {PHASES}, got {phase!r}")


def assign_labels(instances: list[CandidateInstance],
                  gold: set[tuple[str, str]], phase: str) -> list[CandidateInstance]:
    """Train phase: positive iff the pair is in `gold`, sorted pairs as a
    `Document` keeps them. Test phase: unlabeled."""
    check_phase(phase)
    for inst in instances:
        inst.label = (LABEL_UNLABELED if phase == "test" else
                      LABEL_POSITIVE if inst.pair in gold else LABEL_NEGATIVE)
    return instances


def preprocess_document(doc: Document, phase: str,
                        config: PreprocessConfig | None = None) -> list[CandidateInstance]:
    config = config or PreprocessConfig()
    layout = _document_layout(doc)
    windows = (build_context_window(doc, m1, m2, config, _layout=layout)
               for m1, m2 in generate_candidate_pairs(doc, config))
    return assign_labels([w for w in windows if w is not None],
                         doc.gold_relations, phase)


# ---------------------------------------------------------------------------
# file formats (JSON lines, one record per line, byte-deterministic)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def document_to_json(doc: Document) -> str:
    return _dumps({
        "doc_id": doc.doc_id,
        "sentences": doc.sentences,
        "mentions": [
            {"entity_id": m.entity_id, "sentence": m.sentence_index,
             "token_span": list(m.token_span)}
            for m in doc.mentions
        ],
        "gold_relations": [list(p) for p in sorted(doc.gold_relations)],
    })


def document_from_json(line: str) -> Document:
    """The `Document` of one corpus record; InputError for a malformed
    record. A gold entity with no mention is logged as a warning."""
    rec = loads(line)
    try:
        doc = Document(rec["doc_id"], rec["sentences"], [
            Mention(m["entity_id"], m["sentence"], tuple(m["token_span"]))
            for m in rec["mentions"]], rec.get("gold_relations", []))
    except (KeyError, TypeError) as e:
        raise InputError(f"missing or malformed field ({e})") from e
    for eid in sorted({e for pair in doc.gold_relations for e in pair}
                      - {m.entity_id for m in doc.mentions}):
        logger.warning("%s: gold relation entity %r has no mention",
                       doc.doc_id, eid)
    return doc


def read_corpus(path) -> list[Document]:
    """The documents of a corpus file; InputError at the line of a record
    that is malformed or repeats an earlier `doc_id`."""
    seen: set[str] = set()

    def parse(line: str) -> Document:
        if (doc := document_from_json(line)).doc_id in seen:
            raise InputError(f"repeated doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        return doc

    return records(path, parse)


def write_corpus(path, docs: list[Document]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc in docs:
            f.write(document_to_json(doc) + "\n")


def instance_to_json(inst: CandidateInstance) -> str:
    return _dumps({
        "doc_id": inst.doc_id,
        "pair": list(inst.pair),
        "tokens": inst.tokens,
        "pos1": inst.pos1,
        "pos2": inst.pos2,
        "label": inst.label,
    })


def instance_from_json(line: str) -> CandidateInstance:
    """Parse one record; InputError unless it has a string doc_id, a pair
    of strings, each id nonempty with no TAB, CR or LF, string tokens, one
    nonnegative int distance per token in pos1/pos2, and a known label.
    Elements are checked in C (`map`, `set`, `min`), not in a Python loop."""
    rec = loads(line)
    try:
        if type(rec["doc_id"]) is not str:
            raise InputError(f"doc_id must be a string, found "
                             f"{json.dumps(rec['doc_id'])}")
        for name, kind, kinds in (("pair", str, "strings"),
                                  ("tokens", str, "strings"),
                                  ("pos1", int, "integers"),
                                  ("pos2", int, "integers")):
            values = rec[name]
            if type(values) is not list or not set(map(type, values)) <= {kind}:
                bad = next((v for v in values if type(v) is not kind), values)
                raise InputError(f"{name} must be a list of {kinds}, "
                                 f"found {json.dumps(bad)}")
        if len(rec["pair"]) != 2:
            raise InputError(f"pair must be a list of 2 strings, "
                             f"found {json.dumps(rec['pair'])}")
        _check_ids([rec["doc_id"], *rec["pair"]])
        inst = CandidateInstance(
            doc_id=rec["doc_id"], pair=sorted_pair(*rec["pair"]),
            tokens=rec["tokens"], pos1=rec["pos1"], pos2=rec["pos2"],
            label=rec["label"])
        n = len(inst.tokens)
        if n == 0:
            raise InputError("instance has no tokens")
        if len(inst.pos1) != n or len(inst.pos2) != n:
            raise InputError(f"pos1/pos2 lengths ({len(inst.pos1)}, "
                             f"{len(inst.pos2)}) differ from the {n} tokens")
        low = min(min(inst.pos1), min(inst.pos2))
        if low < 0:
            raise InputError(f"negative distance {low} in pos1/pos2")
    except (KeyError, TypeError) as e:
        raise InputError(f"missing or malformed field ({e})") from e
    if inst.label not in _LABELS:
        raise InputError(f"unknown label {inst.label!r} "
                         f"(expected one of {', '.join(_LABELS)})")
    return inst


def read_instances(path) -> list[CandidateInstance]:
    return records(path, instance_from_json)


def write_instances(path, instances: list[CandidateInstance]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for inst in instances:
            f.write(instance_to_json(inst) + "\n")
