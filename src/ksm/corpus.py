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

Everything here is a pure function over immutable documents, so
processing is trivially parallel per document.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from typing import NamedTuple

logger = logging.getLogger(__name__)

LABEL_POSITIVE = "positive"
LABEL_NEGATIVE = "negative"
LABEL_UNLABELED = "unlabeled"
_LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_UNLABELED)

GENE_MASK_TOKEN = "gene0"
NUMBER_TOKEN = "NUMBER"

# optional sign, integer or decimal, optional trailing percent
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)%?$")


class CorpusError(Exception):
    """Malformed corpus input (message carries file/line context when known)."""


@dataclass(frozen=True)
class Mention:
    entity_id: str
    sentence_index: int
    token_span: tuple[int, int]  # [start, end) within the sentence

    def __post_init__(self):
        s, e = self.token_span
        if not (0 <= s < e):
            raise CorpusError(
                f"mention span must satisfy 0 <= start < end, got {self.token_span}")


@dataclass
class Document:
    doc_id: str
    sentences: list[list[str]]
    mentions: list[Mention]
    gold_relations: set[tuple[str, str]]  # sorted entity-id pairs


@dataclass
class CandidateInstance:
    doc_id: str
    pair: tuple[str, str]  # sorted entity ids
    tokens: list[str]
    pos1: list[int]
    pos2: list[int]
    label: str = LABEL_UNLABELED


@dataclass
class PreprocessConfig:
    max_sentence_distance: int = 3   # pairs with distance >= this are skipped
    expansion: int = 3               # context tokens kept on each side
    strip_chars: str = "*†‡§®™"  # * † ‡ § ® ™
    drop_tokens: frozenset = frozenset("()[]{}")

    def __post_init__(self):
        if self.max_sentence_distance < 1:
            raise CorpusError(f"max_sentence_distance must be >= 1, got "
                              f"{self.max_sentence_distance}")
        if self.expansion < 0:
            raise CorpusError(f"expansion must be >= 0, got {self.expansion}")


def sorted_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def validate_document(doc: Document) -> list[str]:
    """Raise CorpusError on structural violations; return soft warnings."""
    for m in doc.mentions:
        if not 0 <= m.sentence_index < len(doc.sentences):
            raise CorpusError(
                f"{doc.doc_id}: mention sentence index {m.sentence_index} "
                f"out of range (document has {len(doc.sentences)} sentences)")
        n = len(doc.sentences[m.sentence_index])
        if m.token_span[1] > n:
            raise CorpusError(
                f"{doc.doc_id}: mention span {m.token_span} exceeds sentence "
                f"{m.sentence_index} length {n}")
    warnings = []
    mentioned = {m.entity_id for m in doc.mentions}
    for pair in sorted(doc.gold_relations):
        for eid in pair:
            if eid not in mentioned:
                warnings.append(
                    f"{doc.doc_id}: gold relation entity {eid!r} has no mention")
    for w in warnings:
        logger.warning(w)
    return warnings


def _sentence_offsets(doc: Document) -> list[int]:
    offsets = [0]
    for sent in doc.sentences:
        offsets.append(offsets[-1] + len(sent))
    return offsets


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
    config = config or PreprocessConfig()
    offsets = _sentence_offsets(doc)
    ordered = sorted(
        doc.mentions,
        key=lambda m: (_flat_span(doc, m, offsets)[0],
                       _flat_span(doc, m, offsets)[1], m.entity_id))
    pairs = []
    for i, m1 in enumerate(ordered):
        for m2 in ordered[i + 1:]:
            if m1.entity_id == m2.entity_id:
                continue
            if abs(m1.sentence_index - m2.sentence_index) >= config.max_sentence_distance:
                continue
            pairs.append((m1, m2))
    return pairs


def _mask_token(token: str, strip: dict[int, None],
                drop_tokens: frozenset) -> str | None:
    """Apply NUMBER replacement, then char stripping (``strip`` is a
    `str.translate` table deleting them), then lone-punct drop."""
    if _NUMBER_RE.match(token):
        return NUMBER_TOKEN
    stripped = token.translate(strip)
    if not stripped or stripped in drop_tokens:
        return None
    return stripped


class _Layout(NamedTuple):
    """Facts about one document under one config that every pair reads."""
    offsets: list[int]            # sentence start offsets, then n
    masked: list[str | None]      # _mask_token of every flat token
    owner: dict[int, int]         # flat index -> doc.mentions index of the
                                  # first mention covering it, if any


def _document_layout(doc: Document, config: PreprocessConfig) -> _Layout:
    offsets = _sentence_offsets(doc)
    strip = str.maketrans("", "", config.strip_chars)
    flat = [tok for sent in doc.sentences for tok in sent]
    # documents repeat many of their tokens: mask each distinct one once
    distinct = {tok: _mask_token(tok, strip, config.drop_tokens)
                for tok in set(flat)}
    masked = [distinct[tok] for tok in flat]
    owner: dict[int, int] = {}
    for mi, m in enumerate(doc.mentions):
        for i in range(*_flat_span(doc, m, offsets)):
            owner.setdefault(i, mi)
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
    layout = _layout if _layout is not None else _document_layout(doc, config)
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

    tokens: list[str] = []
    pos1: list[int] = []
    pos2: list[int] = []
    prev_owner, prev_idx = None, -1
    for k, idx in enumerate(window):
        d1 = c1 - k if k < c1 else k - c1 + 1
        d2 = c2 - k if k < c2 else k - c2 + 1
        owner = layout.owner.get(idx)
        if owner is None:
            masked = layout.masked[idx]
            if masked is not None:
                tokens.append(masked)
                pos1.append(d1)
                pos2.append(d2)
        elif owner == prev_owner and idx == prev_idx + 1:
            # a collapsed gene0 run keeps its minimum distances
            pos1[-1] = min(pos1[-1], d1)
            pos2[-1] = min(pos2[-1], d2)
        else:
            tokens.append(GENE_MASK_TOKEN)
            pos1.append(d1)
            pos2.append(d2)
        prev_owner, prev_idx = owner, idx

    if not tokens:
        logger.info("%s: dropped empty window for pair (%s, %s)",
                    doc.doc_id, m1.entity_id, m2.entity_id)
        return None
    return CandidateInstance(
        doc_id=doc.doc_id,
        pair=sorted_pair(m1.entity_id, m2.entity_id),
        tokens=tokens, pos1=pos1, pos2=pos2)


def assign_labels(instances: list[CandidateInstance],
                  gold: set[tuple[str, str]], phase: str) -> list[CandidateInstance]:
    """Train phase: positive iff the pair is gold. Test phase: unlabeled."""
    if phase not in ("train", "test"):
        raise ValueError(f"phase must be 'train' or 'test', got {phase!r}")
    gold_sorted = {sorted_pair(*p) for p in gold}
    for inst in instances:
        if phase == "test":
            inst.label = LABEL_UNLABELED
        else:
            inst.label = (LABEL_POSITIVE if inst.pair in gold_sorted
                          else LABEL_NEGATIVE)
    return instances


def preprocess_document(doc: Document, phase: str,
                        config: PreprocessConfig | None = None) -> list[CandidateInstance]:
    validate_document(doc)
    config = config or PreprocessConfig()
    layout = _document_layout(doc, config)
    instances = []
    for m1, m2 in generate_candidate_pairs(doc, config):
        inst = build_context_window(doc, m1, m2, config, _layout=layout)
        if inst is not None:
            instances.append(inst)
    return assign_labels(instances, doc.gold_relations, phase)


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


def _parse_json(line: str, where: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise CorpusError(f"{where}: invalid JSON ({e.msg})") from e


def _nonblank_lines(path):
    """(`path:lineno`, stripped line) for each nonblank line of a file."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if line:
                yield f"{path}:{lineno}", line


def document_from_json(line: str, where: str = "<line>") -> Document:
    rec = _parse_json(line, where)
    try:
        mentions = [
            Mention(entity_id=m["entity_id"], sentence_index=m["sentence"],
                    token_span=tuple(m["token_span"]))
            for m in rec["mentions"]
        ]
        gold = {sorted_pair(*p) for p in rec.get("gold_relations", [])}
        return Document(doc_id=rec["doc_id"], sentences=rec["sentences"],
                        mentions=mentions, gold_relations=gold)
    except (KeyError, TypeError) as e:
        raise CorpusError(f"{where}: missing or malformed field ({e})") from e
    except CorpusError as e:
        raise CorpusError(f"{where}: {e}") from e


def read_corpus(path) -> list[Document]:
    docs = [document_from_json(line, where)
            for where, line in _nonblank_lines(path)]
    for doc in docs:
        validate_document(doc)
    return docs


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


def instance_from_json(line: str, where: str = "<line>") -> CandidateInstance:
    """Parse one record; CorpusError at `where` unless it has tokens, one
    distance per token in pos1/pos2, and a known label."""
    rec = _parse_json(line, where)
    try:
        inst = CandidateInstance(
            doc_id=rec["doc_id"], pair=sorted_pair(*rec["pair"]),
            tokens=rec["tokens"], pos1=rec["pos1"], pos2=rec["pos2"],
            label=rec["label"])
        n = len(inst.tokens)
        if n == 0:
            raise CorpusError(f"{where}: instance has no tokens")
        if len(inst.pos1) != n or len(inst.pos2) != n:
            raise CorpusError(
                f"{where}: pos1/pos2 lengths ({len(inst.pos1)}, "
                f"{len(inst.pos2)}) differ from the {n} tokens")
    except (KeyError, TypeError) as e:
        raise CorpusError(f"{where}: missing or malformed field ({e})") from e
    if inst.label not in _LABELS:
        raise CorpusError(f"{where}: unknown label {inst.label!r} "
                          f"(expected one of {', '.join(_LABELS)})")
    return inst


def read_instances(path) -> list[CandidateInstance]:
    return [instance_from_json(line, where)
            for where, line in _nonblank_lines(path)]


def write_instances(path, instances: list[CandidateInstance]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for inst in instances:
            f.write(instance_to_json(inst) + "\n")
