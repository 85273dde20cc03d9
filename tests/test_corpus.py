"""Candidate generation: windowing, masking, distances, labels, files."""

import json
import logging
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksm.corpus import (GENE_MASK_TOKEN, NUMBER_TOKEN, CandidateInstance,
                        Document, LABEL_NEGATIVE,
                        LABEL_POSITIVE, LABEL_UNLABELED,
                        Mention, PreprocessConfig, assign_labels,
                        build_context_window, document_from_json,
                        document_to_json, generate_candidate_pairs,
                        instance_from_json, instance_to_json,
                        preprocess_document, read_corpus, read_instances,
                        sorted_pair, write_corpus, write_instances)
from ksm.inputs import InputError

DATA = Path(__file__).parent / "data"


def _doc(sentences, mentions, gold=()):
    return Document(doc_id="T", sentences=sentences, mentions=mentions,
                    gold_relations={sorted_pair(*p) for p in gold})


def _single_sentence_doc():
    # the worked example: two single-token mentions and a number in between
    return _doc(
        [["A", "B", "P1", "C", "D", "42", "P2", "E", "F", "G"]],
        [Mention("G1", 0, (2, 3)), Mention("G2", 0, (6, 7))],
    )


def _toy_documents() -> list[Document]:
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


# ---------------------------------------------------------------------------
# pair generation


def test_pair_within_two_sentences_is_kept():
    doc = _doc([["x", "P1"], ["y"], ["P2", "z"]],
               [Mention("G1", 0, (1, 2)), Mention("G2", 2, (0, 1))])
    assert len(generate_candidate_pairs(doc)) == 1


def test_pair_three_sentences_apart_is_excluded():
    doc = _doc([["x", "P1"], ["y"], ["w"], ["P2", "z"]],
               [Mention("G1", 0, (1, 2)), Mention("G2", 3, (0, 1))])
    assert generate_candidate_pairs(doc) == []


def test_single_mention_yields_nothing():
    doc = _doc([["only", "P1", "here"]], [Mention("G1", 0, (1, 2))])
    assert generate_candidate_pairs(doc) == []


def test_same_entity_mentions_never_pair():
    doc = _doc([["P1", "and", "P1b"]],
               [Mention("G1", 0, (0, 1)), Mention("G1", 0, (2, 3))])
    assert generate_candidate_pairs(doc) == []


def test_first_mention_precedes_second():
    doc = _doc([["P2", "then", "P1"]],
               [Mention("G1", 0, (2, 3)), Mention("G2", 0, (0, 1))])
    pairs = generate_candidate_pairs(doc)
    assert len(pairs) == 1
    m1, m2 = pairs[0]
    assert m1.entity_id == "G2" and m2.entity_id == "G1"


def test_pairs_follow_start_then_end_then_entity_order():
    doc = _doc([["a", "b", "c", "d"]],
               [Mention("G3", 0, (1, 3)), Mention("G2", 0, (1, 2)),
                Mention("G1", 0, (1, 2)), Mention("G4", 0, (0, 1))])
    pairs = generate_candidate_pairs(doc)
    assert [(a.entity_id, b.entity_id) for a, b in pairs] == [
        ("G4", "G1"), ("G4", "G2"), ("G4", "G3"),
        ("G1", "G2"), ("G1", "G3"), ("G2", "G3")]


def test_every_cooccurrence_gets_its_own_pair():
    doc = _doc([["P1", "x", "P2", "y", "P1b"]],
               [Mention("G1", 0, (0, 1)), Mention("G2", 0, (2, 3)),
                Mention("G1", 0, (4, 5))])
    pairs = generate_candidate_pairs(doc)
    assert [(a.entity_id, b.entity_id) for a, b in pairs] == \
        [("G1", "G2"), ("G2", "G1")]


# ---------------------------------------------------------------------------
# windowing and masking


def test_worked_example_tokens_and_distances():
    doc = _single_sentence_doc()
    m1, m2 = generate_candidate_pairs(doc)[0]
    inst = build_context_window(doc, m1, m2)
    assert inst.tokens == ["A", "B", "C", "D", "NUMBER", "E", "F", "G"]
    assert inst.pos1 == [2, 1, 1, 2, 3, 4, 5, 6]
    assert inst.pos2 == [5, 4, 3, 2, 1, 1, 2, 3]
    assert inst.pair == ("G1", "G2")


@pytest.mark.parametrize("field, value", [("expansion", -1),
                                          ("expansion", -2),
                                          ("max_sentence_distance", 0),
                                          ("max_sentence_distance", -1),
                                          ("expansion", 1.5),
                                          ("max_sentence_distance", True)])
def test_preprocess_config_rejects_settings_that_give_wrong_windows(
        field, value):
    # expansion -2 used to swap the distance sequences of a one-sentence
    # pair, distance 0 silently kept no pair at all, and a fraction or a
    # bool was accepted
    bound = r">= \d" if type(value) is int else "of type int"
    with pytest.raises(InputError,
                       match=rf"{field} must be {bound}, got {value}"):
        PreprocessConfig(**{field: value})


def test_window_clips_at_document_start():
    doc = _doc([["P1", "a", "P2", "b", "c", "d", "e"]],
               [Mention("G1", 0, (0, 1)), Mention("G2", 0, (2, 3))])
    inst = build_context_window(doc, *generate_candidate_pairs(doc)[0])
    # no left expansion exists; 'a' between; three right expansions
    assert inst.tokens == ["a", "b", "c", "d"]
    assert inst.pos1 == [1, 2, 3, 4]
    assert inst.pos2 == [1, 1, 2, 3]


def test_multitoken_third_mention_collapses_to_one_gene0():
    doc = _doc(
        [["P1", "with", "XYZ", "kinase", "near", "P2"]],
        [Mention("G1", 0, (0, 1)), Mention("G2", 0, (5, 6)),
         Mention("G3", 0, (2, 4))])
    pairs = generate_candidate_pairs(doc)
    focal = next((a, b) for a, b in pairs
                 if {a.entity_id, b.entity_id} == {"G1", "G2"})
    inst = build_context_window(doc, *focal)
    assert inst.tokens == ["with", "gene0", "near"]
    # gene0 carries the minimum distance over its collapsed tokens
    assert inst.pos1 == [1, 2, 4]
    assert inst.pos2 == [4, 2, 1]


def test_adjacent_distinct_mentions_stay_separate_gene0_tokens():
    doc = _doc(
        [["P1", "a", "X", "Y", "b", "P2"]],
        [Mention("G1", 0, (0, 1)), Mention("G2", 0, (5, 6)),
         Mention("G3", 0, (2, 3)), Mention("G4", 0, (3, 4))])
    pairs = generate_candidate_pairs(doc)
    focal = next((a, b) for a, b in pairs
                 if {a.entity_id, b.entity_id} == {"G1", "G2"})
    inst = build_context_window(doc, *focal)
    assert inst.tokens == ["a", "gene0", "gene0", "b"]


def test_nonfocal_mention_nested_in_focal_span_vanishes():
    doc = _doc(
        [["before", "P1", "X", "tail", "mid", "P2", "after"]],
        [Mention("G1", 0, (1, 3)),          # focal span covers "P1 X"
         Mention("G3", 0, (2, 3)),          # nested inside the focal span
         Mention("G2", 0, (5, 6))])
    pairs = generate_candidate_pairs(doc)
    focal = next((a, b) for a, b in pairs
                 if {a.entity_id, b.entity_id} == {"G1", "G2"})
    inst = build_context_window(doc, *focal)
    assert "gene0" not in inst.tokens
    assert inst.tokens == ["before", "tail", "mid", "after"]


def test_number_and_special_character_masking():
    doc = _doc(
        [["P1", "3.5", "-7%", "IL*2", "(", "]", "w†", "P2"]],
        [Mention("G1", 0, (0, 1)), Mention("G2", 0, (7, 8))])
    inst = build_context_window(doc, *generate_candidate_pairs(doc)[0])
    assert inst.tokens == ["NUMBER", "NUMBER", "IL2", "w"]
    # "(" and "]" drop as lone punctuation but still count for distances
    assert inst.pos1 == [1, 2, 3, 6]
    doc = _doc([["P1", "(", "x", ")", "P2"]],
               [Mention("G1", 0, (0, 1)), Mention("G2", 0, (4, 5))])
    assert preprocess_document(doc, "train")[0].tokens == ["x"]


def test_number_rule_checks_the_raw_token_before_stripping():
    # masking applies in order: NUMBER test first, then char stripping,
    # so "7*" strips to "7" rather than becoming NUMBER
    doc = _doc([["P1", "7*", "P2"]],
               [Mention("G1", 0, (0, 1)), Mention("G2", 0, (2, 3))])
    inst = build_context_window(doc, *generate_candidate_pairs(doc)[0])
    assert inst.tokens == ["7"]


def test_window_emptied_by_masking_is_dropped():
    doc = _doc([["P1", "*", "P2"]],
               [Mention("G1", 0, (0, 1)), Mention("G2", 0, (2, 3))])
    assert build_context_window(doc, *generate_candidate_pairs(doc)[0]) is None


def test_focal_tokens_never_survive():
    for doc in _toy_documents():
        for inst in preprocess_document(doc, "train"):
            focal_surfaces = set()
            for m in doc.mentions:
                focal_surfaces.add(doc.sentences[m.sentence_index][
                    m.token_span[0]])
            assert "P1" not in inst.tokens and "P2" not in inst.tokens
            assert len(inst.tokens) >= 1


def test_window_spans_sentence_boundaries():
    doc = _doc([["P1", "ends"], ["starts", "P2", "tail"]],
               [Mention("G1", 0, (0, 1)), Mention("G2", 1, (1, 2))])
    inst = build_context_window(doc, *generate_candidate_pairs(doc)[0])
    assert inst.tokens == ["ends", "starts", "tail"]
    assert inst.pos1 == [1, 2, 3]  # the focal span of P2 never counts
    assert inst.pos2 == [2, 1, 1]


# ---------------------------------------------------------------------------
# labels


def test_gold_pair_labels_every_instance_positive():
    doc = _doc([["P1", "a", "P2", "b", "P1b", "c", "P2b"]],
               [Mention("G1", 0, (0, 1)), Mention("G2", 0, (2, 3)),
                Mention("G1", 0, (4, 5)), Mention("G2", 0, (6, 7))],
               gold=[("G1", "G2")])
    instances = preprocess_document(doc, "train")
    assert len(instances) == 4
    assert all(i.label == LABEL_POSITIVE for i in instances)


def test_non_gold_pair_is_negative():
    doc = _single_sentence_doc()
    instances = preprocess_document(doc, "train")
    assert [i.label for i in instances] == [LABEL_NEGATIVE]


def test_test_phase_marks_unlabeled():
    doc = _single_sentence_doc()
    doc.gold_relations = {("G1", "G2")}
    instances = preprocess_document(doc, "test")
    assert [i.label for i in instances] == [LABEL_UNLABELED]


def test_assign_labels_rejects_unknown_phase():
    with pytest.raises(ValueError):
        assign_labels([], set(), "dev")


# ---------------------------------------------------------------------------
# validation and files


def test_validate_rejects_out_of_range_span():
    # a document checks itself when it is built
    with pytest.raises(InputError, match=re.escape(
            "T: mention span (1, 3) exceeds sentence 0 length 2")):
        _doc([["a", "b"]], [Mention("G1", 0, (1, 3))])


def test_validate_warns_on_gold_without_mention(tmp_path, caplog):
    # the reader warns, once per missing entity
    doc = _doc([["P1", "x", "P2"]],
               [Mention("G1", 0, (0, 1)), Mention("G2", 0, (2, 3))],
               gold=[("G1", "G9"), ("G2", "G9")])
    write_corpus(tmp_path / "c.jsonl", [doc])
    assert read_corpus(tmp_path / "c.jsonl") == [doc]
    assert [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING] == [
        "T: gold relation entity 'G9' has no mention"]


@pytest.mark.parametrize("gold, message", [
    ([["B", "A"], ("C", "A")], None),
    ([["A", "B", "C"]], "gold_relations entries must be lists of 2 strings"),
    ([("A", 2)], "gold_relations entries must be lists of 2 strings"),
    (["AB"], "gold_relations entries must be lists of 2 strings"),
], ids=["sorted", "three", "int", "string"])
def test_document_checks_and_sorts_its_gold_entries(gold, message):
    def build():
        return Document("T", [["A", "B", "C"]], [], gold)
    if message is None:
        assert build().gold_relations == {("A", "B"), ("A", "C")}
    else:
        with pytest.raises(InputError, match=message):
            build()


def test_mention_span_must_be_nonempty():
    with pytest.raises(InputError):
        Mention("G1", 0, (2, 2))


def _file_with(tmp_path, line: str, lineno: int) -> Path:
    """f.jsonl holding `line` at line `lineno`, after blank lines."""
    path = tmp_path / "f.jsonl"
    path.write_text("\n" * (lineno - 1) + line + "\n")
    return path


def _corpus_line(mention=None, sentences=(("a", "b", "c"),)):
    mention = mention or {"entity_id": "G1", "sentence": 0,
                          "token_span": [0, 1]}
    return json.dumps({"doc_id": "d7", "sentences": sentences,
                       "mentions": [mention], "gold_relations": []})


@pytest.mark.parametrize("field, value, message", [
    ("token_span", [0, 1, 5], "mention span must be two integers, "
                              "got (0, 1, 5)"),
    ("token_span", [0], "mention span must be two integers, got (0,)"),
    ("token_span", [0, 1.0], "mention span must be two integers"),
    ("token_span", [False, True], "mention span must be two integers"),
    ("token_span", "ab", "mention span must be two integers"),
    ("sentence", 0.5, "mention sentence index must be an integer, got 0.5"),
    ("sentence", True, "mention sentence index must be an integer, "
                       "got True"),
    ("sentence", "0", "mention sentence index must be an integer"),
    ("token_span", [1, 9], "d7: mention span (1, 9) exceeds sentence 0 "
                           "length 3"),
    ("sentence", 4, "d7: mention sentence index 4 out of range (document "
                    "has 1 sentences)"),
    ("entity_id", ["G1"], "doc_id and mention entity ids must be strings"),
], ids=["span-3", "span-1", "span-float", "span-bool", "span-str",
        "sentence-float", "sentence-bool", "sentence-str", "span-past-end",
        "sentence-past-end", "entity-list"])
def test_malformed_mention_record_reports_location(tmp_path, field, value,
                                                  message):
    mention = {"entity_id": "G1", "sentence": 0, "token_span": [0, 1],
               field: value}
    with pytest.raises(InputError, match=re.escape(f"f.jsonl:3: {message}")):
        read_corpus(_file_with(tmp_path, _corpus_line(mention), 3))


@pytest.mark.parametrize("sentences", [["P1 ab P2"], "P1 ab P2",
                                       [["a"], "b"], {"0": ["a"]}],
                         ids=["string-sentence", "string", "mixed", "object"])
def test_sentences_must_be_a_list_of_token_lists(tmp_path, sentences):
    # a string sentence would be windowed one character per token
    with pytest.raises(InputError, match=re.escape(
            "f.jsonl:3: sentences must be a list of token lists")):
        read_corpus(_file_with(tmp_path, _corpus_line(sentences=sentences),
                               3))


def test_mention_rejects_non_integer_fields_outside_json():
    with pytest.raises(InputError, match="sentence index"):
        Mention("G1", 0.0, (0, 1))
    with pytest.raises(InputError, match="span"):
        Mention("G1", 0, (0, True))


@pytest.mark.parametrize("token", [2, None, 1.5, True, ["b"]])
def test_non_string_token_names_document_and_token(token):
    # checked when the document is built, so it never reaches the masking
    with pytest.raises(InputError,
                       match=re.escape(f"d7: token {token!r} is not a "
                                       f"string")):
        Document(doc_id="d7", sentences=[["a"], ["b", token, "c"]],
                 mentions=[Mention("G1", 0, (0, 1)),
                           Mention("G2", 1, (2, 3))],
                 gold_relations=set())


def test_malformed_corpus_line_reports_location(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"doc_id":"ok","sentences":[],"mentions":[],'
                    '"gold_relations":[]}\n{not json\n')
    with pytest.raises(InputError, match=r"bad\.jsonl:2"):
        read_corpus(path)


@pytest.mark.parametrize("reader", [read_corpus, read_instances])
def test_deeply_nested_json_line_reports_location(tmp_path, reader):
    path = tmp_path / "deep.jsonl"
    path.write_text("\n" + "[" * 100_000 + "\n")  # line 1 is blank
    with pytest.raises(InputError,
                       match=r"deep\.jsonl:2: JSON nested too deeply"):
        reader(path)


def test_corpus_missing_field_reports_location(tmp_path):
    with pytest.raises(InputError, match=r"f\.jsonl:3: missing or malformed"):
        read_corpus(_file_with(tmp_path, '{"doc_id":"x"}', 3))


def _instance_line(**overrides):
    rec = {"doc_id": "d", "pair": ["A", "B"], "tokens": ["x", "y"],
           "pos1": [1, 2], "pos2": [2, 1], "label": "positive"}
    rec.update(overrides)
    return json.dumps(rec)


def test_instance_record_roundtrips_when_valid():
    inst = instance_from_json(_instance_line())
    assert instance_from_json(instance_to_json(inst)) == inst


@pytest.mark.parametrize("field", ["pos1", "pos2"])
def test_instance_distance_length_mismatch_rejected(tmp_path, field):
    # a length-1 list would otherwise broadcast over every token
    path = tmp_path / "inst.jsonl"
    path.write_text(_instance_line() + "\n" + _instance_line(**{field: [1]})
                    + "\n")
    with pytest.raises(InputError, match=r"inst\.jsonl:2: pos1/pos2"):
        read_instances(path)


def test_instance_without_tokens_rejected(tmp_path):
    with pytest.raises(InputError, match="f.jsonl:4: instance has no tokens"):
        read_instances(_file_with(
            tmp_path, _instance_line(tokens=[], pos1=[], pos2=[]), 4))


def test_instance_unknown_label_rejected(tmp_path):
    # training would otherwise take any non-positive label as negative
    with pytest.raises(InputError, match="f.jsonl:7: unknown label 'pos'"):
        read_instances(_file_with(tmp_path, _instance_line(label="pos"), 7))


def test_golden_corpus_roundtrip_and_instances(tmp_path):
    docs = read_corpus(DATA / "toy_corpus.jsonl")
    for phase, golden in (("train", "toy_instances_train.jsonl"),
                          ("test", "toy_instances_test.jsonl")):
        instances = []
        for doc in docs:
            instances.extend(preprocess_document(doc, phase))
        out = tmp_path / f"{phase}.jsonl"
        write_instances(out, instances)
        assert out.read_bytes() == (DATA / golden).read_bytes()
        # and the reader inverts the writer
        again = read_instances(out)
        assert [instance_to_json(i) for i in again] == \
            [instance_to_json(i) for i in instances]


def test_preprocessing_is_deterministic():
    docs = _toy_documents()
    first = [instance_to_json(i) for d in docs
             for i in preprocess_document(d, "train")]
    second = [instance_to_json(i) for d in docs
              for i in preprocess_document(d, "train")]
    assert first == second


def test_threads_sharing_the_mask_memo_get_the_serial_windows():
    # every thread shares the process-wide masking memo; each must still
    # get exactly the windows of its own config
    docs = _toy_documents()
    configs = [PreprocessConfig(), PreprocessConfig(expansion=0),
               PreprocessConfig(max_sentence_distance=1, expansion=1)]

    def run(config):
        return [instance_to_json(i) for d in docs
                for i in preprocess_document(d, "train", config)]

    expected = [run(c) for c in configs]
    assert len(set(map(tuple, expected))) == len(configs)
    got, errors = {}, []

    def worker(k):
        try:
            for _ in range(50):
                assert run(configs[k % len(configs)]) == \
                    expected[k % len(configs)]
            got[k] = True
        except Exception as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(got) == 6


# ---------------------------------------------------------------------------
# randomized structural invariants


@st.composite
def documents(draw):
    n_sent = draw(st.integers(1, 4))
    sentences = [
        draw(st.lists(st.sampled_from(["aa", "bb", "cc", "42", "*", "("]),
                      min_size=1, max_size=6))
        for _ in range(n_sent)
    ]
    mentions = []
    n_mentions = draw(st.integers(2, 4))
    for i in range(n_mentions):
        s = draw(st.integers(0, n_sent - 1))
        start = draw(st.integers(0, len(sentences[s]) - 1))
        end = draw(st.integers(start + 1, len(sentences[s])))
        mentions.append(Mention(f"E{draw(st.integers(0, 2))}", s, (start, end)))
    return Document(doc_id="R", sentences=sentences, mentions=mentions,
                    gold_relations=set())


@settings(max_examples=150, deadline=None)
@given(documents())
def test_random_documents_respect_instance_invariants(doc):
    instances = []
    for m1, m2 in generate_candidate_pairs(doc):
        inst = build_context_window(doc, m1, m2)
        if inst is not None:
            instances.append((inst, m1, m2))
    for inst, m1, m2 in instances:
        assert len(inst.tokens) == len(inst.pos1) == len(inst.pos2) >= 1
        assert all(p >= 1 for p in inst.pos1 + inst.pos2)
        assert inst.pair == sorted_pair(m1.entity_id, m2.entity_id)
        # windows and masking keep every surviving token nonempty
        assert all(inst.tokens)


# ---------------------------------------------------------------------------
# reference windowing: the original full-document implementation, kept
# verbatim as a test oracle (O(document) per pair)

logger = logging.getLogger(__name__)
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)%?$")


def _sentence_offsets(doc: Document) -> list[int]:
    offsets = [0]
    for sent in doc.sentences:
        offsets.append(offsets[-1] + len(sent))
    return offsets


def _flat_span(doc: Document, m: Mention, offsets: list[int]) -> tuple[int, int]:
    base = offsets[m.sentence_index]
    return (base + m.token_span[0], base + m.token_span[1])


def _mask_token(token: str) -> str | None:
    """Apply NUMBER replacement, then char stripping, then lone-punct drop."""
    if _NUMBER_RE.match(token):
        return NUMBER_TOKEN
    # the README's rules written out: strip * † ‡ § ® ™, then
    # drop a lone bracket
    stripped = "".join(c for c in token
                       if c not in "*\u2020\u2021\u00a7\u00ae\u2122")
    if not stripped or stripped in ("(", ")", "[", "]", "{", "}"):
        return None
    return stripped


def reference_build_context_window(
    doc: Document, m1: Mention, m2: Mention,
    config: PreprocessConfig | None = None,
) -> CandidateInstance | None:
    """One candidate instance for the mention pair, or None if masking
    empties the window (logged)."""
    config = config or PreprocessConfig()
    offsets = _sentence_offsets(doc)
    flat_tokens = [tok for sent in doc.sentences for tok in sent]
    n = len(flat_tokens)
    s1, e1 = _flat_span(doc, m1, offsets)
    s2, e2 = _flat_span(doc, m2, offsets)
    if s2 < s1:
        (s1, e1), (s2, e2) = (s2, e2), (s1, e1)
        m1, m2 = m2, m1

    focal = set(range(s1, e1)) | set(range(s2, e2))

    # counting sequence: every token outside the two focal spans
    counting = [0] * (n + 1)  # prefix counts of non-focal tokens
    for i in range(n):
        counting[i + 1] = counting[i] + (0 if i in focal else 1)

    def distance(t: int, span: tuple[int, int]) -> int:
        s, e = span
        if s <= t < e:
            return 0
        if t < s:
            between = counting[s] - counting[t + 1]
        else:
            between = counting[t] - counting[e]
        return between + 1

    window: list[int] = []
    for lo, hi in ((max(0, s1 - config.expansion), s1),
                   (e1, s2),
                   (e2, min(n, e2 + config.expansion))):
        for i in range(lo, hi):
            if i not in focal:
                window.append(i)

    # which non-focal mention instance (if any) owns each flat index
    owner: dict[int, int] = {}
    for mi, m in enumerate(doc.mentions):
        if m is m1 or m is m2:
            continue
        ms, me = _flat_span(doc, m, offsets)
        for i in range(ms, me):
            if i not in focal and i not in owner:
                owner[i] = mi

    tokens: list[str] = []
    pos1: list[int] = []
    pos2: list[int] = []
    k = 0
    while k < len(window):
        idx = window[k]
        if idx in owner:
            run = [idx]
            while (k + 1 < len(window) and window[k + 1] in owner
                   and owner[window[k + 1]] == owner[idx]
                   and window[k + 1] == window[k] + 1):
                k += 1
                run.append(window[k])
            tokens.append(GENE_MASK_TOKEN)
            pos1.append(min(distance(i, (s1, e1)) for i in run))
            pos2.append(min(distance(i, (s2, e2)) for i in run))
        else:
            masked = _mask_token(flat_tokens[idx])
            if masked is not None:
                tokens.append(masked)
                pos1.append(distance(idx, (s1, e1)))
                pos2.append(distance(idx, (s2, e2)))
        k += 1

    if not tokens:
        logger.info("%s: dropped empty window for pair (%s, %s)",
                    doc.doc_id, m1.entity_id, m2.entity_id)
        return None
    return CandidateInstance(
        doc_id=doc.doc_id,
        pair=sorted_pair(m1.entity_id, m2.entity_id),
        tokens=tokens, pos1=pos1, pos2=pos2)


_VOCAB = ["aa", "bb", "cc", "42", "-3.5%", "7*", "IL*2", "w\u2020", "*", "(",
          "]"]


@st.composite
def rich_documents(draw):
    """Multi-token, nested and overlapping mentions over 1-5 sentences,
    with gold relations, plus a config with random window limits."""
    n_sent = draw(st.integers(1, 5))
    sentences = [draw(st.lists(st.sampled_from(_VOCAB), min_size=1,
                               max_size=8))
                 for _ in range(n_sent)]
    mentions = []
    for _ in range(draw(st.integers(2, 7))):
        s = draw(st.integers(0, n_sent - 1))
        start = draw(st.integers(0, len(sentences[s]) - 1))
        end = draw(st.integers(start + 1, min(len(sentences[s]), start + 3)))
        mentions.append(Mention(f"E{draw(st.integers(0, 3))}", s, (start, end)))
    entities = sorted({m.entity_id for m in mentions})
    gold = {sorted_pair(a, b) for a in entities for b in entities
            if a < b and draw(st.booleans())}
    config = PreprocessConfig(max_sentence_distance=draw(st.integers(1, 4)),
                              expansion=draw(st.integers(0, 4)))
    return Document(doc_id="R", sentences=sentences, mentions=mentions,
                    gold_relations=gold), config


@settings(max_examples=300, deadline=None)
@given(rich_documents())
def test_windowing_matches_full_document_reference(doc_config):
    doc, config = doc_config
    got = preprocess_document(doc, "train", config)
    pairs = generate_candidate_pairs(doc, config)
    expected = [reference_build_context_window(doc, m1, m2, config)
                for m1, m2 in pairs]
    expected = assign_labels([i for i in expected if i is not None],
                             doc.gold_relations, "train")
    assert got == expected
    # a standalone call (building its own layout) gives the same windows
    standalone = [build_context_window(doc, m1, m2, config)
                  for m1, m2 in pairs]
    standalone = assign_labels([i for i in standalone if i is not None],
                               doc.gold_relations, "train")
    assert standalone == got


@settings(max_examples=100, deadline=None)
@given(rich_documents())
def test_instances_survive_json_roundtrips(doc_config):
    doc, config = doc_config
    direct = preprocess_document(doc, "train", config)
    parsed = document_from_json(document_to_json(doc))
    via_json = [instance_from_json(instance_to_json(i))
                for i in preprocess_document(parsed, "train", config)]
    assert via_json == direct
