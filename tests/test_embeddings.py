"""The matrix-backed embedding table shared by word vectors and the KB."""

import dataclasses

import numpy as np
import pytest

from ksm.inputs import InputError
from ksm.kb import (Embeddings, KnowledgeStore, init_embeddings,
                    read_embeddings, tail_rank, transe_train,
                    write_embeddings)
from ksm.model import WordTable
from ksm.synthetic import toy_knowledge_graph


def test_table_rows_follow_the_mapping_order():
    table = Embeddings.of({"b": [1.0, 2.0], "a": np.array([3.0, 4.0])}, 2)
    assert list(table) == ["b", "a"]
    assert table.index == {"b": 0, "a": 1}
    np.testing.assert_array_equal(table.matrix, [[1.0, 2.0], [3.0, 4.0]])
    assert table.matrix.flags.c_contiguous and table.matrix.dtype == np.float64
    assert [k for k, _ in table.items()] == ["b", "a"]


def test_assignment_writes_a_known_row_and_never_adds_one():
    table = Embeddings.of({"a": np.zeros(2), "b": np.zeros(2)}, 2)
    table["b"] = [5.0, 6.0]
    np.testing.assert_array_equal(table.matrix[1], [5.0, 6.0])
    with pytest.raises(KeyError):
        table["c"] = [1.0, 1.0]
    with pytest.raises(ValueError, match="table width 2"):
        table["a"] = [1.0]
    with pytest.raises(KeyError):
        table["c"]
    assert list(table) == ["a", "b"] and "c" not in table


def test_table_rejects_a_vector_of_another_width():
    with pytest.raises(ValueError,
                       match=r"'b' has shape \(3,\), expected \(2,\)"):
        Embeddings.of({"a": np.zeros(2), "b": np.zeros(3)}, 2)


# ---------------------------------------------------------------------------
# widths are checked where a table is built, never broadcast


@pytest.mark.parametrize("vectors, bad", [
    ({"a": np.ones(1), "b": np.zeros(1)}, "a"),
    ({"a": np.ones(4), "UNK": np.zeros(1)}, "UNK"),
], ids=["vectors", "unk"])
def test_word_table_rejects_a_width_other_than_d(vectors, bad):
    with pytest.raises(InputError, match=f"'{bad}' has shape \\(1,\\)"):
        WordTable(vectors, 4)


@pytest.mark.parametrize("field", ["entity_table", "relation_table"])
def test_store_rejects_a_width_other_than_d_kb(field):
    fields = {"entity_table": {"e1": np.zeros(4), "e2": np.zeros(4)},
              "relation_table": {"r": np.zeros(4)}}
    fields[field] = {k: v[:3] for k, v in fields[field].items()}
    with pytest.raises(InputError, match=r"shape \(3,\).*4"):
        KnowledgeStore(**fields, d_kb=4)


# ---------------------------------------------------------------------------
# word table edges


def test_empty_word_table_looks_up_the_unk_row():
    table = WordTable.random([], 3, seed=1)
    rows = table.lookup(["x"])
    assert rows.shape == (1, 3)
    np.testing.assert_array_equal(rows[0], table.unk)


def test_explicit_unk_is_the_unk_row_before_and_after_a_round_trip(tmp_path):
    table = WordTable({"UNK": np.full(2, 7.0), "a": np.zeros(2)}, 2)
    path = tmp_path / "words.txt"
    write_embeddings(path, table.vectors)
    for t in (table, WordTable.load(path)):
        np.testing.assert_array_equal(t.lookup(["UNK", "zz"]),
                                      np.full((2, 2), 7.0))


def test_word_table_unk_row_is_kept_in_place_or_appended_last():
    source = Embeddings.of({"a": np.ones(2), "UNK": np.full(2, 7.0),
                            "b": np.ones(2)}, 2)
    kept = WordTable(source, 2)
    assert kept.vectors is source                        # nothing to add
    np.testing.assert_array_equal(kept.unk, [7.0, 7.0])
    source = Embeddings.of({"a": np.ones(2), "b": np.full(2, 3.0)}, 2)
    appended = WordTable(source, 2)
    assert list(appended.vectors) == ["a", "b", "UNK"]
    assert list(source) == ["a", "b"]                    # source untouched
    np.testing.assert_array_equal(appended.vectors.matrix,
                                  [[1.0, 1.0], [3.0, 3.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# embedding files


def test_repeated_id_keeps_its_first_position_and_last_row(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\na 1 2\nb 3 4\na 5 6\n")
    table = read_embeddings(path)
    assert list(table) == ["a", "b"]
    np.testing.assert_array_equal(table.matrix, [[5.0, 6.0], [3.0, 4.0]])


def test_non_finite_value_on_an_overwritten_line_still_raises(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\na 1 nan\nb 3 4\na 5 6\n")
    with pytest.raises(InputError, match=r"emb\.txt:2: non-finite value"):
        read_embeddings(path)


def test_rows_beyond_the_header_count_are_all_read(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("1 1\n" + "".join(f"k{i} {i}\n" for i in range(40)))
    table = read_embeddings(path)
    assert len(table) == 40
    np.testing.assert_array_equal(table.matrix[:, 0], np.arange(40.0))


# ---------------------------------------------------------------------------
# knowledge store


@pytest.mark.parametrize("ids", [("zz", "r1", "e2"), ("e1", "zz", "e2"),
                                 ("e1", "r1", "zz")])
def test_tail_rank_unknown_id_raises_key_error(ids):
    store = init_embeddings(toy_knowledge_graph(), d_kb=4, seed=0)
    with pytest.raises(KeyError, match="zz"):
        tail_rank(store, *ids)


def test_replaced_store_with_copied_tables_trains_independently():
    # the copy that perfbench's prepare_kb makes of its pristine store
    triples = toy_knowledge_graph()
    original = init_embeddings(triples, d_kb=6, seed=1)
    before = (original.entity_table.matrix.tobytes(),
              original.relation_table.matrix.tobytes())
    copy = dataclasses.replace(
        original,
        entity_table={k: v.copy() for k, v in original.entity_table.items()},
        relation_table={k: v.copy()
                        for k, v in original.relation_table.items()})
    assert isinstance(copy.entity_table, Embeddings)
    assert copy.entity_table.matrix is not original.entity_table.matrix
    transe_train(triples, copy, epochs=5, lr=0.05, seed=2)
    assert copy.entity_table.matrix.tobytes() != before[0]
    assert (original.entity_table.matrix.tobytes(),
            original.relation_table.matrix.tobytes()) == before
