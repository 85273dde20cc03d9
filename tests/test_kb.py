"""TransE embeddings: init, energy, training dynamics, pair resolution."""

import numpy as np
import pytest

from ksm.kb import (KBError, Triple, init_embeddings,
                    load_store, mean_energies, read_embeddings, read_triples,
                    resolve_pair_knowledge, save_store, tail_rank,
                    transe_energy, transe_train, write_embeddings)
from ksm.synthetic import toy_knowledge_graph


def _store(d_kb=8, seed=0):
    return init_embeddings(toy_knowledge_graph(), d_kb=d_kb, seed=seed)


# ---------------------------------------------------------------------------
# init


def test_entity_vector_averages_mention_words():
    words = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    lexicon = {"e1": ["a", "b"], "e2": ["a"]}
    store = init_embeddings([Triple("e1", "r", "e2")], words, lexicon, d_kb=2)
    np.testing.assert_allclose(store.entity_table["e1"], [0.5, 0.5])
    np.testing.assert_allclose(store.entity_table["e2"], [1.0, 0.0])


def test_unknown_mention_words_are_skipped():
    words = {"a": np.array([2.0, 4.0])}
    lexicon = {"e1": ["a", "zz"], "e2": ["qq"]}
    store = init_embeddings([Triple("e1", "r", "e2")], words, lexicon, d_kb=2)
    np.testing.assert_allclose(store.entity_table["e1"], [2.0, 4.0])
    # all-unknown falls back to a small random vector
    assert np.all(np.abs(store.entity_table["e2"]) <= 0.5 / 2)


def test_relation_init_statistics():
    # 100 relations x 100 dims = 10k samples of N(0, 1/d_kb)
    triples = [Triple("h", f"r{i}", "t") for i in range(100)]
    store = init_embeddings(triples, d_kb=100, seed=5)
    samples = np.concatenate([store.relation_table[f"r{i}"]
                              for i in range(100)])
    assert abs(samples.mean()) < 0.01
    assert abs(samples.var() - 1.0 / 100) < 0.1 / 100


def test_null_relation_starts_at_zero():
    store = _store()
    np.testing.assert_array_equal(store.null_relation, np.zeros(8))


def test_empty_triples_rejected():
    with pytest.raises(KBError):
        init_embeddings([], d_kb=4)


def test_word_dim_mismatch_rejected():
    with pytest.raises(KBError):
        init_embeddings([Triple("a", "r", "b")], {"w": np.zeros(3)},
                        {"a": ["w"]}, d_kb=2)


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_on_exact_translation():
    h = np.array([0.3, -0.2])
    r = np.array([0.1, 0.5])
    assert transe_energy(h, r, h + r) == 0.0


def test_energy_direct_norm():
    e = transe_energy(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                      np.array([0.0, 0.0]))
    assert abs(e - np.sqrt(2.0)) < 1e-12


def test_energy_reverse_symmetry():
    rng = np.random.default_rng(0)
    h, r, t = rng.standard_normal((3, 6))
    assert transe_energy(h, r, t) == pytest.approx(transe_energy(t, -r, h),
                                                   abs=1e-12)


def test_energy_dimension_mismatch():
    with pytest.raises(KBError):
        transe_energy(np.zeros(2), np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# training


def test_zero_epochs_leaves_store_unchanged():
    store = _store(seed=3)
    before = {k: v.copy() for k, v in store.entity_table.items()}
    losses = transe_train(toy_knowledge_graph(), store, epochs=0, seed=1)
    assert losses == []
    for k, v in store.entity_table.items():
        np.testing.assert_array_equal(v, before[k])


def test_training_separates_true_from_corrupted():
    triples = toy_knowledge_graph()
    store = _store(d_kb=16, seed=1)
    losses = transe_train(triples, store, margin=1.0, epochs=200, lr=0.05,
                          seed=2)
    true_e, corrupt_e = mean_energies(triples, store, seed=3)
    assert true_e < corrupt_e
    assert np.isfinite(losses).all()
    assert losses[-1] <= losses[0]


def test_true_tails_rank_high():
    triples = toy_knowledge_graph()
    store = _store(d_kb=16, seed=1)
    transe_train(triples, store, margin=1.0, epochs=200, lr=0.05, seed=2)
    ranks = [tail_rank(store, h, r, t) for h, r, t in triples]
    assert sum(1 for r in ranks if r <= 2) / len(ranks) >= 0.9


def test_entity_norms_projected_to_unit_ball():
    triples = toy_knowledge_graph()
    store = _store(d_kb=16, seed=4)
    # inflate an entity so the projection has to act every epoch
    store.entity_table["e1"] *= 50.0
    for _ in range(3):
        transe_train(triples, store, epochs=1, lr=0.05, seed=5)
        for v in store.entity_table.values():
            assert np.linalg.norm(v) <= 1.0 + 1e-9


def test_training_is_deterministic():
    def run():
        store = _store(d_kb=8, seed=9)
        transe_train(toy_knowledge_graph(), store, epochs=30, lr=0.05, seed=6)
        return {k: v.tobytes() for k, v in store.entity_table.items()}

    assert run() == run()


def test_margin_must_be_positive():
    with pytest.raises(KBError):
        transe_train(toy_knowledge_graph(), _store(), margin=0.0)


# ---------------------------------------------------------------------------
# pair resolution


def test_single_matching_triple_returns_its_relation():
    store = _store()
    kn = resolve_pair_knowledge(store, "e1", "e2")
    np.testing.assert_array_equal(kn.er, store.relation_table["r1"])
    assert not kn.er_is_null


def test_multiple_relations_average_elementwise():
    triples = [Triple("a", "r1", "b"), Triple("a", "r2", "b")]
    store = init_embeddings(triples, d_kb=4, seed=0)
    kn = resolve_pair_knowledge(store, "a", "b")
    expected = (store.relation_table["r1"] + store.relation_table["r2"]) / 2
    np.testing.assert_allclose(kn.er, expected)


def test_first_pool_policy_uses_lowest_label():
    triples = [Triple("a", "rB", "b"), Triple("a", "rA", "b")]
    store = init_embeddings(triples, d_kb=4, seed=0)
    store.relation_pool = "first"
    kn = resolve_pair_knowledge(store, "a", "b")
    np.testing.assert_array_equal(kn.er, store.relation_table["rA"])


def test_missing_pair_falls_back_to_null():
    store = _store()
    kn = resolve_pair_knowledge(store, "e1", "nonexistent")
    assert kn.er_is_null
    np.testing.assert_array_equal(kn.er, store.null_relation)
    assert store.stats["null_relation"] == 1
    assert store.stats["entity_fallback"] == 1  # the unknown entity


def test_fallback_vector_depends_only_on_the_entity_id():
    store = _store(d_kb=8)
    first = resolve_pair_knowledge(store, "nope", "e1").e1
    np.testing.assert_array_equal(
        resolve_pair_knowledge(store, "e1", "nope").e2, first)  # other slot
    np.testing.assert_array_equal(
        resolve_pair_knowledge(store, "other", "nope").e2, first)  # both fall back
    np.testing.assert_array_equal(
        resolve_pair_knowledge(store, "nope", "e2").e1, first)  # a later call
    assert store.stats["entity_fallback"] == 5
    assert first.shape == (8,) and np.all(np.abs(first) <= 0.5 / 8)


def test_distinct_unknown_ids_get_distinct_fallback_vectors():
    store = _store(d_kb=8)
    kn = resolve_pair_knowledge(store, "unknown_a", "unknown_b")
    assert kn.e1_is_fallback and kn.e2_is_fallback
    assert not np.array_equal(kn.e1, kn.e2)


def test_fallback_prefers_mention_average():
    words = {"a": np.array([1.0, 3.0])}
    store = init_embeddings([Triple("e1", "r", "e2")], words,
                            {"e1": ["a"], "new": ["a"]}, d_kb=2)
    kn = resolve_pair_knowledge(store, "new", "e1")
    assert kn.e1_is_fallback
    np.testing.assert_array_equal(kn.e1, [1.0, 3.0])


def test_resolution_is_symmetric_in_pair_order():
    triples = [Triple("a", "r1", "b"), Triple("b", "r2", "a")]
    store = init_embeddings(triples, d_kb=4, seed=0)
    k1 = resolve_pair_knowledge(store, "a", "b")
    k2 = resolve_pair_knowledge(store, "b", "a")
    np.testing.assert_array_equal(k1.er, k2.er)  # both orders pooled


# ---------------------------------------------------------------------------
# files


def test_triple_file_roundtrip_and_dedup(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("a\tr1\tb\nb\tr2\tc\na\tr1\tb\n")
    triples = read_triples(path)
    assert triples == [Triple("a", "r1", "b"), Triple("b", "r2", "c")]


def test_malformed_triple_line_reports_location(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("a\tr1\tb\nbroken line\n")
    with pytest.raises(KBError, match=r"triples\.tsv:2"):
        read_triples(path)


def test_embedding_file_roundtrip(tmp_path):
    table = {"x": np.array([0.125, -3.5]), "y": np.array([1e-17, 2.0])}
    path = tmp_path / "emb.txt"
    write_embeddings(path, table)
    header = path.read_text().splitlines()[0]
    assert header == "2 2"
    back = read_embeddings(path)
    for k in table:
        np.testing.assert_array_equal(back[k], table[k])


def test_bad_embedding_header(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("nonsense\n")
    with pytest.raises(KBError, match=":1"):
        read_embeddings(path)


def test_store_roundtrip(tmp_path):
    triples = toy_knowledge_graph()
    store = _store(d_kb=6, seed=2)
    transe_train(triples, store, epochs=5, lr=0.05, seed=3)
    save_store(store, tmp_path / "kb")
    back = load_store(tmp_path / "kb")
    assert back.d_kb == 6
    for k, v in store.entity_table.items():
        np.testing.assert_array_equal(back.entity_table[k], v)
    np.testing.assert_array_equal(back.null_relation, store.null_relation)
    assert back.pair_relations == store.pair_relations
