"""TransE embeddings: init, energy, training dynamics, pair resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksm import kb
from ksm.kb import KnowledgeStore
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


def test_toy_kb_loss_reaches_zero_once_corruptions_differ():
    # a corruption equal to its true triple would cost a full margin with
    # zero gradient, and floor the mean loss near 0.25 on this 4-entity KB
    for seed in (2, 3, 4):
        store = _store(d_kb=16, seed=1)
        losses = transe_train(toy_knowledge_graph(), store, margin=1.0,
                              epochs=200, lr=0.05, seed=seed)
        assert np.mean(losses[100:]) < 0.05, seed


def test_margin_must_be_positive():
    with pytest.raises(KBError):
        transe_train(toy_knowledge_graph(), _store(), margin=0.0)


@pytest.mark.parametrize("name, value", [
    ("margin", float("nan")), ("margin", float("inf")), ("margin", -1.0),
    ("lr", -0.05), ("lr", float("nan")), ("lr", float("inf"))])
def test_transe_rejects_bad_margin_or_lr_before_touching_the_store(name,
                                                                   value):
    store = _store()
    before = (store.entity_table.matrix.copy(),
              store.relation_table.matrix.copy())
    with pytest.raises(KBError, match=rf"{name} must be .*, got {value}"):
        transe_train(toy_knowledge_graph(), store, epochs=3, **{name: value})
    assert store.entity_table.matrix.tobytes() == before[0].tobytes()
    assert store.relation_table.matrix.tobytes() == before[1].tobytes()


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


def test_three_relations_pool_bit_identical_to_the_mean_of_their_rows():
    # both directions pool, in triple order; the pooled vector is the mean
    # of the table rows, exactly as a mean over the separate vectors
    triples = [Triple("a", "r3", "b"), Triple("b", "r1", "a"),
               Triple("a", "r2", "b"), Triple("a", "r1", "c")]
    store = init_embeddings(triples, d_kb=16, seed=4)
    kn = resolve_pair_knowledge(store, "b", "a")
    want = np.mean([store.relation_table[r] for r in ("r3", "r1", "r2")],
                   axis=0)
    assert kn.er.tobytes() == want.tobytes()
    assert not kn.er_is_null


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


def _saved_store(tmp_path):
    store = _store(d_kb=4, seed=2)
    save_store(store, tmp_path / "kb")
    return store, tmp_path / "kb"


def _set_last_value(path, lineno, value):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = " ".join(lines[lineno - 1].split()[:-1] + [value])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value,error", [
    ("x", "could not convert string to float: 'x'"),
    ("nan", "non-finite value"),
    ("-inf", "non-finite value")])
@pytest.mark.parametrize("loader", ["read_embeddings", "WordTable.load",
                                    "load_store"])
def test_embedding_value_must_be_finite_number(tmp_path, loader, value,
                                               error):
    from ksm.model import WordTable
    if loader == "load_store":
        _, target = _saved_store(tmp_path)
        path, load = target / "entities.txt", load_store
    else:
        path = target = tmp_path / "emb.txt"
        write_embeddings(path, {k: np.array([0.5, -1.0]) for k in "abc"})
        load = {"read_embeddings": read_embeddings,
                "WordTable.load": WordTable.load}[loader]
    _set_last_value(path, 3, value)
    with pytest.raises(KBError, match=rf"{path.name}:3: {error}"):
        load(target)


@pytest.mark.parametrize("keep", [None, "__null__"])
def test_load_store_rejects_relation_width_mismatch(tmp_path, keep):
    # relations.txt at width 3 beside width-4 entities: every relation,
    # or only the null vector
    _, kb_dir = _saved_store(tmp_path)
    relations = read_embeddings(kb_dir / "relations.txt")
    write_embeddings(kb_dir / "relations.txt",
                     {k: v[:3] for k, v in relations.items()
                      if keep in (None, k)})
    with pytest.raises(KBError, match=r"relations\.txt.*width 3.*4"):
        load_store(kb_dir)


@pytest.mark.parametrize("line, message", [
    ("e1\te2\n", "expected entity"),
    ("e1\te2\tunknown_rel\n", "relation 'unknown_rel' is not in relations"),
], ids=["two_fields", "unknown_label"])
def test_load_store_rejects_bad_pair_line(tmp_path, line, message):
    _, kb_dir = _saved_store(tmp_path)
    with open(kb_dir / "pairs.tsv", "a", encoding="utf-8") as f:
        f.write(line)
    with pytest.raises(KBError, match=rf"pairs\.tsv:5: {message}"):
        load_store(kb_dir)


def test_load_store_sorts_pair_keys(tmp_path):
    store, kb_dir = _saved_store(tmp_path)
    (kb_dir / "pairs.tsv").write_text("e2\te1\tr1\n")
    back = load_store(kb_dir)
    assert back.pair_relations == {("e1", "e2"): ["r1"]}
    kn = resolve_pair_knowledge(back, "e1", "e2")
    assert not kn.er_is_null
    np.testing.assert_array_equal(kn.er, store.relation_table["r1"])


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


# ---------------------------------------------------------------------------
# boundary errors: the store is written only when training succeeds


def _snapshot(store):
    return ({k: v.copy() for k, v in store.entity_table.items()},
            {k: v.copy() for k, v in store.relation_table.items()})


def _assert_unchanged(store, snapshot):
    entities, relations = snapshot
    assert store.entity_table.keys() == entities.keys()
    assert store.relation_table.keys() == relations.keys()
    for k, v in entities.items():
        np.testing.assert_array_equal(store.entity_table[k], v)
    for k, v in relations.items():
        np.testing.assert_array_equal(store.relation_table[k], v)


@pytest.mark.parametrize("bad, missing", [
    (Triple("e1", "r1", "zz_unknown"), "zz_unknown"),
    (Triple("zz_unknown", "r1", "e2"), "zz_unknown"),
    (Triple("e1", "r_unknown", "e2"), "r_unknown"),
])
def test_triple_with_unknown_id_rejected_before_any_update(bad, missing):
    store = _store(d_kb=8, seed=1)
    snapshot = _snapshot(store)
    triples = toy_knowledge_graph() + [bad]
    with pytest.raises(KBError, match=rf"triple 4 .*'{missing}'"):
        transe_train(triples, store, epochs=3, lr=0.05, seed=2)
    _assert_unchanged(store, snapshot)


@pytest.mark.parametrize("table, key, value", [
    ("entity_table", "e1", np.nan),
    ("entity_table", "e3", np.inf),
    ("relation_table", "r2", -np.inf),
])
def test_non_finite_training_raises_and_leaves_store(table, key, value):
    store = _store(d_kb=8, seed=1)
    getattr(store, table)[key] = np.full(8, value)
    snapshot = _snapshot(store)
    with np.errstate(invalid="ignore"), pytest.raises(KBError,
                                                      match="epoch 0"):
        transe_train(toy_knowledge_graph(), store, epochs=3, lr=0.05, seed=2)
    _assert_unchanged(store, snapshot)


def test_triples_over_one_entity_rejected_before_any_update():
    triples = [Triple("a", "r", "a")]
    store = init_embeddings(triples, d_kb=4, seed=0)
    snapshot = _snapshot(store)
    with pytest.raises(KBError, match="at least 2"):
        transe_train(triples, store, epochs=3, lr=0.05)
    _assert_unchanged(store, snapshot)
    with pytest.raises(KBError, match="at least 2"):
        mean_energies(triples, store)


def test_empty_store_and_triples_train_to_zero_loss():
    store = KnowledgeStore(entity_table={}, relation_table={},
                           null_relation=np.zeros(4), d_kb=4)
    assert transe_train([], store, epochs=2) == [0.0, 0.0]
    assert store.entity_table == {} and store.relation_table == {}


# ---------------------------------------------------------------------------
# one minibatch step against per-triple gradients at the batch-start point


def _reference_step(E, R, batch, margin, lr):
    """Per-triple analytic gradients, all taken at the batch-start E and R,
    summed into copies with a Python loop; returns (E, R, summed hinge)."""
    E_new, R_new, total = E.copy(), R.copy(), 0.0
    for h, r, t, hn, tn in batch:
        d_pos = E[h] + R[r] - E[t]
        d_neg = E[hn] + R[r] - E[tn]
        e_pos, e_neg = np.linalg.norm(d_pos), np.linalg.norm(d_neg)
        loss = margin + e_pos - e_neg
        if loss <= 0:
            continue
        total += loss
        g_pos = d_pos / e_pos if e_pos > 0 else np.zeros_like(d_pos)
        g_neg = d_neg / e_neg if e_neg > 0 else np.zeros_like(d_neg)
        E_new[h] -= lr * g_pos
        E_new[t] += lr * g_pos
        E_new[hn] += lr * g_neg
        E_new[tn] -= lr * g_neg
        R_new[r] -= lr * (g_pos - g_neg)
    return E_new, R_new, total


def _step(E, R, batch, margin, lr):
    E, R = E.copy(), R.copy()
    h, r, t, hn, tn = np.array(batch, dtype=np.intp).reshape(-1, 5).T
    total = kb._minibatch_step(E, R, h, r, t, hn, tn, margin, lr)
    return E, R, total


def _tables(n_entities=6, n_relations=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-0.5, 0.5, (n_entities, d)),
            rng.uniform(-0.5, 0.5, (n_relations, d)))


def _assert_steps_match(E, R, batch, margin=1.0, lr=0.1):
    got_E, got_R, got_total = _step(E, R, batch, margin, lr)
    ref_E, ref_R, ref_total = _reference_step(E, R, batch, margin, lr)
    np.testing.assert_allclose(got_E, ref_E, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_R, ref_R, rtol=0, atol=1e-12)
    assert got_total == pytest.approx(ref_total, rel=1e-12)
    return got_E, got_R


def test_minibatch_step_sums_per_triple_gradients_at_batch_start():
    E, R = _tables(n_entities=12, n_relations=3, d=7, seed=1)
    rng = np.random.default_rng(2)
    batch = [(int(rng.integers(12)), int(rng.integers(3)), int(rng.integers(12)),
              int(rng.integers(12)), int(rng.integers(12))) for _ in range(40)]
    got_E, _ = _assert_steps_match(E, R, batch, margin=2.0, lr=0.05)
    assert not np.array_equal(got_E, E)


def test_minibatch_step_adds_up_repeated_rows():
    E, R = _tables(seed=3)
    batch = [
        (0, 0, 0, 3, 0),   # self-loop h == t, corrupted head
        (2, 1, 4, 2, 2),   # corrupted tail drawn equal to the head
        (5, 2, 1, 5, 1),   # corruption redrew the true tail: steps cancel
        (1, 1, 2, 1, 4),   # entity 1 as head, corrupted tail
        (1, 0, 3, 0, 3),   # entity 1 again, and 3 as tail and corrupted tail
        (4, 1, 1, 2, 1),   # entity 1 as tail, relation 1 again
    ]
    got_E, got_R = _assert_steps_match(E, R, batch, margin=3.0, lr=0.1)
    # every triple is active at this margin, so rows 0 and 1 take several
    # non-cancelling steps; keeping only one of them would show here
    assert not np.allclose(got_E[1], E[1])


def test_zero_energy_triple_gets_zero_gradient_not_nan():
    # dyadic values: h + r - t is exactly zero
    E = np.array([[0.25, 0.5], [0.5, 0.25], [-0.5, 0.75]])
    R = np.array([[0.25, -0.25]])
    # true and corrupted energy both zero: hinge = margin, every step zero
    got_E, got_R, total = _step(E, R, [(0, 0, 1, 0, 1)], 1.0, 0.1)
    assert total == 1.0
    np.testing.assert_array_equal(got_E, E)
    np.testing.assert_array_equal(got_R, R)
    # true energy zero, corrupted energy positive: only the negative side moves
    got_E, got_R = _assert_steps_match(E, R, [(0, 0, 1, 0, 2)], margin=5.0)
    assert np.isfinite(got_E).all() and np.isfinite(got_R).all()
    np.testing.assert_array_equal(got_E[1], E[1])


def test_inactive_hinge_changes_nothing():
    E = np.array([[0.25, 0.5], [0.5, 0.25], [-0.5, 0.75], [0.0, 0.0]])
    R = np.array([[0.25, -0.25], [0.5, 0.5]])
    # true triple at zero energy, corrupted copy 1.25 away: hinge inactive
    inactive = (0, 0, 1, 0, 2)
    got_E, got_R, total = _step(E, R, [inactive], 1.0, 0.1)
    assert total == 0.0
    np.testing.assert_array_equal(got_E, E)
    np.testing.assert_array_equal(got_R, R)
    # mixed with an active triple, the step equals the active triple's alone
    active = (3, 1, 2, 1, 3)
    mixed = _step(E, R, [inactive, active, inactive], 1.0, 0.1)
    alone = _step(E, R, [active], 1.0, 0.1)
    assert alone[2] > 0
    for got, want in zip(mixed, alone):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# the original per-triple SGD loop, kept as a test-only quality reference


def _reference_project_unit_ball(table):
    for eid, v in table.items():
        norm = np.linalg.norm(v)
        if norm > 1.0:
            table[eid] = v / norm


def reference_transe_train(triples, store, margin=1.0, epochs=100, lr=0.01,
                           seed=0):
    entities = sorted(store.entity_table)
    rng = np.random.default_rng(seed)

    def other_than(eid):
        """A uniform draw from the entities other than `eid`."""
        k = int(rng.integers(len(entities) - 1))
        return entities[k + (k >= entities.index(eid))]

    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        for i in order:
            h_id, r_id, t_id = triples[i]
            if rng.random() < 0.5:
                corrupt_head = True
                neg = (other_than(h_id), r_id, t_id)
            else:
                corrupt_head = False
                neg = (h_id, r_id, other_than(t_id))
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
            store.entity_table[h_id] = h - lr * g_pos
            store.entity_table[t_id] = store.entity_table[t_id] + lr * g_pos
            store.relation_table[r_id] = r - lr * (g_pos - g_neg)
            if corrupt_head:
                store.entity_table[neg[0]] = store.entity_table[neg[0]] + lr * g_neg
                store.entity_table[t_id] = store.entity_table[t_id] - lr * g_neg
            else:
                store.entity_table[h_id] = store.entity_table[h_id] + lr * g_neg
                store.entity_table[neg[2]] = store.entity_table[neg[2]] - lr * g_neg
        _reference_project_unit_ball(store.entity_table)
        losses.append(total / max(1, len(triples)))
    return losses


def _typed_kb(seed, groups=6, per_group=50, relations=6, n_triples=1500):
    """Relation k links entity group a_k to group b_k, so a corrupted triple
    mostly breaks the typing and training can open an energy gap."""
    rng = np.random.default_rng(seed)
    entities = [f"E{k}" for k in range(groups * per_group)]
    rels = [(f"r{k}", int(rng.integers(groups)), int(rng.integers(groups)))
            for k in range(relations)]
    triples = set()
    while len(triples) < n_triples:
        name, a, b = rels[int(rng.integers(relations))]
        h = entities[a * per_group + int(rng.integers(per_group))]
        t = entities[b * per_group + int(rng.integers(per_group))]
        if h != t:
            triples.add(Triple(h, name, t))
    return sorted(triples)


def test_minibatch_trainer_keeps_the_per_triple_energy_gap():
    triples = _typed_kb(seed=11)
    gaps = []
    for train in (transe_train, reference_transe_train):
        store = init_embeddings(triples, d_kb=20, seed=4)
        train(triples, store, epochs=20, lr=0.01, seed=5)
        true_e, corrupt_e = mean_energies(triples, store, seed=6)
        gaps.append(corrupt_e - true_e)
    new_gap, reference_gap = gaps
    assert reference_gap > 0.1
    assert new_gap >= 0.98 * reference_gap


# ---------------------------------------------------------------------------
# tail rank against a brute-force loop


def reference_tail_rank(store, h_id, r_id, t_id):
    h = store.entity_table[h_id]
    r = store.relation_table[r_id]
    target = transe_energy(h, r, store.entity_table[t_id])
    better = sum(
        1 for eid, v in store.entity_table.items()
        if eid != t_id and transe_energy(h, r, v) < target)
    return better + 1


@st.composite
def grid_stores(draw):
    """Small stores on a dyadic grid: every energy is computed exactly in
    any summation order, and ties are frequent."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    vec = st.lists(st.integers(-8, 8), min_size=d, max_size=d).map(
        lambda v: np.array(v) / 4.0)
    entities = {f"e{k}": draw(vec) for k in range(n)}
    store = KnowledgeStore(entity_table=entities,
                           relation_table={"r": draw(vec)},
                           null_relation=np.zeros(d), d_kb=d)
    return store, draw(st.sampled_from(sorted(entities))), draw(
        st.sampled_from(sorted(entities)))


@settings(max_examples=300, deadline=None)
@given(grid_stores())
def test_tail_rank_matches_brute_force_loop(case):
    store, h_id, t_id = case
    assert tail_rank(store, h_id, "r", t_id) == reference_tail_rank(
        store, h_id, "r", t_id)
