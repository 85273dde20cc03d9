"""Training loop, prediction aggregation and micro-averaged scoring."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksm.autodiff import backward, no_grad
from ksm.corpus import (LABEL_NEGATIVE, LABEL_POSITIVE, LABEL_UNLABELED,
                        CandidateInstance)
from ksm.gradcheck import toy_batch
from ksm.kb import Triple, init_embeddings
from ksm.model import CLASS_POSITIVE, KSMModel, ModelConfig, WordTable
from ksm.optim import Adadelta
from ksm.synthetic import (kb_for_instances, separable_instances,
                           separable_task)
from ksm.train import (InstancePrediction, TrainConfig,
                       accumulate_batch_gradient, aggregate_predictions,
                       micro_prf, predict_instances, prf_counts,
                       prf_from_counts, read_predictions, resolve_batch,
                       train_model, training_accuracy, write_predictions)


def _task(n=40, **model_overrides):
    d = 16
    instances, store, table = separable_task(n=n, d=d, seed=0)
    cfg = dict(d=d, d_kb=d, n_heads=2, n_blocks=2, dropout_rate=0.1,
               max_distance=16)
    cfg.update(model_overrides)
    model = KSMModel(ModelConfig(**cfg), table, seed=1,
                     null_relation=store.null_relation)
    return instances, store, model


# ---------------------------------------------------------------------------
# aggregation


def test_one_positive_instance_flips_the_pair():
    preds = [InstancePrediction("d", ("A", "B"), False),
             InstancePrediction("d", ("A", "B"), True),
             InstancePrediction("d", ("A", "B"), False)]
    assert aggregate_predictions(preds) == {"d": {("A", "B")}}


def test_all_negative_instances_leave_pair_out():
    preds = [InstancePrediction("d", ("A", "B"), False)] * 3
    assert aggregate_predictions(preds) == {}


def test_same_pair_counted_per_document():
    preds = [InstancePrediction("d1", ("A", "B"), True),
             InstancePrediction("d2", ("B", "A"), True)]
    out = aggregate_predictions(preds)
    assert out == {"d1": {("A", "B")}, "d2": {("A", "B")}}


@given(st.lists(st.tuples(st.sampled_from(["d1", "d2"]),
                          st.sampled_from([("A", "B"), ("B", "C"), ("A", "C")]),
                          st.booleans()), max_size=20))
def test_aggregation_idempotent_and_order_independent(raw):
    preds = [InstancePrediction(*p) for p in raw]
    once = aggregate_predictions(preds)
    assert aggregate_predictions(preds[::-1]) == once
    # re-aggregating the aggregate's positives is a fixed point
    again = aggregate_predictions(
        [InstancePrediction(d, p, True) for d, ps in once.items() for p in ps])
    assert again == once


# ---------------------------------------------------------------------------
# scoring


def test_prf_from_paper_error_counts():
    prf = prf_from_counts(tp=325, fp=513, fn=544)
    assert prf.precision * 100 == pytest.approx(38.78, abs=0.01)
    assert prf.recall * 100 == pytest.approx(37.40, abs=0.01)
    assert prf.f1 * 100 == pytest.approx(38.08, abs=0.01)


def test_perfect_predictions_score_one():
    gold = {"d1": {("A", "B")}, "d2": {("C", "D"), ("E", "F")}}
    assert micro_prf(gold, gold) == (1.0, 1.0, 1.0)


def test_empty_predictions_score_zero_by_convention():
    gold = {"d1": {("A", "B")}}
    assert micro_prf({}, gold) == (0.0, 0.0, 0.0)


def test_pair_order_never_matters():
    pred = {"d": {("B", "A")}}
    gold = {"d": {("A", "B")}}
    assert micro_prf(pred, gold) == (1.0, 1.0, 1.0)


def _brute_force_counts(pred, gold):
    """Set-free oracle: count by linear membership scans."""
    tp = fp = fn = 0
    docs = sorted(set(list(pred) + list(gold)))
    for doc in docs:
        p_pairs = [tuple(sorted(x)) for x in pred.get(doc, [])]
        g_pairs = [tuple(sorted(x)) for x in gold.get(doc, [])]
        for pair in p_pairs:
            if pair in g_pairs:
                tp += 1
            else:
                fp += 1
        for pair in g_pairs:
            if pair not in p_pairs:
                fn += 1
    return tp, fp, fn


def test_scorer_matches_brute_force_on_1000_random_cases():
    rng = np.random.default_rng(123)
    entities = ["A", "B", "C", "D", "E"]
    for _ in range(1000):
        pred, gold = {}, {}
        for side in (pred, gold):
            for doc in range(rng.integers(0, 4)):
                pairs = set()
                for _ in range(rng.integers(0, 4)):
                    a, b = rng.choice(len(entities), size=2, replace=False)
                    pairs.add(tuple(sorted((entities[a], entities[b]))))
                if pairs:
                    side[f"doc{doc}"] = pairs
        want = _brute_force_counts(pred, gold)
        assert prf_counts(pred, gold) == want
        p, r, f = prf_from_counts(*want)
        got = micro_prf(pred, gold)
        assert got == (p, r, f)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_f1_lies_between_precision_and_recall(tp, fp, fn):
    p, r, f = prf_from_counts(tp, fp, fn)
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
    if p + r > 0:
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


# ---------------------------------------------------------------------------
# training loop


def test_empty_training_set_is_a_usage_error():
    _, store, model = _task()
    with pytest.raises(ValueError, match="empty"):
        train_model([], store, model, TrainConfig())


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1])
def test_train_config_rejects_non_finite_or_negative_lr(lr):
    with pytest.raises(ValueError, match="lr must be finite and nonnegative"):
        TrainConfig(lr=lr)


def test_unlabeled_instances_rejected():
    instances, store, model = _task()
    instances[0].label = LABEL_UNLABELED
    with pytest.raises(ValueError, match="labeled"):
        train_model(instances, store, model, TrainConfig())


def test_training_is_deterministic_per_seed():
    def run():
        instances, store, model = _task()
        tc = TrainConfig(batch_size=8, lr=0.02, max_epochs=3, patience=10,
                         seed=5, holdout_fraction=0.0)
        result = train_model(instances, store, model, tc)
        return [e.train_loss for e in result.log]

    a, b = run(), run()
    assert a == b


def test_lr_zero_leaves_loss_unchanged_across_epochs():
    instances, store, model = _task(dropout_rate=0.0)
    tc = TrainConfig(batch_size=8, lr=0.0, max_epochs=4, patience=10,
                     seed=2, holdout_fraction=0.0)
    result = train_model(instances, store, model, tc)
    losses = [e.train_loss for e in result.log]
    assert max(losses) - min(losses) < 1e-12


def test_full_set_loss_monotone_with_small_lr():
    # evaluate on the full set after each epoch; lr=1e-3 steps must never
    # increase it by more than the stated tolerance
    instances, store, model = _task(dropout_rate=0.0)
    resolved = resolve_batch(instances, store)
    optimizer = Adadelta(model.params, lr=1e-3)
    rng = np.random.default_rng(7)

    def full_loss():
        with no_grad():
            return accumulate_batch_gradient(model, resolved, None)

    losses = [full_loss()]
    for _ in range(10):
        order = rng.permutation(len(resolved))
        for start in range(0, len(order), 8):
            batch = [resolved[i] for i in order[start:start + 8]]
            model.params.zero_grad()
            accumulate_batch_gradient(model, batch, rng)
            optimizer.step()
        losses.append(full_loss())
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-6


def test_overfits_separable_set():
    instances, store, model = _task()
    tc = TrainConfig(batch_size=8, lr=0.02, max_epochs=50, patience=50,
                     seed=3, holdout_fraction=0.0)
    train_model(instances, store, model, tc)
    assert training_accuracy(model, instances, store) == 1.0


def test_holdout_split_is_deterministic_and_tracks_best():
    instances, store, model = _task()
    # give every instance a distinct doc id so hashing spreads them
    for k, inst in enumerate(instances):
        inst.doc_id = f"doc{k}"
    tc = TrainConfig(batch_size=8, lr=0.02, max_epochs=4, patience=10,
                     seed=4, holdout_fraction=0.3)
    result = train_model(instances, store, model, tc)
    assert any(e.is_best for e in result.log)
    assert all(np.isfinite(e.eval_f1) for e in result.log)
    assert 0 <= result.best_epoch < len(result.log)


def test_early_stopping_respects_patience():
    # one instance, lr=0, no dropout: every epoch loss is bit-identical,
    # so nothing improves after epoch 0 and patience cuts the run
    instances, store, model = _task(dropout_rate=0.0)
    tc = TrainConfig(batch_size=8, lr=0.0, max_epochs=30, patience=2,
                     seed=5, holdout_fraction=0.0)
    result = train_model(instances[:1], store, model, tc)
    assert len(result.log) == 4


def test_non_finite_loss_stops_training_with_epoch_and_batch():
    instances, store, model = _task()
    model.params["classifier.b"].data[:] = np.nan
    before = model.params.clone_values()
    tc = TrainConfig(batch_size=8, max_epochs=2, holdout_fraction=0.0)
    with pytest.raises(ValueError, match="non-finite training loss .* "
                                         "epoch 0, batch 0"):
        train_model(instances, store, model, tc)
    # no optimizer step ran on the poisoned batch
    for name, value in before.items():
        np.testing.assert_array_equal(model.params[name].data, value)


def test_non_finite_gradient_stops_training_naming_first_parameter(
        monkeypatch):
    instances, store, model = _task()
    names = model.params.names()
    calls, at_poison = [], {}

    def poisoned(loss, params):
        # the first instance of the second batch leaves a NaN in two
        # gradients, the earlier parameter in store order being names[-3]
        backward(loss, params)
        calls.append(1)
        if len(calls) == tc.batch_size + 1:
            at_poison.update(params.clone_values())
            for name in (names[-1], names[-3]):
                g = params[name].grad.copy()   # gradients may be shared
                g.flat[0] = np.nan
                params[name].grad = g

    monkeypatch.setattr("ksm.train.backward", poisoned)
    tc = TrainConfig(batch_size=8, max_epochs=2, holdout_fraction=0.0)
    with pytest.raises(ValueError, match=(
            f"non-finite gradient of parameter '{names[-3]}' "
            "at epoch 0, batch 1")):
        train_model(instances, store, model, tc)
    # no optimizer step ran on the poisoned batch
    for name, value in at_poison.items():
        np.testing.assert_array_equal(model.params[name].data, value)


def test_training_calls_nll_loss_once_per_instance(monkeypatch):
    # per-layer benchmark counters wrap `ksm.model.nll_loss` and count the
    # probability rows of each call: training must reach it through the
    # module, once per instance, with that instance's probabilities alone
    import ksm.model

    calls = []
    original = ksm.model.nll_loss

    def counting(batch_probs, gold_labels):
        calls.append(len(batch_probs))
        return original(batch_probs, gold_labels)

    monkeypatch.setattr(ksm.model, "nll_loss", counting)
    d = 8
    model = KSMModel(ModelConfig(d=d, d_kb=d, n_heads=2, n_blocks=1,
                                 max_distance=16),
                     WordTable.random([f"tok{i}" for i in range(12)], d),
                     seed=0)
    batch = toy_batch(seed=1, d=d, lengths=(2, 4, 3))
    model.params.zero_grad()
    accumulate_batch_gradient(model, batch, np.random.default_rng(0))
    assert calls == [1, 1, 1]


# ---------------------------------------------------------------------------
# knowledge reaches the decision

_FILLER = ["the", "protein", "complex", "cell", "assay", "level", "study",
           "result"]
_RELATIONS = ("activates", "unrelated_to")


def _knowledge_task(kb_decides: bool, n: int = 40, d: int = 16,
                    length: int = 6, seed: int = 0):
    """n training pairs and n unseen held-out pairs, labels alternating.

    With `kb_decides` every context carries the same neutral token and a
    pair's KB relation is its label. Otherwise a trigger token ('binds' or
    'ignores', with strong opposite vectors) gives the label, and the
    relation splits each class in half, so it says nothing about the label.
    Returns (train, heldout, store, word table).
    """
    rng = np.random.default_rng(seed)
    instances, triples = [], []
    for i in range(2 * n):
        positive = i % 2 == 0
        cue = "mentions" if kb_decides else "binds" if positive else "ignores"
        tokens = [str(rng.choice(_FILLER)) for _ in range(length - 1)]
        tokens.insert(int(rng.integers(length)), cue)
        pair = (f"E{2 * i}", f"E{2 * i + 1}")
        instances.append(CandidateInstance(
            doc_id=f"doc{i}", pair=pair, tokens=tokens,
            pos1=list(range(1, length + 1)), pos2=list(range(length, 0, -1)),
            label=LABEL_POSITIVE if positive else LABEL_NEGATIVE))
        relation = _RELATIONS[i % 2 if kb_decides else i // 2 % 2]
        triples.append(Triple(pair[0], relation, pair[1]))
    store = init_embeddings(triples, d_kb=d, seed=seed + 1)
    vectors = {tok: rng.normal(0.0, 0.1, d) for tok in _FILLER + ["mentions"]}
    signature = rng.choice([-1.0, 1.0], size=d) / np.sqrt(d)
    vectors["binds"], vectors["ignores"] = 2.0 * signature, -2.0 * signature
    table = WordTable(vectors, d, unk=np.zeros(d))
    return instances[:n], instances[n:], store, table


@pytest.mark.parametrize("kb_decides", [True, False],
                         ids=["kb_decides", "context_decides"])
def test_knowledge_reaches_the_decision(kb_decides):
    train, heldout, store, table = _knowledge_task(kb_decides)
    config = ModelConfig(d=16, d_kb=16, n_heads=2, n_blocks=1,
                         dropout_rate=0.0, max_distance=16)
    model = KSMModel(config, table, seed=0, null_relation=store.null_relation)
    train_model(train, store, model,
                TrainConfig(batch_size=8, lr=0.5, max_epochs=10, patience=10,
                            seed=0, holdout_fraction=0.0))
    gold = [inst.label == LABEL_POSITIVE for inst in heldout]
    true_kb = [p.positive for p in predict_instances(model, heldout, store)]
    for inst in heldout:    # give every held-out pair the other relation
        key = tuple(sorted(inst.pair))
        (relation,) = store.pair_relations[key]
        store.pair_relations[key] = [_RELATIONS[1 - _RELATIONS.index(relation)]]
    swapped = [p.positive for p in predict_instances(model, heldout, store)]
    assert np.mean(np.equal(true_kb, gold)) >= 0.9
    if kb_decides:
        assert np.mean(np.equal(swapped, gold)) <= 0.1
    else:
        assert swapped == true_kb


def _one_epoch_peak_bytes(n: int, length: int = 40, d: int = 32) -> int:
    instances = separable_instances(n=n, length=length, seed=0)
    store = kb_for_instances(instances, d_kb=d, seed=1)
    vocab = sorted({t for inst in instances for t in inst.tokens})
    model = KSMModel(ModelConfig(d=d, d_kb=d, n_heads=2, n_blocks=2),
                     WordTable.random(vocab, d, seed=2), seed=1)
    tc = TrainConfig(batch_size=n, max_epochs=1, holdout_fraction=0.0)
    tracemalloc.start()
    try:
        train_model(instances, store, model, tc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_does_not_grow_with_batch_size():
    # at most one instance graph is alive, so a 32-instance batch peaks
    # about where a 2-instance batch does
    small, large = _one_epoch_peak_bytes(2), _one_epoch_peak_bytes(32)
    assert large <= 1.5 * small, (small, large)


def test_predictions_under_no_grad_match_a_recorded_forward():
    instances, store, model = _task()
    labels = []
    for inst, kn in resolve_batch(instances[:6], store):
        recorded, label = model.forward_instance(inst, kn)
        with no_grad():
            plain, plain_label = model.forward_instance(inst, kn)
        assert recorded._parents and plain._parents == ()
        np.testing.assert_array_equal(plain.data, recorded.data)
        assert plain_label == label
        labels.append(label)
    preds = predict_instances(model, instances[:6], store)
    assert [p.positive for p in preds] == [l == CLASS_POSITIVE for l in labels]


# ---------------------------------------------------------------------------
# predictions file


def test_predictions_file_roundtrip(tmp_path):
    preds = {"d2": {("X", "Y")}, "d1": {("A", "B"), ("C", "D")}}
    path = tmp_path / "pred.tsv"
    write_predictions(path, preds)
    text = path.read_text()
    assert text.splitlines() == ["d1\tA\tB", "d1\tC\tD", "d2\tX\tY"]
    assert read_predictions(path) == preds


def test_malformed_prediction_line_reports_location(tmp_path):
    path = tmp_path / "pred.tsv"
    path.write_text("d1\tA\tB\nd2 only-two-fields\n")
    with pytest.raises(ValueError, match=r"pred\.tsv:2"):
        read_predictions(path)
