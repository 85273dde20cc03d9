"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single CRITERION line (visible with `pytest -s` or in
the captured-output section) in addition to its pytest verdict. Headline
corpus-level scores are not reproducible at desk scale (they need the
licensed evaluation corpus, full interaction-database dumps and
large-scale pretrained word vectors), so criteria 3-9 are property-based
stand-ins; criterion 2 documents that substitution.
"""

import time

import numpy as np
import pytest

from ksm.autodiff import Tensor
from ksm.corpus import instance_to_json, preprocess_document, read_corpus
from ksm.kb import init_embeddings, mean_energies, tail_rank, transe_train
from ksm.model import (KSMModel, ModelConfig, build_params, knowledge_select,
                       multi_head_attention, mutual_attention)
from ksm.synthetic import separable_task, toy_knowledge_graph
from ksm.train import (TrainConfig, micro_prf, prf_from_counts, train_model,
                       training_accuracy)

from test_model import _loop_attention

DATA = __import__("pathlib").Path(__file__).parent / "data"


def _report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_scorer_reproduces_reported_numbers():
    start = time.perf_counter()
    prf = prf_from_counts(tp=325, fp=513, fn=544)
    p, r, f = (x * 100 for x in prf)
    ok = (abs(p - 38.78) <= 0.01 and abs(r - 37.40) <= 0.01
          and abs(f - 38.08) <= 0.01)

    # the same counts pushed through the full document-level scorer
    pred = {"doc": {(f"a{i}", f"b{i}") for i in range(325 + 513)}}
    gold = {"doc": ({(f"a{i}", f"b{i}") for i in range(325)}
                    | {(f"c{i}", f"d{i}") for i in range(544)})}
    prf2 = micro_prf(pred, gold)
    ok = ok and all(abs(x - y) < 1e-12 for x, y in zip(prf, prf2))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"P={p:.2f} R={r:.2f} F={f:.2f} in {elapsed:.3f}s")


def test_criterion_2_headline_scores_substituted_by_properties():
    # Reproducing published corpus-level F1 needs the licensed evaluation
    # corpus, the full interaction-database dumps and large pretrained
    # word vectors; criteria 3-9 stand in as property-based acceptance.
    _report(2, True, "documented substitution; see criteria 3-9")


def test_criterion_3_gradient_suites(seed0_gradient_report):
    # the per-op suite, then the full model, as `ksm gradcheck` runs them
    results, _, elapsed = seed0_gradient_report
    *op_results, full = results
    worst_op = max(r.max_rel_err for r in op_results)
    ok = (all(r.passed and r.tolerance == 1e-4 for r in op_results)
          and full.name == "full_model" and full.tolerance == 1e-3
          and full.passed and elapsed < 120.0)
    _report(3, ok, f"per-op max {worst_op:.2e} (<1e-4), "
                   f"full model {full.max_rel_err:.2e} (<1e-3), "
                   f"{elapsed:.1f}s")


def test_criterion_4_attention_matches_loop_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(20):
        d, n_heads = 8, 2
        cfg = ModelConfig(d=d, n_heads=n_heads, n_blocks=1,
                          dropout_rate=0.0)
        params = build_params(cfg, seed=100 + case)
        length = int(rng.integers(1, 8))
        x = rng.standard_normal((length, d))
        e = rng.standard_normal(d)
        got = multi_head_attention(Tensor(x), Tensor(e.reshape(1, -1)),
                                   params, "encoder1.block0", cfg).data
        want = _loop_attention(x, e, params, "encoder1.block0", n_heads,
                               cfg.d_head)
        worst = max(worst, np.abs(got - want).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(4, ok, f"20 cases, max abs diff {worst:.2e} (<1e-10), "
                   f"{elapsed:.2f}s")


def test_criterion_5_mutual_attention_degeneracies():
    start = time.perf_counter()
    d, length = 8, 7
    rng = np.random.default_rng(5)
    worst_p = worst_s = 0.0
    for zero_side in (1, 2):
        cfg = ModelConfig(d=d, n_heads=2, dropout_rate=0.0)
        params = build_params(cfg, seed=zero_side)
        params[f"mutual.w{zero_side}"].data[:] = 0.0
        v1 = Tensor(rng.standard_normal((length, d)))
        v2 = Tensor(rng.standard_normal((length, d)))
        s1, s2, p1, p2 = mutual_attention(v1, v2, params)
        if zero_side == 2:
            worst_p = max(worst_p, np.abs(p2.data - 1 / length).max())
            worst_s = max(worst_s,
                          np.abs(s2.data[0] - v2.data.mean(axis=0)).max())
        else:
            worst_p = max(worst_p, np.abs(p1.data - 1 / length).max())
            worst_s = max(worst_s,
                          np.abs(s1.data[0] - v1.data.mean(axis=0)).max())
    elapsed = time.perf_counter() - start
    ok = worst_p < 1e-9 and worst_s < 1e-9 and elapsed < 5.0
    _report(5, ok, f"uniform dev {worst_p:.2e}, mean dev {worst_s:.2e} "
                   f"(<1e-9), {elapsed:.2f}s")


def test_criterion_6_selector_bounds():
    d = 50
    rng = np.random.default_rng(6)
    checked = 0
    ok = True
    for activation in ("tanh", "sigmoid"):
        cfg = ModelConfig(d=d, n_heads=2,
                          selector_activation=activation, dropout_rate=0.0)
        for case in range(100):
            params = build_params(cfg, seed=case)
            s1 = Tensor(rng.standard_normal((1, d)) * 2)
            s2 = Tensor(rng.standard_normal((1, d)) * 2)
            er = Tensor(rng.standard_normal((1, d)) * 2)
            out = knowledge_select([s1, s2], er, params, "selector", cfg)
            ok = ok and np.all(np.abs(out.data) <= np.abs(er.data) + 1e-15)
            checked += d

    cfg = ModelConfig(d=d, n_heads=2, selector_op="sum",
                      dropout_rate=0.0)
    params = build_params(cfg, seed=0)
    for name in ("selector.w", "selector.b"):
        params[name].data[:] = 0.0
    er = Tensor(rng.standard_normal((1, d)))
    zero = Tensor(np.zeros((1, d)))
    out = knowledge_select([zero, zero], er, params, "selector", cfg)
    exact = np.array_equal(out.data, er.data)
    ok = ok and exact
    _report(6, ok, f"{checked} elementwise draws bounded; "
                   f"sum identity exact={exact}")


def test_criterion_7_overfit_deterministically():
    start = time.perf_counter()
    d = 16

    def run(epochs):
        instances, store, table = separable_task(n=40, d=d, seed=0)
        cfg = ModelConfig(d=d, n_heads=2, n_blocks=2,
                          dropout_rate=0.1)
        model = KSMModel(cfg, table, seed=11)
        tc = TrainConfig(batch_size=8, lr=0.02, max_epochs=epochs,
                         patience=epochs, seed=11, holdout_fraction=0.0)
        result = train_model(instances, store, model, tc)
        return model, instances, store, [e.train_loss for e in result.log]

    model, instances, store, losses = run(50)
    acc = training_accuracy(model, instances, store)
    _, _, _, replay = run(3)
    deterministic = replay == losses[:3]
    elapsed = time.perf_counter() - start
    ok = acc == 1.0 and deterministic and elapsed < 120.0
    _report(7, ok, f"accuracy={acc} within 50 epochs, "
                   f"replay identical={deterministic}, {elapsed:.1f}s")


def test_criterion_8_transe_sanity():
    start = time.perf_counter()
    triples = toy_knowledge_graph()
    store = init_embeddings(triples, d_kb=16, seed=1)
    transe_train(triples, store, margin=1.0, epochs=200, lr=0.05, seed=2)
    true_e, corrupt_e = mean_energies(triples, store, seed=3)
    ranks = [tail_rank(store, h, r, t) for h, r, t in triples]
    top2 = sum(1 for r in ranks if r <= 2) / len(ranks)
    elapsed = time.perf_counter() - start
    ok = true_e < corrupt_e and top2 >= 0.9 and elapsed < 30.0
    _report(8, ok, f"true E {true_e:.3f} < corrupted {corrupt_e:.3f}, "
                   f"top-2 rate {top2:.2f} (>=0.9), {elapsed:.1f}s")


def test_criterion_9_preprocessing_golden_files():
    docs = read_corpus(DATA / "toy_corpus.jsonl")

    def produce(phase):
        lines = []
        for doc in docs:
            for inst in preprocess_document(doc, phase):
                lines.append(instance_to_json(inst) + "\n")
        return "".join(lines).encode("utf-8")

    ok = True
    for phase, golden in (("train", "toy_instances_train.jsonl"),
                          ("test", "toy_instances_test.jsonl")):
        want = (DATA / golden).read_bytes()
        first, second = produce(phase), produce(phase)
        ok = ok and first == want == second
    _report(9, ok, "train+test instance files byte-identical across runs "
                   "and against checked-in goldens")
