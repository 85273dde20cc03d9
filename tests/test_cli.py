"""Command-line interface: every subcommand, config precedence, errors."""

import json
from pathlib import Path

import numpy as np
import pytest

from ksm.cli import DEFAULTS, main, resolve_config
from ksm.corpus import write_instances
from ksm.kb import read_embeddings, write_embeddings
from ksm.model import WordTable
from ksm.synthetic import separable_task, toy_knowledge_graph

DATA = Path(__file__).parent / "data"


def _write_triples(path):
    with open(path, "w") as f:
        for t in toy_knowledge_graph():
            f.write("\t".join(t) + "\n")


def _small_training_setup(tmp_path, n=12):
    """Instance file + word embedding file for fast CLI training runs."""
    instances, store, table = separable_task(n=n, d=8, seed=0)
    inst_path = tmp_path / "train.jsonl"
    write_instances(inst_path, instances)
    words_path = tmp_path / "words.txt"
    table.save(words_path)
    from ksm.kb import save_store
    kb_dir = tmp_path / "kb"
    save_store(store, kb_dir)
    return inst_path, words_path, kb_dir


FAST_TRAIN = ["--d", "8", "--d-kb", "8", "--n-heads", "2", "--n-blocks", "1",
              "--batch-size", "4", "--max-epochs", "2",
              "--holdout-fraction", "0", "--max-distance", "16"]


# ---------------------------------------------------------------------------
# preprocess / evaluate


def test_preprocess_reproduces_golden_bytes(tmp_path, capsys):
    out = tmp_path / "instances.jsonl"
    rc = main(["preprocess", "--corpus", str(DATA / "toy_corpus.jsonl"),
               "--phase", "train", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (DATA / "toy_instances_train.jsonl").read_bytes()
    assert "5 instances" in capsys.readouterr().out


def test_preprocess_is_rerunnable_and_does_not_mutate_inputs(tmp_path):
    corpus = DATA / "toy_corpus.jsonl"
    before = corpus.read_bytes()
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["preprocess", "--corpus", str(corpus), "--phase", "test",
          "--out", str(out1)])
    main(["preprocess", "--corpus", str(corpus), "--phase", "test",
          "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    assert corpus.read_bytes() == before


def test_evaluate_perfect_predictions_reports_100(tmp_path, capsys):
    pred = tmp_path / "pred.tsv"
    pred.write_text("D1\tG1\tG2\nD2\tG1\tG4\n")
    rc = main(["evaluate", "--predictions", str(pred),
               "--corpus", str(DATA / "toy_corpus.jsonl")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P=100.00% R=100.00% F=100.00%" in out


def test_evaluate_writes_report_file(tmp_path, capsys):
    pred = tmp_path / "pred.tsv"
    pred.write_text("D1\tG1\tG2\n")
    report = tmp_path / "report.txt"
    rc = main(["evaluate", "--predictions", str(pred),
               "--corpus", str(DATA / "toy_corpus.jsonl"),
               "--out", str(report)])
    assert rc == 0
    text = report.read_text()
    assert "TP=1 FP=0 FN=1" in text
    assert "P=100.00% R=50.00% F=66.67%" in text


# ---------------------------------------------------------------------------
# train-kb


def test_train_kb_produces_loadable_store(tmp_path, capsys):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    out = tmp_path / "kb"
    rc = main(["train-kb", "--triples", str(triples), "--out", str(out),
               "--d-kb", "8", "--kb-epochs", "20", "--seed", "1"])
    assert rc == 0
    from ksm.kb import load_store
    store = load_store(out)
    assert store.d_kb == 8
    assert set(store.entity_table) == {"e1", "e2", "e3", "e4"}
    assert ("e1", "e2") in store.pair_relations


def test_train_kb_rerun_is_identical(tmp_path):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    out1, out2 = tmp_path / "kb1", tmp_path / "kb2"
    args = ["train-kb", "--triples", str(triples), "--d-kb", "8",
            "--kb-epochs", "10", "--seed", "3"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert (out1 / "entities.txt").read_bytes() == \
        (out2 / "entities.txt").read_bytes()


@pytest.mark.parametrize("flag, value", [("--kb-margin", "nan"),
                                         ("--kb-lr", "-0.05")])
def test_train_kb_bad_margin_or_lr_exits_2(tmp_path, capsys, flag, value):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    out = tmp_path / "kb"
    rc = main(["train-kb", "--triples", str(triples), "--out", str(out),
               "--d-kb", "8", flag, value])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / predict


def test_train_predict_evaluate_pipeline(tmp_path, capsys):
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path),
               "--kb-dir", str(kb_dir), "--out", str(ckpt),
               "--seed", "1"] + FAST_TRAIN)
    assert rc == 0
    assert ckpt.exists()
    log_path = Path(str(ckpt) + ".log.jsonl")
    records = [json.loads(line) for line in
               log_path.read_text().splitlines()]
    assert all(r["schema"] == 1 for r in records)
    assert records[0]["event"] == "config"
    assert sum(r["event"] == "epoch" for r in records) == 2

    pred_out = tmp_path / "pred.tsv"
    rc = main(["predict", "--instances", str(inst_path),
               "--checkpoint", str(ckpt), "--kb-dir", str(kb_dir),
               "--word-embeddings", str(words_path),
               "--out", str(pred_out)])
    assert rc == 0
    assert pred_out.exists()


def test_train_rerun_same_seed_byte_identical_checkpoint(tmp_path):
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    args = ["train", "--instances", str(inst_path),
            "--word-embeddings", str(words_path), "--kb-dir", str(kb_dir),
            "--seed", "7"] + FAST_TRAIN
    main(args + ["--out", str(c1)])
    main(args + ["--out", str(c2)])
    assert c1.read_bytes() == c2.read_bytes()


def test_predict_falls_back_to_saved_word_table(tmp_path):
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    main(["train", "--instances", str(inst_path),
          "--word-embeddings", str(words_path), "--kb-dir", str(kb_dir),
          "--out", str(ckpt), "--seed", "1"] + FAST_TRAIN)
    # no --word-embeddings: uses <checkpoint>.words.txt written by train
    rc = main(["predict", "--instances", str(inst_path),
               "--checkpoint", str(ckpt), "--kb-dir", str(kb_dir),
               "--out", str(tmp_path / "p.tsv")])
    assert rc == 0


@pytest.mark.parametrize("unk_row", [True, False])
def test_predict_reads_back_the_training_word_table_bit_for_bit(
        tmp_path, monkeypatch, unk_row):
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    if not unk_row:  # a source file without UNK: the table appends one
        vectors = read_embeddings(words_path)
        write_embeddings(words_path, {k: v for k, v in vectors.items()
                                      if k != WordTable.UNK})
    loaded = []
    load = WordTable.load.__func__

    def recording(cls, path):
        loaded.append(load(cls, path))
        return loaded[-1]

    monkeypatch.setattr(WordTable, "load", classmethod(recording))
    ckpt = tmp_path / "model.ckpt"
    main(["train", "--instances", str(inst_path),
          "--word-embeddings", str(words_path), "--kb-dir", str(kb_dir),
          "--out", str(ckpt), "--seed", "1"] + FAST_TRAIN)
    saved = Path(str(ckpt) + ".words.txt")
    assert saved.read_bytes() == words_path.read_bytes()
    rc = main(["predict", "--instances", str(inst_path),
               "--checkpoint", str(ckpt), "--kb-dir", str(kb_dir),
               "--out", str(tmp_path / "p.tsv")])
    assert rc == 0
    trained, predicted = loaded
    assert (WordTable.UNK in read_embeddings(saved)) == unk_row
    assert predicted.vectors.ids == trained.vectors.ids
    assert predicted.vectors.matrix.tobytes() == trained.vectors.matrix.tobytes()


def test_train_leaves_a_word_file_that_is_its_own_output_alone(tmp_path):
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    same = Path(str(ckpt) + ".words.txt")
    words_path.rename(same)
    before = same.read_bytes()
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(same), "--kb-dir", str(kb_dir),
               "--out", str(ckpt), "--seed", "1"] + FAST_TRAIN)
    assert rc == 0
    assert same.read_bytes() == before


# ---------------------------------------------------------------------------
# ablate / gradcheck


def test_ablate_emits_the_six_row_selector_grid(tmp_path, capsys):
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path, n=8)
    rc = main(["ablate", "--instances", str(inst_path),
               "--eval-instances", str(inst_path),
               "--corpus", str(DATA / "toy_corpus.jsonl"),
               "--word-embeddings", str(words_path),
               "--kb-dir", str(kb_dir), "--seed", "0",
               "--max-epochs", "1"] + FAST_TRAIN[:-4] +
              ["--holdout-fraction", "0", "--max-distance", "16"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines[0].split() == ["variant", "P%", "R%", "F%"]
    rows = lines[1:]
    assert len(rows) == 6
    names = [r.split()[0] for r in rows]
    assert names == ["hadamard/relu", "hadamard/sigmoid", "hadamard/tanh",
                     "sum/relu", "sum/sigmoid", "sum/tanh"]


def test_gradcheck_passes_and_prints_max_error(capsys, monkeypatch,
                                              seed0_gradient_report):
    # the suites themselves run once per session (see conftest)
    results, ok, _ = seed0_gradient_report
    calls = []

    def report(seed):
        calls.append(seed)
        return results, ok

    monkeypatch.setattr("ksm.cli.run_report", report)
    rc = main(["gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert calls == [0]
    assert rc == 0
    assert "PASS" in out and "max relative error" in out
    assert "full_model" in out


def test_gradcheck_failing_suite_prints_fail_and_exits_1(capsys,
                                                        monkeypatch):
    from ksm.gradcheck import CheckResult
    results = [CheckResult("matmul", 1e-8, 1e-4),
               CheckResult("full_model", 2e-3, 1e-3)]
    monkeypatch.setattr("ksm.cli.run_report",
                        lambda seed: (results, all(r.passed for r in results)))
    rc = main(["gradcheck", "--seed", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[0].startswith("matmul") and lines[0].endswith("PASS")
    assert lines[1].startswith("full_model") and lines[1].endswith("FAIL")
    assert lines[2] == "FAIL (max relative error 2.000e-03)"


# ---------------------------------------------------------------------------
# configuration and errors


def test_config_precedence_flag_over_file_over_default(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"d": 32, "lr": 0.5}))

    class Args:
        config = str(cfg_file)
        d = 64          # flag wins over file
        seed = None

    cfg = resolve_config(Args())
    assert cfg["d"] == 64
    assert cfg["lr"] == 0.5          # file wins over default
    assert cfg["batch_size"] == DEFAULTS["batch_size"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"nonsense_key": 1}))
    rc = main(["preprocess", "--corpus", str(DATA / "toy_corpus.jsonl"),
               "--out", str(tmp_path / "x"), "--config", str(cfg_file)])
    assert rc == 2
    assert "nonsense_key" in capsys.readouterr().err


def test_missing_input_file_exits_nonzero_with_one_line(tmp_path, capsys):
    rc = main(["preprocess", "--corpus", str(tmp_path / "absent.jsonl"),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "not found" in err


def test_missing_required_flag_reports_which(tmp_path, capsys):
    rc = main(["preprocess", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--corpus" in capsys.readouterr().err


def test_kb_dimension_mismatch_reports_cleanly(tmp_path, capsys):
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    rc = main(["train", "--instances", str(inst_path),
               "--kb-dir", str(kb_dir), "--out", str(tmp_path / "m.ckpt"),
               "--d", "16", "--d-kb", "16", "--n-heads", "2",
               "--n-blocks", "1", "--max-epochs", "1",
               "--holdout-fraction", "0"])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_malformed_corpus_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id":"a","sentences":[],"mentions":[],'
                   '"gold_relations":[]}\n{broken\n')
    rc = main(["preprocess", "--corpus", str(bad),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "bad.jsonl:2" in capsys.readouterr().err


def _flags(subcommand):
    import argparse
    from ksm.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {o for a in sub.choices[subcommand]._actions
            for o in a.option_strings if o not in ("-h", "--help")}


def test_config_flags_follow_the_config_dataclasses():
    # the flag set before the defaults were derived from ModelConfig and
    # TrainConfig, minus --d-head (d_head is now d // n_heads)
    config_flags = {
        "--batch-size", "--d", "--d-kb", "--dropout-rate",
        "--gate-uses-relation", "--holdout-fraction", "--kb-epochs",
        "--kb-lr", "--kb-margin", "--lr", "--max-distance", "--max-epochs",
        "--n-blocks", "--n-heads", "--patience", "--pooling",
        "--position-encoding", "--relation-pool", "--selector-activation",
        "--selector-op", "--selector-target", "--shared-encoder"}
    common = {"--config", "--out", "--seed"}
    want = {
        "preprocess": common | {"--corpus", "--phase"},
        "train-kb": common | config_flags | {"--triples", "--word-embeddings",
                                             "--mention-lexicon"},
        "train": common | config_flags | {"--instances", "--kb-dir",
                                          "--word-embeddings"},
        "predict": common | {"--instances", "--checkpoint", "--kb-dir",
                             "--word-embeddings"},
        "evaluate": common | {"--predictions", "--corpus"},
        "ablate": common | config_flags | {"--axis", "--instances",
                                           "--eval-instances", "--corpus",
                                           "--kb-dir", "--word-embeddings"},
        "gradcheck": common,
    }
    for subcommand, flags in want.items():
        assert _flags(subcommand) == flags, subcommand


def test_d_head_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"d_head": 25}))
    rc = main(["preprocess", "--corpus", str(DATA / "toy_corpus.jsonl"),
               "--out", str(tmp_path / "x"), "--config", str(cfg_file)])
    assert rc == 2
    assert "d_head" in capsys.readouterr().err


def test_nan_learning_rate_exits_2(tmp_path, capsys):
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path), "--kb-dir", str(kb_dir),
               "--out", str(out), "--lr", "nan"] + FAST_TRAIN)
    assert rc == 2
    assert ("error: lr must be finite and nonnegative, got nan"
            in capsys.readouterr().err)
    assert not out.exists()


def test_non_finite_training_loss_exits_2(tmp_path, capsys, monkeypatch):
    from ksm.optim import Adadelta
    step = Adadelta.step

    def poisoned(self):
        # the first optimizer step leaves a NaN parameter behind
        step(self)
        self.params["classifier.b"].data[0] = np.nan

    monkeypatch.setattr(Adadelta, "step", poisoned)
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path), "--kb-dir", str(kb_dir),
               "--out", str(out)] + FAST_TRAIN)
    assert rc == 2
    assert ("error: non-finite training loss at epoch 0, batch 1: "
            "parameter 'classifier.b' is not finite") in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_gradient_exits_2(tmp_path, capsys, monkeypatch):
    from ksm.autodiff import backward

    def poisoned(loss, params):
        backward(loss, params)
        params["classifier.b"].grad = np.full(2, np.nan)

    monkeypatch.setattr("ksm.train.backward", poisoned)
    inst_path, words_path, kb_dir = _small_training_setup(tmp_path)
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path), "--kb-dir", str(kb_dir),
               "--out", str(out)] + FAST_TRAIN)
    assert rc == 2
    err = capsys.readouterr().err
    assert ("error: non-finite gradient of parameter 'classifier.b' at "
            "epoch 0, batch 0") in err
    assert not out.exists()


def test_defaults_are_the_library_defaults():
    import dataclasses
    import inspect

    from ksm.kb import KnowledgeStore, transe_train
    from ksm.model import ModelConfig
    from ksm.train import TrainConfig
    transe = inspect.signature(transe_train).parameters
    store_fields = {f.name: f.default
                    for f in dataclasses.fields(KnowledgeStore)}
    assert DEFAULTS == {
        **dataclasses.asdict(ModelConfig()),
        **dataclasses.asdict(TrainConfig()),
        "kb_margin": transe["margin"].default,
        "kb_epochs": transe["epochs"].default,
        "kb_lr": transe["lr"].default,
        "relation_pool": store_fields["relation_pool"],
        "phase": "train",
    }
