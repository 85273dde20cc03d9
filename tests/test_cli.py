"""Command-line interface: every subcommand, config precedence, errors."""

import dataclasses
import json
import logging
import shlex
from pathlib import Path

import numpy as np
import pytest

from ksm import kb
from ksm import train as train_mod
from ksm.autodiff import ParameterStore
from ksm.checkpoint import load_checkpoint, save_checkpoint
from ksm.cli import DEFAULTS, SETTINGS, main, resolve_config
from ksm.corpus import (Document, Mention, read_instances, write_corpus,
                        write_instances)
from ksm.kb import Embeddings, read_embeddings, write_embeddings
from ksm.model import KSMModel, ModelConfig, WordTable
from ksm.synthetic import separable_task, toy_knowledge_graph
from ksm.train import TrainConfig

DATA = Path(__file__).parent / "data"

# the settings each command reads; the model and training settings are the
# fields of the two config dataclasses
_FIT_KEYS = {f.name for f in dataclasses.fields(ModelConfig)
             + dataclasses.fields(TrainConfig)}
_READS = {
    "preprocess": {"phase"},
    "train-kb": {"seed", "d", "kb_margin", "kb_epochs", "kb_lr"},
    "train": _FIT_KEYS,
    "ablate": _FIT_KEYS,
    "gradcheck": {"seed"},
}


# the inputs each command requires
_REQUIRED = {
    "preprocess": ("--corpus", "--out"),
    "train-kb": ("--triples", "--out"),
    "train": ("--instances", "--out"),
    "predict": ("--instances", "--checkpoint", "--out"),
    "evaluate": ("--predictions", "--corpus"),
    "ablate": ("--instances", "--eval-instances", "--corpus"),
    "gradcheck": (),
}


def _required(command, tmp_path):
    """argv giving `command` its required inputs, each a path under
    `tmp_path` named after its flag (`--out` is tmp_path/out) that does not
    exist, for tests whose error comes before any input is read."""
    return [arg for flag in _REQUIRED[command]
            for arg in (flag, str(tmp_path / flag[2:]))]


def _write_triples(path):
    with open(path, "w") as f:
        for t in toy_knowledge_graph():
            f.write("\t".join(t) + "\n")


def _write_store(path, store):
    """`store` as a KB store file: what train-kb writes, a checkpoint with
    no parameters and no word rows."""
    save_checkpoint(path, ParameterStore(), Embeddings.of({}, store.d_kb),
                    store, {"d": store.d_kb})
    return path


def _small_training_setup(tmp_path, n=12):
    """Instance file, word embedding file and KB store file for fast CLI
    training runs."""
    instances, store, table = separable_task(n=n, d=8, seed=0)
    inst_path = tmp_path / "train.jsonl"
    write_instances(inst_path, instances)
    words_path = tmp_path / "words.txt"
    write_embeddings(words_path, table.vectors)
    return inst_path, words_path, _write_store(tmp_path / "kb.ksm", store)


FAST_TRAIN = ["--d", "8", "--n-heads", "2", "--n-blocks", "1",
              "--batch-size", "4", "--max-epochs", "2",
              "--holdout-fraction", "0"]


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


@pytest.mark.parametrize("command", ["preprocess", "evaluate"])
def test_each_corpus_warning_is_logged_once(tmp_path, caplog, command):
    corpus, pred = tmp_path / "corpus.jsonl", tmp_path / "pred.tsv"
    write_corpus(corpus, [Document(
        "d1", [["X", "binds", "Y"]],
        [Mention("X", 0, (0, 1)), Mention("Y", 0, (2, 3))], {("X", "Z")})])
    pred.write_text("")
    argv = {"preprocess": ["--corpus", corpus, "--out", tmp_path / "out"],
            "evaluate": ["--predictions", pred, "--corpus", corpus]}[command]
    assert main([command, *map(str, argv)]) == 0
    assert [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING] == [
        "d1: gold relation entity 'Z' has no mention"]


def test_evaluate_rejects_a_repeated_doc_id_at_its_line(tmp_path, capsys):
    # two d1 documents once merged into the last one's gold: TP=1 FP=1
    corpus, pred = tmp_path / "corpus.jsonl", tmp_path / "pred.tsv"
    write_corpus(corpus, [Document(
        "d1", [[a, b]], [Mention(a, 0, (0, 1)), Mention(b, 0, (1, 2))],
        {(a, b)}) for a, b in (("A", "B"), ("C", "D"))])
    pred.write_text("d1\tA\tB\nd1\tC\tD\n")
    rc = main(["evaluate", "--predictions", str(pred), "--corpus",
               str(corpus)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {corpus}:2: repeated doc_id 'd1'\n"


def test_evaluate_perfect_predictions_reports_100(tmp_path, capsys):
    pred = tmp_path / "pred.tsv"
    pred.write_text("D1\tG1\tG2\nD2\tG1\tG4\n")
    rc = main(["evaluate", "--predictions", str(pred),
               "--corpus", str(DATA / "toy_corpus.jsonl")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P=100.00% R=100.00% F=100.00%" in out


def test_a_bug_in_a_command_is_no_bad_input(tmp_path, monkeypatch):
    # a ValueError that is no InputError is a bug: it propagates with its
    # traceback instead of exiting 2 as bad input
    def prf_counts(predictions, gold):
        raise ValueError("bug")

    monkeypatch.setattr(train_mod, "prf_counts", prf_counts)
    pred = tmp_path / "pred.tsv"
    pred.write_text("D1\tG1\tG2\n")
    with pytest.raises(ValueError, match="^bug$"):
        main(["evaluate", "--predictions", str(pred),
              "--corpus", str(DATA / "toy_corpus.jsonl")])


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
    # the store file holds, bit for bit, the store trained in process at
    # the same seed, and no parameters or word rows: it is no model
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    out = tmp_path / "kb.ksm"
    rc = main(["train-kb", "--triples", str(triples), "--out", str(out),
               "--d", "8", "--kb-epochs", "20", "--seed", "1"])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.ksm",
                                                          "triples.tsv"]
    values, config, words, store = load_checkpoint(out)
    assert values == {} and config == {"d": 8}
    assert words.matrix.shape == (0, 8)
    want = kb.init_embeddings(kb.read_triples(triples), d_kb=8, seed=1)
    kb.transe_train(kb.read_triples(triples), want, epochs=20, seed=1)
    assert store.d_kb == 8
    for got, table in ((store.entity_table, want.entity_table),
                       (store.relation_table, want.relation_table)):
        assert got.ids == table.ids
        assert got.matrix.tobytes() == table.matrix.tobytes()
    assert store.pair_relations == want.pair_relations
    assert set(store.entity_table) == {"e1", "e2", "e3", "e4"}
    capsys.readouterr()
    assert main(["predict", "--instances",
                 str(DATA / "toy_instances_test.jsonl"), "--checkpoint",
                 str(out), "--out", str(tmp_path / "p.tsv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {out}: holds no model parameters\n")


def test_train_kb_rerun_is_identical(tmp_path):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    out1, out2 = tmp_path / "kb1.ksm", tmp_path / "kb2.ksm"
    args = ["train-kb", "--triples", str(triples), "--d", "8",
            "--kb-epochs", "10", "--seed", "3"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("flag, value", [("--kb-margin", "nan"),
                                         ("--kb-lr", "-0.05")])
def test_train_kb_bad_margin_or_lr_exits_2(tmp_path, capsys, flag, value):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    out = tmp_path / "kb"
    rc = main(["train-kb", "--triples", str(triples), "--out", str(out),
               "--d", "8", flag, value])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", ["train", "ablate", "train-kb"])
def test_fit_commands_check_out_before_reading_any_input(
        tmp_path, capsys, monkeypatch, command, where):
    # each writes --out only after its last epoch: a path that cannot be
    # written is reported first, before the (missing) inputs
    def train(*args, **kwargs):
        raise AssertionError("trained before --out was checked")

    monkeypatch.setattr("ksm.train.train_model", train)
    monkeypatch.setattr("ksm.kb.transe_train", train)
    out = {"missing-directory": tmp_path / "nodir" / "m.ckpt",
           "a-directory": tmp_path}[where]
    inputs = _required(command, tmp_path / "in")
    if "--out" in inputs:  # train's and train-kb's, replaced by `out`
        i = inputs.index("--out")
        del inputs[i:i + 2]
    rc = main([command, *inputs, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --out {out}: not a file in an existing directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag, value, message", [
    ("train-kb", "--kb-epochs", "-3", "epochs must be >= 0, got -3"),
    ("train", "--max-epochs", "-2", "max_epochs must be >= 1, got -2")])
def test_negative_epoch_count_exits_2(tmp_path, capsys, command, flag, value,
                                      message):
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    out = tmp_path / "out"
    inputs = {"train-kb": ["--triples", str(triples), "--d", "8"],
              "train": ["--instances", str(inst_path), "--word-embeddings",
                        str(words_path), "--kb", str(kb_path)]
              + FAST_TRAIN}[command]
    rc = main([command, *inputs, "--out", str(out), flag, value])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
    # the config is checked before an input is read: no file was parsed
    assert not list(tmp_path.rglob("*.ksm-cache.npz"))


# ---------------------------------------------------------------------------
# train / predict


def test_train_predict_evaluate_pipeline(tmp_path, capsys):
    # train-kb's --out is the store train reads, so the hand-off between
    # the commands runs end to end
    inst_path, words_path, _ = _small_training_setup(tmp_path)
    triples, kb_path = tmp_path / "triples.tsv", tmp_path / "trained_kb.ksm"
    with open(triples, "w") as f:
        for inst in read_instances(inst_path)[:8]:  # 4 pairs with no triple
            rel = "activates" if inst.label == "positive" else "unrelated_to"
            f.write("\t".join([inst.pair[0], rel, inst.pair[1]]) + "\n")
    assert main(["train-kb", "--triples", str(triples), "--d", "8",
                 "--kb-epochs", "5", "--seed", "2", "--out", str(kb_path)]) == 0
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path),
               "--kb", str(kb_path), "--out", str(ckpt),
               "--seed", "1"] + FAST_TRAIN)
    assert rc == 0
    # the word table is inside the checkpoint: no file beside it
    assert {p.name for p in tmp_path.glob("model.ckpt*")} == {
        "model.ckpt", "model.ckpt.log.jsonl"}
    log_path = Path(str(ckpt) + ".log.jsonl")
    records = [json.loads(line) for line in
               log_path.read_text().splitlines()]
    assert all(r["schema"] == 1 for r in records)
    assert records[0]["event"] == "config"
    assert sum(r["event"] == "epoch" for r in records) == 2

    pred_out = tmp_path / "pred.tsv"
    rc = main(["predict", "--instances", str(inst_path),
               "--checkpoint", str(ckpt),
               "--out", str(pred_out)])
    assert rc == 0
    assert pred_out.exists()
    stored = KSMModel.load(ckpt).store
    trained = load_checkpoint(kb_path)[3]
    assert stored.pair_relations == trained.pair_relations
    assert (stored.relation_table.matrix.tobytes()
            == trained.relation_table.matrix.tobytes())


def test_predict_reads_the_kb_store_from_the_checkpoint_alone(tmp_path,
                                                               capsys):
    # the selector gates the pair's KB relation vector, so a model means
    # something only beside the store it was trained with: predict once
    # took any --kb-dir of the model's width, or none, and predicted 20
    # pairs here with the training store but 40 with no store
    instances, store, _ = separable_task(40, d=16)
    inst_path = tmp_path / "instances.jsonl"
    write_instances(inst_path, instances)
    kb_a = _write_store(tmp_path / "kbA.ksm", store)
    ckpt, pred = tmp_path / "model.ckpt", tmp_path / "pred.tsv"
    assert main(["train", "--instances", str(inst_path), "--kb",
                 str(kb_a), "--out", str(ckpt), "--d", "16", "--n-blocks",
                 "1", "--batch-size", "8", "--lr", "1.0", "--max-epochs",
                 "5", "--holdout-fraction", "0"]) == 0
    argv = ["predict", "--instances", str(inst_path), "--checkpoint",
            str(ckpt), "--out", str(pred)]
    assert main(argv) == 0
    assert "predicted 20 positive pairs" in capsys.readouterr().out
    want = tmp_path / "want.tsv"
    train_mod.write_predictions(want, train_mod.aggregate_predictions(
        train_mod.predict_instances(KSMModel.load(ckpt),
                                    read_instances(inst_path),
                                    load_checkpoint(kb_a)[3])))
    assert pred.read_bytes() == want.read_bytes()
    with pytest.raises(SystemExit) as e:
        main(argv + ["--kb", str(kb_a)])
    assert e.value.code == 2
    assert "unrecognized arguments: --kb" in capsys.readouterr().err


def test_train_rerun_same_seed_byte_identical_checkpoint(tmp_path):
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    args = ["train", "--instances", str(inst_path),
            "--word-embeddings", str(words_path), "--kb", str(kb_path),
            "--seed", "7"] + FAST_TRAIN
    main(args + ["--out", str(c1)])
    main(args + ["--out", str(c2)])
    assert c1.read_bytes() == c2.read_bytes()


def test_predict_falls_back_to_saved_word_table(tmp_path, monkeypatch):
    # the table saved in the checkpoint travels with it: a checkpoint moved
    # and renamed into another directory predicts as before, and no word
    # file is read
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    main(["train", "--instances", str(inst_path),
          "--word-embeddings", str(words_path), "--kb", str(kb_path),
          "--out", str(ckpt), "--seed", "1"] + FAST_TRAIN)
    before = tmp_path / "before.tsv"
    assert main(["predict", "--instances", str(inst_path),
                 "--checkpoint", str(ckpt),
                 "--out", str(before)]) == 0
    (tmp_path / "moved").mkdir()
    moved = ckpt.rename(tmp_path / "moved" / "m2.ckpt")
    parsed = []
    parse = kb._parse_embeddings
    monkeypatch.setattr(kb, "_parse_embeddings",
                        lambda path: parsed.append(path) or parse(path))
    after = tmp_path / "after.tsv"
    rc = main(["predict", "--instances", str(inst_path),
               "--checkpoint", str(moved),
               "--out", str(after)])
    assert rc == 0
    assert after.read_bytes() == before.read_bytes()
    assert parsed == []


@pytest.mark.parametrize("unk_row", [True, False])
def test_predict_reads_back_the_training_word_table_bit_for_bit(
        tmp_path, monkeypatch, unk_row):
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    if not unk_row:  # a source file without UNK: the table appends one
        vectors = read_embeddings(words_path)
        write_embeddings(words_path, {k: v for k, v in vectors.items()
                                      if k != WordTable.UNK})
    tables = []
    model_init = KSMModel.__init__

    def recording(self, config, word_table, seed=0):
        tables.append(word_table)
        model_init(self, config, word_table, seed)

    monkeypatch.setattr(KSMModel, "__init__", recording)
    ckpt = tmp_path / "model.ckpt"
    main(["train", "--instances", str(inst_path),
          "--word-embeddings", str(words_path), "--kb", str(kb_path),
          "--out", str(ckpt), "--seed", "1"] + FAST_TRAIN)
    rc = main(["predict", "--instances", str(inst_path),
               "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "p.tsv")])
    assert rc == 0
    trained, predicted = tables
    assert (WordTable.UNK in read_embeddings(words_path)) == unk_row
    assert predicted is not trained
    assert predicted.vectors.ids == trained.vectors.ids
    assert predicted.vectors.matrix.tobytes() == trained.vectors.matrix.tobytes()


@pytest.mark.parametrize("key, value", [
    ("d", 8.0), ("n_blocks", 1.5), ("n_heads", True), ("shared_encoder", 1)])
def test_predict_rejects_a_checkpoint_config_value_of_the_wrong_type(
        tmp_path, capsys, key, value):
    # a float or bool where an int belongs once ended in a bare TypeError,
    # and 1 for a bool in a parameter name mismatch
    header, _, body = (DATA / "toy_model_v7.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    header["config"][key] = value
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + body)
    rc = main(["predict", "--instances", str(DATA / "toy_instances_test.jsonl"),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
    assert rc == 2
    # the reader refuses a d that is no int >= 1, as a save does
    expected = ("malformed 'words' table" if key == "d" else
                f"invalid model config: {key} must be of type ")
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: {expected}")


@pytest.mark.parametrize("field, value, message", [
    ("pos1", 0.5, "pos1 must be a list of integers, found 0.5"),
    ("tokens", 1, "tokens must be a list of strings, found 1"),
    ("pos2", True, "pos2 must be a list of integers, found true"),
    ("pos1", "a", 'pos1 must be a list of integers, found "a"'),
    ("pos1", -3, "negative distance -3 in pos1/pos2"),
    ("pair", 1, "pair must be a list of strings, found 1"),
    ("pair", ["a", "b", "c"],
     'pair must be a list of 2 strings, found ["a", "b", "c"]'),
    ("doc_id", 5, "doc_id must be a string, found 5")])
def test_predict_rejects_an_instance_field_at_its_line(tmp_path, capsys,
                                                       field, value, message):
    # a fraction, a number token and a bool once predicted with exit 0, a
    # string ended in a bare TypeError, a negative distance named no file
    # or line, a number in the pair or as the doc id ended in a bare
    # AttributeError or TypeError, and a pair of three in a message about
    # sorted_pair's signature
    lines = (DATA / "toy_instances_test.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    if field == "doc_id" or type(value) is list:
        rec[field] = value
    else:
        rec[field][0] = value
    inst_path = tmp_path / "instances.jsonl"
    inst_path.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]])
                         + "\n")
    rc = main(["predict", "--instances", str(inst_path), "--checkpoint",
               str(DATA / "toy_model_v7.ckpt"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {inst_path}:2: {message}\n"
    assert not (tmp_path / "out").exists()


def test_train_leaves_a_word_file_that_is_its_own_output_alone(tmp_path):
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    same = Path(str(ckpt) + ".words.txt")
    words_path.rename(same)
    before = same.read_bytes()
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(same), "--kb", str(kb_path),
               "--out", str(ckpt), "--seed", "1"] + FAST_TRAIN)
    assert rc == 0
    assert same.read_bytes() == before


# ---------------------------------------------------------------------------
# ablate / gradcheck


def test_ablate_emits_the_six_row_selector_grid(tmp_path, capsys,
                                                monkeypatch):
    inst_path, words_path, kb_path = _small_training_setup(tmp_path, n=12)
    # gold: each instance's pair, in a document of its own id, if positive
    gold = tmp_path / "gold.jsonl"
    write_corpus(gold, [Document(
        inst.doc_id, [list(inst.pair)],
        [Mention(inst.pair[0], 0, (0, 1)), Mention(inst.pair[1], 0, (1, 2))],
        {inst.pair} if inst.label == "positive" else set())
        for inst in read_instances(inst_path)])
    from ksm import cli
    loads, load_kb, load_words = [], cli.load_checkpoint, WordTable.load
    monkeypatch.setattr(cli, "load_checkpoint",
                        lambda path: loads.append(path) or load_kb(path))
    monkeypatch.setattr(WordTable, "load",
                        lambda path: loads.append(path) or load_words(path))
    rc = main(["ablate", "--instances", str(inst_path),
               "--eval-instances", str(inst_path),
               "--corpus", str(gold),
               "--word-embeddings", str(words_path),
               "--kb", str(kb_path), "--seed", "0",
               "--lr", "1.0"] + FAST_TRAIN)
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].split() == ["variant", "P%", "R%", "F%"]
    rows = lines[1:]
    assert len(rows) == 6
    names = [r.split()[0] for r in rows]
    assert names == ["hadamard/relu", "hadamard/sigmoid", "hadamard/tanh",
                     "sum/relu", "sum/sigmoid", "sum/tanh"]
    # the scores of this seeded run; the variants score apart, so a change
    # in what any of them computes shows
    assert out == """\
variant                   P%      R%      F%
hadamard/relu          50.00  100.00   66.67
hadamard/sigmoid       60.00  100.00   75.00
hadamard/tanh          50.00  100.00   66.67
sum/relu               50.00  100.00   66.67
sum/sigmoid            75.00  100.00   85.71
sum/tanh               54.55  100.00   70.59
"""
    # the six variants share one read of each input
    assert sorted(map(str, loads)) == sorted([str(kb_path), str(words_path)])


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
        command = "train"
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


def _valid_inputs(tmp_path):
    """A readable file for each input flag, and tmp_path/out for --out."""
    inst_path, _, _ = _small_training_setup(tmp_path)
    triples, pred = tmp_path / "triples.tsv", tmp_path / "pred.tsv"
    _write_triples(triples)
    pred.write_text("D1\tG1\tG2\n")
    return {"--corpus": DATA / "toy_corpus.jsonl", "--triples": triples,
            "--instances": inst_path, "--eval-instances": inst_path,
            "--checkpoint": DATA / "toy_model_v7.ckpt",
            "--predictions": pred, "--out": tmp_path / "out"}


# every flag that names a file a command reads
_FILE_INPUTS = [(command, flag) for command, flags in [
    ("preprocess", ("--corpus", "--config")),
    ("train-kb", ("--triples", "--word-embeddings", "--mention-lexicon",
                  "--config")),
    ("train", ("--instances", "--kb", "--word-embeddings", "--config")),
    ("predict", ("--instances", "--checkpoint")),
    ("evaluate", ("--predictions", "--corpus")),
    ("ablate", ("--instances", "--eval-instances", "--corpus", "--kb",
                "--word-embeddings", "--config")),
    ("gradcheck", ("--config",)),
] for flag in flags]


@pytest.mark.parametrize("command, flag", _FILE_INPUTS)
def test_a_directory_as_an_input_file_exits_2_naming_it(tmp_path, capsys,
                                                        command, flag):
    valid = _valid_inputs(tmp_path)
    given = {f: str(valid[f]) for f in _REQUIRED[command]}
    directory = tmp_path / "a_directory"
    directory.mkdir()
    given[flag] = str(directory)
    rc = main([command, *(arg for item in given.items() for arg in item)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {directory}: Is a directory\n"
    assert not valid["--out"].exists()


@pytest.mark.parametrize("command", ["preprocess", "predict", "evaluate"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_out_path_that_cannot_be_written_exits_2_naming_it(
        tmp_path, capsys, command, where):
    out = {"missing-directory": tmp_path / "absent" / "out",
           "directory": tmp_path / "out"}[where]
    if where == "directory":
        out.mkdir()
    valid = _valid_inputs(tmp_path)
    given = {f: str(valid[f]) for f in _REQUIRED[command]}
    given["--out"] = str(out)
    rc = main([command, *(arg for item in given.items() for arg in item)])
    assert rc == 2
    assert capsys.readouterr().err == {
        "missing-directory": f"error: file not found: {out}\n",
        "directory": f"error: {out}: Is a directory\n"}[where]


def test_missing_required_flag_reports_which(tmp_path, capsys, monkeypatch):
    # argparse rejects the argv before a setting is resolved
    monkeypatch.setattr("ksm.cli.resolve_config",
                        lambda args: pytest.fail("config resolved"))
    for command, flags in _REQUIRED.items():
        for flag in flags:
            argv = _required(command, tmp_path)
            i = argv.index(flag)
            with pytest.raises(SystemExit) as e:
                main([command, *argv[:i], *argv[i + 2:]])
            assert e.value.code == 2
            err = capsys.readouterr().err
            assert f"the following arguments are required: {flag}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_help_shows_the_required_inputs_outside_brackets(capsys, command):
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("options:")[0].split())
    for flag in _REQUIRED[command]:
        assert f" {flag} " in usage and f"[{flag} " not in usage, flag
    if command in ("evaluate", "ablate"):   # an optional report copy
        assert "[--out OUT]" in usage


def test_kb_dimension_mismatch_reports_cleanly(tmp_path, capsys):
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    rc = main(["train", "--instances", str(inst_path),
               "--kb", str(kb_path), "--out", str(tmp_path / "m.ckpt"),
               "--d", "16", "--n-heads", "2",
               "--n-blocks", "1", "--max-epochs", "1",
               "--holdout-fraction", "0"])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def _store_without_rows(path, width):
    """A KB store file of `width` with no entity, relation or pair."""
    return _write_store(path, kb.KnowledgeStore({}, {}, width))


def test_kb_dir_without_rows_trains_with_every_pair_null(tmp_path,
                                                          monkeypatch):
    from ksm import train as train_mod
    inst_path, words_path, _ = _small_training_setup(tmp_path)
    kb_path = _store_without_rows(tmp_path / "empty_kb.ksm", 8)
    stores, train = [], train_mod.train_model

    def recording(instances, store, *rest):
        stores.append(store)
        return train(instances, store, *rest)

    monkeypatch.setattr(train_mod, "train_model", recording)
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path), "--kb", str(kb_path),
               "--out", str(out)] + FAST_TRAIN)
    assert rc == 0 and out.exists()
    [store] = stores
    assert store.d_kb == 8 and not store.pair_relations
    assert store.stats["null_relation"] == len(read_instances(inst_path))


def test_kb_dir_without_rows_of_another_width_exits_2(tmp_path, capsys):
    inst_path, words_path, _ = _small_training_setup(tmp_path)
    kb_path = _store_without_rows(tmp_path / "empty_kb.ksm", 6)
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path), "--kb", str(kb_path),
               "--out", str(out)] + FAST_TRAIN)
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {kb_path}: KB store width 6 does not match the model "
        f"width d 8"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "train-kb"])
def test_word_embeddings_not_d_wide_exit_2_naming_the_file(tmp_path, capsys,
                                                          command):
    inst_path, _, _ = _small_training_setup(tmp_path)
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    words = tmp_path / "w4.txt"
    write_embeddings(words, {"a": np.ones(4), WordTable.UNK: np.zeros(4)})
    out = tmp_path / "out"
    inputs = {"train": ["--instances", str(inst_path), "--out", str(out)],
              "ablate": ["--instances", str(inst_path), "--eval-instances",
                         str(inst_path), "--corpus",
                         str(DATA / "toy_corpus.jsonl")],
              "train-kb": ["--triples", str(triples), "--out", str(out)]}
    rc = main([command, *inputs[command], "--word-embeddings", str(words),
               "--d", "8"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {words}: word embedding width 4 does not match the model "
        f"width d 8"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "train-kb"])
@pytest.mark.parametrize("width", ["0", "-4"])
def test_width_below_1_exits_2(tmp_path, capsys, command, width):
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    out = tmp_path / "out"
    inputs = {"train-kb": ["--triples", str(triples)],
              "train": ["--instances", str(inst_path), "--word-embeddings",
                        str(words_path), "--kb", str(kb_path)]}[command]
    rc = main([command, *inputs, "--out", str(out), "--d", width])
    assert rc == 2
    message = {"train": f"d ({width}) must be a positive multiple of "
                        f"n_heads (4)",
               "train-kb": f"d_kb must be >= 1, got {width}"}[command]
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and line.endswith(message)
    assert not out.exists()


def test_malformed_corpus_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id":"a","sentences":[],"mentions":[],'
                   '"gold_relations":[]}\n{broken\n')
    rc = main(["preprocess", "--corpus", str(bad),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "bad.jsonl:2" in capsys.readouterr().err


@pytest.mark.parametrize("doc, location", [
    ({"sentences": [["a", "b"]], "mentions": [
        {"entity_id": "G1", "sentence": 0, "token_span": [0, 1, 5]}]},
     "bad.jsonl:2: mention span must be two integers"),
    ({"sentences": [["a", "b"]], "mentions": [
        {"entity_id": "G1", "sentence": 0.5, "token_span": [0, 1]}]},
     "bad.jsonl:2: mention sentence index must be an integer"),
    ({"sentences": [["a", 2, "c"]], "mentions": [
        {"entity_id": "G1", "sentence": 0, "token_span": [0, 1]},
        {"entity_id": "G2", "sentence": 0, "token_span": [2, 3]}]},
     "bad.jsonl:2: d7: token 2 is not a string"),
    ({"sentences": ["P1 ab P2"], "mentions": [
        {"entity_id": "G1", "sentence": 0, "token_span": [0, 1]},
        {"entity_id": "G2", "sentence": 0, "token_span": [7, 8]}]},
     "bad.jsonl:2: sentences must be a list of token lists"),
    ({"sentences": [["a", "b"]], "mentions": [],
      "gold_relations": [["G1", "G2", "G3"]]},
     "bad.jsonl:2: gold_relations entries must be lists of 2 strings"),
    ({"sentences": [["a", "b"]], "mentions": [],
      "gold_relations": [[2, 1], "ab"]},
     "bad.jsonl:2: gold_relations entries must be lists of 2 strings"),
    ({"doc_id": ["d7"], "sentences": [["a", "b"]], "mentions": []},
     "bad.jsonl:2: doc_id and mention entity ids must be strings"),
], ids=["span-3", "sentence-float", "token-int", "sentence-string",
        "gold-pair-of-3", "gold-pair-not-strings", "doc-id-list"])
def test_malformed_corpus_record_exits_2_without_output(tmp_path, capsys,
                                                        doc, location):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id":"a","sentences":[],"mentions":[],'
                   '"gold_relations":[]}\n'
                   + json.dumps({"doc_id": "d7", "gold_relations": [], **doc})
                   + "\n")
    out = tmp_path / "out.jsonl"
    rc = main(["preprocess", "--corpus", str(bad), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.splitlines() == [err]
    assert location in err
    assert not out.exists()


def _flags(subcommand):
    import argparse
    from ksm.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {o for a in sub.choices[subcommand]._actions
            for o in a.option_strings if o not in ("-h", "--help")}


def test_config_flags_follow_the_config_dataclasses():
    # train and ablate take one flag per field of ModelConfig and
    # TrainConfig; train-kb only the seed, the width and the TransE
    # settings; preprocessing draws nothing at random, and gradcheck only
    # prints
    fit_flags = {
        "--batch-size", "--d", "--dropout-rate", "--holdout-fraction",
        "--lr", "--max-epochs", "--n-blocks", "--n-heads", "--patience",
        "--pooling", "--seed", "--selector-activation", "--selector-op",
        "--selector-target", "--shared-encoder"}
    assert fit_flags == {"--" + k.replace("_", "-") for k in _FIT_KEYS}
    want = {
        "preprocess": {"--config", "--out", "--corpus", "--phase"},
        "train-kb": {"--config", "--out", "--seed", "--d", "--kb-margin",
                     "--kb-epochs", "--kb-lr", "--triples",
                     "--word-embeddings", "--mention-lexicon"},
        "train": {"--config", "--out"} | fit_flags | {
            "--instances", "--kb", "--word-embeddings"},
        "predict": {"--out", "--instances", "--checkpoint"},
        "evaluate": {"--out", "--predictions", "--corpus"},
        "ablate": {"--config", "--out"} | fit_flags | {
            "--axis", "--instances", "--eval-instances", "--corpus",
            "--kb", "--word-embeddings"},
        "gradcheck": {"--config", "--seed"},
    }
    for subcommand, flags in want.items():
        assert _flags(subcommand) == flags, subcommand
    assert {c: set(keys) for c, keys in SETTINGS.items()} == _READS


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("flag", ["--config", "--seed"])
def test_predict_and_evaluate_take_no_config_or_seed(tmp_path, capsys,
                                                     command, flag):
    # neither command reads a setting: a model's settings are in its
    # checkpoint, and both are deterministic
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"d": 16, "n_heads": 8}))
    value = {"--config": str(cfg_file), "--seed": "3"}[flag]
    with pytest.raises(SystemExit) as e:
        main([command, *_required(command, tmp_path), flag, value])
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gradcheck", "--out", "r.txt"],
                                  ["preprocess", "--seed", "3"]],
                         ids=["gradcheck-out", "preprocess-seed"])
def test_flags_a_command_never_reads_exit_2(tmp_path, capsys, argv):
    # gradcheck only prints; preprocessing draws nothing at random
    with pytest.raises(SystemExit) as e:
        main([argv[0], *_required(argv[0], tmp_path), *argv[1:]])
    assert e.value.code == 2
    assert (f"unrecognized arguments: {argv[1]}"
            in capsys.readouterr().err)


# train-kb, train and ablate used to take a flag for every key but phase,
# and every command with --config every key
_DROPPED_FLAGS = [(c, k) for c in ("train-kb", "train", "ablate")
                  for k in sorted(set(DEFAULTS) - {"phase"} - _READS[c])]
_DROPPED_KEYS = [(c, k) for c in _READS
                 for k in sorted(set(DEFAULTS) - _READS[c])]


@pytest.mark.parametrize("command, key", _DROPPED_FLAGS)
def test_a_flag_for_a_setting_the_command_does_not_read_exits_2(
        tmp_path, capsys, command, key):
    flag, out = "--" + key.replace("_", "-"), tmp_path / "out"
    with pytest.raises(SystemExit) as e:
        main([command, *_required(command, tmp_path), flag,
              str(DEFAULTS[key]).lower()])
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key", _DROPPED_KEYS)
def test_a_config_key_the_command_does_not_read_exits_2(
        tmp_path, capsys, monkeypatch, command, key):
    monkeypatch.setattr("ksm.cli.run_report",
                        lambda seed: pytest.fail("gradcheck ran"))
    cfg_file, out = tmp_path / "run.json", tmp_path / "out"
    cfg_file.write_text(json.dumps({key: DEFAULTS[key]}))
    rc = main([command, "--config", str(cfg_file),
               *_required(command, tmp_path)])
    assert rc == 2
    assert (f"error: {cfg_file}: unknown config keys: ['{key}']; {command} "
            f"reads {sorted(_READS[command])}" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--mention-lexicon"])
def test_a_json_file_that_is_not_utf8_exits_2(tmp_path, capsys, flag):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    bad, out = tmp_path / "bad.json", tmp_path / "kb"
    bad.write_bytes(b'{\n  "\xc6": 1}\n')
    rc = main(["train-kb", "--triples", str(triples), flag, str(bad),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}:2: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, text, key, what", [
    ("--config", '{"seed": 1,\n "seed": 2}', "seed", "config file"),
    ("--mention-lexicon", '{"e1": ["a"], "e1": ["b"]}', "e1",
     "mention lexicon")], ids=["config", "mention-lexicon"])
def test_a_json_file_that_repeats_a_key_exits_2(tmp_path, capsys, flag, text,
                                                key, what):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    path, out = tmp_path / "repeats.json", tmp_path / "kb"
    path.write_text(text)
    rc = main(["train-kb", "--triples", str(triples), "--d", "8", flag,
               str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {path}: repeated key '{key}' in {what}\n")
    assert not out.exists()


@pytest.mark.parametrize("slot", ["flag", "file"])
def test_phase_is_checked_before_the_corpus_in_either_slot(tmp_path, capsys,
                                                           slot):
    # an empty corpus would otherwise leave an empty instance file behind
    corpus, out = tmp_path / "empty.jsonl", tmp_path / "out.jsonl"
    corpus.write_text("")
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"phase": "dev"}))
    setting = {"flag": ["--phase", "dev"],
               "file": ["--config", str(cfg_file)]}[slot]
    rc = main(["preprocess", "--corpus", str(corpus), "--out", str(out),
               *setting])
    assert rc == 2
    assert ("error: phase must be one of ('train', 'test'), got 'dev'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_d_head_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"d_head": 25}))
    rc = main(["preprocess", "--corpus", str(DATA / "toy_corpus.jsonl"),
               "--out", str(tmp_path / "x"), "--config", str(cfg_file)])
    assert rc == 2
    assert "d_head" in capsys.readouterr().err


def test_d_kb_config_key_rejected(tmp_path, capsys):
    # the KB width is d, so d_kb is no setting
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"d_kb": 8}))
    rc = main(["train-kb", "--triples", str(tmp_path / "absent.tsv"),
               "--out", str(tmp_path / "kb"), "--config", str(cfg_file)])
    assert rc == 2
    assert "unknown config keys: ['d_kb']" in capsys.readouterr().err


def test_gate_uses_relation_config_key_rejected(tmp_path, capsys):
    # the gate always reads the relation, so the key is no setting
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"gate_uses_relation": True}))
    rc = main(["train", "--instances", str(tmp_path / "absent.jsonl"),
               "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg_file)])
    assert rc == 2
    assert ("unknown config keys: ['gate_uses_relation']"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [("position_encoding", "sinusoidal"),
                                        ("max_distance", 16)])
def test_position_config_keys_rejected(tmp_path, capsys, key, value):
    # the sinusoidal encoding is the only one, so neither key is a setting
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({key: value}))
    rc = main(["train", "--instances", str(tmp_path / "absent.jsonl"),
               "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg_file)])
    assert rc == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def test_deeply_nested_config_file_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "deep.json"
    cfg_file.write_text("[" * 100_000)
    rc = main(["gradcheck", "--config", str(cfg_file)])
    assert rc == 2
    assert (f"error: {cfg_file}: JSON nested too deeply in config file"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value, want", [
    ("shared_encoder", "false", "bool"),
    ("shared_encoder", 0, "bool"),
    ("d", "16", "int"),
    ("d", 16.0, "int"),
    ("n_blocks", True, "int"),
    ("lr", False, "float"),
    ("lr", "0.5", "float"),
    ("pooling", 1, "str"),
])
def test_config_file_value_of_another_type_exits_2(tmp_path, capsys, key,
                                                   value, want):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({key: value}))
    rc = main(["train", "--config", str(cfg_file),
               *_required("train", tmp_path)])
    assert rc == 2
    assert (f"error: {cfg_file}: {key} must be of type {want}, got "
            f"{json.dumps(value)}" in capsys.readouterr().err)


def test_config_file_float_key_takes_an_int(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"lr": 1, "shared_encoder": True}))

    class Args:
        command = "train"
        config = str(cfg_file)

    cfg = resolve_config(Args())
    assert cfg["lr"] == 1 and cfg["shared_encoder"] is True


@pytest.mark.parametrize("text, value", [
    ("true", True), ("YES", True), ("1", True),
    ("False", False), ("no", False), ("0", False)])
def test_bool_flag_reads_its_six_words(tmp_path, text, value):
    from ksm.cli import build_parser
    args = build_parser().parse_args(["train", *_required("train", tmp_path),
                                      "--shared-encoder", text])
    assert args.shared_encoder is value


@pytest.mark.parametrize("text", ["flase", "", "on", "2"])
def test_bool_flag_rejects_any_other_word(capsys, text):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--shared-encoder", text])
    assert exit_info.value.code == 2
    assert ("argument --shared-encoder: expected one of "
            "true/false/yes/no/1/0" in capsys.readouterr().err)


_NOT_STRING_LISTS = ("lexicon.json: mention lexicon must hold a JSON "
                     "object of string lists")


@pytest.mark.parametrize("lexicon, message", [
    ("[1, 2]", _NOT_STRING_LISTS),
    ('{"e1": "word"}', _NOT_STRING_LISTS),
    ('{"e1": ["a", 3]}', _NOT_STRING_LISTS),
    ('{"e1": ["a"],\n "e2": [}', "lexicon.json:2: invalid JSON in mention "
                                 "lexicon"),
    ("[" * 100_000, "lexicon.json: JSON nested too deeply in mention "
                    "lexicon"),
], ids=["list", "string_entry", "number_word", "bad_json", "deep"])
def test_train_kb_rejects_a_malformed_mention_lexicon(tmp_path, capsys,
                                                      lexicon, message):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    path = tmp_path / "lexicon.json"
    path.write_text(lexicon)
    out = tmp_path / "kb"
    rc = main(["train-kb", "--triples", str(triples), "--d", "8",
               "--mention-lexicon", str(path), "--out", str(out)])
    assert rc == 2
    assert f"error: {tmp_path}/{message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_kb_reads_a_mention_lexicon(tmp_path):
    triples = tmp_path / "triples.tsv"
    _write_triples(triples)
    words = tmp_path / "words.txt"
    write_embeddings(words, {"alpha": np.full(4, 0.25),
                             "beta": np.full(4, -0.5)})
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"e1": ["alpha", "beta"], "e2": []}))
    out = tmp_path / "kb.ksm"
    rc = main(["train-kb", "--triples", str(triples), "--d", "4",
               "--kb-epochs", "0", "--word-embeddings", str(words),
               "--mention-lexicon", str(lexicon), "--out", str(out)])
    assert rc == 0
    np.testing.assert_array_equal(
        load_checkpoint(out)[3].entity_table["e1"], np.full(4, -0.125))


def test_nan_learning_rate_exits_2(tmp_path, capsys):
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path), "--kb", str(kb_path),
               "--out", str(out), "--lr", "nan"] + FAST_TRAIN)
    assert rc == 2
    assert ("error: lr must be finite and nonnegative, got nan"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_run_that_diverges_exits_2(tmp_path, capsys):
    # a finite but huge lr drives the pair scores out of their domain: the
    # forward's ValueError is reported as the run's, not as a bug
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    out = tmp_path / "m.ckpt"
    with np.errstate(all="ignore"):
        rc = main(["train", "--instances", str(inst_path),
                   "--word-embeddings", str(words_path), "--kb", str(kb_path),
                   "--out", str(out), "--lr", "1e6"] + FAST_TRAIN)
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: training diverged at epoch ")
    assert "pair_tanh_score" in line
    assert not out.exists()


def test_non_finite_training_loss_exits_2(tmp_path, capsys, monkeypatch):
    from ksm.optim import Adadelta
    step = Adadelta.step

    def poisoned(self):
        # the first optimizer step leaves a NaN parameter behind
        step(self)
        self.params["classifier.b"].data[0] = np.nan

    monkeypatch.setattr(Adadelta, "step", poisoned)
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path), "--kb", str(kb_path),
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
    inst_path, words_path, kb_path = _small_training_setup(tmp_path)
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--instances", str(inst_path),
               "--word-embeddings", str(words_path), "--kb", str(kb_path),
               "--out", str(out)] + FAST_TRAIN)
    assert rc == 2
    err = capsys.readouterr().err
    assert ("error: non-finite gradient of parameter 'classifier.b' at "
            "epoch 0, batch 0") in err
    assert not out.exists()


def test_defaults_are_the_library_defaults():
    import dataclasses
    import inspect

    from ksm.kb import transe_train
    from ksm.model import ModelConfig
    from ksm.train import TrainConfig
    transe = inspect.signature(transe_train).parameters
    assert DEFAULTS == {
        **dataclasses.asdict(ModelConfig()),
        **dataclasses.asdict(TrainConfig()),
        "kb_margin": transe["margin"].default,
        "kb_epochs": transe["epochs"].default,
        "kb_lr": transe["lr"].default,
        "phase": "train",
    }


def test_readme_usage_lines_parse():
    # every `ksm ...` example of the README's command block is one the
    # parser takes, required inputs included, and the store train-kb
    # writes is the one train reads
    from ksm.cli import build_parser
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```\n")[1]
    commands = block.replace("\\\n", " ").splitlines()
    assert [c.split()[:2] for c in commands] == [
        ["ksm", c] for c in ("preprocess", "train-kb", "train", "predict",
                             "evaluate", "ablate", "gradcheck")]
    args = [build_parser().parse_args(shlex.split(command)[1:])
            for command in commands]
    assert args[1].out == args[2].kb


def test_readme_config_table_lists_exactly_the_defaults():
    # a key added, dropped, given another default or read by another
    # command must reach the README
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("| key | default | read by |\n", 1)[1]
    rows = table.split("\n\n")[0].splitlines()[1:]   # below the rule
    listed = []
    for row in rows:      # | key | default | `command`, `command` |
        key, value, commands = (c.strip() for c in row.strip("|").split("|"))
        listed.append((key.strip("`"), value,
                       sorted(c.strip(" `") for c in commands.split(","))))
    assert sorted(listed) == sorted(
        (key, str(value).lower() if type(value) is bool else str(value),
         sorted(c for c, keys in SETTINGS.items() if key in keys))
        for key, value in DEFAULTS.items())
