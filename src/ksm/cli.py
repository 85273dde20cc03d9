"""Command-line entry point.

Subcommands: preprocess, train-kb, train, predict, evaluate, ablate,
gradcheck. Every run is reproducible: configuration resolves as
command-line flag > config file (JSON) > built-in default, the seed is
explicit, and no subcommand mutates its inputs. Logs are JSON lines
with a schema version.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import logging
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import kb as kb_mod
from . import train as train_mod
from .checkpoint import CheckpointError
from .corpus import CorpusError
from .gradcheck import run_report
from .kb import KBError
from .model import ConfigError, KSMModel, ModelConfig, WordTable
from .train import TrainConfig

logger = logging.getLogger(__name__)

LOG_SCHEMA_VERSION = 1

_MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig))
_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))

DEFAULTS: dict = {
    **{k: getattr(ModelConfig, k) for k in _MODEL_KEYS},
    **{k: getattr(TrainConfig, k) for k in _TRAIN_KEYS},
    # knowledge base
    **{f"kb_{k}": inspect.signature(kb_mod.transe_train).parameters[k].default
       for k in ("margin", "epochs", "lr")},
    "relation_pool": kb_mod.KnowledgeStore.relation_pool,
    # preprocessing
    "phase": "train",
}


class CliError(Exception):
    pass


def resolve_config(args: argparse.Namespace) -> dict:
    """flag > config file > default; unknown file keys are rejected."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise CliError(f"{path}:{e.lineno}: invalid JSON in config file")
        if not isinstance(file_cfg, dict):
            raise CliError(f"{path}: config file must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise CliError(f"{path}: unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"missing required input: --{name.replace('_', '-')}")


def _check_exists(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise CliError(f"{what} not found: {p}")
    return p


def _write_log(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(json.dumps({"schema": LOG_SCHEMA_VERSION, **rec},
                               separators=(",", ":")) + "\n")


def _load_word_table(args, cfg, instances) -> WordTable:
    if getattr(args, "word_embeddings", None):
        return WordTable.load(_check_exists(args.word_embeddings,
                                            "word embeddings file"))
    logger.info("no --word-embeddings given; using random vectors "
                "(seed %d)", cfg["seed"])
    vocab = sorted({t for inst in instances for t in inst.tokens})
    return WordTable.random(vocab, cfg["d"], seed=cfg["seed"])


def _save_word_table(args, word_table: WordTable, path: Path) -> None:
    """Write the table `predict` reads back. A table loaded from
    --word-embeddings is that file, copied byte for byte (formatting 2,000
    rows of 100 floats again costs more than reading them); nothing is
    copied onto the file itself."""
    source = getattr(args, "word_embeddings", None)
    if not source:
        word_table.save(path)
    elif not (path.exists() and os.path.samefile(source, path)):
        shutil.copyfile(source, path)


def _load_store(args, cfg) -> kb_mod.KnowledgeStore:
    if getattr(args, "kb_dir", None):
        store = kb_mod.load_store(_check_exists(args.kb_dir, "KB directory"))
        store.relation_pool = cfg["relation_pool"]
        return store
    logger.warning("no --kb-dir given; every pair resolves to the "
                   "null relation")
    return kb_mod.KnowledgeStore(entity_table={}, relation_table={},
                                 null_relation=np.zeros(cfg["d_kb"]),
                                 d_kb=cfg["d_kb"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args) -> int:
    cfg = resolve_config(args)
    _require(args, "corpus", "out")
    docs = corpus_mod.read_corpus(_check_exists(args.corpus, "corpus file"))
    instances = []
    for doc in docs:
        instances.extend(corpus_mod.preprocess_document(doc, cfg["phase"]))
    corpus_mod.write_instances(args.out, instances)
    print(f"wrote {len(instances)} instances from {len(docs)} documents "
          f"to {args.out}")
    return 0


def cmd_train_kb(args) -> int:
    cfg = resolve_config(args)
    _require(args, "triples", "out")
    triples = kb_mod.read_triples(_check_exists(args.triples, "triples file"))
    word_table = None
    if args.word_embeddings:
        word_table = kb_mod.read_embeddings(
            _check_exists(args.word_embeddings, "word embeddings file"))
    lexicon = None
    if args.mention_lexicon:
        path = _check_exists(args.mention_lexicon, "mention lexicon")
        lexicon = json.loads(path.read_text(encoding="utf-8"))
    store = kb_mod.init_embeddings(triples, word_table, lexicon,
                                   d_kb=cfg["d_kb"], seed=cfg["seed"])
    losses = kb_mod.transe_train(triples, store, margin=cfg["kb_margin"],
                                 epochs=cfg["kb_epochs"], lr=cfg["kb_lr"],
                                 seed=cfg["seed"])
    kb_mod.save_store(store, args.out)
    if losses:
        print(f"trained {len(triples)} triples for {len(losses)} epochs; "
              f"mean loss {losses[0]:.4f} -> {losses[-1]:.4f}; "
              f"store saved to {args.out}")
    else:
        print(f"0 epochs requested; initialized store saved to {args.out}")
    return 0


def _check_store_dim(store, d_kb: int) -> None:
    if store.entity_table and store.d_kb != d_kb:
        raise CliError(f"KB store dimension {store.d_kb} does not match "
                       f"the model d_kb {d_kb}")


def _train_on(instances, args, cfg) -> tuple[KSMModel, train_mod.TrainResult,
                                             WordTable,
                                             kb_mod.KnowledgeStore]:
    store = _load_store(args, cfg)
    _check_store_dim(store, cfg["d_kb"])
    word_table = _load_word_table(args, cfg, instances)
    model = KSMModel(ModelConfig(**{k: cfg[k] for k in _MODEL_KEYS}),
                     word_table, seed=cfg["seed"],
                     null_relation=store.null_relation)
    train_config = TrainConfig(**{k: cfg[k] for k in _TRAIN_KEYS})
    result = train_mod.train_model(instances, store, model, train_config)
    return model, result, word_table, store


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    _require(args, "instances", "out")
    instances = corpus_mod.read_instances(
        _check_exists(args.instances, "instance file"))
    model, result, word_table, _ = _train_on(instances, args, cfg)
    model.save(args.out)
    _save_word_table(args, word_table, Path(str(args.out) + ".words.txt"))
    records = [{"event": "config", **cfg}]
    records += [{"event": "epoch", "epoch": e.epoch,
                 "train_loss": e.train_loss,
                 "eval_f1": None if np.isnan(e.eval_f1) else e.eval_f1,
                 "is_best": e.is_best}
                for e in result.log]
    _write_log(str(args.out) + ".log.jsonl", records)
    print(f"trained {len(result.log)} epochs (best: {result.best_epoch}); "
          f"checkpoint saved to {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = resolve_config(args)
    _require(args, "instances", "checkpoint", "out")
    instances = corpus_mod.read_instances(
        _check_exists(args.instances, "instance file"))
    words_path = (args.word_embeddings
                  or str(_check_exists(args.checkpoint, "checkpoint"))
                  + ".words.txt")
    word_table = WordTable.load(_check_exists(words_path,
                                              "word embeddings file"))
    model = KSMModel.load(args.checkpoint, word_table)
    cfg["d_kb"] = model.config.d_kb
    store = _load_store(args, cfg)
    _check_store_dim(store, model.config.d_kb)
    preds = train_mod.predict_instances(model, instances, store)
    prediction_set = train_mod.aggregate_predictions(preds)
    train_mod.write_predictions(args.out, prediction_set)
    n_pairs = sum(len(v) for v in prediction_set.values())
    print(f"predicted {n_pairs} positive pairs over "
          f"{len(instances)} instances; written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _require(args, "predictions", "corpus")
    predictions = train_mod.read_predictions(
        _check_exists(args.predictions, "predictions file"))
    docs = corpus_mod.read_corpus(_check_exists(args.corpus, "corpus file"))
    gold = train_mod.gold_pairs(docs)
    counts = train_mod.prf_counts(predictions, gold)
    report = train_mod.format_report(train_mod.prf_from_counts(*counts),
                                     counts)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    return 0


_ABLATION_AXES = {
    "selector": [
        (f"{op}/{act}", {"selector_op": op, "selector_activation": act})
        for op in ("hadamard", "sum")
        for act in ("relu", "sigmoid", "tanh")
    ],
    "target": [
        ("none", {"selector_target": "none"}),
        ("entity", {"selector_target": "entity"}),
        ("relation", {"selector_target": "relation"}),
        ("both", {"selector_target": "both"}),
    ],
    "architecture": [
        ("average", {"pooling": "average"}),
        ("max", {"pooling": "max"}),
        ("separate", {"pooling": "separate"}),
        ("one-block", {"n_blocks": 1}),
        ("sharing-encoder", {"shared_encoder": True}),
        ("full", {}),
    ],
}


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    _require(args, "instances", "eval_instances", "corpus")
    train_instances = corpus_mod.read_instances(
        _check_exists(args.instances, "instance file"))
    eval_instances = corpus_mod.read_instances(
        _check_exists(args.eval_instances, "eval instance file"))
    docs = corpus_mod.read_corpus(_check_exists(args.corpus, "corpus file"))
    gold = train_mod.gold_pairs(docs)
    rows = []
    for name, overrides in _ABLATION_AXES[args.axis]:
        variant_cfg = dict(cfg)
        variant_cfg.update(overrides)
        model, _, _, store = _train_on(train_instances, args, variant_cfg)
        preds = train_mod.predict_instances(model, eval_instances, store)
        prf = train_mod.micro_prf(train_mod.aggregate_predictions(preds),
                                  gold)
        rows.append((name, prf))
        logger.info("variant %s: F=%.2f%%", name, prf.f1 * 100)
    header = f"{'variant':<20}{'P%':>8}{'R%':>8}{'F%':>8}"
    lines = [header]
    for name, prf in rows:
        lines.append(f"{name:<20}{prf.precision * 100:>8.2f}"
                     f"{prf.recall * 100:>8.2f}{prf.f1 * 100:>8.2f}")
    table = "\n".join(lines)
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="utf-8")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    results, ok = run_report(seed=cfg["seed"])
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<24} max_rel_err={r.max_rel_err:.3e} "
              f"tol={r.tolerance:.0e} {status}")
    worst = max(r.max_rel_err for r in results)
    print(f"{'PASS' if ok else 'FAIL'} (max relative error {worst:.3e})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None, help="output path")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for key, default in DEFAULTS.items():
        if key in ("seed", "phase"):
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, type=lambda s: s.lower() in ("1", "true", "yes"),
                           default=None, metavar="BOOL")
        elif isinstance(default, int):
            p.add_argument(flag, type=int, default=None)
        elif isinstance(default, float):
            p.add_argument(flag, type=float, default=None)
        else:
            p.add_argument(flag, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksm",
        description="knowledge-selection relation extraction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="corpus -> candidate instances")
    p.add_argument("--corpus", help="corpus JSONL file")
    p.add_argument("--phase", choices=("train", "test"), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-kb", help="triples -> KB embedding store")
    p.add_argument("--triples", help="head<TAB>relation<TAB>tail file")
    p.add_argument("--word-embeddings", default=None)
    p.add_argument("--mention-lexicon", default=None,
                   help="JSON {entity_id: [mention words]}")
    _add_common(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_kb)

    p = sub.add_parser("train", help="instances -> model checkpoint")
    p.add_argument("--instances", help="labeled instance JSONL file")
    p.add_argument("--kb-dir", default=None)
    p.add_argument("--word-embeddings", default=None)
    _add_common(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="instances + checkpoint -> predictions")
    p.add_argument("--instances", help="instance JSONL file")
    p.add_argument("--checkpoint", help="model checkpoint")
    p.add_argument("--kb-dir", default=None)
    p.add_argument("--word-embeddings", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="predictions vs corpus gold -> P/R/F")
    p.add_argument("--predictions", help="predictions TSV file")
    p.add_argument("--corpus", help="corpus JSONL file with gold pairs")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and score model variants")
    p.add_argument("--instances", help="labeled training instances")
    p.add_argument("--eval-instances", help="evaluation instances")
    p.add_argument("--corpus", help="corpus JSONL with gold pairs")
    p.add_argument("--kb-dir", default=None)
    p.add_argument("--word-embeddings", default=None)
    p.add_argument("--axis", choices=sorted(_ABLATION_AXES), default="selector")
    _add_common(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CorpusError, KBError, ConfigError, CheckpointError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
