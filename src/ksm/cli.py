"""Command-line entry point.

Subcommands: preprocess, train-kb, train, predict, evaluate, ablate,
gradcheck. Each takes the settings it reads (`SETTINGS`; `predict` and
`evaluate` read none) and no other, as flags and as `--config` JSON keys,
resolved as flag > config file > default (`DEFAULTS`). A bad input
raises `ksm.InputError`, printed as `path:line: message`; `main` exits 2
on it and on `OSError` only, as anything else is a bug. Runs are
reproducible (explicit seed, inputs never mutated); logs are JSON lines
with a schema version.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import kb as kb_mod
from . import train as train_mod
from .autodiff import ParameterStore
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import run_report
from .inputs import InputError, check_types, loads, text_lines
from .model import KSMModel, ModelConfig, WordTable
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
    # preprocessing
    "phase": "train",
}

# The settings each subcommand reads: its flags and its config-file keys.
SETTINGS: dict[str, tuple[str, ...]] = {
    "preprocess": ("phase",),
    "train-kb": ("seed", "d", "kb_margin", "kb_epochs", "kb_lr"),
    "train": _MODEL_KEYS + _TRAIN_KEYS,
    "ablate": _MODEL_KEYS + _TRAIN_KEYS,
    "gradcheck": ("seed",),
}


def _read_json(path, what: str):
    """The JSON in a file; InputError at the file (and line) if it is not,
    or if an object repeats a key."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"repeated key {key!r} in {what}", path)
            obj[key] = value
        return obj

    text = "".join(line for _, line in text_lines(path))
    return loads(text, path, what, object_pairs_hook=unique)


def resolve_config(args: argparse.Namespace) -> dict:
    """The settings `args.command` reads: flag > config file > default. A
    file key must be one of them and its value of its default's type; an
    int also fits a float key, a bool only a bool."""
    keys = SETTINGS[args.command]
    cfg = {key: DEFAULTS[key] for key in keys}
    if path := args.config:
        file_cfg = _read_json(path, "config file")
        if not isinstance(file_cfg, dict):
            raise InputError("config file must hold a JSON object", path)
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}; "
                             f"{args.command} reads {sorted(keys)}", path)
        check_types(file_cfg, DEFAULTS, path)
        cfg.update(file_cfg)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _write_log(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(json.dumps({"schema": LOG_SCHEMA_VERSION, **rec},
                               separators=(",", ":")) + "\n")


def _fits(what: str, width: int, d: int, path) -> None:
    if width != d:
        raise InputError(f"{what} width {width} does not match the model "
                         f"width d {d}", path)


def _load_word_table(args, instances, d: int, seed: int) -> WordTable:
    if path := args.word_embeddings:
        table = WordTable.load(path)
        _fits("word embedding", table.d, d, path)
        return table
    logger.info("no --word-embeddings given; using random vectors "
                "(seed %d)", seed)
    vocab = sorted({t for inst in instances for t in inst.tokens})
    return WordTable.random(vocab, d, seed=seed)


def _kb_store(args, d: int) -> kb_mod.KnowledgeStore:
    """The --kb store checked against the model width `d`, or none."""
    if not args.kb:
        logger.warning("no --kb given; every pair resolves to the "
                       "null relation")
        return kb_mod.KnowledgeStore({}, {}, d)
    *_, store = load_checkpoint(args.kb)
    _fits("KB store", store.d_kb, d, args.kb)
    return store


def _fit_settings(args) -> dict:
    """train-kb's, train's or ablate's settings, resolved once `--out` is
    checked, before any input is read (no sidecar is left) or epoch runs."""
    out = args.out and Path(args.out)  # ablate's is optional
    if out and (out.is_dir() or not out.parent.is_dir()):
        raise InputError(f"--out {out}: not a file in an existing directory")
    return resolve_config(args)


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args) -> int:
    cfg = resolve_config(args)
    corpus_mod.check_phase(cfg["phase"])
    docs = corpus_mod.read_corpus(args.corpus)
    instances = []
    for doc in docs:
        instances.extend(corpus_mod.preprocess_document(doc, cfg["phase"]))
    corpus_mod.write_instances(args.out, instances)
    print(f"wrote {len(instances)} instances from {len(docs)} documents "
          f"to {args.out}")
    return 0


def cmd_train_kb(args) -> int:
    cfg = _fit_settings(args)
    triples = kb_mod.read_triples(args.triples)
    word_table = None
    if path := args.word_embeddings:
        word_table = kb_mod.read_embeddings(path)
        _fits("word embedding", word_table.matrix.shape[1], cfg["d"], path)
    lexicon = None
    if path := args.mention_lexicon:
        lexicon = _read_json(path, "mention lexicon")
        if not (isinstance(lexicon, dict) and all(
                isinstance(words, list) and all(type(w) is str for w in words)
                for words in lexicon.values())):
            raise InputError("mention lexicon must hold a JSON object of "
                             "string lists", path)
    store = kb_mod.init_embeddings(triples, word_table, lexicon,
                                   d_kb=cfg["d"], seed=cfg["seed"])
    losses = kb_mod.transe_train(triples, store, margin=cfg["kb_margin"],
                                 epochs=cfg["kb_epochs"], lr=cfg["kb_lr"],
                                 seed=cfg["seed"])
    save_checkpoint(args.out, ParameterStore(),
                    kb_mod.Embeddings.of({}, cfg["d"]), store, {"d": cfg["d"]})
    if losses:
        print(f"trained {len(triples)} triples for {len(losses)} epochs; "
              f"mean loss {losses[0]:.4f} -> {losses[-1]:.4f}; "
              f"store saved to {args.out}")
    else:
        print(f"0 epochs requested; initialized store saved to {args.out}")
    return 0


def _configs(args) -> tuple[ModelConfig, TrainConfig]:
    """The model and training configs of train or ablate."""
    cfg = _fit_settings(args)
    return (ModelConfig(**{k: cfg[k] for k in _MODEL_KEYS}),
            TrainConfig(**{k: cfg[k] for k in _TRAIN_KEYS}))


def cmd_train(args) -> int:
    model_config, train_config = _configs(args)
    instances = corpus_mod.read_instances(args.instances)
    store = _kb_store(args, model_config.d)
    word_table = _load_word_table(args, instances, model_config.d,
                                  train_config.seed)
    model = KSMModel(model_config, word_table, seed=train_config.seed)
    result = train_mod.train_model(instances, store, model, train_config)
    model.save(args.out, store)
    records = [{"event": "config", **dataclasses.asdict(model_config),
                **dataclasses.asdict(train_config)}]
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
    instances = corpus_mod.read_instances(args.instances)
    model = KSMModel.load(args.checkpoint)
    preds = train_mod.predict_instances(model, instances, model.store)
    prediction_set = train_mod.aggregate_predictions(preds)
    train_mod.write_predictions(args.out, prediction_set)
    n_pairs = sum(len(v) for v in prediction_set.values())
    print(f"predicted {n_pairs} positive pairs over "
          f"{len(instances)} instances; written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    predictions = train_mod.read_predictions(args.predictions)
    gold = train_mod.gold_pairs(corpus_mod.read_corpus(args.corpus))
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
    model_config, train_config = _configs(args)
    variants = [(name, dataclasses.replace(model_config, **overrides))
                for name, overrides in _ABLATION_AXES[args.axis]]
    train_instances = corpus_mod.read_instances(args.instances)
    eval_instances = corpus_mod.read_instances(args.eval_instances)
    gold = train_mod.gold_pairs(corpus_mod.read_corpus(args.corpus))
    # no axis varies d or the seed: every variant fits on the same inputs
    store = _kb_store(args, model_config.d)
    word_table = _load_word_table(args, train_instances, model_config.d,
                                  train_config.seed)
    lines = [f"{'variant':<20}{'P%':>8}{'R%':>8}{'F%':>8}"]
    for name, variant in variants:
        model = KSMModel(variant, word_table, seed=train_config.seed)
        train_mod.train_model(train_instances, store, model, train_config)
        preds = train_mod.predict_instances(model, eval_instances, store)
        prf = train_mod.micro_prf(train_mod.aggregate_predictions(preds),
                                  gold)
        lines.append(f"{name:<20}{prf.precision * 100:>8.2f}"
                     f"{prf.recall * 100:>8.2f}{prf.f1 * 100:>8.2f}")
        logger.info("variant %s: F=%.2f%%", name, prf.f1 * 100)
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


def _bool_flag(text: str) -> bool:
    value = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}.get(text.lower())
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected one of true/false/yes/no/1/0, got {text!r}")
    return value


def _add_settings(p: argparse.ArgumentParser, command: str) -> None:
    """--config, and one flag per setting `command` reads."""
    p.add_argument("--config", default=None, help="JSON config file")
    for key in SETTINGS[command]:
        kind = type(DEFAULTS[key])
        p.add_argument("--" + key.replace("_", "-"), default=None,
                       type=_bool_flag if kind is bool else kind,
                       metavar="BOOL" if kind is bool else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksm",
        description="knowledge-selection relation extraction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="corpus -> candidate instances")
    p.add_argument("--corpus", required=True, help="corpus JSONL file")
    p.add_argument("--out", required=True, help="output instance file")
    _add_settings(p, "preprocess")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-kb", help="triples -> KB embedding store")
    p.add_argument("--triples", required=True,
                   help="head<TAB>relation<TAB>tail file")
    p.add_argument("--word-embeddings", default=None)
    p.add_argument("--mention-lexicon", default=None,
                   help="JSON {entity_id: [mention words]}")
    p.add_argument("--out", required=True, help="output KB store file")
    _add_settings(p, "train-kb")
    p.set_defaults(func=cmd_train_kb)

    p = sub.add_parser("train", help="instances -> model checkpoint")
    p.add_argument("--instances", required=True,
                   help="labeled instance JSONL file")
    p.add_argument("--kb", default=None, help="KB store file (train-kb)")
    p.add_argument("--word-embeddings", default=None)
    p.add_argument("--out", required=True, help="output checkpoint")
    _add_settings(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="instances + checkpoint -> predictions")
    p.add_argument("--instances", required=True, help="instance JSONL file")
    p.add_argument("--checkpoint", required=True, help="model + KB checkpoint")
    p.add_argument("--out", required=True, help="output predictions TSV file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="predictions vs corpus gold -> P/R/F")
    p.add_argument("--predictions", required=True, help="predictions TSV file")
    p.add_argument("--corpus", required=True,
                   help="corpus JSONL file with gold pairs")
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and score model variants")
    p.add_argument("--instances", required=True,
                   help="labeled training instances")
    p.add_argument("--eval-instances", required=True,
                   help="evaluation instances")
    p.add_argument("--corpus", required=True,
                   help="corpus JSONL with gold pairs")
    p.add_argument("--kb", default=None, help="KB store file (train-kb)")
    p.add_argument("--word-embeddings", default=None)
    p.add_argument("--axis", choices=sorted(_ABLATION_AXES), default="selector")
    p.add_argument("--out", default=None, help="also write the table here")
    _add_settings(p, "ablate")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    _add_settings(p, "gradcheck")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        message = str(e)
    except FileNotFoundError as e:
        message = f"file not found: {e.filename}"
    except OSError as e:  # a failed write may name no file
        message = f"{e.filename}: {e.strerror}" if e.filename else str(e)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
