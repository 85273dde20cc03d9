"""Training loop, document-level prediction aggregation and micro P/R/F.

Training runs Adadelta over seeded shuffles of the labeled instances.
`accumulate_batch_gradient` defines the training objective, the mean NLL
of the gold classes over a batch, and is what the gradient checks
differentiate. It builds, walks and drops each instance's share (its
`model.nll_loss` over the batch size) before the next instance's forward
pass, so memory is bounded by one instance's graph whatever the batch
size.

A deterministic fraction of documents (by SHA-1 of doc_id) is held out;
the checkpoint with the best held-out F1 is retained and early stopping
fires after `patience` epochs without improvement. With no held-out
documents the best epoch is picked by training loss instead.

A document-level pair counts as predicted positive as soon as any one of
its candidate instances is classified positive. Scores pool TP/FP/FN over
all documents (exact pair identity).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from . import model as ksm_model
from .autodiff import backward, no_grad
from .corpus import (CandidateInstance, Document, LABEL_POSITIVE,
                     LABEL_UNLABELED, sorted_pair)
from .inputs import InputError, check_types, records
from .kb import KnowledgeStore, PairKnowledge, resolve_pair_knowledge
from .model import CLASS_POSITIVE, KSMModel, gold_class
from .optim import Adadelta

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    lr: float = 0.02
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0
    holdout_fraction: float = 0.1  # 0 disables the held-out split

    def __post_init__(self):
        check_types(self)
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise InputError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise InputError(f"patience must be >= 0, got {self.patience}")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise InputError(
                f"lr must be finite and nonnegative, got {self.lr}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise InputError("holdout_fraction must be in [0, 1)")


class InstancePrediction(NamedTuple):
    doc_id: str
    pair: tuple[str, str]
    positive: bool


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


# prediction sets: doc_id -> set of sorted entity-id pairs
PredictionSet = dict


def aggregate_predictions(
        instance_predictions: Iterable[InstancePrediction]) -> PredictionSet:
    """Pair is in the output iff at least one of its instances is positive."""
    out: PredictionSet = {}
    for pred in instance_predictions:
        if pred.positive:
            out.setdefault(pred.doc_id, set()).add(sorted_pair(*pred.pair))
    return out


def prf_counts(predictions: PredictionSet, gold: PredictionSet
               ) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for doc_id in set(predictions) | set(gold):
        p = {sorted_pair(*x) for x in predictions.get(doc_id, set())}
        g = {sorted_pair(*x) for x in gold.get(doc_id, set())}
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    return tp, fp, fn


def prf_from_counts(tp: int, fp: int, fn: int) -> PRF:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return PRF(precision, recall, f1)


def micro_prf(predictions: PredictionSet, gold: PredictionSet) -> PRF:
    """Micro-averaged precision/recall/F1 over pooled document-level pairs."""
    return prf_from_counts(*prf_counts(predictions, gold))


def gold_pairs(docs: Iterable[Document]) -> PredictionSet:
    return {d.doc_id: set(d.gold_relations) for d in docs if d.gold_relations}


def format_report(prf: PRF, counts: tuple[int, int, int] | None = None) -> str:
    lines = []
    if counts is not None:
        lines.append("TP=%d FP=%d FN=%d" % counts)
    lines.append("P=%.2f%% R=%.2f%% F=%.2f%%" % (
        prf.precision * 100, prf.recall * 100, prf.f1 * 100))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# training


def _holdout_doc(doc_id: str, fraction: float) -> bool:
    if fraction <= 0:
        return False
    digest = hashlib.sha1(doc_id.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:4], "big") / 2**32
    return bucket < fraction


def _check_width(store: KnowledgeStore, model: KSMModel) -> None:
    if store.d_kb != model.config.d:
        raise InputError(f"KB store width {store.d_kb} does not match the "
                         f"model width d {model.config.d}")


def resolve_batch(instances: list[CandidateInstance],
                  store: KnowledgeStore
                  ) -> list[tuple[CandidateInstance, PairKnowledge]]:
    return [(inst, resolve_pair_knowledge(store, inst.pair[0], inst.pair[1]))
            for inst in instances]


def _predict_resolved(model: KSMModel,
                      resolved: list[tuple[CandidateInstance, PairKnowledge]]
                      ) -> list[InstancePrediction]:
    out = []
    with no_grad():
        for inst, kn in resolved:
            _, label = model.forward_instance(inst, kn, train=False)
            out.append(InstancePrediction(inst.doc_id, inst.pair,
                                          label == CLASS_POSITIVE))
    return out


def predict_instances(model: KSMModel, instances: list[CandidateInstance],
                      store: KnowledgeStore) -> list[InstancePrediction]:
    _check_width(store, model)
    return _predict_resolved(model, resolve_batch(instances, store))


@dataclass
class TrainLogEntry:
    epoch: int
    train_loss: float
    eval_f1: float
    is_best: bool


@dataclass
class TrainResult:
    log: list[TrainLogEntry] = field(default_factory=list)

    @property
    def best_epoch(self) -> int:  # the one whose parameters the model keeps
        return next((e.epoch for e in reversed(self.log) if e.is_best), -1)


def accumulate_batch_gradient(
        model: KSMModel,
        batch: list[tuple[CandidateInstance, PairKnowledge]],
        rng: np.random.Generator | None) -> float:
    """The training objective: add d loss / d param to every parameter's
    ``grad`` and return the loss, the mean NLL of the gold classes over
    `batch`, walking one instance's graph at a time.

    Instances run in batch order, drawing their dropout masks from `rng`
    (which may be None when dropout is off).
    """
    scale = 1.0 / len(batch)
    losses = []
    for inst, kn in batch:
        probs, _ = model.forward_instance(inst, kn, train=True, rng=rng)
        # module lookups at call time, so a wrapper set on the attribute
        # sees every call
        nll = ksm_model.nll_loss([probs], [gold_class(inst)])
        losses.append(nll.item())
        backward(nll * scale, model.params)  # zero-fills params off the graph
        del probs, nll   # free this graph before the next forward
    return float(np.sum(losses) * scale)


def _first_non_finite(arrays: Iterable[tuple[str, np.ndarray]]) -> str | None:
    """The name of the first (name, array) pair holding a non-finite value."""
    return next((name for name, a in arrays if not np.all(np.isfinite(a))),
                None)


def train_model(instances: list[CandidateInstance], store: KnowledgeStore,
                model: KSMModel, train_config: TrainConfig) -> TrainResult:
    """Fit the model on labeled instances; returns it loaded with the best
    parameters seen, plus the per-epoch log. A non-finite parameter before
    a batch, batch loss or parameter gradient, and a forward rejecting a
    diverged value, raise InputError naming the epoch and batch (and the
    first such parameter) before any optimizer step on that batch."""
    if not instances:
        raise InputError("empty training set")
    if any(inst.label == LABEL_UNLABELED for inst in instances):
        raise InputError("training instances must be labeled")
    _check_width(store, model)

    train: list[CandidateInstance] = []
    heldout: list[CandidateInstance] = []
    for inst in instances:
        if _holdout_doc(inst.doc_id, train_config.holdout_fraction):
            heldout.append(inst)
        else:
            train.append(inst)
    if not train:  # degenerate split: everything hashed into the holdout
        train, heldout = heldout, []
    resolved = resolve_batch(train, store)
    heldout_resolved = resolve_batch(heldout, store)
    heldout_gold = aggregate_predictions(
        InstancePrediction(i.doc_id, i.pair, i.label == LABEL_POSITIVE)
        for i in heldout)

    optimizer = Adadelta(model.params, lr=train_config.lr)
    rng = np.random.default_rng(train_config.seed)
    result = TrainResult()
    best_key: tuple | None = None
    best_values = model.params.clone_values()

    for epoch in range(train_config.max_epochs):
        order = rng.permutation(len(resolved))
        losses = []
        for start in range(0, len(order), train_config.batch_size):
            batch = [resolved[i] for i in order[start:start + train_config.batch_size]]
            where = f"epoch {epoch}, batch {len(losses)}"
            # the forward would raise first (`ad.pair_tanh_score` rejects NaN)
            bad = _first_non_finite((n, p.data)
                                    for n, p in model.params.items())
            if bad is not None:
                raise InputError(f"non-finite training loss at {where}: "
                                 f"parameter {bad!r} is not finite")
            model.params.zero_grad()
            try:  # the forward rejects values diverged out of its domain
                loss = accumulate_batch_gradient(model, batch, rng)
            except ValueError as e:
                raise InputError(f"training diverged at {where}: {e}") from e
            if not np.isfinite(loss):
                raise InputError(f"non-finite training loss {loss} at {where}")
            bad = _first_non_finite((n, p.grad)
                                    for n, p in model.params.items())
            if bad is not None:
                raise InputError(f"non-finite gradient of parameter {bad!r} "
                                 f"at {where}")
            optimizer.step()
            losses.append(loss)
        mean_loss = sum(losses) / len(losses)

        if heldout:
            preds = _predict_resolved(model, heldout_resolved)
            f1 = micro_prf(aggregate_predictions(preds), heldout_gold).f1
            key = (f1, -epoch)  # higher f1 wins; earlier epoch breaks ties
        else:
            f1 = float("nan")
            key = (-mean_loss, -epoch)

        is_best = best_key is None or key > best_key
        if is_best:
            best_key = key
            best_values = model.params.clone_values()
        result.log.append(TrainLogEntry(epoch, mean_loss, f1, is_best))
        logger.info("epoch %d: loss %.6f eval_f1 %s%s", epoch, mean_loss,
                    f"{f1:.4f}" if heldout else "n/a",
                    " *" if is_best else "")
        if epoch - result.best_epoch > train_config.patience:
            logger.info("early stop at epoch %d", epoch)
            break

    model.params.load_values(best_values)
    return result


def training_accuracy(model: KSMModel, instances: list[CandidateInstance],
                      store: KnowledgeStore) -> float:
    """Fraction of instances whose predicted class matches the label."""
    preds = predict_instances(model, instances, store)
    correct = sum(pred.positive == (inst.label == LABEL_POSITIVE)
                  for pred, inst in zip(preds, instances))
    return correct / len(instances)


# ---------------------------------------------------------------------------
# predictions file: doc_id<TAB>entity1<TAB>entity2


def write_predictions(path, predictions: PredictionSet) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc_id in sorted(predictions):
            for a, b in sorted(predictions[doc_id]):
                f.write(f"{doc_id}\t{a}\t{b}\n")


def _prediction(line: str) -> list[str]:
    if len(parts := line.split("\t")) != 3 or not all(parts):
        raise InputError("expected doc_id<TAB>entity1<TAB>entity2")
    return parts


def read_predictions(path) -> PredictionSet:
    out: PredictionSet = {}
    for doc_id, a, b in records(path, _prediction):
        out.setdefault(doc_id, set()).add(sorted_pair(a, b))
    return out
