"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the ``ksm`` modules with wrappers
that record a span per call: name, start, end and the index of the
enclosing span. Functions are looked up as module globals at call time,
so wrapping ``ksm.model.encoder_block`` also catches the calls that
``ksm.model.encode`` makes. Nothing under ``src/`` changes, and nothing
is wrapped outside a traced run's ``Tracer.installed()`` blocks.

Spans stay in memory and are written out when the run ends. A layer's
self time is its span time minus the time its child spans cover; in this
single-threaded engine child spans nest strictly inside their parent, so
that is the sum of the children's durations. No layer queues work, so
there is no wait time to record.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import ksm.autodiff
import ksm.checkpoint
import ksm.corpus
import ksm.kb
import ksm.model
import ksm.optim
import ksm.train

# (owner, attribute, span name). The benchmark calls the program's entry
# points through these attributes too, so they are traced when installed.
WRAPPED = [
    (ksm.corpus, "preprocess_document", "corpus.preprocess_document"),
    (ksm.corpus, "generate_candidate_pairs", "corpus.generate_candidate_pairs"),
    (ksm.corpus, "build_context_window", "corpus.build_context_window"),
    (ksm.kb, "transe_train", "kb.transe_train"),
    (ksm.kb, "resolve_pair_knowledge", "kb.resolve_pair_knowledge"),
    (ksm.train, "resolve_pair_knowledge", "kb.resolve_pair_knowledge"),
    (ksm.model, "embed_context", "model.embed_context"),
    (ksm.model, "multi_head_attention", "model.multi_head_attention"),
    (ksm.model, "encoder_block", "model.encoder_block"),
    (ksm.model, "mutual_attention", "model.mutual_attention"),
    (ksm.model, "knowledge_select", "model.knowledge_select"),
    (ksm.model, "classify", "model.classify"),
    (ksm.model, "nll_loss", "model.nll_loss"),
    (ksm.autodiff, "backward", "autodiff.backward"),
    (ksm.train, "backward", "autodiff.backward"),
    (ksm.optim.Adadelta, "step", "optim.Adadelta.step"),
    (ksm.checkpoint, "save_checkpoint", "checkpoint.save"),
    (ksm.checkpoint, "load_checkpoint", "checkpoint.load"),
    (ksm.train, "train_model", "train.train_model"),
    (ksm.train, "predict_instances", "train.predict_instances"),
    (ksm.train, "aggregate_predictions", "train.aggregate_predictions"),
    (ksm.train, "micro_prf", "train.micro_prf"),
]

LAYERS = sorted({name for _, _, name in WRAPPED})

# derived per-layer figures: name -> unit
COUNTS = {
    "corpus.pairs": "count",
    "corpus.windows_kept_ratio": "ratio",
    "kb.transe_train.triple_updates": "count",
    "kb.null_relation_ratio": "ratio",
    "kb.entity_fallback_ratio": "ratio",
    "autodiff.tape_nodes_per_instance": "count",
    "checkpoint.bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTS)
    return units


def _tape_nodes(loss) -> int:
    """Nodes a backward pass from ``loss`` visits."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _count_tape(counts, args):
    counts["autodiff.tape_nodes"] += _tape_nodes(args[0])


def _kb_stats(counts, args):
    stats = args[0].stats
    return stats["null_relation"], stats["entity_fallback"]


def _kb_stats_delta(counts, args, result, before):
    stats = args[0].stats
    counts["kb.null_relation"] += stats["null_relation"] - before[0]
    counts["kb.entity_fallback"] += stats["entity_fallback"] - before[1]


def _counter(key, amount):
    def after(counts, args, result, before):
        counts[key] += amount(args, result)
    return after


# span name -> (called before the span with (counts, args) and returning a
# token, called after it with (counts, args, result, token))
HOOKS = {
    "autodiff.backward": (_count_tape, None),
    "kb.resolve_pair_knowledge": (_kb_stats, _kb_stats_delta),
    "corpus.generate_candidate_pairs": (None, _counter(
        "corpus.pairs", lambda args, result: len(result))),
    "corpus.build_context_window": (None, _counter(
        "corpus.windows_kept", lambda args, result: result is not None)),
    "kb.transe_train": (None, _counter(
        "kb.transe_train.triple_updates",
        lambda args, result: len(args[0]) * len(result))),
    "model.nll_loss": (None, _counter(
        "autodiff.loss_instances", lambda args, result: len(args[0]))),
    "checkpoint.save": (None, _counter(
        "checkpoint.bytes", lambda args, result: os.path.getsize(args[0]))),
}


class Tracer:
    """Span recorder; ``installed()`` wraps the program while it lasts."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) leave no span."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, stack, counts = self.spans, self._stack, self.counts

        # span() inlined: this runs on every call of a wrapped function
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = before(counts, args) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(counts, args, result, token)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap the program's layers for the duration of the block."""
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _ in WRAPPED]
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """calls / busy_s / self_s per layer plus the derived counts."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            if name in LAYERS:
                out[f"{name}.calls"] += 1
                out[f"{name}.busy_s"] += end - start
                out[f"{name}.self_s"] += own
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["corpus.pairs"] = c["corpus.pairs"]
        out["corpus.windows_kept_ratio"] = ratio(
            c["corpus.windows_kept"], out["corpus.build_context_window.calls"])
        out["kb.transe_train.triple_updates"] = c["kb.transe_train.triple_updates"]
        resolves = out["kb.resolve_pair_knowledge.calls"]
        out["kb.null_relation_ratio"] = ratio(c["kb.null_relation"], resolves)
        out["kb.entity_fallback_ratio"] = ratio(c["kb.entity_fallback"],
                                                2 * resolves)
        out["autodiff.tape_nodes_per_instance"] = ratio(
            c["autodiff.tape_nodes"], c["autodiff.loss_instances"])
        out["checkpoint.bytes"] = ratio(c["checkpoint.bytes"],
                                        out["checkpoint.save.calls"])
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
