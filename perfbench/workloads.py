"""The benchmark workloads: what each sets up, measures and checks.

Each workload turns its generated inputs into the program's own types
once, then

- ``setup(workdir)`` builds what a user has in hand before the measured
  work starts (model, KB store, parsed corpus); the benchmark times it;
- ``unit(state, quiet)`` runs one measured unit of work through the
  program's public API and checks the outputs inside ``quiet()``, outside
  the measured time, so checks neither count as work nor leave spans.

Times are read from ``refclock.CLOCK``: wall time scaled to a reference
host speed while the clock runs (see ``refclock``), plain wall time
otherwise.

Program entry points are called as module attributes (``train.train_model``
rather than an imported name) so that a traced run sees those calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ksm import corpus, kb, model, train
from ksm.corpus import (LABEL_NEGATIVE, LABEL_POSITIVE, CandidateInstance,
                        Document, Mention)

import generate as gen
from generate import CorpusProfile, KBProfile, WindowProfile
from refclock import CLOCK


@dataclass
class Unit:
    """One measured unit of work and the outcome of its checks."""
    items: int             # work items completed (see Workload.item)
    requests: list[float]  # scaled time of each request, in order
    failed: int            # requests whose outputs failed a check
    info: dict = field(default_factory=dict)
    scale: float = 1.0     # measured over wall time while the unit ran

    @property
    def seconds(self) -> float:
        return sum(self.requests)


class Workload:
    name = ""
    why = ""
    item = ""              # what one counted work item is
    throughput_name = ""   # the throughput under its workload-specific name
    latency_name = ""      # per-request latency figures, where reported
    min_units = 3          # measured units per run, at the least

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.profile = self.TINY if tiny else self.PROFILE

    def describe(self) -> dict:
        return {"why": self.why, "item": self.item,
                "profile": vars(self.profile), "inputs": self.stats}

    def prepare(self, workdir: Path) -> None:
        """Write input files the setup reads (none by default)."""

    def setup(self, workdir: Path):
        raise NotImplementedError

    def unit(self, state, quiet) -> Unit:
        raise NotImplementedError


def _instances(windows: list[gen.Window]) -> list[CandidateInstance]:
    return [CandidateInstance(
        doc_id=w.doc_id, pair=w.pair, tokens=w.tokens, pos1=w.pos1,
        pos2=w.pos2, label=LABEL_POSITIVE if w.positive else LABEL_NEGATIVE)
        for w in windows]


def _write_windows(workdir: Path, data: gen.WindowSet) -> None:
    """The files `ksm train` / `ksm predict` read: instances, vectors, KB."""
    corpus.write_instances(workdir / "instances.jsonl", _instances(data.windows))
    kb.write_embeddings(workdir / "vectors.txt", data.vectors)
    _write_triples(workdir / "triples.tsv", data.triples)


def _write_triples(path: Path, triples) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in triples:
            f.write("\t".join(t) + "\n")


def _read_windows(workdir: Path, seed: int):
    """(instances, word table, KB store), read back as the CLI does."""
    instances = corpus.read_instances(workdir / "instances.jsonl")
    table = model.WordTable.load(workdir / "vectors.txt")
    store = kb.init_embeddings(kb.read_triples(workdir / "triples.tsv"),
                               d_kb=gen.D, seed=seed)
    return instances, table, store


class TrainPaper(Workload):
    name = "train_paper"
    why = ("train_model at the paper configuration: the cost users wait on "
           "most, and the only workload running backward, Adadelta and dropout")
    item = "training instance-epoch (held-out eval time included)"
    throughput_name = "train_instances_per_s"
    PROFILE = WindowProfile(
        n_docs=18, instances_per_doc=4, min_len=20, max_len=60,
        length_power=1.0, heldout_docs=2, entity_pool=60,
        unknown_entity_share=0.1, kb_miss_share=0.3, positive_share=0.4,
        oov_share=0.05, trigger_share=0.7, mask_share=0.05)
    TINY = replace(PROFILE, n_docs=3, instances_per_doc=2, min_len=4,
                   max_len=8, heldout_docs=1, entity_pool=12)
    EPOCHS = 2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.data = gen.windows(seed, self.profile, "T")
        self.stats = self.data.stats
        self.config = train.TrainConfig(
            batch_size=64, max_epochs=self.EPOCHS, seed=seed,
            holdout_fraction=gen.HOLDOUT_FRACTION)

    def prepare(self, workdir):
        _write_windows(workdir, self.data)

    def setup(self, workdir):
        instances, table, store = _read_windows(workdir, self.seed)
        net = model.KSMModel(model.ModelConfig(), table, seed=self.seed)
        return {"instances": instances, "model": net, "store": store,
                "initial": net.params.clone_values(), "first_log": None}

    def unit(self, state, quiet):
        net = state["model"]
        net.params.load_values(state["initial"])
        start = CLOCK.now()
        instances = state["instances"]
        result = train.train_model(instances, state["store"], net, self.config)
        seconds = CLOCK.now() - start
        with quiet():
            log = [(e.train_loss, e.eval_f1) for e in result.log]
            ok = all(math.isfinite(loss) for loss, _ in log)
            if state["first_log"] is None:
                state["first_log"] = log
            ok = ok and _same(log, state["first_log"])
        return Unit(items=len(instances) * len(log), requests=[seconds],
                    failed=int(not ok),
                    info={"train_loss_final": {"value": log[-1][0],
                                               "unit": "nats"},
                          "eval_f1_final": {"value": log[-1][1],
                                            "unit": "ratio"}})


def _same(a, b) -> bool:
    """Equal, with NaN equal to NaN (no held-out split gives NaN F1)."""
    return repr(a) == repr(b)


class PredictLong(Workload):
    name = "predict_long"
    why = ("document-level prediction from a saved model, one client in a "
           "closed loop; forward only, long windows make mutual attention "
           "(L x L) dominate")
    item = "predicted instance"
    throughput_name = "predict_instances_per_s"
    latency_name = "predict_doc_ms"
    PROFILE = WindowProfile(
        n_docs=100, instances_per_doc=3, min_len=10, max_len=160,
        length_power=1.6, heldout_docs=0, entity_pool=300,
        unknown_entity_share=0.1, kb_miss_share=0.3, positive_share=0.4,
        oov_share=0.05, trigger_share=0.7, mask_share=0.05)
    TINY = replace(PROFILE, n_docs=4, instances_per_doc=2, min_len=4,
                   max_len=10, entity_pool=12)
    # every run makes at least MIN_DOCS requests, so at least 10 lie
    # beyond the tail percentile
    TAIL_PERCENTILE = 95
    MIN_DOCS = 200

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.data = gen.windows(seed, self.profile, "Q")
        self.stats = self.data.stats
        self.min_units = math.ceil(self.MIN_DOCS / self.profile.n_docs)

    def prepare(self, workdir):
        _write_windows(workdir, self.data)

    def setup(self, workdir):
        instances, table, store = _read_windows(workdir, self.seed)
        path = workdir / "model.ckpt"
        model.KSMModel(model.ModelConfig(), table, seed=self.seed).save(path)
        net = model.KSMModel.load(path, table)
        by_doc: dict[str, list[CandidateInstance]] = {}
        for inst in instances:
            by_doc.setdefault(inst.doc_id, []).append(inst)
        return {"docs": list(by_doc.items()), "model": net, "store": store,
                "first": None}

    def _verify(self, net, store, insts, preds) -> bool:
        """Probabilities finite and summing to 1; labels match the predictions."""
        for inst, pred in zip(insts, preds):
            kn = kb.resolve_pair_knowledge(store, *inst.pair)
            probs, label = net.forward_instance(inst, kn, train=False)
            p = probs.data
            if not (np.all(np.isfinite(p)) and abs(p.sum() - 1.0) < 1e-9
                    and pred.positive == (label == model.CLASS_POSITIVE)
                    and pred.pair == inst.pair):
                return False
        return len(preds) == len(insts)

    def unit(self, state, quiet):
        net, store = state["model"], state["store"]
        first = state["first"]
        outputs = {}
        requests = []
        failed = predicted_pairs = 0
        n = 0
        for doc_id, insts in state["docs"]:
            gold = {doc_id: self.data.gold.get(doc_id, set())}
            start = CLOCK.now()
            preds = train.predict_instances(net, insts, store)
            predicted = train.aggregate_predictions(preds)
            prf = train.micro_prf(predicted, gold)
            requests.append(CLOCK.now() - start)
            n += len(insts)
            with quiet():
                out = (sorted(predicted.get(doc_id, set())), prf)
                outputs[doc_id] = out
                ok = (self._verify(net, store, insts, preds) if first is None
                      else out == first[doc_id])
                failed += not ok
                predicted_pairs += len(out[0])
        if first is None:
            state["first"] = outputs
        digest = hashlib.sha256(repr(sorted(
            (d, o[0]) for d, o in outputs.items())).encode()).hexdigest()
        return Unit(items=n, requests=requests, failed=failed,
                    info={"prediction_digest": {"value": digest,
                                                "unit": "sha256"},
                          "predicted_pairs": {"value": predicted_pairs,
                                              "unit": "count"}})


class PrepareCorpus(Workload):
    name = "prepare_corpus"
    why = ("candidate windows from long multi-sentence documents with many "
           "mentions; no model runs, so windowing carries all the cost")
    item = "preprocessed document"
    throughput_name = "preprocess_docs_per_s"
    PROFILE = CorpusProfile(
        n_docs=400, sentences=10, min_sentence_len=15,
        max_sentence_len=35, mentions=14, entities=7, gold_pairs=3,
        two_token_mention_share=0.2, number_share=0.05, special_share=0.03)
    TINY = replace(PROFILE, n_docs=3, sentences=4, mentions=5, entities=3,
                   gold_pairs=1)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.raw, self.stats = gen.corpus(seed, self.profile)

    def prepare(self, workdir):
        docs = [Document(
            doc_id=r.doc_id, sentences=r.sentences,
            mentions=[Mention(e, s, (a, b)) for e, s, a, b in r.mentions],
            gold_relations=set(r.gold)) for r in self.raw]
        corpus.write_corpus(workdir / "corpus.jsonl", docs)

    def setup(self, workdir):
        return {"docs": corpus.read_corpus(workdir / "corpus.jsonl"),
                "config": corpus.PreprocessConfig(), "first": None}

    def unit(self, state, quiet):
        first = state["first"]
        requests = []
        failed = 0
        counts = []
        for k, doc in enumerate(state["docs"]):
            start = CLOCK.now()
            insts = corpus.preprocess_document(doc, "train", state["config"])
            requests.append(CLOCK.now() - start)
            with quiet():
                ok = all(corpus.instance_from_json(corpus.instance_to_json(i))
                         == i for i in insts)
                counts.append(len(insts))
                failed += not (ok and (first is None or first[k] == len(insts)))
        if first is None:
            state["first"] = counts
        return Unit(items=len(state["docs"]), requests=requests, failed=failed,
                    info={"instances_per_document": {
                        "value": sum(counts) / len(counts), "unit": "count"}})


class PrepareKB(Workload):
    name = "prepare_kb"
    why = ("TransE over a typed KB of thousands of triples; no model runs, "
           "so the per-triple SGD loop carries all the cost")
    item = "TransE triple update (triples x epochs)"
    throughput_name = "transe_triples_per_s"
    PROFILE = KBProfile(entity_groups=8, entities_per_group=100,
                        relations=8, triples=4000, lexicon_share=0.8,
                        epochs=20)
    TINY = replace(PROFILE, entity_groups=2, entities_per_group=5,
                   relations=2, triples=20, epochs=1)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.triples, self.vectors, self.lexicon, self.stats = (
            gen.knowledge_graph(seed, self.profile))

    def prepare(self, workdir):
        _write_triples(workdir / "triples.tsv", self.triples)
        kb.write_embeddings(workdir / "vectors.txt", self.vectors)
        (workdir / "lexicon.json").write_text(json.dumps(self.lexicon),
                                              encoding="utf-8")

    def setup(self, workdir):
        """As `ksm train-kb` with word vectors and a mention lexicon."""
        vectors = kb.read_embeddings(workdir / "vectors.txt")
        lexicon = json.loads((workdir / "lexicon.json").read_text(
            encoding="utf-8"))
        triples = kb.read_triples(workdir / "triples.tsv")
        store = kb.init_embeddings(triples, word_table=vectors,
                                   mention_lexicon=lexicon, d_kb=gen.D,
                                   seed=self.seed)
        return {"triples": triples, "store": store, "first": None}

    def unit(self, state, quiet):
        triples, pristine = state["triples"], state["store"]
        store = replace(
            pristine,
            entity_table={k: v.copy() for k, v in pristine.entity_table.items()},
            relation_table={k: v.copy()
                            for k, v in pristine.relation_table.items()})
        start = CLOCK.now()
        losses = kb.transe_train(triples, store, epochs=self.profile.epochs,
                                 seed=self.seed)
        seconds = CLOCK.now() - start
        with quiet():
            true_e, corrupt_e = kb.mean_energies(triples, store, seed=self.seed)
            gap = corrupt_e - true_e
            ok = (len(losses) == self.profile.epochs
                  and all(math.isfinite(x) for x in losses)
                  and math.isfinite(true_e) and math.isfinite(corrupt_e)
                  and state["first"] in (None, gap))
            if state["first"] is None:
                state["first"] = gap
        return Unit(items=len(triples) * len(losses), requests=[seconds],
                    failed=int(not ok),
                    info={"transe_energy_gap": {"value": gap, "unit": "L2"}})


WORKLOADS = {w.name: w for w in (TrainPaper, PredictLong, PrepareCorpus,
                                 PrepareKB)}
