"""Golden training: losses, F1, gradients and TransE of seeded runs.

`tests/test_golden.py` pins eval-mode probabilities only, so a change to
the backward, the dropout draw order, Adadelta, the batch order or TransE
that stays below the gradient checks' tolerances would pass it. This file
pins, in `tests/data/golden_training.json`:

- `toy_run`: each epoch's training loss and held-out F1 of a seeded
  3-epoch run on a separable toy task, dropout on;
- `paper_gradient`: the loss and every parameter gradient of one
  paper-configuration instance (d=100, 4 heads, 2 blocks) at L=40, dropout
  on. A gradient is kept as its norm and its projections on two seeded
  random directions, so the file stays small and a permuted or changed
  entry still moves it;
- `transe`: each epoch's mean hinge loss of a few TransE epochs on
  `toy_knowledge_graph` and the entity and relation vectors they leave.

The cases use only long-standing public API, so the same builder can
record the file at any commit:

    PYTHONPATH=src python tests/test_golden_training.py

rewrites the file. Do that only when training is meant to change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ksm.corpus import CandidateInstance
from ksm.kb import PairKnowledge, init_embeddings, transe_train
from ksm.model import KSMModel, ModelConfig, WordTable
from ksm.synthetic import separable_task, toy_knowledge_graph
from ksm.train import TrainConfig, accumulate_batch_gradient, train_model

GOLDEN = Path(__file__).parent / "data" / "golden_training.json"

# Every figure is bit-identical on one machine; 1e-12 relative leaves room
# for another BLAS or numpy summing in another order (a few ulps, about
# 1e-15 relative, per reduction) and none for a real change, which moves
# these figures by 1e-8 or more.
REL = 1e-12


def toy_run() -> dict:
    instances, store, table = separable_task(n=20, d=8, seed=0)
    model = KSMModel(ModelConfig(d=8, n_heads=2, n_blocks=2,
                                 dropout_rate=0.3), table, seed=1)
    result = train_model(instances, store, model, TrainConfig(
        batch_size=4, lr=0.5, max_epochs=3, patience=3, seed=2,
        holdout_fraction=0.3))
    return {"loss": [e.train_loss for e in result.log],
            "f1": [e.eval_f1 for e in result.log]}


def _paper_model() -> KSMModel:
    config = ModelConfig(d=100, n_heads=4, n_blocks=2, dropout_rate=0.1)
    vocab = [f"w{i}" for i in range(60)]
    return KSMModel(config, WordTable.random(vocab, config.d, seed=4),
                    seed=5)


def paper_gradient() -> dict:
    model = _paper_model()
    config = model.config
    rng = np.random.default_rng(3)
    length = 40
    inst = CandidateInstance(
        doc_id="doc", pair=("A", "B"),
        tokens=[f"w{rng.integers(64)}" for _ in range(length)],  # some OOV
        pos1=[int(rng.integers(1, 40)) for _ in range(length)],
        pos2=[int(rng.integers(1, 40)) for _ in range(length)],
        label="positive")
    kn = PairKnowledge(e1=rng.standard_normal(config.d) * 0.5,
                       e2=rng.standard_normal(config.d) * 0.5,
                       er=rng.standard_normal(config.d) * 0.5,
                       er_is_null=False, e1_is_fallback=False,
                       e2_is_fallback=False)
    model.params.zero_grad()
    loss = accumulate_batch_gradient(model, [(inst, kn)],
                                     np.random.default_rng(6))
    return {"loss": loss, "grads": {
        name: [float(np.linalg.norm(p.grad)),
               *map(float, _directions(p.grad.size) @ p.grad.ravel())]
        for name, p in sorted(model.params.items())}}


def _directions(size: int) -> np.ndarray:
    """The two seeded directions a gradient of `size` entries is projected
    on."""
    return np.random.default_rng(7).standard_normal((2, size))


def transe() -> dict:
    triples = toy_knowledge_graph()
    store = init_embeddings(triples, d_kb=8, seed=8)
    losses = transe_train(triples, store, margin=1.0, epochs=5, lr=0.05,
                          seed=9)
    return {"loss": losses,
            "entities": {k: v.tolist()
                         for k, v in sorted(store.entity_table.items())},
            "relations": {k: v.tolist()
                          for k, v in sorted(store.relation_table.items())}}


CASES = {"toy_run": toy_run, "paper_gradient": paper_gradient,
         "transe": transe}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _close(got, want, scale) -> bool:
    return np.all(np.abs(np.asarray(got) - np.asarray(want)) <= REL * scale)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_toy_run_epochs_match_golden(golden):
    got, want = toy_run(), golden["toy_run"]
    assert len(got["loss"]) == len(want["loss"]) == 3
    assert _close(got["loss"], want["loss"], np.abs(want["loss"]))
    # F1 is a ratio of pair counts, so it is exact
    assert got["f1"] == want["f1"]


def test_paper_gradient_matches_golden(golden):
    got, want = paper_gradient(), golden["paper_gradient"]
    assert _close(got["loss"], want["loss"], abs(want["loss"]))
    assert sorted(got["grads"]) == sorted(want["grads"])
    sizes = {name: p.data.size for name, p in _paper_model().params.items()}
    for name, (norm, *projections) in want["grads"].items():
        g_norm, *g_projections = got["grads"][name]
        assert _close(g_norm, norm, norm), name
        # a projection may cancel to near 0, so its bound is the largest it
        # can be: the gradient's norm times the direction's
        bound = norm * np.linalg.norm(_directions(sizes[name]), axis=1)
        assert _close(g_projections, projections, bound), name


def test_transe_epochs_match_golden(golden):
    got, want = transe(), golden["transe"]
    assert _close(got["loss"], want["loss"], np.abs(want["loss"]))
    for table in ("entities", "relations"):
        assert sorted(got[table]) == sorted(want[table])
        for key, vector in want[table].items():
            # relative to the vector's length: one entry may be near 0
            assert _close(got[table][key], vector,
                          np.linalg.norm(vector)), (table, key)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: case() for name, case in
                                  sorted(CASES.items())}, indent=1)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
