"""Golden per-instance probabilities for seeded models.

`tests/data/golden_probs.json` holds the class probabilities of fixed,
seeded models on fixed inputs. Any refactor of the forward pass must
reproduce them within 1e-12. The cases use only long-standing public
API, so the same builder can record the file at any commit:

    PYTHONPATH=src python tests/test_golden.py

rewrites the file. Do that only when outputs are meant to change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ksm.corpus import CandidateInstance
from ksm.kb import PairKnowledge
from ksm.model import KSMModel, ModelConfig, WordTable

GOLDEN = Path(__file__).parent / "data" / "golden_probs.json"
TOLERANCE = 1e-12

_SMALL = dict(d=8, d_kb=8, n_heads=2, n_blocks=2, max_distance=16)

# name -> (config overrides, window lengths)
CASES = {
    "paper": (dict(d=100, d_kb=100, n_heads=4, n_blocks=2), (1, 7, 40)),
    "mutual": (_SMALL, (1, 2, 6)),
    "separate": (dict(_SMALL, pooling="separate"), (1, 2, 6)),
    "average": (dict(_SMALL, pooling="average"), (1, 2, 6)),
    "max": (dict(_SMALL, pooling="max"), (1, 2, 6)),
    "target_entity": (dict(_SMALL, selector_target="entity"), (1, 3, 5)),
    "target_both": (dict(_SMALL, selector_target="both"), (1, 3, 5)),
    "target_none": (dict(_SMALL, selector_target="none"), (1, 3, 5)),
    "shared_encoder": (dict(_SMALL, shared_encoder=True), (2, 4)),
    "learned_positions": (dict(_SMALL, position_encoding="learned"),
                          (1, 4, 9)),
    "one_head": (dict(_SMALL, n_heads=1), (1, 3, 6)),
    "two_heads_one_block": (dict(_SMALL, n_blocks=1), (2, 5)),
}


def case_probs(name: str) -> list[list[float]]:
    """Eval-mode probabilities of one seeded case, one row per instance.

    The first instance of every case resolves to the null relation.
    """
    overrides, lengths = CASES[name]
    seed = sorted(CASES).index(name)
    config = ModelConfig(dropout_rate=0.1, **overrides)
    d = config.d
    vocab = [f"w{i}" for i in range(30)]
    model = KSMModel(config, WordTable.random(vocab, d, seed=seed + 100),
                     seed=seed)
    # a nonzero null vector so the null path is not trivially zero
    rng = np.random.default_rng(seed + 200)
    model.params["knowledge.null_relation"].data[:] = \
        rng.standard_normal(d) * 0.3
    probs = []
    for k, length in enumerate(lengths):
        tokens = [f"w{rng.integers(32)}" for _ in range(length)]  # some OOV
        pos1 = [int(rng.integers(1, 24)) for _ in range(length)]
        pos2 = [int(rng.integers(1, 24)) for _ in range(length)]
        inst = CandidateInstance(doc_id="doc", pair=("A", "B"),
                                 tokens=tokens, pos1=pos1, pos2=pos2)
        kn = PairKnowledge(e1=rng.standard_normal(d) * 0.5,
                           e2=rng.standard_normal(d) * 0.5,
                           er=rng.standard_normal(d) * 0.5,
                           er_is_null=(k == 0),
                           e1_is_fallback=False, e2_is_fallback=False)
        p, _ = model.forward_instance(inst, kn, train=False)
        probs.append(p.data[0].tolist())
    return probs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_probabilities_match_golden(golden, name):
    got = np.array(case_probs(name))
    want = np.array(golden[name])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOLERANCE


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: case_probs(name)
                                  for name in sorted(CASES)}, indent=1)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
