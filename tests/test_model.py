"""Network pieces against independent oracles and analytic degeneracies."""

import math

import numpy as np
import pytest

from ksm import autodiff as ad
from ksm import model as model_module
from ksm.autodiff import Tensor
from ksm.corpus import CandidateInstance
from ksm.gradcheck import (check_full_model, gradient_error, toy_batch,
                           toy_model)
from ksm.kb import PairKnowledge
from ksm.model import (CLASS_NEGATIVE, CLASS_POSITIVE, ConfigError,
                       KSMModel, ModelConfig, WordTable, build_params,
                       classify, embed_context, encode, encoder_block,
                       entity_knowledge_select, gold_class, knowledge_select,
                       multi_head_attention, mutual_attention, nll_loss,
                       pool_variants, separate_attention,
                       sinusoidal_encoding)
from ksm.train import accumulate_batch_gradient


def _inst(tokens, pos1=None, pos2=None, label="positive"):
    n = len(tokens)
    return CandidateInstance(
        doc_id="d", pair=("A", "B"), tokens=tokens,
        pos1=pos1 or list(range(1, n + 1)),
        pos2=pos2 or list(range(n, 0, -1)), label=label)


# ---------------------------------------------------------------------------
# configuration


def test_config_requires_head_divisibility():
    with pytest.raises(ConfigError):
        ModelConfig(d=10, d_kb=10, n_heads=4)


def test_config_requires_matching_kb_dim():
    with pytest.raises(ConfigError):
        ModelConfig(d=8, d_kb=16, n_heads=2)


def test_config_rejects_unknown_enum_values():
    with pytest.raises(ConfigError):
        ModelConfig(d=8, d_kb=8, n_heads=2, pooling="median")


def test_config_roundtrips_through_dict():
    cfg = ModelConfig(d=8, d_kb=8, n_heads=2, selector_op="sum")
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# embedding


def test_sinusoid_at_zero_distance():
    enc = sinusoidal_encoding([0], 8)
    assert enc[0, 0] == 0.0          # sin(0)
    assert enc[0, 1] == 1.0          # cos(0)


def _direct_sinusoid(positions, d):
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    k = np.arange(d)
    angles = pos / np.power(10000.0, (k - k % 2) / d)
    return np.where(k % 2 == 0, np.sin(angles), np.cos(angles))


def test_sinusoid_table_is_bit_identical_across_growth(monkeypatch):
    monkeypatch.setattr(model_module, "_sinusoid_tables", {})
    small, large = [0, 3, 5, 1], [40, 0, 7, 63, 64, 200]
    np.testing.assert_array_equal(sinusoidal_encoding(small, 10),
                                  _direct_sinusoid(small, 10))
    assert model_module._sinusoid_tables[10].shape == (8, 10)
    np.testing.assert_array_equal(sinusoidal_encoding(large, 10),
                                  _direct_sinusoid(large, 10))
    assert model_module._sinusoid_tables[10].shape == (256, 10)
    np.testing.assert_array_equal(sinusoidal_encoding(small, 10),
                                  _direct_sinusoid(small, 10))


def test_sinusoid_above_table_bound_is_computed_directly(monkeypatch):
    monkeypatch.setattr(model_module, "_sinusoid_tables", {})
    positions = [3, 1 << 16, 10**9, 65535]
    np.testing.assert_array_equal(sinusoidal_encoding(positions, 6),
                                  _direct_sinusoid(positions, 6))
    assert 6 not in model_module._sinusoid_tables
    np.testing.assert_array_equal(sinusoidal_encoding([65535], 6),
                                  _direct_sinusoid([65535], 6))
    assert model_module._sinusoid_tables[6].shape == (1 << 16, 6)


def test_sinusoid_empty_input_and_negative_positions():
    assert sinusoidal_encoding([], 8).shape == (0, 8)
    with pytest.raises(ValueError, match="negative position"):
        sinusoidal_encoding([2, -1], 8)


def test_embed_shapes():
    model = toy_model(seed=0, d=8)
    x1, x2 = embed_context(_inst([f"tok{i}" for i in range(7)]),
                           model.word_table, model.config, model.params)
    assert x1.shape == (7, 8) and x2.shape == (7, 8)


def test_zero_position_table_reduces_to_word_matrix():
    model = toy_model(seed=0, d=8, position_encoding="learned")
    model.params["position.table"].data[:] = 0.0
    inst = _inst(["tok1", "tok2"], pos1=[1, 2], pos2=[2, 1])
    x1, x2 = embed_context(inst, model.word_table, model.config, model.params)
    words = model.word_table.lookup(inst.tokens)
    np.testing.assert_array_equal(x1.data, words)
    np.testing.assert_array_equal(x2.data, words)


def test_embed_rejects_empty_instance():
    model = toy_model(seed=0)
    empty = CandidateInstance("d", ("A", "B"), [], [], [])
    with pytest.raises(ValueError):
        embed_context(empty, model.word_table, model.config, model.params)


@pytest.mark.parametrize("field", ["pos1", "pos2"])
def test_forward_rejects_position_list_of_other_length(field):
    model = toy_model(seed=0)
    inst = _inst(["tok1", "tok2", "tok3"], **{field: [1]})
    knowledge = toy_batch(0, model.config.d_kb, lengths=(3,))[0][1]
    with pytest.raises(ValueError, match="differ from 3 tokens"):
        model.forward_instance(inst, knowledge)


def test_unknown_token_maps_to_unk_vector():
    table = WordTable({"a": np.ones(4)}, 4, unk=np.full(4, 7.0))
    np.testing.assert_array_equal(table.lookup(["a", "zz"])[1], np.full(4, 7.0))


# ---------------------------------------------------------------------------
# entity-conditioned attention vs an explicit-loop oracle


def _head_columns(params, name, h, d_head):
    """Head h's slice of a fused (in, n_heads * d_head) projection."""
    return params[name].data[:, h * d_head:(h + 1) * d_head]


def _loop_attention(x, e, params, prefix, n_heads, d_head):
    """Brute-force multi-head attention with python loops and plain exp."""
    length = x.shape[0]
    q_in = np.stack([np.concatenate([x[i], e]) for i in range(length)])
    heads = []
    for h in range(n_heads):
        wq = np.concatenate([_head_columns(params, f"{prefix}.wq_x", h, d_head),
                             _head_columns(params, f"{prefix}.wq_e", h, d_head)])
        wk = _head_columns(params, f"{prefix}.wk", h, d_head)
        wv = _head_columns(params, f"{prefix}.wv", h, d_head)
        q, k, v = q_in @ wq, x @ wk, x @ wv
        out = np.zeros((length, d_head))
        for i in range(length):
            scores = np.array([q[i] @ k[j] for j in range(length)])
            scores = scores / math.sqrt(d_head)
            weights = np.exp(scores)
            weights = weights / weights.sum()
            for j in range(length):
                out[i] += weights[j] * v[j]
        heads.append(out)
    return np.concatenate(heads, axis=1) @ params[f"{prefix}.wh"].data


def test_attention_matches_loop_oracle_on_20_random_cases():
    rng = np.random.default_rng(42)
    for case in range(20):
        d, n_heads = 8, 2
        cfg = ModelConfig(d=d, d_kb=d, n_heads=n_heads, n_blocks=1,
                          dropout_rate=0.0)
        params = build_params(cfg, seed=case)
        length = int(rng.integers(1, 7))
        x = rng.standard_normal((length, d))
        e = rng.standard_normal(d)
        got = multi_head_attention(Tensor(x), Tensor(e.reshape(1, -1)),
                                   params, "encoder1.block0", cfg)
        # the fused node straight from the engine, recording a graph
        fused = ad.projected_attention(
            Tensor(x, requires_grad=True), Tensor(e.reshape(1, -1)),
            *(params[f"encoder1.block0.{w}"]
              for w in ("wq_x", "wq_e", "wk", "wv", "wh")), n_heads)
        want = _loop_attention(x, e, params, "encoder1.block0",
                               n_heads, cfg.d_head)
        np.testing.assert_allclose(got.data, want, atol=1e-10)
        np.testing.assert_allclose(fused.data, want, atol=1e-10)


def test_single_position_attention_is_identity_mix():
    # L=1: the attention weight matrix is [[1.0]], so the output is the
    # lone value row pushed through the head and output projections
    d, n_heads = 8, 2
    cfg = ModelConfig(d=d, d_kb=d, n_heads=n_heads, n_blocks=1,
                      dropout_rate=0.0)
    params = build_params(cfg, seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, d))
    e = rng.standard_normal((1, d))
    got = multi_head_attention(Tensor(x), Tensor(e), params,
                               "encoder1.block0", cfg)
    vs = [x @ _head_columns(params, "encoder1.block0.wv", h, cfg.d_head)
          for h in range(n_heads)]
    want = np.concatenate(vs, axis=1) @ params["encoder1.block0.wh"].data
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_attention_rows_sum_to_one_for_every_head():
    d = 8
    cfg = ModelConfig(d=d, d_kb=d, n_heads=2, n_blocks=1, dropout_rate=0.0)
    params = build_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((5, d)))
    e = Tensor(rng.standard_normal((1, d)))
    pre, dh = "encoder1.block0", cfg.d_head
    for h in range(2):
        q = (x @ Tensor(_head_columns(params, f"{pre}.wq_x", h, dh))
             + e @ Tensor(_head_columns(params, f"{pre}.wq_e", h, dh)))
        k = x @ Tensor(_head_columns(params, f"{pre}.wk", h, dh))
        att = ad.softmax((q @ ad.transpose(k)) * (1 / math.sqrt(dh)),
                         axis=-1)
        np.testing.assert_allclose(att.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(att.data >= 0)


def test_block_output_invariant_to_head_permutation():
    d, dh = 8, 4
    cfg = ModelConfig(d=d, d_kb=d, n_heads=2, n_blocks=1, dropout_rate=0.0)
    params = build_params(cfg, seed=5)
    swapped = build_params(cfg, seed=5)
    pre = "encoder1.block0"
    for part in ("wq_x", "wq_e", "wk", "wv"):
        w = params[f"{pre}.{part}"].data
        swapped[f"{pre}.{part}"].data = np.concatenate([w[:, dh:], w[:, :dh]],
                                                       axis=1)
    wh = params[f"{pre}.wh"].data
    swapped[f"{pre}.wh"].data = np.concatenate([wh[dh:], wh[:dh]], axis=0)
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((4, d)))
    e = Tensor(rng.standard_normal((1, d)))
    out1 = encoder_block(x, e, params, pre, cfg, False, None)
    out2 = encoder_block(x, e, swapped, pre, cfg, False, None)
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)


def test_encode_single_block_equals_block_call():
    cfg = ModelConfig(d=8, d_kb=8, n_heads=2, n_blocks=1, dropout_rate=0.0)
    params = build_params(cfg, seed=7)
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((3, 8)))
    e = Tensor(rng.standard_normal((1, 8)))
    via_encode = encode(x, e, params, "encoder1", cfg)
    via_block = encoder_block(x, e, params, "encoder1.block0", cfg, False, None)
    np.testing.assert_array_equal(via_encode.data, via_block.data)


def test_entity_vector_changes_encoder_output():
    cfg = ModelConfig(d=8, d_kb=8, n_heads=2, n_blocks=2, dropout_rate=0.0)
    params = build_params(cfg, seed=9)
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((4, 8)))
    e1 = Tensor(rng.standard_normal((1, 8)))
    e2 = Tensor(rng.standard_normal((1, 8)))
    out1 = encode(x, e1, params, "encoder1", cfg)
    out2 = encode(x, e2, params, "encoder1", cfg)
    assert np.abs(out1.data - out2.data).max() > 0


def test_encoder_output_shape_for_various_lengths():
    model = toy_model(seed=0, d=8)
    for length in (1, 2, 9):
        inst = _inst([f"tok{i % 12}" for i in range(length)])
        x1, _ = embed_context(inst, model.word_table, model.config,
                              model.params)
        out = encode(x1, Tensor(np.zeros((1, 8))), model.params, "encoder1",
                     model.config)
        assert out.shape == (length, 8)


# ---------------------------------------------------------------------------
# mutual attention


def _mutual_params(seed=0, d=8):
    cfg = ModelConfig(d=d, d_kb=d, n_heads=2, n_blocks=1, dropout_rate=0.0)
    return build_params(cfg, seed=seed)


def test_mutual_attention_single_position():
    params = _mutual_params()
    rng = np.random.default_rng(1)
    v1 = Tensor(rng.standard_normal((1, 8)))
    v2 = Tensor(rng.standard_normal((1, 8)))
    s1, s2, p1, p2 = mutual_attention(v1, v2, params)
    np.testing.assert_allclose(p1.data, [[1.0]])
    np.testing.assert_allclose(p2.data, [[1.0]])
    np.testing.assert_allclose(s1.data, v1.data, atol=1e-12)
    np.testing.assert_allclose(s2.data, v2.data, atol=1e-12)


def test_mutual_attention_zero_w2_degeneracy():
    params = _mutual_params(seed=2)
    params["mutual.w2"].data[:] = 0.0
    rng = np.random.default_rng(3)
    length = 6
    v1 = Tensor(rng.standard_normal((length, 8)))
    v2 = Tensor(rng.standard_normal((length, 8)))
    _, s2, _, p2 = mutual_attention(v1, v2, params)
    np.testing.assert_allclose(p2.data, 1.0 / length, atol=1e-9)
    np.testing.assert_allclose(s2.data[0], v2.data.mean(axis=0), atol=1e-9)


def test_mutual_attention_zero_w1_degeneracy():
    params = _mutual_params(seed=4)
    params["mutual.w1"].data[:] = 0.0
    rng = np.random.default_rng(5)
    length = 5
    v1 = Tensor(rng.standard_normal((length, 8)))
    v2 = Tensor(rng.standard_normal((length, 8)))
    s1, _, p1, _ = mutual_attention(v1, v2, params)
    np.testing.assert_allclose(p1.data, 1.0 / length, atol=1e-9)
    np.testing.assert_allclose(s1.data[0], v1.data.mean(axis=0), atol=1e-9)


def test_mutual_attention_weights_sum_to_one():
    params = _mutual_params(seed=6)
    rng = np.random.default_rng(7)
    v1 = Tensor(rng.standard_normal((4, 8)))
    v2 = Tensor(rng.standard_normal((4, 8)))
    _, _, p1, p2 = mutual_attention(v1, v2, params)
    assert p1.data.sum() == pytest.approx(1.0, abs=1e-9)
    assert p2.data.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(p1.data >= 0) and np.all(p2.data >= 0)


def test_mutual_attention_against_direct_recomputation():
    # independent recomputation of the score matrix with loops
    params = _mutual_params(seed=8)
    rng = np.random.default_rng(9)
    length = 3
    v1 = rng.standard_normal((length, 8))
    v2 = rng.standard_normal((length, 8))
    w1 = params["mutual.w1"].data
    w2 = params["mutual.w2"].data
    w = params["mutual.w"].data[:, 0]
    alpha = np.zeros((length, length))
    for i in range(length):
        for j in range(length):
            alpha[i, j] = w @ np.tanh(v1[i] @ w1 + v2[j] @ w2)
    beta1 = alpha.mean(axis=1)
    beta2 = alpha.mean(axis=0)
    p1 = np.exp(beta1) / np.exp(beta1).sum()
    p2 = np.exp(beta2) / np.exp(beta2).sum()
    want_s1 = p1 @ v1
    want_s2 = p2 @ v2
    s1, s2, _, _ = mutual_attention(Tensor(v1), Tensor(v2), params)
    np.testing.assert_allclose(s1.data[0], want_s1, atol=1e-10)
    np.testing.assert_allclose(s2.data[0], want_s2, atol=1e-10)


# ---------------------------------------------------------------------------
# pooling variants


def test_average_pooling_on_constant_rows():
    cfg = ModelConfig(d=8, d_kb=8, n_heads=2, pooling="average",
                      dropout_rate=0.0)
    params = build_params(cfg, seed=0)
    c = np.arange(8.0)
    v = Tensor(np.tile(c, (5, 1)))
    s1, s2 = pool_variants(v, v, params, cfg)
    np.testing.assert_allclose(s1.data[0], c, atol=1e-12)


def test_max_pooling_elementwise():
    cfg = ModelConfig(d=2, d_kb=2, n_heads=1, pooling="max", dropout_rate=0.0)
    params = build_params(cfg, seed=0)
    v = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
    s1, _ = pool_variants(v, v, params, cfg)
    np.testing.assert_array_equal(s1.data, [[3.0, 5.0]])


def test_separate_attention_single_row_is_identity():
    cfg = ModelConfig(d=8, d_kb=8, n_heads=2, pooling="separate",
                      dropout_rate=0.0)
    params = build_params(cfg, seed=1)
    v = Tensor(np.random.default_rng(2).standard_normal((1, 8)))
    s, p = separate_attention(v, params)
    np.testing.assert_allclose(p.data, [[1.0]])
    np.testing.assert_allclose(s.data, v.data, atol=1e-12)


def test_separate_attention_weights_shared_between_sequences():
    cfg = ModelConfig(d=8, d_kb=8, n_heads=2, pooling="separate",
                      dropout_rate=0.0)
    params = build_params(cfg, seed=1)
    assert "separate.w_proj" in params
    assert sum(1 for n in params.names() if n.startswith("separate.")) == 3


# ---------------------------------------------------------------------------
# knowledge selectors


def _selector_cfg(**overrides):
    base = dict(d=8, d_kb=8, n_heads=2, dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def test_selector_zero_inputs_zero_gate_hadamard():
    cfg = _selector_cfg()
    params = build_params(cfg, seed=0)
    zero = Tensor(np.zeros((1, 8)))
    out = knowledge_select(zero, zero, zero, params, cfg)
    np.testing.assert_array_equal(out.data, np.zeros((1, 8)))


def test_sum_selector_with_zero_gate_returns_relation_exactly():
    cfg = _selector_cfg(selector_op="sum")
    params = build_params(cfg, seed=0)
    params["selector.w"].data[:] = 0.0
    params["selector.u"].data[:] = 0.0
    params["selector.b"].data[:] = 0.0
    er = Tensor(np.random.default_rng(1).standard_normal((1, 8)))
    zero = Tensor(np.zeros((1, 8)))
    out = knowledge_select(zero, zero, er, params, cfg)
    np.testing.assert_array_equal(out.data, er.data)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_bounded_gate_with_hadamard_never_amplifies(activation):
    cfg = _selector_cfg(selector_activation=activation)
    rng = np.random.default_rng(11)
    for case in range(200):
        params = build_params(cfg, seed=case)
        s1 = Tensor(rng.standard_normal((1, 8)) * 3)
        s2 = Tensor(rng.standard_normal((1, 8)) * 3)
        er = Tensor(rng.standard_normal((1, 8)) * 3)
        out = knowledge_select(s1, s2, er, params, cfg)
        assert np.all(np.abs(out.data) <= np.abs(er.data) + 1e-15)


def test_context_only_gate_ignores_relation_vector():
    cfg = _selector_cfg(gate_uses_relation=False)
    params = build_params(cfg, seed=2)
    assert "selector.u" not in params
    rng = np.random.default_rng(3)
    s1 = Tensor(rng.standard_normal((1, 8)))
    s2 = Tensor(rng.standard_normal((1, 8)))
    e_a = Tensor(np.full((1, 8), 2.0))
    e_b = Tensor(np.full((1, 8), 2.0))
    out_a = knowledge_select(s1, s2, e_a, params, cfg)
    out_b = knowledge_select(s1, s2, e_b, params, cfg)
    np.testing.assert_array_equal(out_a.data, out_b.data)
    # gate itself is relation-independent: scaled relation scales output
    e_c = Tensor(np.full((1, 8), 4.0))
    out_c = knowledge_select(s1, s2, e_c, params, cfg)
    np.testing.assert_allclose(out_c.data, 2.0 * out_a.data, atol=1e-12)


def test_entity_selector_zero_case_and_sum_identity():
    cfg = _selector_cfg(selector_target="entity")
    params = build_params(cfg, seed=0)
    zero = Tensor(np.zeros((2, 8)))
    e = Tensor(np.zeros((1, 8)))
    out = entity_knowledge_select(zero, e, params, cfg)
    np.testing.assert_array_equal(out.data, np.zeros((1, 8)))

    cfg_sum = _selector_cfg(selector_target="entity", selector_op="sum")
    params = build_params(cfg_sum, seed=0)
    params["entity_selector.w"].data[:] = 0.0
    params["entity_selector.u"].data[:] = 0.0
    params["entity_selector.b"].data[:] = 0.0
    e = Tensor(np.random.default_rng(4).standard_normal((1, 8)))
    out = entity_knowledge_select(zero, e, params, cfg_sum)
    np.testing.assert_array_equal(out.data, e.data)


def test_entity_selector_parameters_exist_once():
    cfg = _selector_cfg(selector_target="entity")
    params = build_params(cfg, seed=0)
    kse = [n for n in params.names() if n.startswith("entity_selector.")]
    assert kse == ["entity_selector.w", "entity_selector.u",
                   "entity_selector.b"]
    assert not any(n.startswith("selector.") for n in params.names())


def test_relation_selector_routes_entity_target_away():
    cfg = _selector_cfg(selector_target="entity")
    params = build_params(cfg, seed=0)
    zero = Tensor(np.zeros((1, 8)))
    with pytest.raises(ConfigError):
        knowledge_select(zero, zero, zero, params, cfg)


# ---------------------------------------------------------------------------
# classifier and loss


def test_zero_classifier_gives_half_half_and_negative_tie():
    cfg = _selector_cfg()
    params = build_params(cfg, seed=0)
    params["classifier.w"].data[:] = 0.0
    params["classifier.b"].data[:] = 0.0
    rng = np.random.default_rng(5)
    s = Tensor(rng.standard_normal((1, 8)))
    probs, label = classify(s, s, s, params)
    np.testing.assert_allclose(probs.data, [[0.5, 0.5]], atol=1e-15)
    assert label == CLASS_NEGATIVE


def test_large_logit_gap_saturates_probability():
    cfg = _selector_cfg()
    params = build_params(cfg, seed=0)
    params["classifier.w"].data[:] = 0.0
    params["classifier.b"].data[:] = [0.0, 10.0]
    zero = Tensor(np.zeros((1, 8)))
    probs, label = classify(zero, zero, zero, params)
    assert probs.data[0, CLASS_POSITIVE] > 0.9999
    assert label == CLASS_POSITIVE


def test_classifier_probabilities_sum_to_one():
    rng = np.random.default_rng(6)
    cfg = _selector_cfg()
    for case in range(10):
        params = build_params(cfg, seed=case)
        s1 = Tensor(rng.standard_normal((1, 8)))
        s2 = Tensor(rng.standard_normal((1, 8)))
        er = Tensor(rng.standard_normal((1, 8)))
        probs, _ = classify(s1, s2, er, params)
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_loss_zero_when_gold_probability_one():
    probs = [Tensor([[0.0, 1.0]]), Tensor([[1.0, 0.0]])]
    loss = nll_loss(probs, [1, 0])
    assert loss.item() == 0.0


def test_loss_half_probability_is_ln2():
    loss = nll_loss([Tensor([[0.5, 0.5]])], [1])
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-9)


def test_nll_loss_is_mean_of_instance_losses():
    p1, p2 = Tensor([[0.3, 0.7]]), Tensor([[0.9, 0.1]])
    joint = nll_loss([p1, p2], [1, 0])
    separate = (nll_loss([Tensor([[0.3, 0.7]])], [1]).item()
                + nll_loss([Tensor([[0.9, 0.1]])], [0]).item()) / 2
    assert joint.item() == pytest.approx(separate, abs=1e-12)


def test_loss_clamps_zero_probability():
    loss = nll_loss([Tensor([[1.0, 0.0]])], [1])
    assert loss.item() == pytest.approx(-math.log(1e-12))


# ---------------------------------------------------------------------------
# whole-model invariants


def test_shared_encoder_identical_views_bit_identical():
    model = toy_model(seed=0, shared_encoder=True)
    d = model.config.d
    inst = _inst(["tok1", "tok2", "tok3"], pos1=[1, 2, 3], pos2=[1, 2, 3])
    x1, x2 = embed_context(inst, model.word_table, model.config, model.params)
    e = Tensor(np.random.default_rng(1).standard_normal((1, d)))
    v1 = encode(x1, e, model.params, "encoder", model.config)
    v2 = encode(x2, e, model.params, "encoder", model.config)
    assert v1.data.tobytes() == v2.data.tobytes()


def test_selector_output_feeds_classifier_feature_block():
    # erase the relation feature block of the classifier: prediction must
    # become independent of the relation vector
    model = toy_model(seed=2)
    d = model.config.d
    model.params["classifier.w"].data[2 * d:, :] = 0.0
    model.params["selector.u"].data[:] = 0.0
    inst = _inst(["tok1", "tok2"])
    rng = np.random.default_rng(3)
    base = dict(e1=rng.standard_normal(d), e2=rng.standard_normal(d),
                er_is_null=False, e1_is_fallback=False, e2_is_fallback=False)
    pa, _ = model.forward_instance(
        inst, PairKnowledge(er=rng.standard_normal(d), **base))
    pb, _ = model.forward_instance(
        inst, PairKnowledge(er=rng.standard_normal(d), **base))
    np.testing.assert_allclose(pa.data, pb.data, atol=1e-12)


@pytest.mark.parametrize("shape", [(4,), (1, 8), ()])
def test_model_rejects_null_relation_of_wrong_shape(shape):
    cfg = ModelConfig(d=8, d_kb=8, n_heads=2)
    with pytest.raises(ConfigError, match="null_relation"):
        KSMModel(cfg, WordTable.random(["a"], 8),
                 null_relation=np.zeros(shape))


def _tape_nodes(loss):
    """Nodes a backward pass from `loss` visits: the loss and every node
    that requires grad on a path into it, each once."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_paper_config_instance_graph_stays_within_100_nodes():
    # two blocks of four heads per encoder, dropout on: six fused nodes per
    # block pass, mutual attention in five nodes, an affine classifier and
    # a one-node loss keep one instance's loss graph at 100 nodes, 60 of
    # them parameters
    cfg = ModelConfig()
    vocab = [f"w{i}" for i in range(50)]
    model = KSMModel(cfg, WordTable.random(vocab, cfg.d, seed=1), seed=2)
    rng = np.random.default_rng(3)
    inst = _inst([vocab[i] for i in rng.integers(50, size=12)])
    kn = PairKnowledge(*(rng.standard_normal(cfg.d_kb) for _ in range(3)),
                       er_is_null=False, e1_is_fallback=False,
                       e2_is_fallback=False)
    probs, _ = model.forward_instance(inst, kn, train=True, rng=rng)
    loss = nll_loss([probs], [gold_class(inst)])
    assert _tape_nodes(loss) <= 100


def test_null_relation_parameter_receives_gradient():
    model = toy_model(seed=1)
    batch = toy_batch(2, model.config.d_kb, lengths=(2,), null_for=0)
    accumulate_batch_gradient(model, batch, None)
    g = model.params["knowledge.null_relation"].grad
    assert g is not None and np.abs(g).sum() > 0


@pytest.mark.parametrize("overrides", [
    {"selector_op": "sum"},
    {"selector_activation": "relu"},
    {"selector_target": "entity"},
    {"selector_target": "both"},
    {"selector_target": "none"},
    {"gate_uses_relation": False},
    {"pooling": "separate"},
    {"pooling": "average"},
    {"shared_encoder": True},
    {"position_encoding": "learned"},
    {"dropout_rate": 0.3},
    {"dropout_rate": 0.3, "position_encoding": "learned",
     "selector_target": "both"},
])
def test_variant_gradients_spot_checked(overrides):
    # full FD over all parameters is reserved for the default config in the
    # acceptance suite; variants get a sampled check of the training
    # gradient to catch wiring bugs
    config = dict(overrides)
    dropout_rate = config.pop("dropout_rate", 0.0)
    model = toy_model(seed=13, n_blocks=1, **config)
    model.config.dropout_rate = dropout_rate
    batch = toy_batch(17, model.config.d_kb, lengths=(2, 3))

    def loss_fn():
        # a fresh rng per call: every evaluation draws the same masks
        return accumulate_batch_gradient(model, batch,
                                         np.random.default_rng(23))

    loss_fn()
    rng = np.random.default_rng(19)
    worst = 0.0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[i]
            with ad.no_grad():
                flat[i] = orig + 1e-5
                hi = loss_fn()
                flat[i] = orig - 1e-5
                lo = loss_fn()
            flat[i] = orig
            numeric = (hi - lo) / 2e-5
            worst = max(worst, gradient_error(gflat[i], numeric))
    assert worst < 1e-3, f"{overrides}: {worst}"


def test_forward_is_deterministic_in_eval_mode():
    model = toy_model(seed=3)
    batch = toy_batch(4, model.config.d_kb)
    a = [model.forward_instance(i, k)[0].data.tobytes() for i, k in batch]
    b = [model.forward_instance(i, k)[0].data.tobytes() for i, k in batch]
    assert a == b


def test_dropout_changes_training_forward_but_not_eval():
    model = toy_model(seed=4)
    model.config.dropout_rate = 0.3
    inst, kn = toy_batch(5, model.config.d_kb, lengths=(4,))[0]
    eval_a, _ = model.forward_instance(inst, kn, train=False)
    eval_b, _ = model.forward_instance(inst, kn, train=False)
    np.testing.assert_array_equal(eval_a.data, eval_b.data)
    rng = np.random.default_rng(6)
    train_a, _ = model.forward_instance(inst, kn, train=True, rng=rng)
    train_b, _ = model.forward_instance(inst, kn, train=True, rng=rng)
    assert np.any(train_a.data != train_b.data)


def test_full_model_gradients_off_the_default_path():
    # every reoriented weight the default configuration leaves out
    # (separate.w_proj, entity_selector.w/u) and the learned position
    # table get a full finite-difference check
    result = check_full_model(seed=0, tolerance=1e-3, n_blocks=1,
                              pooling="separate", selector_target="both",
                              position_encoding="learned")
    assert result.passed, result
