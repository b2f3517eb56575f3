"""Layer tests: attention vs a hand-rolled numpy reference, init identities."""

import inspect

import numpy as np
import pytest

import composites
import chartlm.model  # noqa: F401  (registers every Module subclass)
from chartlm import autodiff as ad
from chartlm import nn
from chartlm.autodiff import Tensor
from chartlm.inside_outside import CompatHead


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def _ln(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _softmax(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def _reference_layer(x, p, prefix, d, h):
    """Pre-norm transformer layer recomputed with plain numpy."""
    def w(k):
        return p[f"{prefix}.{k}"].data.astype(np.float64)

    dh = d // h
    y = _ln(x, w("ln1.gain"), w("ln1.bias"))
    q = (y @ w("attn.wq.w") + w("attn.wq.b")).reshape(-1, h, dh).transpose(1, 0, 2)
    k_ = (y @ w("attn.wk.w") + w("attn.wk.b")).reshape(-1, h, dh).transpose(1, 0, 2)
    v = (y @ w("attn.wv.w") + w("attn.wv.b")).reshape(-1, h, dh).transpose(1, 0, 2)
    att = _softmax(q @ k_.transpose(0, 2, 1) / np.sqrt(dh))
    ctx = (att @ v).transpose(1, 0, 2).reshape(-1, d)
    x = x + ctx @ w("attn.wo.w") + w("attn.wo.b")
    y = _ln(x, w("ln2.gain"), w("ln2.bias"))
    ff = _gelu(y @ w("ffn1.w") + w("ffn1.b")) @ w("ffn2.w") + w("ffn2.b")
    return x + ff


def test_attention_block_matches_numpy_reference():
    rng = np.random.default_rng(0)
    d, h, n = 8, 2, 3
    block = nn.AttentionBlock("blk", d, h, depth=2, rng=rng)
    # biases are zero at init; randomize so the reference exercises them
    for p in block.parameters():
        if p.data.sum() == 0.0:
            p.data[...] = rng.standard_normal(p.data.shape) * 0.1
    x = rng.standard_normal((n, d))
    got = block(Tensor(x[None])).data[0]

    params = block.parameter_map()
    ref = x.copy()
    for i in range(2):
        ref = _reference_layer(ref, params, f"blk.{i}", d, h)
    np.testing.assert_allclose(got, ref, atol=1e-6)


def test_attention_block_depth_zero_is_identity():
    rng = np.random.default_rng(1)
    block = nn.AttentionBlock("blk", 8, 2, depth=0, rng=rng)
    x = rng.standard_normal((1, 5, 8))
    out = block(Tensor(x))
    np.testing.assert_array_equal(out.data, x)
    assert block.parameters() == []


def test_attention_zero_output_projection_residual_identity():
    rng = np.random.default_rng(2)
    layer = nn.TransformerLayer("t", 8, 2, rng)
    for p in layer.parameters():
        if p.name in ("t.attn.wo.w", "t.ffn2.w"):
            p.data[...] = 0.0
    x = rng.standard_normal((1, 4, 8))
    np.testing.assert_allclose(layer(Tensor(x)).data, x, atol=1e-12)


def test_attention_is_permutation_equivariant():
    # no positional encodings, so reordering tokens reorders outputs
    rng = np.random.default_rng(3)
    block = nn.AttentionBlock("blk", 8, 4, depth=1, rng=rng)
    x = rng.standard_normal((1, 6, 8))
    perm = rng.permutation(6)
    out = block(Tensor(x)).data[0]
    out_perm = block(Tensor(x[:, perm])).data[0]
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)


def test_attention_rejects_bad_head_count():
    with pytest.raises(ValueError, match="divisible"):
        nn.TransformerLayer("t", 8, 3, np.random.default_rng(0))


def test_residual_mlp_is_identity_at_init():
    rng = np.random.default_rng(4)
    m = CompatHead("c", 6, rng).inside[0]
    x = rng.standard_normal((3, 6))
    np.testing.assert_array_equal(composites.residual_mlp(m, Tensor(x)).data, x)


def test_residual_mlp_gradients_flow_through_both_layers():
    rng = np.random.default_rng(5)
    m = CompatHead("c", 4, rng).outside[1]
    # perturb W2 away from zero so W1 receives signal
    m[2].data[...] = rng.standard_normal((4, 4)) * 0.1
    x = rng.standard_normal((2, 4))
    report = ad.gradient_check(lambda: ad.tsum(composites.residual_mlp(m, Tensor(x)) * x),
                               list(m), rng, samples_per_param=4)
    assert max(report.values()) < 1e-6


def test_linear_applies_bias():
    rng = np.random.default_rng(6)
    lin = nn.Linear("l", 3, 2, rng)
    lin.b.data[...] = [1.0, -2.0]
    x = rng.standard_normal((4, 3))
    np.testing.assert_allclose(lin(Tensor(x)).data, x @ lin.w.data + lin.b.data,
                               atol=1e-12)


def test_embedding_lookup_matches_table_rows():
    rng = np.random.default_rng(7)
    emb = nn.Embedding("e", 10, 4, rng)
    ids = [3, 0, 3, 9]
    np.testing.assert_array_equal(emb(ids).data, emb.table.data[ids])


def test_bilstm_shapes_and_determinism():
    rng = np.random.default_rng(8)
    lstm = nn.BiLstm("b", din=5, hidden=3, rng=rng)
    x = rng.standard_normal((7, 5))
    out1 = lstm(Tensor(x)).data
    out2 = lstm(Tensor(x)).data
    assert out1.shape == (7, 6)
    np.testing.assert_array_equal(out1, out2)


def test_bilstm_direction_locality():
    # forward half at position 0 depends only on token 0; flipping the last
    # token must leave it unchanged while the backward half moves
    rng = np.random.default_rng(9)
    lstm = nn.BiLstm("b", din=4, hidden=3, rng=rng)
    x = rng.standard_normal((5, 4))
    y = x.copy()
    y[-1] += 1.0
    a = lstm(Tensor(x)).data
    b = lstm(Tensor(y)).data
    np.testing.assert_array_equal(a[0, :3], b[0, :3])
    assert not np.allclose(a[0, 3:], b[0, 3:])


def test_parameter_names_are_unique_paths():
    rng = np.random.default_rng(10)
    block = nn.AttentionBlock("blk", 8, 2, depth=2, rng=rng)
    m = block.parameter_map()  # raises on duplicates
    assert "blk.0.attn.wq.w" in m and "blk.1.ffn2.b" in m


def test_astype_casts_in_place_and_keeps_every_parameter():
    block = nn.AttentionBlock("blk", 8, 2, depth=1, rng=np.random.default_rng(11))
    before = block.parameter_map()
    wide = {name: p.data.copy() for name, p in before.items()}
    assert all(a.dtype == np.float64 for a in wide.values())
    block.astype(np.float32)
    after = block.parameter_map()
    assert list(after) == list(before)
    for name, p in after.items():
        assert p is before[name]
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, wide[name].astype(np.float32))


def test_no_module_constructor_takes_a_dtype():
    todo, seen = [nn.Module], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    assert {"Linear", "BiLstm", "CioStack", "BoundaryScorer", "ChartLM"} <= \
        {cls.__name__ for cls in seen}
    for cls in seen:
        assert "dtype" not in inspect.signature(cls.__init__).parameters, cls.__name__
