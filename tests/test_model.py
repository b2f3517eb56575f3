"""End-to-end model tests: conventions, isolation, and both encode modes."""

import gc
import inspect

import numpy as np
import pytest

from chartlm import autodiff as ad
from chartlm import model as model_module
from chartlm.autodiff import Tensor, no_grad
from chartlm.inside_outside import ComposeParams, EngineStats, StackResult, run_stack
from chartlm.model import ChartLM, ForwardOutput, ReCatConfig
from chartlm.trees import format_sexpr, leaves, tree_from_splits, walk


def _tiny_cfg(**kw):
    base = dict(layers=1, compose_depth=1, transformer_depth=1, d=8, heads=2,
                vocab_size=12, m=2, parser_dim=6, parser_hidden=6, dtype="float64")
    base.update(kw)
    return ReCatConfig(**base)


def _model(seed=0, **kw):
    return ChartLM(_tiny_cfg(**kw), np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        _tiny_cfg(layers=0).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        _tiny_cfg(transformer_depth=-1).validate()
    with pytest.raises(ValueError, match="m must"):
        _tiny_cfg(m=1).validate()
    with pytest.raises(ValueError, match="mask_rate"):
        _tiny_cfg(mask_rate=0.0).validate()
    with pytest.raises(ValueError, match="divisible"):
        _tiny_cfg(d=8, heads=3).validate()
    with pytest.raises(ValueError, match="unknown config keys"):
        ReCatConfig.from_dict({"d": 8, "depth": 2})
    rt = ReCatConfig.from_dict(_tiny_cfg().to_dict())
    assert rt == _tiny_cfg()


@pytest.mark.parametrize("values, message", [
    ({"d": "8"}, "config key d: expected int, got '8'"),
    ({"d": True}, "config key d: expected int, got True"),
    ({"layers": 2.0}, "config key layers: expected int, got 2.0"),
    ({"share": 1}, "config key share: expected bool, got 1"),
    ({"dtype": "int64"}, "dtype must be float32 or float64"),
    ({"tie_mlm": False}, "retired config key tie_mlm"),
    ({"parser_layers": 2}, "retired config key parser_layers"),
    ({"parser_layers": True}, "config key parser_layers: expected int"),
], ids=["str_for_int", "bool_for_int", "float_for_int", "int_for_bool", "dtype",
        "tie_mlm", "parser_layers", "parser_layers_type"])
def test_config_decoder_names_the_bad_key(values, message):
    with pytest.raises(ValueError, match=message):
        ReCatConfig.from_dict(values)


def test_config_decoder_drops_retired_keys_at_their_old_values():
    cfg = ReCatConfig.from_dict({"mask_rate": 0.25, "tie_mlm": True, "parser_layers": 1})
    assert cfg == ReCatConfig(mask_rate=0.25)
    assert "tie_mlm" not in cfg.to_dict()


def test_single_token_sentence():
    model = _model()
    out = model.forward_pretrain(np.array([5]))
    assert format_sexpr(out.tree) == "(5)"
    assert out.logits.shape == (1, 12)
    assert float(out.parser_loss.data) == 0.0
    assert float(out.mlm_loss.data) == 0.0
    assert out.nodes.shape == (1, model.cfg.d)


def test_length_errors():
    model = _model(max_len=4)
    with pytest.raises(ValueError, match="empty"):
        model.forward_pretrain(np.array([], dtype=int))
    with pytest.raises(ValueError, match="exceeds"):
        model.forward_pretrain(np.arange(5) % 12)


@pytest.mark.parametrize("n", [2, 3, 7, 16, 41, 64])
def test_node_count_matches_sentence_length(n):
    model = _model(seed=1, max_len=64)
    ids = np.random.default_rng(n).integers(0, 12, size=n)
    out = model.forward_pretrain(ids)
    assert out.nodes.shape == (2 * n - 1, model.cfg.d)
    assert sum(1 for _ in walk(out.tree)) == 2 * n - 1
    assert [l.token for l in leaves(out.tree)] == [str(t) for t in ids]
    assert out.logits.shape == (n, 12)


def test_fresh_model_mlm_loss_near_uniform():
    # an untrained tied head should be close to ln(vocab) per masked token
    model = _model(seed=2, vocab_size=12)
    rng = np.random.default_rng(3)
    losses = []
    with no_grad():
        for _ in range(20):
            ids = rng.integers(0, 12, size=6)
            out = model.forward_pretrain(
                ids, masked=ids, target_positions=np.array([1, 4]),
                target_ids=ids[[1, 4]])
            losses.append(float(out.mlm_loss.data))
    mean = np.mean(losses)
    assert abs(mean - np.log(12)) / np.log(12) < 0.05


def test_both_forward_modes_take_the_same_keyword_only_arguments():
    full = inspect.signature(ChartLM.forward_pretrain)
    assert full == inspect.signature(ChartLM.fast_encode)
    kinds = [p.kind for p in full.parameters.values()]
    assert kinds[:2] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2  # self, sentence
    assert set(kinds[2:]) == {inspect.Parameter.KEYWORD_ONLY}


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_nodes_are_laid_out_in_order_over_the_induced_tree(n):
    from oracle import in_order

    model = _model(seed=4, transformer_depth=0)
    for forward in (model.forward_pretrain, model.fast_encode):
        out = forward(np.arange(1, n + 1))
        ordered = in_order(out.tree)
        rows = [out.result.plan.row_of[node.span] for node in ordered]
        np.testing.assert_array_equal(out.nodes.data, out.result.final.outside.data[rows])
        assert [p for p, node in enumerate(ordered) if node.is_leaf] == list(range(0, 2 * n - 1, 2))


def test_transformer_depth_zero_returns_gathered_outside():
    from oracle import in_order

    model = _model(seed=4, transformer_depth=0)
    ids = np.array([1, 2, 3, 4])
    out = model.forward_pretrain(ids)
    rows = [out.result.plan.row_of[node.span] for node in in_order(out.tree)]
    np.testing.assert_array_equal(out.nodes.data,
                                  out.result.final.outside.data[rows])


def test_masked_ids_change_logits_but_not_schedule():
    model = _model(seed=5)
    ids = np.array([1, 2, 3, 4, 5])
    corrupted = ids.copy()
    corrupted[2] = 0
    clean = model.forward_pretrain(ids)
    masked = model.forward_pretrain(ids, masked=corrupted)
    # parser input is the uncorrupted sentence in both runs
    assert masked.schedule.splits == clean.schedule.splits
    assert list(masked.order.values()) == list(clean.order.values())
    assert not np.allclose(masked.logits.data, clean.logits.data)


def test_same_schedule_gives_bit_identical_unmasked_rows():
    # with the schedule pinned, corrupting token t leaves the layer-0 inside
    # rows of spans not containing t bit-identical
    model = _model(seed=6)
    ids = np.array([1, 2, 3, 4])
    clean = model.forward_pretrain(ids)
    corrupted = ids.copy()
    corrupted[3] = 0
    plan = clean.result.plan
    masked = run_stack(model.embedding(corrupted), model.cio, plan)
    for span, row in plan.row_of.items():
        if span[1] < 4:
            np.testing.assert_array_equal(
                clean.result.layers[0].inside[row],
                masked.layers[0].inside[row])


def test_fast_encode_minimal_case_matches_standard():
    # n = 2 has a single tree, so both modes compose identically
    model = _model(seed=7)
    ids = np.array([3, 9])
    std = model.forward_pretrain(ids)
    fast = model.fast_encode(ids)
    np.testing.assert_allclose(std.nodes.data, fast.nodes.data, atol=1e-12)
    np.testing.assert_allclose(std.logits.data, fast.logits.data, atol=1e-12)
    assert format_sexpr(std.tree) == format_sexpr(fast.tree)


@pytest.mark.parametrize("mode", ["forward_pretrain", "fast_encode"])
def test_forward_decodes_the_split_order_once(mode, monkeypatch):
    calls = []
    decode = model_module.split_order

    def counting(scores, n):
        calls.append(n)
        return decode(scores, n)

    monkeypatch.setattr(model_module, "split_order", counting)
    model = _model(seed=15)
    getattr(model, mode)(np.array([1, 2, 3, 4, 5, 6]))
    assert calls == [6]


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("share", [True, False])
@pytest.mark.parametrize("mode", ["forward_pretrain", "fast_encode"])
def test_engine_counters_equal_the_compose_calls_made(mode, share, layers, monkeypatch):
    # run_stack reads its counters off the plan; these are the calls it makes
    pairs_per_call = []
    compose = ComposeParams.__call__

    def counting_compose(self, slots, read):
        pairs_per_call.append(slots.shape[0])
        return compose(self, slots, read)

    monkeypatch.setattr(ComposeParams, "__call__", counting_compose)
    model = _model(seed=3, layers=layers, share=share)
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 6, 11):
        pairs_per_call.clear()
        stats = EngineStats()
        out = getattr(model, mode)(rng.integers(0, 12, size=n), stats=stats)
        assert out.result.stats is stats
        assert len(pairs_per_call) == stats.batched_calls
        assert sum(pairs_per_call) == stats.pairs_composed
        assert stats.cells_encoded == layers * (out.result.plan.rows - n)


def test_default_config_runs_in_float32():
    # float constants in the graph must not promote float32 operands
    model = ChartLM(ReCatConfig(vocab_size=12), np.random.default_rng(16))
    ids = np.array([1, 2, 3, 4, 5])
    out = model.forward_pretrain(ids, masked=ids, target_positions=np.array([1, 3]),
                                 target_ids=ids[[1, 3]])
    assert out.result.final.outside.dtype == np.float32
    assert out.logits.dtype == np.float32
    assert out.mlm_loss.dtype == np.float32


def test_float32_model_is_the_float64_model_cast_once():
    wide = _model(seed=17).parameter_map()
    narrow = _model(seed=17, dtype="float32").parameter_map()
    assert list(narrow) == list(wide)
    for name, p in narrow.items():
        assert p.data.dtype == np.float32, name
        np.testing.assert_array_equal(p.data, wide[name].data.astype(np.float32))


def test_fast_encode_follows_parser_tree():
    model = _model(seed=8)
    ids = np.array([1, 2, 3, 4, 5, 6])
    with no_grad():
        fast = model.fast_encode(ids)
        scores = model.parser(ids)
    from chartlm.pruning import split_order
    expect = tree_from_splits(split_order(scores.data, 6), [str(t) for t in ids])
    assert format_sexpr(fast.tree) == format_sexpr(expect)
    assert fast.nodes.shape == (11, model.cfg.d)


def test_forbidden_boundary_respected_in_both_modes():
    # boundary 2 glues tokens 2 and 3 into one word: the word span (2,3)
    # must be a constituent, split only as the forced final move
    model = _model(seed=9)
    ids = np.array([1, 2, 3, 4])
    for fn in (model.forward_pretrain, model.fast_encode):
        out = fn(ids, forbidden={2})
        for span, k in out.order.items():
            if k == 2:
                assert span == (2, 3)
        assert set(out.order) >= {(1, 4), (2, 3)}


def test_induced_split_prefers_admissible_boundary():
    # across many random models the chart must never pick a forbidden split
    # while the span still offers an admissible one
    for seed in range(8):
        model = _model(seed=100 + seed)
        ids = np.random.default_rng(seed).integers(0, 12, size=6)
        out = model.forward_pretrain(ids, forbidden={2, 4})
        for (i, j), k in out.order.items():
            if k in {2, 4}:
                assert set(range(i, j)) <= {2, 4}, ((i, j), k, out.schedule.splits)
        assert np.isfinite(float(out.parser_loss.data))


def test_parameter_groups_are_disjoint_and_cover():
    model = _model(seed=10)
    parser = {p.name for p in model.parser_parameters()}
    rest = {p.name for p in model.model_parameters()}
    assert parser.isdisjoint(rest)
    assert parser | rest == {p.name for p in model.parameters()}
    assert all(name.startswith("parser.") for name in parser)


def test_gradient_isolation_parser_loss_only_touches_parser():
    model = _model(seed=11)
    ids = np.array([2, 4, 6, 8, 10])
    out = model.forward_pretrain(ids, target_positions=np.array([1]),
                                 target_ids=np.array([4]))
    out.parser_loss.backward()
    assert any(p.grad is not None and np.any(p.grad) for p in model.parser_parameters())
    for p in model.model_parameters():
        assert p.grad is None or not np.any(p.grad), p.name


def test_gradient_isolation_mlm_loss_never_touches_parser():
    model = _model(seed=12)
    ids = np.array([2, 4, 6, 8, 10])
    out = model.forward_pretrain(ids, target_positions=np.array([0, 3]),
                                 target_ids=np.array([2, 8]))
    out.mlm_loss.backward()
    for p in model.parser_parameters():
        assert p.grad is None or not np.any(p.grad), p.name
    emb = model.embedding.table
    assert emb.grad is not None and np.any(emb.grad)


def test_forward_is_deterministic():
    model = _model(seed=14)
    ids = np.array([5, 1, 7, 3])
    a = model.forward_pretrain(ids)
    b = model.forward_pretrain(ids)
    np.testing.assert_array_equal(a.logits.data, b.logits.data)
    np.testing.assert_array_equal(a.nodes.data, b.nodes.data)


def test_forward_tape_is_freed_without_the_cycle_collector():
    model = _model(seed=15)
    gc.collect()
    gc.disable()
    try:
        out = model.forward_pretrain(np.array([5, 1, 7, 3, 2, 9]))
        assert out.mlm_loss is not None and isinstance(out.result, StackResult)
        del out
        assert not any(isinstance(o, StackResult) for o in gc.get_objects())
    finally:
        gc.enable()
