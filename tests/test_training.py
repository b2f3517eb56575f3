"""Training-loop tests: data plumbing, optimizer, determinism, resume."""

import gc
import json

import numpy as np
import pytest

from chartlm.autodiff import Parameter, Tensor
from chartlm.checkpoint import load_checkpoint, save_checkpoint
from chartlm.model import ChartLM, ReCatConfig
from chartlm.training import (MASK_TOKEN, AdamW, SentenceError, TrainConfig, Trainer,
                              Vocab, batches_by_length, forbidden_boundaries,
                              load_model, mask_tokens, read_corpus)

VOCAB = Vocab([MASK_TOKEN, "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"])


def _tiny_cfg():
    return ReCatConfig(layers=1, compose_depth=1, transformer_depth=1, d=8,
                       heads=2, vocab_size=len(VOCAB), m=2, parser_dim=6,
                       parser_hidden=6, dtype="float64")


def _corpus(count=20, seed=0, lo=3, hi=6):
    rng = np.random.default_rng(seed)
    words = VOCAB.tokens[1:]
    return [[words[int(i)] for i in rng.integers(0, len(words),
                                                 size=rng.integers(lo, hi + 1))]
            for _ in range(count)]


def _trainer(corpus=None, seed=3, out_dir=None, **tkw):
    kw = {"epochs": 2, "batch_tokens": 24, "seed": seed}
    kw.update(tkw)
    cfg = TrainConfig(**kw)
    model = ChartLM(_tiny_cfg(), np.random.default_rng(seed))
    return Trainer(model, cfg, corpus if corpus is not None else _corpus(), VOCAB, out_dir)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_vocab_roundtrip(tmp_path):
    path = str(tmp_path / "vocab.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{tok} {i}\n" for i, tok in enumerate(VOCAB.tokens))
    back = Vocab.from_file(path)
    assert back.tokens == VOCAB.tokens
    assert back.mask_id == 0
    np.testing.assert_array_equal(back.encode(["a", "k"]), [1, 11])
    assert back.decode([1, 11]) == ["a", "k"]


def test_vocab_errors(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        Vocab(["a", "a"])
    with pytest.raises(ValueError, match="unknown token 'zz'"):
        VOCAB.encode(["a", "zz"])
    with pytest.raises(ValueError, match="no \\[MASK\\]"):
        _ = Vocab(["a", "b"]).mask_id
    sparse = tmp_path / "sparse.txt"
    sparse.write_text("a 0\nb 2\n")
    with pytest.raises(ValueError, match="dense"):
        Vocab.from_file(str(sparse))
    bad = tmp_path / "bad.txt"
    bad.write_text("a 0\nb\n")
    with pytest.raises(ValueError, match="expected 'token id'"):
        Vocab.from_file(str(bad))


def test_read_corpus(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b c\n\n  d e \n")
    assert read_corpus(str(path)) == [["a", "b", "c"], ["d", "e"]]


def test_forbidden_boundaries():
    assert forbidden_boundaries(["play", "##ing", "now"]) == {1}
    assert forbidden_boundaries(["a", "b", "c"]) == set()
    assert forbidden_boundaries(["un", "##believ", "##able"]) == {1, 2}


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def test_mask_tokens_rate_bounds():
    with pytest.raises(ValueError, match="rate"):
        mask_tokens(np.arange(4), 0.0, np.random.default_rng(0), 0, 12)


def test_mask_tokens_fixed_seed_replay():
    ids = np.arange(1, 11)
    a = mask_tokens(ids, 0.3, np.random.default_rng(7), 0, 12)
    b = mask_tokens(ids, 0.3, np.random.default_rng(7), 0, 12)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_mask_tokens_only_picked_positions_change():
    ids = np.arange(1, 9)
    x, picked, originals = mask_tokens(ids, 0.4, np.random.default_rng(1), 0, 12)
    untouched = np.setdiff1d(np.arange(8), picked)
    np.testing.assert_array_equal(x[untouched], ids[untouched])
    np.testing.assert_array_equal(originals, ids[picked])


def test_mask_tokens_empirical_rates():
    rng = np.random.default_rng(2)
    ids = np.ones(100_000, dtype=np.int64)
    x, picked, _ = mask_tokens(ids, 0.15, rng, 0, 12)
    frac = picked.size / ids.size
    assert abs(frac - 0.15) < 0.01
    # among picked: ~80% mask token, ~10% still original, ~10% random
    masked = np.mean(x[picked] == 0)
    kept = np.mean(x[picked] == 1)
    assert abs(masked - 0.8) < 0.03
    # "unchanged" draws also include random draws that hit the original id
    assert abs(kept - (0.1 + 0.1 / 12)) < 0.03


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def test_batches_respect_budget_and_cover():
    lengths = [5, 3, 8, 2, 7, 4, 6]
    batches = batches_by_length(lengths, 10)
    seen = [i for b in batches for i in b]
    assert sorted(seen) == list(range(7))
    for b in batches:
        assert sum(lengths[i] for i in b) <= 10


def test_batches_over_budget_error():
    with pytest.raises(ValueError, match="over the batch budget"):
        batches_by_length([4, 11], 10)


def test_batches_group_similar_lengths():
    lengths = [2, 5, 2, 5, 2]
    batches = batches_by_length(lengths, 6)
    assert batches[0] == [0, 2, 4]  # the three short sentences batch together


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adamw_zero_lr_freezes_parameters():
    p = Parameter("p", np.array([1.0, -2.0]))
    opt = AdamW([p], lr=0.0)
    before = p.data.copy()
    for _ in range(3):
        p.grad = np.array([0.5, -0.5])
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adamw_minimizes_quadratic():
    p = Parameter("p", np.array([10.0]))
    opt = AdamW([p], lr=0.2, weight_decay=0.0)
    for _ in range(300):
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    assert abs(p.data[0] - 3.0) < 1e-3


def test_adamw_skips_missing_gradients():
    p = Parameter("p", np.array([1.0]))
    q = Parameter("q", np.array([2.0]))
    opt = AdamW([p, q], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert q.data[0] == 2.0 and p.data[0] != 1.0


def test_adamw_state_roundtrip_continues_bit_identically():
    def fresh():
        p = Parameter("p", np.array([4.0, -1.0]))
        return p, AdamW([p], lr=0.05)

    grads = [np.array([0.3, -0.7]), np.array([-0.2, 0.4]),
             np.array([0.9, 0.1]), np.array([0.0, -1.0])]

    p1, opt1 = fresh()
    for g in grads:
        p1.grad = g
        opt1.step()

    p2, opt2 = fresh()
    for g in grads[:2]:
        p2.grad = g
        opt2.step()
    state = {k: v.copy() for k, v in opt2.state_tensors("opt").items()}
    p3 = Parameter("p", p2.data.copy())
    opt3 = AdamW([p3], lr=0.05)
    opt3.load_state_tensors(state, "opt", t=opt2.t)
    for g in grads[2:]:
        p3.grad = g
        opt3.step()
    np.testing.assert_array_equal(p1.data, p3.data)


def test_adamw_load_errors():
    p = Parameter("p", np.array([1.0]))
    opt = AdamW([p], lr=0.1)
    with pytest.raises(ValueError, match="missing"):
        opt.load_state_tensors({}, "opt", t=1)
    with pytest.raises(ValueError, match="shape"):
        opt.load_state_tensors({"opt.m.p": np.zeros(2), "opt.v.p": np.zeros(2)},
                               "opt", t=1)


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

def test_train_config_validation_and_roundtrip():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError, match="unknown config keys"):
        TrainConfig.from_dict({"lr": 1.0})
    cfg = TrainConfig(epochs=3, seed=9)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_train_config_decoder_reads_an_int_as_a_float():
    cfg = TrainConfig.from_dict({"lr_model": 1, "weight_decay": 0})
    assert cfg == TrainConfig(lr_model=1.0, weight_decay=0.0)
    assert type(cfg.lr_model) is float and type(cfg.weight_decay) is float
    with pytest.raises(ValueError, match="config key epochs: expected int"):
        TrainConfig.from_dict({"epochs": 2.0})
    with pytest.raises(ValueError, match="retired config key adam_eps"):
        TrainConfig.from_dict({"adam_eps": 1e-6})


def test_checkpoint_with_retired_keys_at_their_old_values_loads(tmp_path):
    """Checkpoints written before five settings were retired carry them at
    the one value each could have had."""
    tr = _trainer(seed=13, max_steps=2)
    tr.train()
    ckpt = str(tmp_path / "m.ckpt")
    tr.save(ckpt)
    tensors, config, extra = load_checkpoint(ckpt)
    config["model"].update(tie_mlm=True, parser_layers=1)
    config["train"].update(beta1=0.9, beta2=0.999, adam_eps=1e-8)
    save_checkpoint(ckpt, tensors, config, extra)

    model, _, _ = load_model(ckpt)
    resumed = Trainer.resume(ckpt, _corpus())
    assert model.cfg == tr.model.cfg and resumed.cfg == tr.cfg and resumed.step == 2
    for a, b, c in zip(model.parameters(), resumed.model.parameters(), tr.model.parameters()):
        np.testing.assert_array_equal(a.data, c.data)
        np.testing.assert_array_equal(b.data, c.data)


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
@pytest.mark.parametrize("bad, limits, reason", [
    (["a", "zz", "b"], {}, "unknown token 'zz'"),
    (list("abcdef"), {"max_len": 4}, "sentence length 6 exceeds configured max 4"),
    (list("abcdef"), {"batch_tokens": 5}, "sentence has 6 tokens, over the batch budget 5"),
    (["a", "##k"], {}, "no admissible tree: every boundary is non-splittable"),
], ids=["unknown_token", "max_len", "batch_tokens", "one_word"])
def test_trainer_refuses_a_bad_sentence_before_any_step(tmp_path, resume, bad, limits, reason):
    """Trainer and Trainer.resume put every sentence to the checks a step
    would, and name the one that fails by its index."""
    vocab = Vocab(VOCAB.tokens[:-1] + ["##k"])
    mcfg, tcfg = _tiny_cfg(), TrainConfig(batch_tokens=limits.get("batch_tokens", 24))
    mcfg.max_len = limits.get("max_len", mcfg.max_len)
    corpus = [["a", "b"], ["c", "##k", "d"], bad, ["e"]]
    if resume:
        ckpt = str(tmp_path / "m.ckpt")
        Trainer(ChartLM(mcfg, np.random.default_rng(0)), tcfg, corpus[:2], vocab).save(ckpt)
        build = lambda: Trainer.resume(ckpt, corpus)
    else:
        build = lambda: Trainer(ChartLM(mcfg, np.random.default_rng(0)), tcfg, corpus, vocab)
    with pytest.raises(SentenceError) as info:
        build()
    assert (info.value.index, info.value.reason) == (2, reason)
    assert str(info.value) == f"sentence 2: {reason}"


def test_trainer_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        _trainer(corpus=[])


def test_metric_stream_is_deterministic():
    a = _trainer(seed=5).train()
    b = _trainer(seed=5).train()
    assert len(a) == len(b) > 0
    for ra, rb in zip(a, b):
        ka = {k: v for k, v in ra.items() if k != "wall_ms"}
        kb = {k: v for k, v in rb.items() if k != "wall_ms"}
        assert ka == kb


def test_different_seed_changes_stream():
    a = _trainer(seed=5).train()
    b = _trainer(seed=6).train()
    assert any(ra["mlm_loss"] != rb["mlm_loss"] for ra, rb in zip(a, b))


def test_zero_lr_keeps_parameters_bit_identical():
    tr = _trainer(seed=7, lr_model=0.0, lr_parser=0.0, weight_decay=0.0,
                  max_steps=3)
    before = {p.name: p.data.copy() for p in tr.model.parameters()}
    tr.train()
    for p in tr.model.parameters():
        np.testing.assert_array_equal(p.data, before[p.name])


def test_fast_phase_freezes_parser():
    tr = _trainer(seed=8, phase="fast", max_steps=4)
    parser_before = {p.name: p.data.copy() for p in tr.model.parser_parameters()}
    model_before = {p.name: p.data.copy() for p in tr.model.model_parameters()}
    records = tr.train()
    for p in tr.model.parser_parameters():
        np.testing.assert_array_equal(p.data, parser_before[p.name])
    # the loss is still reported for monitoring
    assert all(np.isfinite(r["parser_loss"]) for r in records)
    # but model weights did move
    assert any(not np.array_equal(p.data, model_before[p.name])
               for p in tr.model.model_parameters())


def test_parser_only_fitting_reduces_parser_loss():
    # freeze the encoder by zeroing its lr: the boundary scorer must still
    # learn to imitate the (now fixed) induced trees
    tr = _trainer(seed=9, lr_model=0.0, epochs=30)
    records = tr.train()
    first = np.mean([r["parser_loss"] for r in records[:5]])
    last = np.mean([r["parser_loss"] for r in records[-5:]])
    assert last < first


def test_toy_training_learns_predictable_corpus():
    # each sentence repeats a single word, so a masked position is fully
    # determined by its neighbours; the loss must fall well below uniform
    rng = np.random.default_rng(4)
    words = VOCAB.tokens[1:]
    corpus = [[words[int(rng.integers(0, len(words)))]] *
              int(rng.integers(3, 7)) for _ in range(40)]
    tr = _trainer(seed=10, corpus=corpus, epochs=20, lr_model=3e-3)
    records = tr.train()
    assert len(records) >= 100
    first = np.mean([r["mlm_loss"] for r in records[:10]])
    last = np.mean([r["mlm_loss"] for r in records[-20:]])
    assert last < 0.75 * np.log(len(VOCAB))
    assert last < first


def test_metrics_file_and_counters(tmp_path):
    path = tmp_path / "metrics.jsonl"
    tr = _trainer(seed=11, max_steps=3, out_dir=str(tmp_path))
    records = tr.train()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines == records
    for r in records:
        assert set(r) == {"step", "mlm_loss", "parser_loss", "cells_encoded",
                          "batches", "wall_ms"}
        assert r["batches"] > 0 and r["cells_encoded"] > 0


def test_resume_equals_uninterrupted(tmp_path):
    corpus = _corpus(12, seed=5)
    full = _trainer(corpus=corpus, seed=12)
    full_records = full.train()

    part = _trainer(corpus=corpus, seed=12)
    part_cfg_total = part.cfg.epochs * len(part.batches)
    assert part_cfg_total == len(full_records)
    # run the first half manually, checkpoint, resume, finish
    half = part_cfg_total // 2
    part.cfg.max_steps = half
    part_records = part.train()
    ckpt = str(tmp_path / "half.ckpt")
    part.save(ckpt)

    resumed = Trainer.resume(ckpt, corpus)
    resumed.cfg.max_steps = 0
    resumed_records = resumed.train()

    stitched = part_records + resumed_records
    assert len(stitched) == len(full_records)
    for ra, rb in zip(stitched, full_records):
        assert {k: v for k, v in ra.items() if k != "wall_ms"} == \
               {k: v for k, v in rb.items() if k != "wall_ms"}
    for p, q in zip(sorted(full.model.parameters(), key=lambda t: t.name),
                    sorted(resumed.model.parameters(), key=lambda t: t.name)):
        assert p.name == q.name
        np.testing.assert_array_equal(p.data, q.data)


def test_resume_does_not_repeat_metric_records(tmp_path):
    out = str(tmp_path)
    path = tmp_path / "metrics.jsonl"
    model = ChartLM(_tiny_cfg(), np.random.default_rng(14))
    first = Trainer(model, TrainConfig(epochs=2, batch_tokens=24, seed=14,
                                       checkpoint_every=2), _corpus(8, seed=6), VOCAB, out)
    first.train()
    total = first.step
    assert total > 3

    resumed = Trainer.resume(str(tmp_path / "step000002.ckpt"), _corpus(8, seed=6), out)
    resumed.train()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [r["step"] for r in lines] == list(range(total))


def test_non_finite_gradient_stops_before_the_optimizer(monkeypatch):
    tr = _trainer(seed=15, max_steps=1)
    target = tr.model.model_parameters()[0]
    backward = Tensor.backward

    def poisoned_backward(self, seed=None):
        backward(self, seed)
        target.grad[(0,) * target.grad.ndim] = np.nan

    monkeypatch.setattr(Tensor, "backward", poisoned_backward)
    before = [p.data.copy() for p in tr.model.parameters()]
    with pytest.raises(FloatingPointError,
                       match=f"non-finite gradient for {target.name} at step 0"):
        tr.train()
    assert gc.isenabled()  # the step's collector pause ends on a raise too
    for p, old in zip(tr.model.parameters(), before):
        np.testing.assert_array_equal(p.data, old)


def test_train_step_pauses_the_collector_and_restores_it(monkeypatch):
    tr = _trainer(seed=16)
    seen = []
    backward = Tensor.backward

    def recording_backward(self, seed=None):
        seen.append(gc.isenabled())
        backward(self, seed)

    monkeypatch.setattr(Tensor, "backward", recording_backward)
    tr.train_step(tr.batches[0])
    assert seen == [False]
    assert gc.isenabled()


def test_train_step_keeps_a_disabled_collector_disabled():
    tr = _trainer(seed=16)
    gc.disable()
    try:
        tr.train_step(tr.batches[0])
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("phase", ["masked", "fast"])
def test_train_step_leaves_no_cyclic_garbage(phase):
    # the step runs with the collector paused, so refcounting alone must free
    # its tape. The collector stays off until the explicit collection: once
    # re-enabled, its first automatic scan would free a cycle unseen.
    tr = _trainer(seed=17, phase=phase)
    gc.collect()
    gc.disable()
    try:
        tr.train_step(tr.batches[0])
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_saved_model_reloads_and_parses(tmp_path):
    tr = _trainer(seed=13, max_steps=2)
    tr.train()
    ckpt = str(tmp_path / "m.ckpt")
    tr.save(ckpt)
    model, vocab, config = load_model(ckpt)
    assert vocab.tokens == VOCAB.tokens
    assert config["model"]["d"] == 8
    ids = vocab.encode(["a", "b", "c"])
    out = model.forward_pretrain(ids)
    ref = tr.model.forward_pretrain(ids)
    np.testing.assert_array_equal(out.logits.data, ref.logits.data)
