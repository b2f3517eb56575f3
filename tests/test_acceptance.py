"""Acceptance gate: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. Criterion 7 trains a full toy model and takes a few minutes;
everything else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from chartlm.autodiff import Tensor, gradient_check, no_grad
from chartlm.checkpoint import collect_parameters, load_checkpoint
from chartlm.evaluation import corpus_f1
from chartlm.inside_outside import (CioStack, EngineStats, induce_order,
                                    plan_engine, run_stack)
from chartlm.model import ChartLM, ReCatConfig
from chartlm.oracle import (best_tree_exhaustive, cumulative_outside_reference,
                            direct_outside_check, full_chart_reference)
from chartlm.pruning import (build_cell_batches, merge_rounds, parser_nll,
                             prune_schedule, split_order)
from chartlm.synthetic import VOCAB_TOKENS, balanced_scores, generate_corpus
from chartlm.training import MASK_TOKEN, TrainConfig, Trainer, Vocab
from chartlm.trees import format_sexpr, in_order, random_binary, tree_from_splits


def _full_chart_plan(n, seed):
    scores = np.random.default_rng(seed).standard_normal(max(n - 1, 0))
    window = max(n, 2)
    return plan_engine(build_cell_batches(prune_schedule(n, window,
                                                         split_order(scores, n))))


def _pruned_plan(n, m, seed):
    scores = np.random.default_rng(seed).standard_normal(n - 1)
    return plan_engine(build_cell_batches(prune_schedule(n, m,
                                                         split_order(scores, n))))


# ---------------------------------------------------------------------------
# 1. pruned engine with a window covering the sentence == cubic brute force
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    t_start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 7            # 2..8
        layers = 1 + trial % 2       # 1..2
        share = trial % 3 != 0
        stack = CioStack("cio", layers=layers, d=16, heads=4, depth=1,
                         share=share, rng=np.random.default_rng(trial))
        x = Tensor(np.random.default_rng(1000 + trial).standard_normal((n, 16)))
        result = run_stack(x, stack, _full_chart_plan(n, seed=trial))
        oracle = full_chart_reference(x.data, stack)
        row_of = result.plan.row_of
        for l in range(layers):
            got, ref = result.layers[l], oracle.layers[l]
            for span, row in row_of.items():
                worst = max(
                    worst,
                    float(np.max(np.abs(got.inside.data[row] - ref.inside[span]))),
                    abs(float(got.inside_score.data[row]) - ref.inside_score[span]),
                    float(np.max(np.abs(got.outside.data[row] - ref.outside[span]))),
                    abs(float(got.outside_score.data[row]) - ref.outside_score[span]))
        assert list(induce_order(result).items()) == list(
            best_tree_exhaustive(oracle.final.split_scores, n).items())
    elapsed = time.perf_counter() - t_start
    assert worst <= 1e-6
    assert elapsed < 120.0
    print(f"\ncriterion 1 PASS: 100 trials, worst abs err {worst:.2e}, "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. incremental candidate fold == direct softmax-weighted sums
# ---------------------------------------------------------------------------

def test_criterion_2_cumulative_outside_equivalence():
    worst = 0.0
    rng = np.random.default_rng(2)
    for u in range(1, 7):
        for scale in (1.0, 10.0, 40.0):  # include spread-out score ranges
            cands = rng.standard_normal((u, 16))
            scores = rng.standard_normal(u) * scale
            vec, total = cumulative_outside_reference(cands, scores)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            worst = max(worst,
                        float(np.max(np.abs(vec - w @ cands))),
                        abs(total - float(w @ scores)))
    assert worst <= 1e-6
    # and the engine's batched fold agrees with per-cell recomputation
    engine_worst = 0.0
    for seed in range(4):
        stack = CioStack("cio", layers=2, d=16, heads=4, depth=1, share=True,
                         rng=np.random.default_rng(seed))
        n = 6 + seed
        x = Tensor(np.random.default_rng(50 + seed).standard_normal((n, 16)))
        result = run_stack(x, stack, _pruned_plan(n, m=2, seed=seed))
        engine_worst = max(engine_worst, direct_outside_check(result, stack))
    assert engine_worst <= 1e-6
    print(f"\ncriterion 2 PASS: fold err {worst:.2e}, engine err {engine_worst:.2e}")


# ---------------------------------------------------------------------------
# 3. finite-difference gradients across the whole model
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_integrity():
    cfg = ReCatConfig(layers=2, compose_depth=1, transformer_depth=2, d=16,
                      heads=4, vocab_size=50, m=2, parser_dim=8,
                      parser_hidden=8, dtype="float64")
    rng = np.random.default_rng(3)
    model = ChartLM(cfg, rng)
    for p in model.parameters():  # move zero-initialized taps off the origin
        if not np.abs(p.data).sum():
            p.data = rng.standard_normal(p.data.shape) * 0.05

    n = 5
    sentence = rng.integers(0, cfg.vocab_size, size=n)
    masked = sentence.copy()
    positions = np.array([1, 3])
    targets = sentence[positions]
    masked[positions] = rng.integers(0, cfg.vocab_size, size=2)

    def build_loss():
        out = model.forward_pretrain(sentence, masked=masked,
                                     target_positions=positions,
                                     target_ids=targets)
        return out.parser_loss + out.mlm_loss

    # every parameter group must receive gradient on a generic batch
    for p in model.parameters():
        p.grad = None
    build_loss().backward()
    by_group: dict[str, bool] = {}
    for p in model.parameters():
        group = p.name.split(".")[0]
        got = p.grad is not None and bool(np.abs(p.grad).sum() > 0)
        by_group[group] = by_group.get(group, False) or got
    assert set(by_group) == {"model", "cio", "encoder", "mlm", "parser"}
    assert all(by_group.values()), by_group

    report = gradient_check(build_loss, model.parameters(), rng,
                            samples_per_param=3)
    worst_name = max(report, key=report.get)
    assert report[worst_name] < 1e-3, (worst_name, report[worst_name])
    print(f"\ncriterion 3 PASS: max rel err {report[worst_name]:.2e} "
          f"({worst_name}); groups {sorted(by_group)}")


# ---------------------------------------------------------------------------
# 4. logarithmic batch ladder, linear cell count
# ---------------------------------------------------------------------------

def test_criterion_4_schedule_complexity():
    m = 2
    rows = []
    for n in (8, 16, 32, 64, 128, 256, 512):
        plan = plan_engine(build_cell_batches(
            prune_schedule(n, m, split_order(balanced_scores(n), n))))
        steps = plan.non_leaf_batches()
        cells = plan.rows
        assert steps <= (m - 1) + 2 * math.ceil(math.log2(n)), (n, steps)
        assert cells <= 2 * m * n, (n, cells)
        rows.append((n, steps, cells))
    print("\ncriterion 4 PASS: " +
          "; ".join(f"n={n}: {s} steps, {c} cells" for n, s, c in rows))


# ---------------------------------------------------------------------------
# 5. six-token pruning replay
# ---------------------------------------------------------------------------

def test_criterion_5_pruning_replay():
    scores = np.array([0.1, 0.6, 1.0, 0.8, 0.4])
    order = split_order(scores, 6)
    assert list(order.values()) == [3, 4, 2, 5, 1]
    rounds = merge_rounds(order)
    assert [k for group in rounds for k in group] == [1, 5, 2, 4, 3]
    assert rounds == [[1, 5], [2, 4], [3]]
    result = prune_schedule(6, 2, order)
    assert result[(1, 4)] == (2, 3)
    assert result[(3, 6)] == (3, 4)
    print("\ncriterion 5 PASS: merge order [1,5,2,4,3], groups "
          "[[1,5],[2,4],[3]], cells (1,4)->(2,3) and (3,6)->(3,4)")


# ---------------------------------------------------------------------------
# 6. parser NLL against direct summation and the uniform closed form
# ---------------------------------------------------------------------------

def test_criterion_6_hard_em_loss_contract():
    worst = 0.0
    for trial in range(25):
        rng = np.random.default_rng(600 + trial)
        n = int(rng.integers(3, 10))
        scores = rng.standard_normal(n - 1)
        order = split_order(scores, n)
        nll = parser_nll(scores, order)
        direct = 0.0
        for (i, j), k in order.items():
            seg = scores[i - 1:j - 1]
            lse = seg.max() + np.log(np.exp(seg - seg.max()).sum())
            direct -= float(seg[k - i] - lse)
        worst = max(worst, abs(nll - direct))
    assert worst <= 1e-9

    for n in (3, 5, 8):  # uniform logits: each span costs ln(its width - 1)
        order = split_order(np.zeros(n - 1), n)
        closed = sum(math.log(j - i) for i, j in order)
        assert parser_nll(np.zeros(n - 1), order) == pytest.approx(closed, rel=1e-12)
    print(f"\ncriterion 6 PASS: worst dev {worst:.2e}; uniform closed form exact")


# ---------------------------------------------------------------------------
# 7. toy pretraining trend: MLM drop and induced-tree F1 margin
# ---------------------------------------------------------------------------

def test_criterion_7_toy_training_trend():
    t_start = time.perf_counter()
    corpus = generate_corpus(np.random.default_rng(77), 2000, 4, 16)
    tokens = [t for t, _ in corpus]
    golds = [g for _, g in corpus]

    vocab = Vocab(VOCAB_TOKENS)
    tcfg = TrainConfig(epochs=5, batch_tokens=64, seed=1)
    model = ChartLM(ReCatConfig(), np.random.default_rng(tcfg.seed))
    trainer = Trainer(model, tcfg, tokens, vocab)
    records = trainer.train()

    final_mlm = float(np.mean([r["mlm_loss"] for r in records[-50:]]))
    assert final_mlm <= 0.7 * math.log(50), final_mlm  # >= 30% drop from ln 50

    preds = []
    with no_grad():
        for toks in tokens:
            preds.append(model.forward_pretrain(vocab.encode(toks),
                                                token_strs=toks).tree)
    induced_f1 = corpus_f1(preds, golds)
    rng_b = np.random.default_rng(0)
    rand_f1 = corpus_f1([random_binary(t, rng_b) for t in tokens], golds)
    assert induced_f1 >= rand_f1 + 10.0, (induced_f1, rand_f1)

    elapsed = time.perf_counter() - t_start
    assert elapsed < 1800.0
    print(f"\ncriterion 7 PASS: mlm {final_mlm:.4f} <= {0.7 * math.log(50):.4f}; "
          f"F1 {induced_f1:.2f} vs random {rand_f1:.2f} "
          f"(margin {induced_f1 - rand_f1:.2f}); {elapsed / 60:.1f} min")


# ---------------------------------------------------------------------------
# 8. fast mode composes strictly less and follows the parser's tree
# ---------------------------------------------------------------------------

def test_criterion_8_fast_encoding():
    cfg = ReCatConfig(layers=2, compose_depth=1, transformer_depth=1, d=16,
                      heads=4, vocab_size=50, m=2, parser_dim=8,
                      parser_hidden=8, dtype="float64")
    model = ChartLM(cfg, np.random.default_rng(8))
    pairs = []
    for n in range(4, 13):
        ids = np.random.default_rng(80 + n).integers(0, 50, size=n)
        strs = [f"w{i}" for i in range(1, n + 1)]
        std_stats, fast_stats = EngineStats(), EngineStats()
        model.forward_pretrain(ids, token_strs=strs, stats=std_stats)
        fast = model.fast_encode(ids, token_strs=strs, stats=fast_stats)
        assert fast_stats.pairs_composed < std_stats.pairs_composed, n
        assert fast.nodes.shape == (2 * n - 1, cfg.d)
        assert len(in_order(fast.tree)) == 2 * n - 1
        parser_tree = tree_from_splits(
            split_order(model.parser(ids).data, n), strs)
        assert format_sexpr(fast.tree) == format_sexpr(parser_tree)
        pairs.append((n, fast_stats.pairs_composed, std_stats.pairs_composed))
    print("\ncriterion 8 PASS: " +
          "; ".join(f"n={n}: {f}<{s}" for n, f, s in pairs))


# ---------------------------------------------------------------------------
# 9. determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_persistence(tmp_path):
    vocab = Vocab([MASK_TOKEN] + [f"t{i}" for i in range(11)])
    words = vocab.tokens[1:]
    rng = np.random.default_rng(9)
    corpus = [[words[int(i)] for i in rng.integers(0, 11, size=rng.integers(3, 7))]
              for _ in range(10)]
    cfg = ReCatConfig(layers=1, compose_depth=1, transformer_depth=1, d=8,
                      heads=2, vocab_size=12, m=2, parser_dim=6,
                      parser_hidden=6, dtype="float64")

    def fresh():
        tcfg = TrainConfig(epochs=2, batch_tokens=16, seed=90)
        model = ChartLM(cfg, np.random.default_rng(tcfg.seed))
        return Trainer(model, tcfg, corpus, vocab)

    strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_ms"}
                          for r in recs]

    # seeded runs reproduce the metric stream exactly
    full_a, full_b = fresh(), fresh()
    records = full_a.train()
    assert strip(records) == strip(full_b.train())

    # checkpoint roundtrip is bit-identical
    ckpt = str(tmp_path / "full.ckpt")
    full_a.save(ckpt)
    tensors, config, extra = load_checkpoint(ckpt)
    for name, arr in collect_parameters(full_a.model).items():
        assert tensors[name].dtype == arr.dtype
        np.testing.assert_array_equal(tensors[name], arr)
    assert extra["step"] == full_a.step
    assert config["model"] == cfg.to_dict()

    # resumed training equals uninterrupted training
    part = fresh()
    half = len(records) // 2
    part.cfg.max_steps = half
    head = part.train()
    mid = str(tmp_path / "half.ckpt")
    part.save(mid)
    resumed = Trainer.resume(mid, corpus)
    resumed.cfg.max_steps = 0
    tail = resumed.train()
    assert strip(head + tail) == strip(records)
    ref = {p.name: p.data for p in full_a.model.parameters()}
    for p in resumed.model.parameters():
        np.testing.assert_array_equal(p.data, ref[p.name])
    print(f"\ncriterion 9 PASS: {len(records)} metric records reproduced; "
          f"resume at step {half} bit-identical")
