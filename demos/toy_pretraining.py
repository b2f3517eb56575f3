"""
Toy masked pretraining with grammar induction
=============================================

Trains a small chart LM on synthetic sentences from a bracketed grammar and
watches two things: the masked-token loss falling, and the induced trees
drifting toward the generator's trees. A scaled-down version of the full
training trend check (2000 sentences, 5 epochs) that finishes in about a
minute.
"""

import numpy as np

from chartlm.autodiff import no_grad
from chartlm.evaluation import corpus_scores
from chartlm.model import ChartLM, ReCatConfig
from chartlm.synthetic import VOCAB_TOKENS, generate_corpus
from chartlm.training import TrainConfig, Trainer, Vocab
from chartlm.trees import format_sexpr, random_binary

corpus = generate_corpus(np.random.default_rng(77), count=400, min_len=4, max_len=12)
tokens = [t for t, _ in corpus]
golds = [g for _, g in corpus]
print(f"{len(corpus)} sentences, for example: {' '.join(tokens[0])}")
print(f"its generator tree: {format_sexpr(golds[0])}")

vocab = Vocab(VOCAB_TOKENS)
mcfg = ReCatConfig(d=32, heads=4)  # half-size model, same shape otherwise
tcfg = TrainConfig(epochs=3, batch_tokens=64, seed=1)
model = ChartLM(mcfg, np.random.default_rng(tcfg.seed))
trainer = Trainer(model, tcfg, tokens, vocab)

print(f"\ntraining {tcfg.epochs} epochs x {len(trainer.batches)} batches "
      f"(uniform guessing = {np.log(len(vocab)):.3f})")
records = trainer.train()
for lo in range(0, len(records), max(1, len(records) // 8)):
    chunk = records[lo:lo + max(1, len(records) // 8)]
    print(f"  steps {lo:4d}+: mlm {np.mean([r['mlm_loss'] for r in chunk]):.4f}  "
          f"parser {np.mean([r['parser_loss'] for r in chunk]):.4f}")

# score the induced trees against the generator's trees
preds = []
with no_grad():
    for toks in tokens:
        preds.append(model.forward_pretrain(vocab.encode(toks), token_strs=toks).tree)
induced, _ = corpus_scores(preds, golds)

rng = np.random.default_rng(0)
baseline, _ = corpus_scores([random_binary(t, rng) for t in tokens], golds)

print(f"\ninduced-tree F1 {induced:.2f} vs random-binary baseline {baseline:.2f}")
print(f"an induced tree: {format_sexpr(preds[0])}")
