"""Command-line surface: pretrain, parse, eval-f1, export-trees, gradcheck.

Exit codes are a stable contract: 0 success, 2 usage errors (bad flags, a
path that is missing or cannot be opened, malformed config), 3 numeric or
validation failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields
from functools import partial

import numpy as np

from .autodiff import gradient_check, no_grad
from .evaluation import PairError, corpus_scores
from .model import ChartLM, ReCatConfig
from .training import (CHECKPOINT_FILE, METRICS_FILE, SentenceError, TrainConfig, Trainer,
                       Vocab, forbidden_boundaries, load_model, numbered_sentences, read_corpus)
from .trees import (left_branching, numbered_lines, numbered_trees, random_binary,
                    replace_file, right_branching, write_tree_file)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config files: flat "key = value" lines covering both config dataclasses
# ---------------------------------------------------------------------------

def _coerce(value: str, default) -> object:
    if isinstance(default, bool):
        low = value.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def parse_config_file(path: str) -> tuple[ReCatConfig, TrainConfig]:
    sections: dict[type, dict] = {ReCatConfig: {}, TrainConfig: {}}
    defaults = {f.name: (cls, f.default) for cls in sections for f in fields(cls)}
    try:
        lines = list(numbered_lines(path))
    except ValueError as exc:  # a line that is not UTF-8
        raise UsageError(str(exc)) from None
    set_on: dict[str, int] = {}
    for line_no, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in set_on:
            raise UsageError(f"{path}:{line_no}: repeated config key {key!r} "
                             f"(first set on line {set_on[key]})")
        set_on[key] = line_no
        cls, default = defaults[key]
        try:
            sections[cls][key] = _coerce(value, default)
        except ValueError as exc:
            raise UsageError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
    return (ReCatConfig.from_dict(sections[ReCatConfig]),
            TrainConfig.from_dict(sections[TrainConfig]))


def blob_sha1(path: str) -> str:
    """Git-style blob hash of a file's contents."""
    with open(path, "rb") as fh:
        data = fh.read()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@contextmanager
def _output(path: str, directory: bool = False):
    """Create the output `path` (a file, or a directory) before the work, so
    a path that cannot be written fails in milliseconds, not after the work.
    If the work then fails, a file this run created is removed, as is a
    directory it created that is still empty; an existing file is left as
    it was (opening it to append writes nothing)."""
    existed = os.path.lexists(path)
    if directory:
        os.makedirs(path, exist_ok=True)
    else:
        open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if not existed:
            with suppress(OSError):
                (os.rmdir if directory else os.remove)(path)
        raise


def _cmd_pretrain(args) -> int:
    with _output(args.out, directory=True):
        if args.resume:  # the checkpoint's configs and vocabulary govern a resumed run
            if args.config or args.vocab:
                raise UsageError("pretrain --resume takes no --config or --vocab")
        elif args.config and args.vocab:
            mcfg, tcfg = parse_config_file(args.config)
            vocab = Vocab.from_file(args.vocab)
            if mcfg.vocab_size != len(vocab):
                raise ValueError(f"config vocab_size {mcfg.vocab_size} does not match "
                                 f"vocabulary size {len(vocab)}")
            model = ChartLM(mcfg, np.random.default_rng(tcfg.seed))
        else:
            raise UsageError("pretrain needs --config and --vocab (or --resume)")
        numbered = list(numbered_sentences(args.corpus))
        corpus = [tokens for _, tokens in numbered]
        try:
            trainer = (Trainer.resume(args.resume, corpus, out_dir=args.out) if args.resume
                       else Trainer(model, tcfg, corpus, vocab, out_dir=args.out))
        except SentenceError as exc:
            raise ValueError(f"{args.corpus}:{numbered[exc.index][0]}: {exc.reason}") from None

        manifest = {
            "command": "pretrain",
            "seed": trainer.cfg.seed,
            "config": {"model": trainer.model.cfg.to_dict(),
                       "train": trainer.cfg.to_dict()},
            "inputs": {os.path.abspath(p): blob_sha1(p)
                       for p in (args.corpus, args.vocab, args.config, args.resume) if p},
            "layout": {"checkpoint": CHECKPOINT_FILE, "metrics": METRICS_FILE,
                       "manifest": "manifest.json"},
        }
        replace_file(os.path.join(args.out, "manifest.json"),
                     [(json.dumps(manifest, indent=2) + "\n").encode("utf-8")])

    records = trainer.train()
    if records:
        last = records[-1]
        print(f"trained {trainer.step} steps; final mlm_loss {last['mlm_loss']:.4f} "
              f"parser_loss {last['parser_loss']:.4f}")
    else:
        print(f"nothing to do: checkpoint already at step {trainer.step}")
    return 0


def _cmd_parse(args) -> int:
    with _output(args.out), no_grad():
        model, vocab, _ = load_model(args.ckpt)
        sentences = list(numbered_sentences(args.input))
        forward = model.fast_encode if args.mode == "fast" else model.forward_pretrain
        trees = []
        for line_no, tokens in sentences:
            try:
                out = forward(vocab.encode(tokens), forbidden=forbidden_boundaries(tokens),
                              token_strs=tokens)
            except ValueError as exc:  # unknown token or over-long sentence
                raise ValueError(f"{args.input}:{line_no}: {exc}") from None
            trees.append(out.tree)
        write_tree_file(args.out, trees)
    print(f"wrote {len(trees)} trees to {args.out}")
    return 0


def _cmd_eval_f1(args) -> int:
    pred, gold = list(numbered_trees(args.pred)), list(numbered_trees(args.gold))
    if len(pred) != len(gold):
        raise ValueError(f"{len(pred)} predicted trees in {args.pred} vs "
                         f"{len(gold)} gold trees in {args.gold}")
    try:
        f1, recalls = corpus_scores([tree for _, tree in pred], [tree for _, tree in gold])
    except PairError as exc:  # the pair is not the same sentence
        raise ValueError(f"{args.pred}:{pred[exc.index][0]} vs "
                         f"{args.gold}:{gold[exc.index][0]}: {exc.reason}") from None
    print(f"F1 {f1:.2f}")
    for label, recall in recalls.items():
        if label != "X":
            print(f"{label} {recall:.2f}")
    return 0


def _cmd_export_trees(args) -> int:
    rng = np.random.default_rng(args.seed)
    builders = {"random": lambda toks: random_binary(toks, rng),
                "left": left_branching, "right": right_branching}
    build = builders[args.baseline]
    with _output(args.out):
        trees = [build(tokens) for tokens in read_corpus(args.input)]
        write_tree_file(args.out, trees)
    print(f"wrote {len(trees)} {args.baseline}-baseline trees to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    mcfg, tcfg = parse_config_file(args.config)
    mcfg.dtype = "float64"  # finite differences need the headroom
    mcfg.validate()
    rng = np.random.default_rng(tcfg.seed)
    model = ChartLM(mcfg, rng)
    for p in model.parameters():  # move zero-initialized taps off the origin
        if not np.abs(p.data).sum():
            p.data = rng.standard_normal(p.data.shape) * 0.05

    n = 5
    sentence = rng.integers(0, mcfg.vocab_size, size=n)
    masked = sentence.copy()
    positions = np.array([1, 3])
    targets = sentence[positions]
    masked[positions] = rng.integers(0, mcfg.vocab_size, size=2)

    def build_loss(forward):
        out = forward(sentence, masked=masked, target_positions=positions, target_ids=targets)
        return out.parser_loss + out.mlm_loss

    worst = 0.0
    for mode, forward in (("full", model.forward_pretrain), ("fast", model.fast_encode)):
        report = gradient_check(partial(build_loss, forward), model.parameters(), rng,
                                samples_per_param=3)
        name = max(report, key=report.get)
        print(f"{mode} mode: max relative error {report[name]:.3e} ({name})")
        worst = max(worst, report[name])
    if worst >= 1e-3:
        print("gradcheck FAILED", file=sys.stderr)
        return 3
    print("gradcheck passed")
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="chartlm",
                                  description="chart language model toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run masked pretraining")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("parse", help="write induced trees for a token file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["full", "fast"], default="full")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval-f1", help="bracket F1 and per-label recall")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(func=_cmd_eval_f1)

    p = sub.add_parser("export-trees", help="baseline trees for a token file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--baseline", choices=["random", "left", "right"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_export_trees)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_gradcheck)

    return top


def dispatch(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles its own usage printing
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that exists but cannot be opened as asked
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
