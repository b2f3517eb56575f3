"""End-to-end command tests: exit codes, files produced, stdout contracts."""

import argparse
import json
import os
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chartlm import autodiff as ad
from chartlm import cli
from chartlm.autodiff import Tensor
from chartlm.checkpoint import load_checkpoint, save_checkpoint
from chartlm.cli import _build_parser, dispatch, parse_config_file
from chartlm.model import ChartLM, ReCatConfig
from chartlm.training import TrainConfig, Trainer, Vocab
from chartlm.trees import format_sexpr, left_branching, numbered_trees

MODEL_CFG = """\
layers = 1
compose_depth = 1
transformer_depth = 1
d = 8
heads = 2
vocab_size = 12
m = 2
parser_dim = 6
parser_hidden = 6
dtype = float64
"""

TRAIN_CFG = """\
epochs = 1
batch_tokens = 8
max_steps = 2
seed = 0
"""


def _config_with(line):
    """The test config with `line` in place of the line that sets its key."""
    key = line.split("=")[0].strip()
    kept = [ln for ln in (MODEL_CFG + TRAIN_CFG).splitlines(keepends=True)
            if ln.split("=")[0].strip() != key]
    return "".join(kept) + line + "\n"


@pytest.fixture
def workdir(tmp_path):
    words = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"]
    (tmp_path / "vocab.txt").write_text(
        "[MASK] 0\n" + "".join(f"{w} {i + 1}\n" for i, w in enumerate(words)))
    (tmp_path / "corpus.txt").write_text(
        "a b c d\nb c a\nd e c b a\na\nc d b\n")
    (tmp_path / "config.txt").write_text(MODEL_CFG + TRAIN_CFG)
    return tmp_path


def _p(tmp_path, name):
    return str(tmp_path / name)


# ---------------------------------------------------------------------------
# dispatch and config plumbing
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "chartlm" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_missing_file_is_usage_error(tmp_path, capsys):
    rc = dispatch(["parse", "--ckpt", _p(tmp_path, "none.ckpt"),
                   "--input", _p(tmp_path, "none.txt"),
                   "--out", _p(tmp_path, "o.txt")])
    assert rc == 2
    assert "missing file" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad", [
    (["parse", "--ckpt", "sub", "--input", "corpus.txt", "--out", "o.txt"], "sub"),
    (["export-trees", "--input", "sub", "--out", "o.txt", "--baseline", "left"], "sub"),
    (["export-trees", "--input", "corpus.txt", "--out", "sub", "--baseline", "left"], "sub"),
    (["eval-f1", "--pred", "sub", "--gold", "gold.txt"], "sub"),
    (["pretrain", "--corpus", "corpus.txt", "--vocab", "vocab.txt", "--config", "config.txt",
      "--out", "taken.txt"], "taken.txt"),
], ids=["parse_ckpt_dir", "export_input_dir", "export_out_dir", "eval_pred_dir",
        "pretrain_out_file"])
def test_a_path_that_cannot_be_opened_is_usage_error(workdir, capsys, argv, bad):
    (workdir / "sub").mkdir()
    (workdir / "gold.txt").write_text("(a b)\n")
    (workdir / "taken.txt").write_text("")
    names = {"sub", "corpus.txt", "vocab.txt", "config.txt", "o.txt", "gold.txt", "taken.txt"}
    assert dispatch([_p(workdir, a) if a in names else a for a in argv]) == 2
    assert f"error: {_p(workdir, bad)}: " in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("work done before the output was checked")


@pytest.mark.parametrize("command", ["parse", "export-trees"])
def test_an_unwritable_out_fails_before_any_work(workdir, capsys, monkeypatch, command):
    ckpt = _untrained_ckpt(workdir)
    for method in ("forward_pretrain", "fast_encode"):
        monkeypatch.setattr(ChartLM, method, _never)
    monkeypatch.setattr(cli, "numbered_sentences", _never)
    monkeypatch.setattr(cli, "read_corpus", _never)
    (workdir / "outdir").mkdir()
    argv = {"parse": ["parse", "--ckpt", ckpt],
            "export-trees": ["export-trees", "--baseline", "right"]}[command]
    rc = dispatch(argv + ["--input", _p(workdir, "corpus.txt"), "--out", _p(workdir, "outdir")])
    assert rc == 2
    assert f"error: {_p(workdir, 'outdir')}: Is a directory" in capsys.readouterr().err


def test_pretrain_makes_out_before_building_the_trainer(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "Trainer", _never)
    monkeypatch.setattr(cli, "numbered_sentences", _never)
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"),
                   "--vocab", _p(workdir, "vocab.txt"), "--config", _p(workdir, "config.txt"),
                   "--out", _p(workdir, "corpus.txt/run")])
    assert rc == 2
    assert f"error: {_p(workdir, 'corpus.txt/run')}: Not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("existed", [True, False], ids=["existing", "new"])
def test_a_failed_parse_leaves_out_as_it_was(workdir, capsys, existed):
    (workdir / "bad.txt").write_text("a b\nzebra\n")
    out = workdir / "trees.txt"
    if existed:
        out.write_text("(old tree)\n")
    rc = dispatch(["parse", "--ckpt", _untrained_ckpt(workdir), "--input",
                   _p(workdir, "bad.txt"), "--out", str(out)])
    assert rc == 3
    assert "unknown token 'zebra'" in capsys.readouterr().err
    if existed:
        assert out.read_text() == "(old tree)\n"
    else:
        assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_documents_exactly_the_cli_subcommands():
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    documented = {cmd for block in blocks
                  for cmd in re.findall(r"^chartlm ([\w-]+)", block, flags=re.M)}
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def test_readme_settings_table_lists_every_config_field_with_its_default(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n## Settings\n", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section.split("\n## ", 1)[0], flags=re.M)
    assert sorted(key for key, _ in rows) == sorted(
        f.name for cls in (ReCatConfig, TrainConfig) for f in fields(cls))
    path = tmp_path / "defaults.txt"
    path.write_text("".join(f"{key} = {default}\n" for key, default in rows))
    assert parse_config_file(str(path)) == (ReCatConfig(), TrainConfig())


def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("d = 16  # comment\nheads = 4\n\nepochs = 7\nphase = fast\n")
    mcfg, tcfg = parse_config_file(str(path))
    assert mcfg.d == 16 and mcfg.heads == 4
    assert tcfg.epochs == 7 and tcfg.phase == "fast"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("bogus = 1\n")
    rc = dispatch(["gradcheck", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_retired_config_key_in_a_file_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("d = 8\ntie_mlm = true\n")
    assert dispatch(["gradcheck", "--config", str(cfg)]) == 2
    assert f"error: {cfg}:2: unknown config key 'tie_mlm'" in capsys.readouterr().err


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("d = banana\n")
    assert dispatch(["gradcheck", "--config", str(cfg)]) == 2
    assert "bad value for d" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gradcheck", "pretrain"])
@pytest.mark.parametrize("line, message", [
    (b"# caf\xe9\n", "not UTF-8"),
    (b"d = 16\n", "repeated config key 'd' (first set on line 4)"),
], ids=["not_utf8", "repeated_key"])
def test_bad_config_line_is_usage_error(workdir, capsys, command, line, message):
    cfg = workdir / "c.txt"
    cfg.write_bytes((MODEL_CFG + TRAIN_CFG).encode() + line)
    argv = ["gradcheck", "--config", str(cfg)] if command == "gradcheck" else [
        "pretrain", "--corpus", _p(workdir, "corpus.txt"), "--vocab", _p(workdir, "vocab.txt"),
        "--config", str(cfg), "--out", _p(workdir, "run")]
    assert dispatch(argv) == 2
    assert f"error: {cfg}:15: {message}" in capsys.readouterr().err


def test_invalid_config_combination_is_numeric_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("d = 10\nheads = 4\n")  # not divisible
    assert dispatch(["gradcheck", "--config", str(cfg)]) == 3


# ---------------------------------------------------------------------------
# pretrain / parse / eval round trip
# ---------------------------------------------------------------------------

def test_pretrain_parse_eval_roundtrip(workdir, capsys):
    out = _p(workdir, "run")
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"),
                   "--vocab", _p(workdir, "vocab.txt"),
                   "--config", _p(workdir, "config.txt"), "--out", out])
    assert rc == 0
    assert "trained 2 steps" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "model.ckpt"))

    metrics = [json.loads(l) for l in Path(out, "metrics.jsonl").read_text().splitlines()]
    assert [m["step"] for m in metrics] == [0, 1]

    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["command"] == "pretrain"
    assert manifest["config"]["model"]["d"] == 8
    assert len(manifest["inputs"]) == 3  # corpus, vocab, config hashes

    # resume against the finished checkpoint has nothing left to do
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"),
                   "--resume", os.path.join(out, "model.ckpt"),
                   "--out", _p(workdir, "run2")])
    assert rc == 0
    assert "nothing to do" in capsys.readouterr().out

    # parse the corpus with the trained model, both chart modes
    for mode in ("full", "fast"):
        tree_path = _p(workdir, f"trees_{mode}.txt")
        rc = dispatch(["parse", "--ckpt", os.path.join(out, "model.ckpt"),
                       "--input", _p(workdir, "corpus.txt"),
                       "--mode", mode, "--out", tree_path])
        assert rc == 0
        trees = [tree for _, tree in numbered_trees(tree_path)]
        assert len(trees) == 5
        assert format_sexpr(trees[3]) == "(a)"  # single-token line

    # predicted against themselves: perfect score
    capsys.readouterr()
    rc = dispatch(["eval-f1", "--pred", _p(workdir, "trees_full.txt"),
                   "--gold", _p(workdir, "trees_full.txt")])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "F1 100.00"


def test_pretrain_without_config_is_usage_error(workdir, capsys):
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"),
                   "--out", _p(workdir, "run")])
    assert rc == 2
    assert "needs --config" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--seed", "1", "--vocab", "vocab.txt", "--config", "config.txt"],
    ["--resume", "short.ckpt", "--config", "config.txt"],
    ["--resume", "short.ckpt", "--vocab", "vocab.txt"],
], ids=["seed", "resume_config", "resume_vocab"])
def test_pretrain_takes_each_setting_from_one_source(workdir, flags):
    _untrained_ckpt(workdir)  # short.ckpt
    out = workdir / "run"
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"), "--out", str(out),
                   *(_p(workdir, f) if f.endswith((".ckpt", ".txt")) else f for f in flags)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("dtype = foo", "dtype must be float32 or float64, got 'foo'"),
    ("dtype = int64", "dtype must be float32 or float64, got 'int64'"),
    ("max_steps = -1", "max_steps must be >= 0"),
    ("checkpoint_every = -1", "checkpoint_every must be >= 0"),
    ("seed = -1", "seed must be >= 0"),
    ("lr_model = nan", "lr_model must be finite and >= 0"),
    ("lr_parser = inf", "lr_parser must be finite and >= 0"),
    ("weight_decay = nan", "weight_decay must be finite and >= 0"),
], ids=["dtype_foo", "dtype_int64", "max_steps", "checkpoint_every", "seed", "lr_model",
        "lr_parser", "weight_decay"])
def test_pretrain_rejects_a_bad_setting_before_any_work(workdir, capsys, line, message):
    cfg = workdir / "bad.txt"
    cfg.write_text(_config_with(line))
    out = workdir / "run"
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"),
                   "--vocab", _p(workdir, "vocab.txt"), "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_pretrain_vocab_size_mismatch(workdir, capsys):
    cfg = workdir / "bad.txt"
    cfg.write_text(MODEL_CFG.replace("vocab_size = 12", "vocab_size = 13") + TRAIN_CFG)
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"),
                   "--vocab", _p(workdir, "vocab.txt"),
                   "--config", str(cfg), "--out", _p(workdir, "run")])
    assert rc == 3
    assert "does not match" in capsys.readouterr().err


def test_pretrain_non_finite_gradient_is_numeric_error(workdir, capsys, monkeypatch):
    models = []
    init, backward = ChartLM.__init__, Tensor.backward

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        models.append(self)

    def poisoned_backward(self, seed=None):
        backward(self, seed)
        models[-1].mlm_bias.grad[0] = np.inf

    monkeypatch.setattr(ChartLM, "__init__", recording_init)
    monkeypatch.setattr(Tensor, "backward", poisoned_backward)
    out = _p(workdir, "run")
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"),
                   "--vocab", _p(workdir, "vocab.txt"),
                   "--config", _p(workdir, "config.txt"), "--out", out])
    assert rc == 3
    assert "non-finite gradient for mlm.bias at step 0" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "model.ckpt"))


def _untrained_ckpt(workdir):
    """A checkpoint of a fresh model with max_len = 4."""
    cfg = workdir / "short.txt"
    cfg.write_text(MODEL_CFG + "max_len = 4\n" + TRAIN_CFG)
    mcfg, tcfg = parse_config_file(str(cfg))
    vocab = Vocab.from_file(_p(workdir, "vocab.txt"))
    path = _p(workdir, "short.ckpt")
    Trainer(ChartLM(mcfg, np.random.default_rng(0)), tcfg, [["a"]], vocab).save(path)
    return path


@pytest.mark.parametrize("mode", ["full", "fast"])
@pytest.mark.parametrize("bad_line, message", [
    ("a zebra b", "unknown token 'zebra'"),
    ("a b c d e", "sentence length 5 exceeds configured max 4"),
], ids=["unknown_token", "too_long"])
def test_parse_names_the_bad_input_line(workdir, capsys, bad_line, message, mode):
    inp = workdir / "in.txt"
    inp.write_text(f"a b\n\n{bad_line}\nc d\n")  # the blank line still counts
    rc = dispatch(["parse", "--ckpt", _untrained_ckpt(workdir), "--input", str(inp),
                   "--mode", mode, "--out", _p(workdir, "trees.txt")])
    assert rc == 3
    assert f"error: {inp}:3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_pretrain_names_the_unknown_token_line(workdir, capsys, resume):
    corpus = workdir / "zz.txt"
    corpus.write_text("a b\n\nc zz d\n")  # the blank line still counts
    source = (["--resume", _untrained_ckpt(workdir)] if resume else
              ["--vocab", _p(workdir, "vocab.txt"), "--config", _p(workdir, "config.txt")])
    rc = dispatch(["pretrain", "--corpus", str(corpus), *source, "--out", _p(workdir, "run")])
    assert rc == 3
    assert f"error: {corpus}:3: unknown token 'zz'" in capsys.readouterr().err


@pytest.mark.parametrize("limit, message", [
    ("max_len = 4", "sentence length 6 exceeds configured max 4"),
    ("batch_tokens = 5", "sentence has 6 tokens, over the batch budget 5"),
], ids=["max_len", "batch_tokens"])
def test_pretrain_rejects_an_over_long_line_before_any_work(workdir, capsys, limit, message):
    corpus = workdir / "corpus.txt"
    corpus.write_text("a b c\n\na b c d e f\n")  # the blank line still counts
    cfg = workdir / "limited.txt"
    cfg.write_text(_config_with(limit))
    out = workdir / "run"
    rc = dispatch(["pretrain", "--corpus", str(corpus), "--vocab", _p(workdir, "vocab.txt"),
                   "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    assert f"error: {corpus}:3: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_pretrain_rejects_a_line_that_is_one_word_before_any_work(workdir, capsys, resume):
    vocab = workdir / "pieces.txt"
    vocab.write_text((workdir / "vocab.txt").read_text().replace("k 11", "##b 11"))
    corpus = workdir / "corpus.txt"
    corpus.write_text("a b\n\na ##b\n")  # the blank line still counts
    if resume:
        mcfg, tcfg = parse_config_file(_p(workdir, "config.txt"))
        ckpt = _p(workdir, "pieces.ckpt")
        Trainer(ChartLM(mcfg, np.random.default_rng(0)), tcfg, [["a"]],
                Vocab.from_file(str(vocab))).save(ckpt)
        source = ["--resume", ckpt]
    else:
        source = ["--vocab", str(vocab), "--config", _p(workdir, "config.txt")]
    out = workdir / "run"
    rc = dispatch(["pretrain", "--corpus", str(corpus), *source, "--out", str(out)])
    assert rc == 3
    assert (f"error: {corpus}:3: no admissible tree: every boundary is non-splittable"
            in capsys.readouterr().err)
    assert not (out / "manifest.json").exists()


def test_pretrain_resume_checks_lines_against_the_checkpoint_config(workdir, capsys):
    corpus = workdir / "corpus.txt"
    corpus.write_text("a b c\n\na b c d e f\n")
    rc = dispatch(["pretrain", "--corpus", str(corpus), "--resume", _untrained_ckpt(workdir),
                   "--out", _p(workdir, "run")])
    assert rc == 3
    assert (f"error: {corpus}:3: sentence length 6 exceeds configured max 4"
            in capsys.readouterr().err)


def _finished_run(workdir):
    """A two-step pretrain run; returns its checkpoint and metrics paths."""
    out = _p(workdir, "run")
    assert dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"),
                     "--vocab", _p(workdir, "vocab.txt"),
                     "--config", _p(workdir, "config.txt"), "--out", out]) == 0
    return os.path.join(out, "model.ckpt"), os.path.join(out, "metrics.jsonl")


@pytest.mark.parametrize("bad_line, message", [
    ("not json", "not a JSON record"),
    ('{"loss": 1}', "record has no integer 'step'"),
    ("[" * 200000 + "]" * 200000, "not a JSON record"),
    ('{"step": 0, "x": "\udcff"}', "not UTF-8"),  # writes the raw byte 0xff
], ids=["not_json", "no_step", "too_deep", "not_utf8"])
def test_resume_names_the_bad_metrics_line(workdir, capsys, bad_line, message):
    ckpt, metrics = _finished_run(workdir)
    with open(metrics, "a", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(bad_line + "\n")
    capsys.readouterr()
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"), "--resume", ckpt,
                   "--out", os.path.dirname(ckpt)])
    assert rc == 3
    assert f"error: {metrics}:3: {message}" in capsys.readouterr().err


def test_resume_drops_a_torn_last_metrics_line(workdir, capsys):
    ckpt, metrics = _finished_run(workdir)
    with open(metrics, "a", encoding="utf-8") as fh:
        fh.write('{"step": 2, "mlm')  # a write cut short: no newline
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"), "--resume", ckpt,
                   "--out", os.path.dirname(ckpt)])
    assert rc == 0
    assert [json.loads(l)["step"] for l in Path(metrics).read_text().splitlines()] == [0, 1]


def test_pretrain_names_the_bad_vocabulary_line(workdir, capsys):
    vocab = workdir / "bad_vocab.txt"
    vocab.write_text("[MASK] 0\na x\n")
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"), "--vocab", str(vocab),
                   "--config", _p(workdir, "config.txt"), "--out", _p(workdir, "run")])
    assert rc == 3
    assert f"error: {vocab}:2: expected 'token id'" in capsys.readouterr().err


@pytest.mark.parametrize("text, where, message", [
    ("[MASK] 0\na 1\nb 3\n", "", "vocabulary ids must be dense, starting at 0"),
    ("[MASK] 0\na 1\nb 2\na 3\n", ":4", "duplicate token 'a'"),
], ids=["sparse_ids", "duplicate_token"])
def test_pretrain_names_the_bad_vocabulary_file(workdir, capsys, text, where, message):
    vocab = workdir / "bad_vocab.txt"
    vocab.write_text(text)
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "corpus.txt"), "--vocab", str(vocab),
                   "--config", _p(workdir, "config.txt"), "--out", _p(workdir, "run")])
    assert rc == 3
    assert f"error: {vocab}{where}: {message}" in capsys.readouterr().err


def test_pretrain_without_a_mask_token_fails_before_writing(workdir, capsys):
    (workdir / "abc.txt").write_text("a 0\nb 1\nc 2\n")
    cfg = workdir / "abc_config.txt"
    cfg.write_text(MODEL_CFG.replace("vocab_size = 12", "vocab_size = 3") + TRAIN_CFG)
    (workdir / "abc_corpus.txt").write_text("a b c\n")
    out = workdir / "run"
    rc = dispatch(["pretrain", "--corpus", _p(workdir, "abc_corpus.txt"),
                   "--vocab", _p(workdir, "abc.txt"), "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    assert (f"error: {workdir / 'abc.txt'}: vocabulary has no [MASK] token"
            in capsys.readouterr().err)
    assert not (out / "manifest.json").exists()
    assert not (out / "metrics.jsonl").exists()


def test_parse_truncated_checkpoint_is_numeric_error(workdir, capsys):
    cut = workdir / "cut.ckpt"
    cut.write_bytes(Path(_untrained_ckpt(workdir)).read_bytes()[:9])
    rc = dispatch(["parse", "--ckpt", str(cut), "--input", _p(workdir, "corpus.txt"),
                   "--out", _p(workdir, "trees.txt")])
    assert rc == 3
    assert "truncated checkpoint" in capsys.readouterr().err


def test_parse_malformed_checkpoint_header_is_numeric_error(workdir, capsys):
    header = json.dumps({"tensors": [{"name": "w"}], "config": {}, "extra": {}}).encode()
    bad = workdir / "bad.ckpt"
    bad.write_bytes(b"CLMC" + struct.pack("<IQ", 1, len(header)) + header)
    rc = dispatch(["parse", "--ckpt", str(bad), "--input", _p(workdir, "corpus.txt"),
                   "--out", _p(workdir, "trees.txt")])
    assert rc == 3
    assert "malformed checkpoint header" in capsys.readouterr().err


def test_parse_deeply_nested_checkpoint_header_is_numeric_error(workdir, capsys):
    header = b"[" * 200000 + b"]" * 200000
    bad = workdir / "deep.ckpt"
    bad.write_bytes(b"CLMC" + struct.pack("<IQ", 1, len(header)) + header)
    rc = dispatch(["parse", "--ckpt", str(bad), "--input", _p(workdir, "corpus.txt"),
                   "--out", _p(workdir, "trees.txt")])
    assert rc == 3
    assert "malformed checkpoint header: JSON nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ({"shape": [], "dtype": "<f4", "nbytes": 10 ** 13}, "truncated checkpoint at tensor w"),
    ({"shape": [2], "dtype": ",f4", "nbytes": 8}, "unknown dtype ',f4' for tensor w"),
], ids=["nbytes", "dtype"])
def test_parse_checkpoint_header_that_lies_is_numeric_error(workdir, capsys, entry, message):
    header = json.dumps({"tensors": [{"name": "w", **entry}], "config": {},
                         "extra": {}}).encode()
    bad = workdir / "lie.ckpt"
    bad.write_bytes(b"CLMC" + struct.pack("<IQ", 1, len(header)) + header + b"\0" * 8)
    rc = dispatch(["parse", "--ckpt", str(bad), "--input", _p(workdir, "corpus.txt"),
                   "--out", _p(workdir, "trees.txt")])
    assert rc == 3
    assert message in capsys.readouterr().err


CHECKPOINT_FIELDS = [  # (where in the header, key, bad value or None to drop it, message)
    (("config",), "model", None, "checkpoint field model is missing"),
    (("extra",), "vocab", None, "checkpoint field vocab is missing"),
    (("extra",), "vocab", "abc", "checkpoint field vocab is missing or not a valid list"),
    (("extra",), "vocab", ["t"] * 13, "checkpoint vocab has 13 tokens, over vocab_size 12"),
    (("config", "model"), "d", "8", "config key d: expected int, got '8'"),
    (("config", "model"), "tie_mlm", False, "retired config key tie_mlm"),
]
RESUME_FIELDS = [  # read by a resume only
    (("config",), "train", None, "checkpoint field train is missing"),
    (("config", "train"), "seed", True, "config key seed: expected int, got True"),
    (("extra",), "step", None, "checkpoint field step is missing"),
    (("extra",), "step", -1, "checkpoint field step is missing or not a valid int"),
    (("extra",), "opt_model_t", None, "checkpoint field opt_model_t is missing"),
    (("extra",), "opt_parser_t", "2", "checkpoint field opt_parser_t is missing"),
]


METADATA_CASES = ([("parse", *case) for case in CHECKPOINT_FIELDS]
                  + [("resume", *case) for case in CHECKPOINT_FIELDS + RESUME_FIELDS])


def _dispatch_on_altered_checkpoint(workdir, command, where, key, value):
    """Run `parse` or `pretrain --resume` on a checkpoint whose header entry
    `where` + `key` is set to `value` (dropped when None); returns the exit
    code and the run's output path."""
    ckpt = _untrained_ckpt(workdir)
    tensors, config, extra = load_checkpoint(ckpt)
    record = {"config": config, "extra": extra}[where[0]]
    for part in where[1:]:
        record = record[part]
    if value is None:
        del record[key]
    else:
        record[key] = value
    save_checkpoint(ckpt, tensors, config, extra)
    out, corpus = _p(workdir, "run"), workdir / "fits.txt"
    corpus.write_text("a b c\nb c a\n")  # within the checkpoint's max_len
    argv = {"parse": ["parse", "--ckpt", ckpt, "--input", str(corpus), "--out", out],
            "resume": ["pretrain", "--resume", ckpt, "--corpus", str(corpus), "--out", out]}
    return dispatch(argv[command]), out


@pytest.mark.parametrize("command, where, key, value, message", METADATA_CASES,
                         ids=[f"{command}-{key}-{'dropped' if value is None else type(value).__name__}"
                              for command, _, key, value, _ in METADATA_CASES])
def test_bad_checkpoint_metadata_is_numeric_error(workdir, capsys, command, where, key,
                                                  value, message):
    rc, out = _dispatch_on_altered_checkpoint(workdir, command, where, key, value)
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, tokens, message", [
    ("parse", ["[MASK]", "a", "b", "a"], "duplicate token 'a' in vocabulary"),
    ("resume", ["[MASK]", "a", "b", "a"], "duplicate token 'a' in vocabulary"),
    ("resume", ["a", "b", "c"], "vocabulary has no [MASK] token"),
], ids=["parse-duplicate", "resume-duplicate", "resume-no_mask"])
def test_bad_checkpoint_vocabulary_names_the_field(workdir, capsys, command, tokens, message):
    rc, out = _dispatch_on_altered_checkpoint(workdir, command, ("extra",), "vocab", tokens)
    assert rc == 3
    assert f"error: checkpoint field vocab: {message}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_parse_rejects_a_big_endian_tensor(workdir, capsys):
    ckpt = _untrained_ckpt(workdir)
    raw = Path(ckpt).read_bytes()
    with open(ckpt, "wb") as fh:  # one flipped bit: '<' is 0x3c, '>' is 0x3e
        fh.write(raw.replace(b'"dtype": "<f8"', b'"dtype": ">f8"', 1))
    out = _p(workdir, "trees.txt")
    rc = dispatch(["parse", "--ckpt", ckpt, "--input", _p(workdir, "corpus.txt"),
                   "--out", out])
    assert rc == 3
    assert "error: big-endian dtype '>f8' for tensor " in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# baselines and scoring
# ---------------------------------------------------------------------------

def test_export_trees_baselines(workdir):
    for baseline, third_line in (("left", "(X (X c d) b)"),
                                 ("right", "(X c (X d b))")):
        path = _p(workdir, f"{baseline}.txt")
        rc = dispatch(["export-trees", "--input", _p(workdir, "corpus.txt"),
                       "--out", path, "--baseline", baseline])
        assert rc == 0
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 5
        assert lines[3] == "(a)"
        assert lines[4] == third_line


def test_export_random_trees_deterministic(workdir):
    a, b = _p(workdir, "r1.txt"), _p(workdir, "r2.txt")
    for path in (a, b):
        rc = dispatch(["export-trees", "--input", _p(workdir, "corpus.txt"),
                       "--out", path, "--baseline", "random", "--seed", "5"])
        assert rc == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_eval_f1_on_a_deep_tree(workdir, capsys):
    # 1500 tokens, left-branching: the tree is as deep as the sentence is long
    path = workdir / "deep.txt"
    path.write_text(format_sexpr(left_branching([f"w{i}" for i in range(1500)])) + "\n")
    assert dispatch(["eval-f1", "--pred", str(path), "--gold", str(path)]) == 0
    assert "F1 100.00" in capsys.readouterr().out


def test_eval_f1_names_the_bad_tree_line(workdir, capsys):
    pred = workdir / "pred.txt"
    pred.write_text("(X a b)\n\n(X (X a b) c\n")
    assert dispatch(["eval-f1", "--pred", str(pred), "--gold", str(pred)]) == 3
    assert f"error: {pred}:3: unbalanced tree string" in capsys.readouterr().err


def test_eval_f1_collapses_a_piece_level_prediction(workdir, capsys):
    pred = workdir / "pred.txt"
    pred.write_text("(X (X play ##ing) (X the (X gui ##tar)))\n")
    gold = workdir / "gold.txt"
    gold.write_text("(X playing (X the guitar))\n")
    assert dispatch(["eval-f1", "--pred", str(pred), "--gold", str(gold)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "F1 100.00"


def test_eval_f1_mismatched_trees(workdir, capsys):
    left, right = _p(workdir, "l.txt"), _p(workdir, "r.txt")
    dispatch(["export-trees", "--input", _p(workdir, "corpus.txt"),
              "--out", left, "--baseline", "left"])
    short = workdir / "short.txt"
    short.write_text("a b\n")
    dispatch(["export-trees", "--input", str(short), "--out", right,
              "--baseline", "left"])
    capsys.readouterr()
    assert dispatch(["eval-f1", "--pred", left, "--gold", right]) == 3


def test_eval_f1_names_both_lines_of_a_pair_that_differs_in_length(workdir, capsys):
    pred = workdir / "pred.txt"
    pred.write_text("(X a b)\n\n(X a b)\n")
    gold = workdir / "gold.txt"
    gold.write_text("(X a b)\n(X a (X b c))\n")
    assert dispatch(["eval-f1", "--pred", str(pred), "--gold", str(gold)]) == 3
    assert capsys.readouterr().err == (f"error: {pred}:3 vs {gold}:2: length mismatch: "
                                       "pred has 2 words, gold has 3\n")


def test_eval_f1_names_both_files_of_a_tree_count_mismatch(workdir, capsys):
    pred = workdir / "pred.txt"
    pred.write_text("(X a b)\n(X a b)\n")
    gold = workdir / "gold.txt"
    gold.write_text("(X a b)\n(X a b)\n(X a b)\n")
    assert dispatch(["eval-f1", "--pred", str(pred), "--gold", str(gold)]) == 3
    assert capsys.readouterr().err == (f"error: 2 predicted trees in {pred} vs "
                                       f"3 gold trees in {gold}\n")


def test_eval_f1_reports_label_recall(workdir, capsys):
    gold = workdir / "gold.txt"
    gold.write_text("(S (NP a b) (VP c (NP d e)))\n")
    pred = workdir / "pred.txt"
    pred.write_text("(X (X a b) (X c (X d e)))\n")
    assert dispatch(["eval-f1", "--pred", str(pred), "--gold", str(gold)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "F1 100.00"
    assert "NP 100.00" in out and "VP 100.00" in out
    assert not any(line.startswith("X ") for line in out)


@pytest.mark.parametrize("command, flag, good", [
    ("pretrain", "--vocab", "a 0\n"),
    ("pretrain", "--corpus", "a b\n"),
    ("parse", "--input", "a b\n"),
    ("export-trees", "--input", "a b\n"),
    ("eval-f1", "--pred", "(X a b)\n"),
], ids=["pretrain-vocab", "pretrain-corpus", "parse", "export-trees", "eval-f1"])
def test_undecodable_input_line_names_its_path_and_line(workdir, capsys, command, flag, good):
    bad = workdir / "bad.txt"
    bad.write_bytes(good.encode() + b"\n" + good.encode().replace(b"a", b"\xff", 1))  # line 3
    args = {
        "pretrain": ["--corpus", _p(workdir, "corpus.txt"), "--vocab", _p(workdir, "vocab.txt"),
                     "--config", _p(workdir, "config.txt"), "--out", _p(workdir, "run")],
        "parse": ["--ckpt", _untrained_ckpt(workdir), "--input", _p(workdir, "corpus.txt"),
                  "--out", _p(workdir, "trees.txt")],
        "export-trees": ["--input", _p(workdir, "corpus.txt"), "--out", _p(workdir, "t.txt"),
                         "--baseline", "left"],
        "eval-f1": ["--pred", _p(workdir, "corpus.txt"), "--gold", _p(workdir, "corpus.txt")],
    }[command]
    args[args.index(flag) + 1] = str(bad)
    assert dispatch([command, *args]) == 3
    assert f"error: {bad}:3: not UTF-8" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_passes_on_small_config(workdir, capsys):
    rc = dispatch(["gradcheck", "--config", _p(workdir, "config.txt")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "full mode: max relative error" in out
    assert "fast mode: max relative error" in out
    assert "gradcheck passed" in out


def test_gradcheck_takes_its_seed_from_the_config(workdir):
    assert dispatch(["gradcheck", "--config", _p(workdir, "config.txt"), "--seed", "0"]) == 2


def test_gradcheck_fails_on_a_wrong_fast_mode_gradient(workdir, capsys, monkeypatch):
    fast_encode = ChartLM.fast_encode

    def doubled_mlm_gradient(self, *args, **kwargs):
        out = fast_encode(self, *args, **kwargs)
        loss = out.mlm_loss
        out.mlm_loss = ad._node(loss.data, (loss,), lambda g: (2.0 * g,))
        return out

    monkeypatch.setattr(ChartLM, "fast_encode", doubled_mlm_gradient)
    rc = dispatch(["gradcheck", "--config", _p(workdir, "config.txt")])
    assert rc == 3
    assert "fast mode: max relative error 5.000e-01" in capsys.readouterr().out
