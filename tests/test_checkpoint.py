"""Checkpoint format: roundtrips, corruption detection, parameter loading."""

import errno
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chartlm import checkpoint
from chartlm.checkpoint import (MAGIC, VERSION, apply_parameters,
                                collect_parameters, load_checkpoint,
                                save_checkpoint)
from chartlm.model import ChartLM, ReCatConfig


def _model(seed=0):
    cfg = ReCatConfig(layers=1, compose_depth=1, transformer_depth=1, d=8,
                      heads=2, vocab_size=12, m=2, parser_dim=6,
                      parser_hidden=6, dtype="float64")
    return ChartLM(cfg, np.random.default_rng(seed))


def test_tensor_roundtrip_is_bit_identical(tmp_path):
    path = str(tmp_path / "t.ckpt")
    tensors = {
        "a": np.arange(12, dtype=np.float64).reshape(3, 4),
        "b": np.float32([[1.5, -2.25]]),
        "scalar": np.array(7, dtype=np.int64),
        "empty": np.zeros((0, 5), dtype=np.float64),
    }
    config = {"model": {"d": 8}, "train": {"seed": 3}}
    extra = {"step": 11, "vocab": ["x", "y"]}
    save_checkpoint(path, tensors, config, extra)
    back, cfg2, extra2 = load_checkpoint(path)
    assert cfg2 == config and extra2 == extra
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype
        np.testing.assert_array_equal(back[name], arr)


def test_model_roundtrip_preserves_forward(tmp_path):
    path = str(tmp_path / "m.ckpt")
    model = _model(seed=1)
    save_checkpoint(path, collect_parameters(model), {"model": model.cfg.to_dict()})
    tensors, config, extra = load_checkpoint(path)
    assert extra == {}

    other = _model(seed=2)  # different init, then overwritten
    apply_parameters(other, tensors)
    ids = np.array([3, 5, 7, 2])
    a = model.forward_pretrain(ids)
    b = other.forward_pretrain(ids)
    np.testing.assert_array_equal(a.logits.data, b.logits.data)
    assert a.tree == b.tree


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(str(path))


def test_wrong_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    header = b"{}"
    path.write_bytes(MAGIC + struct.pack("<IQ", VERSION + 8, len(header)) + header)
    with pytest.raises(ValueError, match=f"version {VERSION + 8}"):
        load_checkpoint(str(path))


def test_truncated_blob_names_tensor(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, {"w": np.ones((4, 4))}, {})
    blob = Path(path).read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated checkpoint at tensor w"):
        load_checkpoint(str(cut))


def test_every_truncation_raises_value_error(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, {"w": np.ones((2, 3)), "b": np.zeros(2, dtype=np.float32)},
                    {"d": 3}, {"step": 1})
    blob = Path(path).read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError):
            load_checkpoint(str(cut))


def test_unknown_dtype_is_value_error(tmp_path):
    for dtype in ("<q9", ",f4"):  # numpy raises TypeError, then SyntaxError
        header = json.dumps({"tensors": [{"name": "w", "shape": [1], "dtype": dtype,
                                          "nbytes": 8}],
                             "config": {}, "extra": {}}).encode("utf-8")
        path = tmp_path / "dtype.ckpt"
        path.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(header)) + header + b"\0" * 8)
        with pytest.raises(ValueError, match=f"unknown dtype '{dtype}' for tensor w"):
            load_checkpoint(str(path))


def test_big_endian_dtype_is_value_error(tmp_path):
    path = tmp_path / "swapped.ckpt"
    save_checkpoint(str(path), {"w": np.float32([0, 1, 2])}, {})
    raw = path.read_bytes()
    assert raw.count(b'"<f4"') == 1
    path.write_bytes(raw.replace(b'"<f4"', b'">f4"'))  # loaded, it reads [0, 4.6e-41, 9e-44]
    with pytest.raises(ValueError, match="big-endian dtype '>f4' for tensor w"):
        load_checkpoint(str(path))
    # big-endian inside a subarray or a field, where `dtype.byteorder` reads "|"
    for dtype, shape in (("(1,)>f4", [2]), ("<f4,>f4", [1])):
        _write_header(path, {"tensors": [{"name": "w", "shape": shape, "dtype": dtype,
                                          "nbytes": 8}], "config": {}, "extra": {}})
        with pytest.raises(ValueError, match=re.escape(f"big-endian dtype '{dtype}'")):
            load_checkpoint(str(path))


def _write_header(path, header):
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(raw)) + raw + b"\0" * 8)


@pytest.mark.parametrize("header", [
    {},
    [1, 2],
    {"tensors": [{"name": "w", "shape": [1], "nbytes": 8}], "config": {}, "extra": {}},
    {"tensors": ["w"], "config": {}, "extra": {}},
    {"tensors": [{"name": "w", "shape": [True, 1], "dtype": "<f8", "nbytes": 8}],
     "config": {}, "extra": {}},
    {"tensors": [{"name": "w", "shape": [-1, 1], "dtype": "<f8", "nbytes": 8}],
     "config": {}, "extra": {}},
    {"tensors": [{"name": "w", "shape": [1], "dtype": "<f8", "nbytes": True}],
     "config": {}, "extra": {}},
], ids=["empty_object", "list", "entry_without_dtype", "entry_not_an_object",
        "bool_dimension", "negative_dimension", "bool_nbytes"])
def test_malformed_header_is_value_error(tmp_path, header):
    path = tmp_path / "bad.ckpt"
    _write_header(path, header)
    with pytest.raises(ValueError, match="malformed checkpoint header"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("nbytes, message", [
    (10 ** 13, "truncated checkpoint at tensor w"),  # checked before any read
    (4, "tensor w: 4 bytes declared for shape"),
], ids=["past_the_end", "not_the_shape"])
def test_nbytes_that_lies_is_value_error(tmp_path, nbytes, message):
    path = tmp_path / "lie.ckpt"
    _write_header(path, {"tensors": [{"name": "w", "shape": [1], "dtype": "<f8",
                                      "nbytes": nbytes}], "config": {}, "extra": {}})
    with pytest.raises(ValueError, match=message):
        load_checkpoint(str(path))


def _fuzz_blob(tmp_path):
    path = str(tmp_path / "ok.ckpt")
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "step": np.array(3, dtype=np.int64), "b": np.ones(2)},
                    {"d": 3}, {"step": 1, "vocab": ["a", "b"]})
    blob = Path(path).read_bytes()
    header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
    return blob, header_end


def _loads_or_is_value_error(path, raw):
    path.write_bytes(raw)
    try:
        load_checkpoint(str(path))
    except ValueError:  # any other exception fails the test
        pass


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_or_bit_flipped_header_loads_or_is_value_error(tmp_path, data):
    blob, header_end = _fuzz_blob(tmp_path)
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, header_end), label="size")]
    else:
        bit = data.draw(st.integers(0, 8 * header_end - 1), label="bit")
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
    _loads_or_is_value_error(tmp_path / "fuzz.ckpt", bytes(bad))


# Uniform over the file, so most draws land in a tensor blob: a flipped blob
# bit loads silently, since nothing checks the tensor bytes themselves.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_truncation_or_bit_flip_loads_or_is_value_error(tmp_path, data):
    blob, _ = _fuzz_blob(tmp_path)
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="size")]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
    _loads_or_is_value_error(tmp_path / "fuzz.ckpt", bytes(bad))


_COUNTS = st.one_of(st.integers(-3, 3), st.integers(2 ** 31, 2 ** 70),
                    st.integers(-(2 ** 70), -(2 ** 31)))
_WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                         st.just({}), st.lists(st.integers(-2, 2), max_size=2))
_ODD_DTYPES = st.sampled_from(["|V0", "|V3", "|O", "<U1", "|S0", "|S2", "|b1", "<c16", ">f8",
                               "<M8[s]", "<m8", "f4", "", "<f8", "<i8", "float32", "(2,)<f4"])
_BAD_VALUES = {
    "name": st.one_of(_WRONG_TYPES, st.text(max_size=4)),
    "shape": st.one_of(_WRONG_TYPES, st.lists(st.one_of(_COUNTS, _WRONG_TYPES), max_size=3)),
    "dtype": st.one_of(_WRONG_TYPES, _ODD_DTYPES),
    "nbytes": st.one_of(_WRONG_TYPES, _COUNTS),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_header_entry_loads_or_is_value_error(tmp_path, data):
    blob, header_end = _fuzz_blob(tmp_path)
    header = json.loads(blob[16:header_end])
    entry = data.draw(st.sampled_from(header["tensors"]), label="entry")
    key = data.draw(st.sampled_from(sorted(_BAD_VALUES)), label="key")
    entry[key] = data.draw(_BAD_VALUES[key], label="value")
    raw = json.dumps(header).encode("utf-8")
    _loads_or_is_value_error(tmp_path / "fuzz.ckpt", MAGIC + struct.pack("<IQ", VERSION, len(raw))
                             + raw + blob[header_end:])


class _DiskFullAfter:
    """A binary file whose writes fail with ENOSPC once `budget` bytes are in."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_save_keeps_the_previous_file_whole(tmp_path, monkeypatch):
    path = str(tmp_path / "model.ckpt")
    old = {"w": np.arange(64, dtype=np.float64).reshape(8, 8)}
    save_checkpoint(path, old, {"step": 1})
    before = Path(path).read_bytes()

    def failing_open(file, mode="r", *args, **kwargs):
        return _DiskFullAfter(open(file, mode, *args, **kwargs), budget=100)

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, {"w": np.ones((8, 8))}, {"step": 2})
    monkeypatch.undo()

    assert Path(path).read_bytes() == before
    tensors, config, _ = load_checkpoint(path)
    assert config == {"step": 1}
    np.testing.assert_array_equal(tensors["w"], old["w"])
    assert os.listdir(tmp_path) == ["model.ckpt"]  # no temp file left behind


def test_apply_parameters_missing_and_shape_errors():
    model = _model()
    tensors = collect_parameters(model)
    broken = dict(tensors)
    del broken["model.emb"]
    with pytest.raises(ValueError, match="missing parameter model.emb"):
        apply_parameters(model, broken)
    wrong = dict(tensors)
    wrong["model.emb"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shape mismatch for parameter model.emb"):
        apply_parameters(model, wrong)


def test_apply_parameters_ignores_extra_keys():
    model = _model(seed=3)
    tensors = collect_parameters(model)
    tensors["opt_model.m.model.emb"] = np.zeros(3)
    apply_parameters(model, tensors)  # optimizer state alongside params is fine
    np.testing.assert_array_equal(model.parameter_map()["model.emb"].data,
                                  tensors["model.emb"])


def test_save_load_empty_extra_defaults(tmp_path):
    path = str(tmp_path / "e.ckpt")
    save_checkpoint(path, {}, {"k": 1})
    tensors, config, extra = load_checkpoint(path)
    assert tensors == {} and config == {"k": 1} and extra == {}
