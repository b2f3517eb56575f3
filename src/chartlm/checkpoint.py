"""Self-describing binary checkpoints.

Layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, UTF-8 JSON header, then raw little-endian tensor blobs in header
order. The header records every tensor's name/shape/dtype plus a config
snapshot and free-form metadata, so a file is loadable without the model
class that wrote it. A save replaces the file whole (`replace_file`), so a
crash mid-save leaves the previous file in place.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings

import numpy as np

from .nn import Module
from .trees import replace_file

MAGIC = b"CLMC"
VERSION = 1


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], config: dict,
                    extra: dict | None = None) -> None:
    entries = []
    blobs = []
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        blob = le.tobytes(order="C")
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": arr.dtype.str.replace(">", "<"),
                        "nbytes": len(blob)})
        blobs.append(blob)
    header = json.dumps({"tensors": entries, "config": config,
                         "extra": extra or {}}).encode("utf-8")
    replace_file(path, [MAGIC, struct.pack("<IQ", VERSION, len(header)), header, *blobs])


_ENTRY_FIELDS = {"name": str, "shape": list, "dtype": str, "nbytes": int}


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(header) -> None:
    """Raise ValueError unless `header` is valid JSON of the layout that
    `save_checkpoint` writes."""
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("config"), dict)
            and isinstance(header.get("extra"), dict)):
        raise ValueError("malformed checkpoint header: expected an object with "
                         "'tensors', 'config' and 'extra'")
    for entry in header["tensors"]:
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(key), kind) for key, kind in _ENTRY_FIELDS.items())
                and _is_count(entry["nbytes"]) and all(map(_is_count, entry["shape"]))):
            raise ValueError(f"malformed checkpoint header entry {entry!r}: expected "
                             "'name', 'shape', 'dtype' and 'nbytes' (counts >= 0)")


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict, dict]:
    """Read a checkpoint; a truncated or malformed file raises ValueError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        fixed = fh.read(12)
        if len(fixed) != 12:
            raise ValueError("truncated checkpoint: no version and header length")
        version, header_len = struct.unpack("<IQ", fixed)
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version} (expected {VERSION})")
        if header_len > size - fh.tell():
            raise ValueError(f"truncated checkpoint header: {header_len} bytes declared, "
                             f"{size - fh.tell()} present")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except RecursionError:
            raise ValueError("malformed checkpoint header: JSON nested too deeply") from None
        _check_header(header)
        tensors: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            name, nbytes, spec = entry["name"], entry["nbytes"], entry["dtype"]
            unknown = ValueError(f"unknown dtype {spec!r} for tensor {name}")
            try:  # numpy parses some strings as Python (",f4" is a SyntaxError)
                with warnings.catch_warnings():  # and warns on others ("a")
                    warnings.simplefilter("error")
                    dtype = np.dtype(spec)
            except Exception:
                raise unknown from None
            if dtype.hasobject:  # "|O", "T"; numpy crashes byte-swapping "0T"
                raise unknown
            if dtype.newbyteorder("<") != dtype:  # saves are little-endian only, fields too
                raise ValueError(f"big-endian dtype {spec!r} for tensor {name}")
            if dtype.str != spec or dtype.kind not in "biufc":  # only what a save writes
                raise unknown
            if nbytes > size - fh.tell():
                raise ValueError(f"truncated checkpoint at tensor {name}")
            if nbytes != math.prod(entry["shape"]) * dtype.itemsize:
                raise ValueError(f"tensor {name}: {nbytes} bytes declared for shape "
                                 f"{entry['shape']} of {dtype}")
            arr = np.frombuffer(fh.read(nbytes), dtype=dtype)
            tensors[name] = arr.reshape(entry["shape"]).copy()
        if size > fh.tell():
            raise ValueError(f"checkpoint has {size - fh.tell()} bytes after its last tensor")
    return tensors, header["config"], header["extra"]


def collect_parameters(module: Module) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in module.parameter_map().items()}


def apply_parameters(module: Module, tensors: dict[str, np.ndarray]) -> None:
    """Load arrays into the module's parameters by name; every parameter must
    be present with the exact shape."""
    for name, p in module.parameter_map().items():
        if name not in tensors:
            raise ValueError(f"checkpoint missing parameter {name}")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise ValueError(f"shape mismatch for parameter {name}: "
                             f"checkpoint {tuple(arr.shape)}, model {tuple(p.data.shape)}")
        p.data = arr.astype(p.data.dtype, copy=True)
