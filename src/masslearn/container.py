"""Versioned binary container for model checkpoints and dataset caches.

Layout (all integers little-endian):

    bytes 0..7    magic b"MASSCON1"
    bytes 8..15   uint64 header length H
    bytes 16..16+H-1  UTF-8 JSON header
    remainder     concatenated raw array buffers, in manifest order

The JSON header has two keys:

    "meta":   a JSON object of metadata supplied by the caller
    "arrays": list of {"name", "dtype", "shape", "offset", "nbytes"} entries;
              offsets are relative to the end of the header and arrays are
              stored C-contiguous in the listed order with no padding.

Only float64 and int64 arrays are accepted, which keeps round trips
bit-exact and the format trivially portable.  Reading raises ContainerError
for any malformed file, truncated ones included.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MAGIC = b"MASSCON1"
_ALLOWED = ("<f8", "<i8")


class ContainerError(ValueError):
    pass


def write_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    manifest = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)  # not ascontiguousarray, which makes a 0-d array 1-d
        if arr.dtype == np.float64:
            dtype = "<f8"
        elif arr.dtype == np.int64:
            dtype = "<i8"
        else:
            raise ContainerError(f"unsupported dtype {arr.dtype} for array {name!r}")
        buf = arr.astype(dtype, copy=False).tobytes()
        manifest.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(buf),
            }
        )
        blobs.append(buf)
        offset += len(buf)
    header = json.dumps({"meta": meta, "arrays": manifest}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for buf in blobs:
            fh.write(buf)


def _entry_error(entry) -> str | None:
    """Why a manifest entry is malformed, or None if it is well formed."""
    if not isinstance(entry, dict) or set(entry) != {"name", "dtype", "shape", "offset", "nbytes"}:
        return "malformed array entry"
    if not isinstance(entry["name"], str):
        return "array name is not a string"
    if entry["dtype"] not in _ALLOWED:
        return f"unsupported dtype {entry['dtype']!r}"
    shape, offset, nbytes = entry["shape"], entry["offset"], entry["nbytes"]
    if not (isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)
            and type(offset) is int and offset >= 0 and type(nbytes) is int):
        return f"bad shape or offset for array {entry['name']!r}"
    if nbytes != 8 * int(np.prod(shape, dtype=object)):
        return f"array {entry['name']!r}: nbytes {nbytes} does not match shape {shape}"
    return None


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
          dict: "an object", list: "a list"}


def _field(path, meta: dict, key: str, kind: type, prefix: str = ""):
    """meta[key] if it has JSON type `kind` (an integer passes as a number);
    ContainerError naming the field otherwise."""
    name = prefix + key
    if key not in meta:
        raise ContainerError(f"{path}: missing field {name!r}")
    value = meta[key]
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ContainerError(
            f"{path}: field {name!r} must be {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _array(path, arrays: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """arrays[name] if it has `dtype` and `shape`, where a None length matches
    any; ContainerError naming the array otherwise."""
    if name not in arrays:
        raise ContainerError(f"{path}: missing array {name!r}")
    arr = arrays[name]
    if arr.dtype != dtype or arr.ndim != len(shape) or any(
            want not in (None, got) for got, want in zip(arr.shape, shape)):
        raise ContainerError(f"{path}: array {name!r} is {arr.dtype} {arr.shape}, "
                             f"expected {np.dtype(dtype)} {shape}")
    return arr


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of a container file; ContainerError for any malformed file."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ContainerError(f"{path}: bad magic, not a MASSCON1 container")
    if len(raw) < 16:
        raise ContainerError(f"{path}: truncated container (header length)")
    hlen = int.from_bytes(raw[8:16], "little")
    base = 16 + hlen
    if base > len(raw):
        raise ContainerError(f"{path}: truncated container (header)")
    try:
        header = json.loads(raw[16:base].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ContainerError(f"{path}: header is not valid JSON ({e})") from None
    if (not isinstance(header, dict) or set(header) != {"meta", "arrays"}
            or not isinstance(header["meta"], dict) or not isinstance(header["arrays"], list)):
        raise ContainerError(f"{path}: header must be an object with meta and arrays")
    arrays = {}
    for entry in header["arrays"]:
        problem = _entry_error(entry)
        if problem:
            raise ContainerError(f"{path}: {problem}")
        start = base + entry["offset"]
        stop = start + entry["nbytes"]
        if stop > len(raw):
            raise ContainerError(f"{path}: truncated container (array {entry['name']!r})")
        arr = np.frombuffer(raw[start:stop], dtype=entry["dtype"]).reshape(entry["shape"])
        arrays[entry["name"]] = arr.copy()  # detach from the read-only buffer
    return header["meta"], arrays
