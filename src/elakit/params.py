"""Named parameter/gradient storage with a flat binary serialization format.

File layout: 8-byte magic "ELAKIT01", uint64 little-endian header length,
UTF-8 JSON header (tensor names, shapes, dtypes, byte offsets, roles, free
meta dict), then the raw tensor bytes back to back. Round trips are bit
exact; tensors are float64 or float32.
"""

import errno
import json
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

MAGIC = b"ELAKIT01"
DTYPES = ("float64", "float32")  # the only tensor dtypes `load` accepts
TENSOR_KEYS = ("name", "shape", "dtype", "offset", "nbytes")


@dataclass
class Param:
    value: np.ndarray
    grad: np.ndarray
    role: str = "weight"


class ParamStore:
    """Ordered map of name -> (value, grad) pairs for one module or network."""

    def __init__(self):
        self._entries: dict[str, Param] = {}
        self.meta: dict = {}

    def add(self, name, value, role="weight"):
        if name in self._entries:
            raise KeyError(f"duplicate parameter name {name!r}")
        value = np.ascontiguousarray(value)
        self._entries[name] = Param(value, np.zeros_like(value), role)

    def adopt(self, prefix, other):
        """Hold every entry of `other` here as `prefix + name`. The entries are
        the same Param objects, so values and grads stay shared with `other`."""
        entries = {prefix + name: entry for name, entry in other.items()}
        clash = entries.keys() & self._entries.keys()
        if clash:
            raise KeyError(f"duplicate parameter name {min(clash)!r}")
        self._entries.update(entries)

    def __contains__(self, name):
        return name in self._entries

    def names(self):
        return list(self._entries)

    def value(self, name):
        try:
            return self._entries[name].value
        except KeyError:
            raise KeyError(f"parameter store has no entry {name!r}") from None

    def grad(self, name):
        return self._entries[name].grad

    def role(self, name):
        return self._entries[name].role

    def set_value(self, name, value):
        entry = self._entries[name]
        if value.shape != entry.value.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {value.shape} vs {entry.value.shape}"
            )
        entry.value = np.ascontiguousarray(value)

    def accumulate_grad(self, name, grad):
        entry = self._entries[name]
        if grad.shape != entry.grad.shape:
            raise ValueError(
                f"gradient shape mismatch for {name!r}: {grad.shape} vs {entry.grad.shape}"
            )
        entry.grad += grad

    def zero_grads(self):
        for entry in self._entries.values():
            entry.grad.fill(0.0)

    def total_params(self):
        return sum(e.value.size for e in self._entries.values())

    def items(self):
        return self._entries.items()

    def to_bytes(self):
        """The file `load` reads: magic, header length, header, tensor bytes."""
        tensors = []
        offset = 0
        for name, entry in self._entries.items():
            nbytes = entry.value.nbytes
            tensors.append(
                {
                    "name": name,
                    "shape": list(entry.value.shape),
                    "dtype": str(entry.value.dtype),
                    "offset": offset,
                    "nbytes": nbytes,
                    "role": entry.role,
                }
            )
            offset += nbytes
        header = json.dumps({"version": 1, "meta": self.meta, "tensors": tensors})
        header_bytes = header.encode("utf-8")
        payload = b"".join(e.value.tobytes() for e in self._entries.values())
        return MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes + payload

    def save(self, path):
        atomic_write_files({path: self.to_bytes()})

    @classmethod
    def load(cls, path):
        """Read a file written by `save`; any defect is a ValueError naming the file."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:8] != MAGIC:
            raise ValueError(f"{path}: not a parameter store file")
        header_len = int.from_bytes(blob[8:16], "little")
        if 16 + header_len > len(blob):
            raise ValueError(
                f"{path}: header length {header_len} runs past the end of the "
                f"{len(blob)}-byte file"
            )
        try:
            header = json.loads(blob[16:16 + header_len].decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON
            raise ValueError(f"{path}: unreadable header: {exc}") from None
        if not (
            isinstance(header, dict)
            and isinstance(header.get("tensors"), list)
            and isinstance(header.get("meta", {}), dict)
        ):
            raise ValueError(f"{path}: header needs a 'tensors' list and a 'meta' object")
        data = blob[16 + header_len:]
        store = cls()
        store.meta = header.get("meta", {})
        for t in header["tensors"]:
            arr = _read_tensor(path, data, t)
            if t["name"] in store:
                raise ValueError(f"{path}: tensor {t['name']!r} appears twice")
            role = t.get("role", "weight")
            if not isinstance(role, str):
                raise ValueError(f"{path}: tensor {t['name']!r}: role {role!r} is not a string")
            store.add(t["name"], arr, role=role)
        return store


def _read_tensor(path, data, entry):
    """A copy of the array that one header entry places in `data`."""
    if not (
        isinstance(entry, dict)
        and all(k in entry for k in TENSOR_KEYS)
        and isinstance(entry["name"], str)
    ):
        raise ValueError(f"{path}: tensor entry {entry!r} needs the keys {TENSOR_KEYS}")
    name, shape, dtype, offset, nbytes = (entry[k] for k in TENSOR_KEYS)
    if dtype not in DTYPES:
        raise ValueError(f"{path}: tensor {name!r}: dtype {dtype!r} is not one of {DTYPES}")
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"{path}: tensor {name!r}: shape {shape!r} is not a list of sizes")
    count = math.prod(shape)
    if not (
        type(offset) is int
        and 0 <= offset
        and nbytes == count * np.dtype(dtype).itemsize
        and offset + nbytes <= len(data)
    ):
        raise ValueError(
            f"{path}: tensor {name!r}: {nbytes!r} bytes at offset {offset!r} do not "
            f"hold shape {shape} in the {len(data)}-byte payload"
        )
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape).copy()
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
    return arr


def atomic_write_files(files):
    """Write each `path: bytes` item via temp file + rename so interrupted
    runs never leave partials. Every temp file is written before the first
    rename, so a path that cannot be written leaves none of the files.
    Each file gets the mode `open(path, "wb")` would give it, 0o666 less
    the umask. An OSError names its path, not the temp file."""
    temps = []
    try:
        for path, data in files.items():
            if os.path.isdir(path):  # rename would fail only after earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp = os.path.join(
                os.path.dirname(os.path.abspath(path)), f".elakit-tmp-{secrets.token_hex(8)}"
            )
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        for tmp, path in temps:
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        for tmp, _ in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
