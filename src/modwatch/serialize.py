"""Binary container primitives shared by checkpoint and dataset files.

All integers are little-endian unsigned 32-bit unless noted; strings are
length-prefixed UTF-8; float payloads are little-endian float32 in row-major
order.  Readers validate magic and version and fail loudly on trailing or
missing bytes so round-trips are bit-exact.  Every size a file claims is
checked against the bytes it still holds before anything is read, so a
corrupt header raises ``DataError`` instead of wrapping or allocating.
"""
from __future__ import annotations

import hashlib
import io
import math
import struct
from contextlib import contextmanager

import numpy as np

from .errors import DataError
from .util import atomic_open

F32 = np.dtype("<f4")


def write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def read_u32(fh) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise DataError("truncated file: expected u32")
    return struct.unpack("<I", raw)[0]


def write_u64(fh, value: int) -> None:
    fh.write(struct.pack("<Q", value))


def read_u64(fh) -> int:
    raw = fh.read(8)
    if len(raw) != 8:
        raise DataError("truncated file: expected u64")
    return struct.unpack("<Q", raw)[0]


def write_str(fh, text: str) -> None:
    payload = text.encode("utf-8")
    write_u32(fh, len(payload))
    fh.write(payload)


def _check_left(fh, nbytes: int, what: str) -> None:
    """``DataError`` unless the seekable ``fh`` still holds ``nbytes`` (an
    exact Python int); the position is left where it was."""
    pos = fh.tell()
    left = fh.seek(0, io.SEEK_END) - pos
    fh.seek(pos)
    if nbytes > left:
        raise DataError(f"truncated file: {what} needs {nbytes} bytes, {left} left")


def read_exact(fh, nbytes: int, what: str) -> bytes:
    """Read ``nbytes`` from a seekable file, after checking that the file
    still holds that many."""
    _check_left(fh, nbytes, what)
    return fh.read(nbytes)


def read_str(fh) -> str:
    raw = read_exact(fh, read_u32(fh), "string payload")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"string is not valid UTF-8: {raw[:32]!r}") from exc


def write_kv_block(fh, kv: dict[str, str]) -> None:
    write_u32(fh, len(kv))
    for key, value in kv.items():
        write_str(fh, key)
        write_str(fh, str(value))


def read_kv_block(fh) -> dict[str, str]:
    n = read_u32(fh)
    return {read_str(fh): read_str(fh) for _ in range(n)}


def write_f32_array(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=F32)
    write_u32(fh, arr.ndim)
    for d in arr.shape:
        write_u64(fh, d)
    fh.write(arr)  # its buffer, not a copy


def read_f32(fh, dims: tuple[int, ...], what: str) -> np.ndarray:
    """A row-major float32 payload of ``dims``, sized with ``math.prod`` so
    a product of corrupt dims never wraps.  The file is read straight into
    the array, so the payload is held once."""
    count = math.prod(dims)
    _check_left(fh, 4 * count, what)
    flat = np.empty(count, dtype=F32)
    got = fh.readinto(memoryview(flat).cast("B"))
    if got != flat.nbytes:
        raise DataError(f"truncated file: {what} needs {flat.nbytes} bytes, read {got}")
    try:
        return flat.reshape(dims)
    except ValueError as exc:  # a zero dim beside dims numpy cannot hold
        raise DataError(f"{what}: dims {dims} cannot be held in memory") from exc


def read_f32_array(fh) -> np.ndarray:
    ndim = read_u32(fh)
    dims = tuple(read_u64(fh) for _ in range(ndim))
    return read_f32(fh, dims, "float payload")


def check_magic(fh, magic: bytes, kind: str) -> None:
    raw = fh.read(len(magic))
    if raw != magic:
        raise DataError(f"not a {kind} file: bad magic {raw!r}")


def expect_eof(fh, kind: str) -> None:
    if fh.read(1):
        raise DataError(f"trailing bytes after {kind} payload")


def _is_path(path_or_fh) -> bool:
    return isinstance(path_or_fh, (str, bytes)) or hasattr(path_or_fh, "__fspath__")


def open_maybe(path_or_fh, mode: str):
    if _is_path(path_or_fh):
        return open(path_or_fh, mode), True
    return path_or_fh, False


@contextmanager
def open_for_write(path_or_fh):
    """A binary file to write into.  A path is written atomically
    (``util.atomic_open``): it appears whole once the block ends, and an
    exception leaves the earlier file as it was.  An open file is used as
    is and left open."""
    if _is_path(path_or_fh):
        with atomic_open(path_or_fh, "wb") as fh:
            yield fh
    else:
        yield path_or_fh


class HashingWriter:
    """Passes every write through to ``fh`` and folds it into a SHA-256,
    so a file's digest comes from the bytes written, not a second copy."""

    def __init__(self, fh):
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def write(self, payload) -> int:
        self.sha256.update(payload)
        return self.fh.write(payload)


class _Discard:
    def write(self, payload) -> int:
        return memoryview(payload).nbytes


def sha256_hex(writer) -> str:
    """The SHA-256 hex digest of what ``writer`` writes into the file it is
    handed; the bytes are hashed as they stream and kept nowhere."""
    fh = HashingWriter(_Discard())
    writer(fh)
    return fh.sha256.hexdigest()


def to_bytes(writer) -> bytes:
    buf = io.BytesIO()
    writer(buf)
    return buf.getvalue()
