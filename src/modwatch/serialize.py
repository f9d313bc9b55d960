"""Binary container primitives shared by checkpoint and dataset files.

All integers are little-endian unsigned 32-bit unless noted; strings are
length-prefixed UTF-8; float payloads are little-endian float32 in row-major
order.  Readers validate magic and version and fail loudly on trailing or
missing bytes so round-trips are bit-exact.  Every size a file claims is
checked against the bytes it still holds before anything is read, so a
corrupt header raises ``DataError`` instead of wrapping or allocating.
"""
from __future__ import annotations

import io
import math
import struct

import numpy as np

from .errors import DataError

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


def read_exact(fh, nbytes: int, what: str) -> bytes:
    """Read ``nbytes`` (an exact Python int) from a seekable file, after
    checking that the file still holds that many."""
    pos = fh.tell()
    left = fh.seek(0, io.SEEK_END) - pos
    fh.seek(pos)
    if nbytes > left:
        raise DataError(f"truncated file: {what} needs {nbytes} bytes, {left} left")
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
    fh.write(arr.tobytes())


def read_f32(fh, dims: tuple[int, ...], what: str) -> np.ndarray:
    """A row-major float32 payload of ``dims``, sized with ``math.prod`` so
    a product of corrupt dims never wraps."""
    raw = read_exact(fh, 4 * math.prod(dims), what)
    try:
        return np.frombuffer(raw, dtype=F32).reshape(dims).copy()
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


def open_maybe(path_or_fh, mode: str):
    if isinstance(path_or_fh, (str, bytes)) or hasattr(path_or_fh, "__fspath__"):
        return open(path_or_fh, mode), True
    return path_or_fh, False


def to_bytes(writer) -> bytes:
    buf = io.BytesIO()
    writer(buf)
    return buf.getvalue()
