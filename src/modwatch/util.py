"""Small shared helpers: seeded RNG construction, finiteness checks, the
one worker-thread map with its BLAS thread budget, the one atomic writer
every artifact goes through, and the CSV writer on top of it."""
from __future__ import annotations

import csv
import ctypes
import functools
import glob
import hashlib
import os
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, NumericError


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Build a Generator from a tuple of integers.

    The tuple feeds a SeedSequence, so (seed, epoch) and (seed, epoch + 1)
    give independent streams while staying reproducible.
    """
    return np.random.default_rng(np.random.SeedSequence([int(e) for e in entropy]))


@functools.cache
def _openblas():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or
    ``None`` when that library or its symbols are missing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_NO_BLAS = (lambda: None, lambda n: None)


def parallel_map(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, spread over ``min(jobs, len(items),
    cores)`` worker threads, cores being the CPUs this process may run on;
    the results keep the order of ``items``.

    With one worker the map runs inline.  A pool caps BLAS at
    cores // workers threads while it runs, so workers times
    BLAS threads stay within the cores, and restores the earlier count
    afterwards, also when a worker raises.  The count is process-wide, so
    pools must not nest or overlap; none in modwatch do.
    """
    items = list(items)
    cores = len(os.sched_getaffinity(0))
    workers = min(jobs, len(items), cores)
    if workers <= 1:
        return [fn(item) for item in items]
    get, set_ = _openblas() or _NO_BLAS
    before = get()
    set_(cores // workers)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    finally:
        set_(before)


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` if it holds no NaN or infinity, else a ``NumericError``.

    NaN propagates through ``min`` and ``max``, so the two extremes settle
    it without a mask of one byte per value."""
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NumericError(f"non-finite values in {what}")
    return arr


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open a file (``mode`` ``"w"`` for text, ``"wb"`` for bytes) that
    appears at ``path`` only once the block ends.

    The content goes to a temp file in the same directory, which is moved
    over ``path`` on success and removed on an exception, so ``path`` never
    holds a half-written file.  A missing directory is created first, so a
    run's output directory appears with its first file.  A directory or temp
    file that cannot be created (the directory names a file, say) is a
    ``ConfigError``.
    """
    path = os.fsdecode(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        if head and not os.path.isdir(head):
            os.makedirs(head, exist_ok=True)
        fh = open(tmp, mode.replace("w", "x"), newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return "" if v is None else v


_FLOAT_TYPES = {float, np.float64, np.float32}
_PLAIN_TYPES = {int, str}


def _cells(column):
    """One column formatted by the cell rule: floats as ``repr(float(v))``,
    bools as 0/1, ``None`` as an empty cell, anything else as is.  A column
    of only floats, or only ints and strings, is formatted as a whole; cell
    by cell was the slow part of writing."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    if isinstance(column, (list, tuple)):
        types = set(map(type, column))
        if types <= _FLOAT_TYPES:
            return map(repr, map(float, column))
        if types <= _PLAIN_TYPES:
            return column
    return map(_cell, column)


def write_csv(path, header, columns) -> None:
    """Write one CSV artifact atomically: ``header`` cells, then one row per
    position of the equal-length ``columns``.  Every cell, the header's too,
    is formatted by one rule, so each float round-trips exactly."""
    rows = zip(*map(_cells, columns), strict=True)
    with atomic_open(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(map(_cell, header))
        w.writerows(rows)
