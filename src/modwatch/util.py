"""Small shared helpers: seeded RNG construction, finiteness checks, and
the one CSV writer every artifact goes through."""
from __future__ import annotations

import csv
import hashlib
import os
import uuid
from contextlib import contextmanager

import numpy as np

from .errors import NumericError


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Build a Generator from a tuple of integers.

    The tuple feeds a SeedSequence, so (seed, epoch) and (seed, epoch + 1)
    give independent streams while staying reproducible.
    """
    return np.random.default_rng(np.random.SeedSequence([int(e) for e in entropy]))


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
    return arr


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a text file that appears at ``path`` only once the block ends.

    The text goes to a temp file in the same directory, which is moved over
    ``path`` on success and removed on an exception, so ``path`` never holds
    a half-written file.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "x", newline=newline) as fh:
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
