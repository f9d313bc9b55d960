"""Shared test harness: finite-difference gradient checking, and a
ScoreTable built from hand-made score rows.

The checker never reuses the implementation under test: callers hand it an
independent float64 forward function (the oracle), the harness sweeps every
input coordinate with central differences (h = 1e-3 by default), and the
analytic float32 gradients must agree within a relative error of 1e-3,
measured per tensor against the largest gradient magnitude.
"""
from __future__ import annotations

import numpy as np
import pytest

from modwatch.evaluate import ScoreTable


def fd_gradients(oracle, arrays: list[np.ndarray], h: float = 1e-3) -> list[np.ndarray]:
    """Central finite differences of a scalar float64 oracle w.r.t. each array."""
    work = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for ai in range(len(work)):
        flat = work[ai].reshape(-1)
        g = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(oracle(*work))
            flat[i] = keep - h
            down = float(oracle(*work))
            flat[i] = keep
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(work[ai].shape))
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def assert_gradients_close(analytic, numeric, tol: float = 1e-3, label: str = "") -> None:
    err = relative_error(analytic, numeric)
    assert err <= tol, f"gradient mismatch{f' for {label}' if label else ''}: rel err {err:.3e} > {tol}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def stack_scores(rows) -> ScoreTable:
    """Stack AnomalyScore rows into the ScoreTable that ``score`` returns."""
    rows = list(rows)
    reps = None
    if rows and rows[0].replica_aggregates is not None:
        reps = np.array([r.replica_aggregates for r in rows], dtype=np.float64)
    return ScoreTable(
        sample_id=np.array([r.sample_id for r in rows], dtype=np.int64),
        module_id=np.array([r.module_id for r in rows], dtype=np.int64),
        label=np.array([r.label for r in rows], dtype=str),
        channel_mse=np.array([r.channel_mse for r in rows], dtype=np.float64),
        aggregate=np.array([r.aggregate for r in rows], dtype=np.float64),
        replica_aggregates=reps,
    )
