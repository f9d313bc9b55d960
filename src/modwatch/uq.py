"""Latent-sampling uncertainty: reconstruction replicas and calibration.

Replicas are independent decodes of reparameterized latents for the same
input; their pointwise mean and SD form per-channel uncertainty bands.
Calibration checks how often the observed waveform falls inside the
central Gaussian interval mean +/- z(p)*SD as the expected proportion p
sweeps 0.01..0.99; the miscalibration area is the average absolute gap to
the diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from . import model as M
from .errors import ConfigError, DataError, ShapeError
from .model import ModelParameters, ModelSpec
from .tensor import Tensor
from .util import parallel_map, seeded_rng, write_csv

_DRAW_TAG = 0x0E9
_PICK_TAG = 0x9B1
SD_FLOOR = 1e-12
EXPECTED_PROPORTIONS = np.arange(1, 100) / 100.0  # 0.01 .. 0.99


@dataclass
class ReplicaSet:
    draws: np.ndarray  # (n_draws, batch, time, channels) float32
    seed: int

    @classmethod
    def from_draws(cls, draws: np.ndarray, seed: int = 0) -> "ReplicaSet":
        draws = np.asarray(draws, dtype=np.float32)
        if draws.ndim != 4:
            raise ShapeError(f"replica draws must be 4-d, got dims {draws.shape}")
        if draws.shape[0] < 2:
            raise ConfigError(f"need at least 2 draws, got {draws.shape[0]}")
        return cls(draws=draws, seed=seed)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise mean and SD over the draws, from one float64 copy."""
        d = self.draws.astype(np.float64)
        mean = d.mean(axis=0, keepdims=True)
        return mean[0], np.std(d, axis=0, mean=mean)


def replicate(
    params: ModelParameters,
    spec: ModelSpec,
    x: np.ndarray,
    module_ids: np.ndarray | None = None,
    n_draws: int = 100,
    seed: int = 0,
    jobs: int = 1,
) -> ReplicaSet:
    """Decode ``n_draws`` independently sampled latents for every sample."""
    if n_draws < 2:
        raise ConfigError(f"n_draws must be >= 2, got {n_draws}")
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3 or x.shape[1:] != (spec.time_steps, spec.channels):
        raise ShapeError(
            f"input dims {x.shape} vs model (batch, {spec.time_steps}, {spec.channels})"
        )
    params = params.frozen()  # forward only: no tape
    dist = M.encode(params, spec, Tensor(x), module_ids)

    def _draw(i: int) -> np.ndarray:
        return M.decode_draw(params, spec, dist, module_ids, seeded_rng(seed, _DRAW_TAG, i))

    return ReplicaSet(draws=np.stack(parallel_map(_draw, range(n_draws), jobs)), seed=seed)


@dataclass
class CalibrationCurve:
    expected: np.ndarray  # (99,) proportions
    observed: np.ndarray  # (99,) fraction of points inside the interval
    area: float
    degenerate: bool  # some SDs were floored at SD_FLOOR
    n_points: int


def miscalibration_area(replicas: ReplicaSet, observed_x: np.ndarray) -> CalibrationCurve:
    """Calibration of per-point Gaussian intervals against an observation.

    At expected proportion p the interval is mean +/- z*SD with
    z = norm.ppf((1+p)/2); the curve records the fraction of points whose
    observation lands inside.  Area is the trapezoid mean of
    |observed - expected| over the grid, always in [0, 0.5].
    """
    obs = np.asarray(observed_x, dtype=np.float64)
    if obs.shape != replicas.draws.shape[1:]:
        raise ShapeError(f"observation dims {obs.shape} vs replicas {replicas.draws.shape[1:]}")
    return _curve(*replicas.moments(), obs)


def _curve(mean: np.ndarray, sd: np.ndarray, obs: np.ndarray) -> CalibrationCurve:
    degenerate = bool((sd < SD_FLOOR).any())
    sd = np.maximum(sd, SD_FLOOR).ravel()
    resid = np.abs(obs - mean).ravel()

    p = EXPECTED_PROPORTIONS
    z = norm.ppf((1.0 + p) / 2.0)
    # one count per proportion: the exact integer over n, as np.mean gives
    observed_prop = np.count_nonzero(resid <= z[:, None] * sd, axis=1) / resid.size
    area = float(np.trapezoid(np.abs(observed_prop - p), p) / (p[-1] - p[0]))
    return CalibrationCurve(
        expected=p,
        observed=observed_prop,
        area=area,
        degenerate=degenerate,
        n_points=resid.size,
    )


def per_channel_calibration(
    replicas: ReplicaSet, observed_x: np.ndarray
) -> list[CalibrationCurve]:
    """One calibration curve per waveform channel."""
    obs = np.asarray(observed_x, dtype=np.float64)
    if obs.shape != replicas.draws.shape[1:]:
        raise ShapeError(
            f"observation dims {obs.shape} vs replicas {replicas.draws.shape[1:]}"
        )
    mean, sd = replicas.moments()
    return [_curve(mean[..., c], sd[..., c], obs[..., c]) for c in range(obs.shape[2])]


def choose_examples(n_total: int, count: int = 10, seed: int = 0) -> np.ndarray:
    """Seeded sample-index selection for calibration reporting."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if count > n_total:
        raise DataError(f"cannot pick {count} of {n_total} samples")
    rng = seeded_rng(seed, _PICK_TAG)
    return np.sort(rng.choice(n_total, size=count, replace=False))


# ---------------------------------------------------------------- CSV output


def write_uq_csv(path, channel_names: list[str], curves: list[CalibrationCurve],
                 n_draws: int, seed: int) -> None:
    if len(channel_names) != len(curves):
        raise ShapeError(f"{len(channel_names)} channels vs {len(curves)} curves")
    n = len(curves)
    write_csv(
        path,
        ["channel", "miscalibration_area", "degenerate", "n_points", "n_draws", "seed"],
        [channel_names, [c.area for c in curves], [c.degenerate for c in curves],
         [c.n_points for c in curves], [n_draws] * n, [seed] * n],
    )


def write_bands_csv(path, replicas: ReplicaSet, sample_index: int,
                    channel_names: list[str]) -> None:
    _, batch, steps, channels = replicas.draws.shape
    if not 0 <= sample_index < batch:
        raise DataError(f"sample index {sample_index} out of range")
    if len(channel_names) != channels:
        raise ShapeError(f"{len(channel_names)} names for {channels} channels")
    mean, sd = ReplicaSet(draws=replicas.draws[:, sample_index], seed=replicas.seed).moments()
    write_csv(
        path,
        ["time_step", "channel", "mean", "sd"],
        [np.repeat(np.arange(steps), channels), list(channel_names) * steps,
         mean.ravel(), sd.ravel()],
    )


def write_calibration_csv(path, curve: CalibrationCurve) -> None:
    write_csv(path, ["expected", "observed"], [curve.expected, curve.observed])
