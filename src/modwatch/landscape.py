"""Filter-normalized 2-D loss surfaces f(alpha, beta) = L(theta + alpha*g + beta*n).

Directions are drawn per layer and rescaled so every conv filter and dense
row matches the Frobenius norm of the corresponding weight unit; biases
are not moved.  Grid cells are independent, evaluated with the latent
noise frozen to zero, and may be computed by any number of workers without
changing a single bit of the result.  Every surface, one model's or a
depth sweep's, is mapped by :func:`map_surface`.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import WaveformTensor
from .errors import ConfigError, DataError, NumericError, ShapeError
from .model import ModelParameters, ModelSpec
from .tensor import DTYPE
from .train import TrainConfig, dataset_loss, train
from .util import parallel_map, seeded_rng, write_csv

_DIRECTION_TAG = 0xD1A

# the smallest grid side the convexity report's 5-point stencil and rays need
REPORT_RESOLUTION = 5


@dataclass
class Direction:
    layers: dict[str, np.ndarray]  # layer name -> kernel direction; biases are not moved
    seed: int


def random_direction(params: ModelParameters, seed: int) -> Direction:
    """Standard-normal draw per weight entry, filter-normalized to the
    parameters; zero-norm weight units yield zero direction units."""
    rng = seeded_rng(seed, _DIRECTION_TAG)
    layers = {
        name: rng.standard_normal(lw.kernels.data.shape).astype(DTYPE)
        for name, lw in params.layers.items()
    }
    return normalize_direction(Direction(layers=layers, seed=seed), params)


def _check_dims(direction: Direction, params: ModelParameters) -> None:
    for name, lw in params.layers.items():
        if name not in direction.layers:
            raise ShapeError(f"direction is missing layer {name!r}")
        dims = direction.layers[name].shape
        if dims != lw.kernels.data.shape:
            raise ShapeError(f"direction dims {dims} vs weights "
                             f"{lw.kernels.data.shape} for layer {name!r}")


def normalize_direction(direction: Direction, params: ModelParameters) -> Direction:
    """Rescale each unit so ||d_unit|| == ||w_unit|| (Frobenius, float64);
    a unit where either norm is zero becomes zero."""
    _check_dims(direction, params)
    layers = {}
    for name, lw in params.layers.items():
        src = direction.layers[name]
        wn = unit_norms(lw.kernels.data)
        dn = unit_norms(src)
        live = (wn != 0.0) & (dn != 0.0)
        scale = np.divide(wn, dn, out=np.zeros_like(wn), where=live)
        out = (src.astype(np.float64) * scale.reshape(-1, *[1] * (src.ndim - 1))).astype(DTYPE)
        out[~live] = 0.0
        layers[name] = out
    return Direction(layers=layers, seed=direction.seed)


def unit_norms(arr: np.ndarray) -> np.ndarray:
    """Frobenius norm of each output unit (axis-0 slice), in float64."""
    flat = arr.astype(np.float64).reshape(arr.shape[0], -1)
    return np.linalg.norm(flat, axis=1)


@dataclass
class LandscapeGrid:
    alphas: np.ndarray  # (resolution,)
    betas: np.ndarray  # (resolution,)
    losses: np.ndarray  # (resolution, resolution), row=alpha, col=beta; inf = overflow
    center_loss: float
    eta: float

    @property
    def overflowed(self) -> np.ndarray:
        return ~np.isfinite(self.losses)


def _offset_parameters(
    params: ModelParameters, gamma: Direction, nu: Direction, alpha: float, beta: float
) -> ModelParameters:
    shifted = params.clone()
    for name, lw in shifted.layers.items():
        # fixed operand order; the two scaled terms commute bitwise, which
        # makes evaluate_grid(gamma, nu) the exact transpose of (nu, gamma)
        lw.kernels.data += alpha * gamma.layers[name] + beta * nu.layers[name]
    return shifted


def evaluate_grid(
    params: ModelParameters,
    spec: ModelSpec,
    gamma: Direction,
    nu: Direction,
    data: WaveformTensor,
    resolution: int = 25,
    span: float = 1.0,
    eta: float = 1.0,
    batch_size: int = 64,
    jobs: int = 1,
) -> LandscapeGrid:
    """Loss over the (alpha, beta) grid with epsilon frozen to 0.

    Cells that overflow to non-finite loss are recorded as +inf rather than
    aborting the grid.
    """
    if gamma.seed == nu.seed:
        raise ConfigError("gamma and nu must come from different seeds")
    axis = grid_axis(resolution, span)
    data.validate()
    if data.n_samples == 0:
        raise DataError("landscape data is empty")
    _check_dims(gamma, params)
    _check_dims(nu, params)

    def _cell(alpha: float, beta: float) -> float:
        shifted = _offset_parameters(params, gamma, nu, float(alpha), float(beta))
        with np.errstate(all="ignore"):
            try:
                return dataset_loss(shifted, spec, data, eta, batch_size).total
            except NumericError:
                return float("inf")

    cells = [(alpha, beta) for alpha in axis for beta in axis]
    losses = np.array(parallel_map(lambda ab: _cell(*ab), cells, jobs), dtype=np.float64)
    return LandscapeGrid(
        alphas=axis,
        betas=axis,
        losses=losses.reshape(resolution, resolution),
        center_loss=_cell(0.0, 0.0),
        eta=eta,
    )


def grid_axis(resolution: int, span: float) -> np.ndarray:
    """The alpha (and beta) values of a grid: ``resolution`` points from
    ``-span`` to ``span``, or the centre alone at resolution 1."""
    if resolution < 1:
        raise ConfigError(f"resolution must be >= 1, got {resolution}")
    if span <= 0:
        raise ConfigError(f"span must be > 0, got {span}")
    return np.zeros(1) if resolution == 1 else np.linspace(-span, span, resolution)


@dataclass
class ConvexityReport:
    psd_fraction: float
    interior_count: int
    loss_min: float
    loss_max: float
    ray_monotonicity: float
    center_minimal: bool
    overflow_count: int
    resolution: int


def convexity_report(grid: LandscapeGrid) -> ConvexityReport:
    """Discrete 5-point-stencil convexity diagnostics.

    An interior point counts as PSD when both axis second differences are
    nonnegative and all five stencil values are finite; overflowed cells
    therefore count against convexity.
    """
    r = grid.losses.shape[0]
    if r < REPORT_RESOLUTION:
        raise ConfigError(f"convexity report needs resolution >= {REPORT_RESOLUTION}, got {r}")
    f = grid.losses
    center = f[1:-1, 1:-1]
    with np.errstate(all="ignore"):
        fxx = f[2:, 1:-1] + f[:-2, 1:-1] - 2.0 * center
        fyy = f[1:-1, 2:] + f[1:-1, :-2] - 2.0 * center
        finite5 = (
            np.isfinite(center)
            & np.isfinite(f[2:, 1:-1])
            & np.isfinite(f[:-2, 1:-1])
            & np.isfinite(f[1:-1, 2:])
            & np.isfinite(f[1:-1, :-2])
        )
        psd = finite5 & (fxx >= 0.0) & (fyy >= 0.0)

    finite = f[np.isfinite(f)]
    c = r // 2
    rays_monotone = 0
    for di, dj in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        vals = []
        i, j = c, c
        while 0 <= i < r and 0 <= j < r:
            vals.append(f[i, j])
            i += di
            j += dj
        diffs = np.diff(np.array(vals))
        if diffs.size and not np.any(np.isnan(diffs)) and np.all(diffs >= 0.0):
            rays_monotone += 1

    center_val = f[c, c]
    center_minimal = bool(
        np.isfinite(center_val)
        and finite.size > 0
        and center_val <= np.percentile(finite, 5.0)
    )
    return ConvexityReport(
        psd_fraction=float(psd.mean()),
        interior_count=int(psd.size),
        loss_min=float(finite.min()) if finite.size else float("nan"),
        loss_max=float(finite.max()) if finite.size else float("nan"),
        ray_monotonicity=rays_monotone / 8.0,
        center_minimal=center_minimal,
        overflow_count=int((~np.isfinite(f)).sum()),
        resolution=r,
    )


@dataclass
class Surface:
    grid: LandscapeGrid
    report: ConvexityReport | None  # None below REPORT_RESOLUTION


def map_surface(
    params: ModelParameters,
    spec: ModelSpec,
    data: WaveformTensor,
    direction_seeds: tuple[int, int] = (101, 202),
    resolution: int = 25,
    span: float = 1.0,
    eta: float = 1.0,
    batch_size: int = 64,
    jobs: int = 1,
) -> Surface:
    """The loss surface of ``params`` on ``data`` over the two directions
    drawn from ``direction_seeds``, with its convexity report when the grid
    is large enough for one."""
    gamma = random_direction(params, direction_seeds[0])
    nu = random_direction(params, direction_seeds[1])
    grid = evaluate_grid(params, spec, gamma, nu, data, resolution, span, eta, batch_size, jobs)
    return Surface(grid, convexity_report(grid) if resolution >= REPORT_RESOLUTION else None)


def depth_sweep(
    depths,
    spec: ModelSpec,
    train_set: WaveformTensor,
    val_set: WaveformTensor,
    config: TrainConfig,
    direction_seeds: tuple[int, int] = (101, 202),
    resolution: int = 25,
    span: float = 1.0,
    surface_data: WaveformTensor | None = None,
    batch_size: int = 64,
    jobs: int = 1,
) -> dict[int, Surface]:
    """Train one model per conv-block depth (identical seed and data) and
    map its loss surface; all other settings held constant.  Every setting
    is checked before the first model trains.

    Surfaces default to the training split.
    """
    if direction_seeds[0] == direction_seeds[1]:
        raise ConfigError("direction seeds must differ")
    grid_axis(resolution, span)
    specs = {int(depth): spec.with_depth(int(depth)) for depth in depths}
    data = train_set if surface_data is None else surface_data
    out = {}
    for depth, deep_spec in specs.items():
        params = train(deep_spec, train_set, val_set, config).params
        out[depth] = map_surface(params, deep_spec, data, direction_seeds, resolution, span,
                                 config.eta, batch_size, jobs)
    return out


# ---------------------------------------------------------------- CSV output


def write_landscape_csv(path, grid: LandscapeGrid) -> None:
    """Matrix layout: header row of beta values, first column alpha."""
    write_csv(path, ["alpha", *grid.betas], [grid.alphas, *grid.losses.T])


def write_convexity_csv(path, rows: list[dict]) -> None:
    """One row per :func:`convexity_row` dict; a missing key is an empty cell."""
    cols = ["tag", *(f.name for f in fields(ConvexityReport)), "center_loss"]
    write_csv(path, cols, [[r.get(c) for r in rows] for c in cols])


def convexity_row(tag: str, grid: LandscapeGrid, report: ConvexityReport) -> dict:
    return {"tag": tag, **asdict(report), "center_loss": grid.center_loss}
