"""Filter-normalized 2-D loss surfaces f(alpha, beta) = L(theta + alpha*g + beta*n).

Directions are drawn per layer and rescaled so every conv filter and dense
row matches the Frobenius norm of the corresponding weight unit; bias
entries stay zero.  Grid cells are independent, evaluated with the latent
noise frozen to zero, and may be computed by any number of workers without
changing a single bit of the result.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import WaveformTensor
from .errors import ConfigError, DataError, NumericError, ShapeError
from .model import LayerWeights, ModelParameters, ModelSpec
from .tensor import DTYPE, Tensor
from .train import TrainConfig, dataset_loss, train
from .util import seeded_rng, sha256_bytes, write_csv

_DIRECTION_TAG = 0xD1A


@dataclass
class DirectionLayer:
    kernels: np.ndarray
    bias: np.ndarray  # always zero; kept so dims mirror the parameters


@dataclass
class Direction:
    layers: dict[str, DirectionLayer]
    seed: int
    tag: str = "gamma"


def random_direction(params: ModelParameters, seed: int, tag: str = "gamma") -> Direction:
    """Standard-normal draw per weight entry, filter-normalized to the
    parameters; zero-norm weight units yield zero direction units."""
    rng = seeded_rng(seed, _DIRECTION_TAG)
    layers = {}
    for name, lw in params.layers.items():
        draw = rng.standard_normal(lw.kernels.data.shape).astype(DTYPE)
        layers[name] = DirectionLayer(
            kernels=draw, bias=np.zeros_like(lw.bias.data)
        )
    d = Direction(layers=layers, seed=seed, tag=tag)
    return normalize_direction(d, params)


def _check_dims(direction: Direction, params: ModelParameters) -> None:
    for name, lw in params.layers.items():
        if name not in direction.layers:
            raise ShapeError(f"direction is missing layer {name!r}")
        dims = direction.layers[name].kernels.shape
        if dims != lw.kernels.data.shape:
            raise ShapeError(f"direction dims {dims} vs weights "
                             f"{lw.kernels.data.shape} for layer {name!r}")


def normalize_direction(direction: Direction, params: ModelParameters) -> Direction:
    """Rescale each unit so ||d_unit|| == ||w_unit|| (Frobenius, float64);
    a unit where either norm is zero becomes zero."""
    _check_dims(direction, params)
    layers = {}
    for name, lw in params.layers.items():
        src = direction.layers[name].kernels
        wn = unit_norms(lw.kernels.data)
        dn = unit_norms(src)
        live = (wn != 0.0) & (dn != 0.0)
        scale = np.divide(wn, dn, out=np.zeros_like(wn), where=live)
        out = (src.astype(np.float64) * scale.reshape(-1, *[1] * (src.ndim - 1))).astype(DTYPE)
        out[~live] = 0.0
        layers[name] = DirectionLayer(kernels=out, bias=np.zeros_like(lw.bias.data))
    return Direction(layers=layers, seed=direction.seed, tag=direction.tag)


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
    resolution: int
    span: float
    eta: float
    n_samples: int
    dataset_checksum: str
    gamma_seed: int
    nu_seed: int

    @property
    def overflowed(self) -> np.ndarray:
        return ~np.isfinite(self.losses)


def _offset_parameters(
    params: ModelParameters, gamma: Direction, nu: Direction, alpha: float, beta: float
) -> ModelParameters:
    layers = {}
    for name, lw in params.layers.items():
        g = gamma.layers[name].kernels
        v = nu.layers[name].kernels
        # fixed operand order; the two scaled terms commute bitwise, which
        # makes evaluate_grid(gamma, nu) the exact transpose of (nu, gamma)
        shifted = lw.kernels.data + (alpha * g + beta * v)
        layers[name] = LayerWeights(
            lw.kind,
            Tensor(shifted, requires_grad=False),
            Tensor(lw.bias.data, requires_grad=False),
        )
    return ModelParameters(layers)


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
    if resolution < 1:
        raise ConfigError(f"resolution must be >= 1, got {resolution}")
    if span <= 0:
        raise ConfigError(f"span must be > 0, got {span}")
    data.validate()
    if data.n_samples == 0:
        raise DataError("landscape data is empty")
    _check_dims(gamma, params)
    _check_dims(nu, params)

    if resolution == 1:
        alphas = np.zeros(1)
        betas = np.zeros(1)
    else:
        alphas = np.linspace(-span, span, resolution)
        betas = np.linspace(-span, span, resolution)

    def _cell(alpha: float, beta: float) -> float:
        shifted = _offset_parameters(params, gamma, nu, float(alpha), float(beta))
        with np.errstate(all="ignore"):
            try:
                return dataset_loss(shifted, spec, data, eta, batch_size).total
            except NumericError:
                return float("inf")

    cells = [(i, j) for i in range(resolution) for j in range(resolution)]
    if jobs <= 1:
        values = [_cell(alphas[i], betas[j]) for i, j in cells]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(lambda ij: _cell(alphas[ij[0]], betas[ij[1]]), cells))

    losses = np.empty((resolution, resolution), dtype=np.float64)
    for (i, j), v in zip(cells, values):
        losses[i, j] = v

    return LandscapeGrid(
        alphas=alphas,
        betas=betas,
        losses=losses,
        center_loss=_cell(0.0, 0.0),
        resolution=resolution,
        span=span,
        eta=eta,
        n_samples=data.n_samples,
        dataset_checksum=sha256_bytes(data.data.tobytes()),
        gamma_seed=gamma.seed,
        nu_seed=nu.seed,
    )


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
    r = grid.resolution
    if r < 5:
        raise ConfigError(f"convexity report needs resolution >= 5, got {r}")
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
class DepthResult:
    depth: int
    grid: LandscapeGrid
    report: ConvexityReport
    best_validation_total: float


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
) -> dict[int, DepthResult]:
    """Train one model per conv-block depth (identical seed and data) and
    compute its loss surface; all other settings held constant.

    Surfaces default to the training split.
    """
    if direction_seeds[0] == direction_seeds[1]:
        raise ConfigError("direction seeds must differ")
    data = train_set if surface_data is None else surface_data
    out: dict[int, DepthResult] = {}
    for depth in depths:
        if depth in out:
            continue
        deep_spec = spec.with_depth(int(depth))
        result = train(deep_spec, train_set, val_set, config)
        gamma = random_direction(result.params, direction_seeds[0], tag="gamma")
        nu = random_direction(result.params, direction_seeds[1], tag="nu")
        grid = evaluate_grid(
            result.params,
            deep_spec,
            gamma,
            nu,
            data,
            resolution=resolution,
            span=span,
            eta=config.eta,
            batch_size=batch_size,
            jobs=jobs,
        )
        out[int(depth)] = DepthResult(
            depth=int(depth),
            grid=grid,
            report=convexity_report(grid),
            best_validation_total=result.log.best_validation_total(),
        )
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
