"""Convolutional VAE / conditional VAE over multichannel waveforms.

Architecture (both directions mirror each other):

* encoder: three (by default) width-3 Conv1D blocks with ReLU, flatten,
  one dense block, then (in cvae mode) concatenation of the one-hot module
  label, and two dense heads producing the latent mean and log-variance.
* decoder: latent draw (again concatenated with the label in cvae mode),
  two dense blocks, reshape back to (time, kernels), and a mirrored stack
  of Conv1D blocks whose last layer maps to the waveform channels with no
  output activation.

The latent scale is stored as log-variance; sigma = exp(0.5 * log_var) is
always strictly positive by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError
from .tensor import DTYPE, LayerWeights, Tensor
from .util import check_finite, seeded_rng

MODES = ("vae", "cvae")


@dataclass(frozen=True)
class ModelSpec:
    """Hyperparameters that fix the network topology exactly."""

    mode: str = "cvae"
    time_steps: int = 512
    channels: int = 14
    encoder_conv_blocks: int = 3
    decoder_conv_blocks: int = 3
    kernels_per_block: int = 16
    kernel_width: int = 3
    dense_units: int = 64
    latent_dim: int = 32
    module_count: int = 15

    def validate(self) -> "ModelSpec":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in (
            "time_steps",
            "channels",
            "encoder_conv_blocks",
            "decoder_conv_blocks",
            "kernels_per_block",
            "kernel_width",
            "dense_units",
            "latent_dim",
            "module_count",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
        if self.kernel_width % 2 == 0:
            raise ShapeError(f"kernel_width must be odd, got {self.kernel_width}")
        if self.time_steps < self.kernel_width:
            raise ShapeError(
                f"time_steps {self.time_steps} shorter than kernel_width {self.kernel_width}"
            )
        return self

    @property
    def condition_width(self) -> int:
        return self.module_count if self.mode == "cvae" else 0

    def with_depth(self, depth: int) -> "ModelSpec":
        return replace(self, encoder_conv_blocks=depth, decoder_conv_blocks=depth).validate()

    def to_kv(self) -> dict[str, str]:
        return {k: str(getattr(self, k)) for k in self.__dataclass_fields__}

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "ModelSpec":
        kwargs = {}
        for name, f in cls.__dataclass_fields__.items():
            if name not in kv:
                raise ConfigError(f"model spec block is missing {name!r}")
            raw = kv[name]
            kwargs[name] = raw if f.type == "str" else int(raw)
        return cls(**kwargs).validate()


def desk_spec(mode: str = "cvae") -> ModelSpec:
    """Laptop-sized preset used by the test-suite and default CLI runs."""
    return ModelSpec(mode=mode).validate()


def full_spec(mode: str = "cvae") -> ModelSpec:
    """Production-sized preset: 4500-step pulses, 128 kernels, 512-wide
    dense and latent layers.  Training at this size takes hours."""
    return ModelSpec(
        mode=mode,
        time_steps=4500,
        channels=14,
        kernels_per_block=128,
        dense_units=512,
        latent_dim=512,
    ).validate()


class ModelParameters:
    """Ordered, named collection of LayerWeights for one model."""

    def __init__(self, layers: dict[str, LayerWeights]):
        self.layers = dict(layers)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, lw in self.layers.items():
            out.append((f"{name}.kernels", lw.kernels))
            out.append((f"{name}.bias", lw.bias))
        return out

    def zero_grads(self) -> None:
        for _, t in self.named_tensors():
            t.grad = None

    def count(self) -> int:
        return sum(t.data.size for _, t in self.named_tensors())

    def frozen(self) -> "ModelParameters":
        """The same arrays as constants: a forward pass through them records
        no operation tape and keeps no intermediate alive for a backward."""
        return ModelParameters({
            name: LayerWeights(lw.kind, Tensor(lw.kernels.data), Tensor(lw.bias.data))
            for name, lw in self.layers.items()
        })

    def clone(self) -> "ModelParameters":
        layers = {}
        for name, lw in self.layers.items():
            rq = lw.kernels.requires_grad
            layers[name] = LayerWeights(
                lw.kind,
                Tensor(lw.kernels.data.copy(), requires_grad=rq),
                Tensor(lw.bias.data.copy(), requires_grad=rq),
            )
        return ModelParameters(layers)


def _uniform_layer(rng: np.random.Generator, kind: str, dims: tuple[int, ...]) -> LayerWeights:
    # fan-in scaled uniform: U(-1/sqrt(fan_in), 1/sqrt(fan_in)); zero bias
    fan_in = int(np.prod(dims[1:]))
    bound = 1.0 / np.sqrt(fan_in)
    kernels = rng.uniform(-bound, bound, size=dims).astype(DTYPE)
    bias = np.zeros(dims[0], dtype=DTYPE)
    return LayerWeights(kind, Tensor(kernels, requires_grad=True), Tensor(bias, requires_grad=True))


def layer_plan(spec: ModelSpec) -> list[tuple[str, str, tuple[int, ...]]]:
    """Topology as (name, kind, kernel dims) in canonical parameter order."""
    k, width = spec.kernels_per_block, spec.kernel_width
    cond = spec.condition_width
    flat = spec.time_steps * k
    plan: list[tuple[str, str, tuple[int, ...]]] = []
    cin = spec.channels
    for i in range(spec.encoder_conv_blocks):
        plan.append((f"enc.conv{i}", "conv1d", (k, cin, width)))
        cin = k
    plan.append(("enc.dense", "dense", (spec.dense_units, flat)))
    plan.append(("enc.mu", "dense", (spec.latent_dim, spec.dense_units + cond)))
    plan.append(("enc.logvar", "dense", (spec.latent_dim, spec.dense_units + cond)))
    plan.append(("dec.dense0", "dense", (spec.dense_units, spec.latent_dim + cond)))
    plan.append(("dec.dense1", "dense", (flat, spec.dense_units)))
    for i in range(spec.decoder_conv_blocks):
        cout = spec.channels if i == spec.decoder_conv_blocks - 1 else k
        plan.append((f"dec.conv{i}", "conv1d", (cout, k, width)))
    return plan


def init_parameters(spec: ModelSpec, seed: int) -> ModelParameters:
    spec.validate()
    rng = seeded_rng(seed, 0xA11C)
    layers = {name: _uniform_layer(rng, kind, dims) for name, kind, dims in layer_plan(spec)}
    return ModelParameters(layers)


def one_hot(module_ids: np.ndarray, module_count: int) -> np.ndarray:
    ids = np.asarray(module_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"module ids must be 1-d, got dims {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= module_count):
        raise DataError(
            f"module id out of range: saw {int(ids.min())}..{int(ids.max())} "
            f"with module_count {module_count}"
        )
    out = np.zeros((ids.size, module_count), dtype=DTYPE)
    out[np.arange(ids.size), ids] = 1.0
    return out


@dataclass
class LatentDistribution:
    """Diagonal Gaussian over the latent space; scale kept as log-variance."""

    mu: Tensor
    log_var: Tensor
    epsilon: Tensor | None = None
    z: Tensor | None = None

    def sigma(self) -> Tensor:
        return T.exp(T.scalar_mul(self.log_var, 0.5))


@dataclass
class LossBreakdown:
    reconstruction: float
    kld: float
    eta: float
    total: float


def _condition_tensor(spec: ModelSpec, module_ids: np.ndarray | None, batch: int) -> Tensor | None:
    if spec.mode != "cvae":
        return None
    if module_ids is None:
        raise ShapeError("cvae mode requires module ids for conditioning")
    ids = np.asarray(module_ids)
    if ids.shape != (batch,):
        raise ShapeError(f"module ids dims {ids.shape} vs batch {batch}")
    return Tensor(one_hot(ids, spec.module_count))


def encode(
    params: ModelParameters,
    spec: ModelSpec,
    x: Tensor,
    module_ids: np.ndarray | None = None,
) -> LatentDistribution:
    """Map (batch, time, channels) inputs to a latent Gaussian."""
    if x.data.ndim != 3 or x.dims[1:] != (spec.time_steps, spec.channels):
        raise ShapeError(
            f"encode: input dims {x.dims} vs spec (*, {spec.time_steps}, {spec.channels})"
        )
    cond = _condition_tensor(spec, module_ids, x.dims[0])
    h = x
    for i in range(spec.encoder_conv_blocks):
        h = params.layers[f"enc.conv{i}"].apply_to(h)
    h = T.flatten(h)
    h = params.layers["enc.dense"].apply_to(h)
    if cond is not None:
        h = T.concat([h, cond])
    mu = params.layers["enc.mu"].apply_to(h, activation=False)
    log_var = params.layers["enc.logvar"].apply_to(h, activation=False)
    return LatentDistribution(mu=mu, log_var=log_var)


def reparameterize(dist: LatentDistribution, epsilon: np.ndarray) -> Tensor:
    """Draw z = mu + sigma * eps.  Gradients flow to mu and log_var only;
    eps enters as a constant."""
    eps = np.asarray(epsilon, dtype=DTYPE)
    if eps.shape != dist.mu.dims:
        raise ShapeError(f"epsilon dims {eps.shape} vs latent dims {dist.mu.dims}")
    eps_t = Tensor(eps)
    z = T.add(dist.mu, T.mul(dist.sigma(), eps_t))
    dist.epsilon = eps_t
    dist.z = z
    return z


def decode(
    params: ModelParameters,
    spec: ModelSpec,
    z: Tensor,
    module_ids: np.ndarray | None = None,
) -> Tensor:
    """Map latent draws back to (batch, time, channels) waveforms."""
    if z.data.ndim != 2 or z.dims[1] != spec.latent_dim:
        raise ShapeError(f"decode: latent dims {z.dims} vs spec (*, {spec.latent_dim})")
    cond = _condition_tensor(spec, module_ids, z.dims[0])
    h = z if cond is None else T.concat([z, cond])
    h = params.layers["dec.dense0"].apply_to(h)
    h = params.layers["dec.dense1"].apply_to(h)
    h = T.reshape(h, (z.dims[0], spec.time_steps, spec.kernels_per_block))
    last = spec.decoder_conv_blocks - 1
    for i in range(spec.decoder_conv_blocks):
        h = params.layers[f"dec.conv{i}"].apply_to(h, activation=(i != last))
    return h


def mse(x: Tensor, x_hat: Tensor) -> Tensor:
    """Mean squared error over every element, accumulated in 64-bit."""
    if x.dims != x_hat.dims:
        raise ShapeError(f"mse: dims {x.dims} vs {x_hat.dims}")
    return T.mean(T.square(T.sub(x, x_hat)))


def kld_gaussian(dist: LatentDistribution) -> Tensor:
    """KL divergence of N(mu, sigma^2) from N(0, I), averaged over the batch.

    Analytic form -0.5 * sum(1 + log_var - mu^2 - exp(log_var)); zero
    exactly when mu = 0 and log_var = 0, positive otherwise.
    """
    inner = T.scalar_add(
        T.sub(dist.log_var, T.add(T.square(dist.mu), T.exp(dist.log_var))), 1.0
    )
    per_sample = T.scalar_mul(T.sum_axis(inner, axis=1), -0.5)
    return T.mean(per_sample)


@dataclass
class LossTensors:
    """Scalar loss graph nodes for one forward pass, plus the latent used."""

    reconstruction: Tensor
    kld: Tensor
    total: Tensor
    eta: float
    dist: LatentDistribution = field(repr=False)

    def breakdown(self) -> LossBreakdown:
        rec, kl, tot = (
            self.reconstruction.item(),
            self.kld.item(),
            self.total.item(),
        )
        check_finite(np.array([rec, kl, tot]), "loss")
        return LossBreakdown(rec, kl, self.eta, tot)


def loss_forward(
    params: ModelParameters,
    spec: ModelSpec,
    x: Tensor,
    module_ids: np.ndarray | None = None,
    eta: float = 1.0,
    epsilon: np.ndarray | None = None,
) -> LossTensors:
    """Full objective: reconstruction MSE + eta * KLD.

    ``epsilon=None`` means deterministic evaluation with z = mu (the
    epsilon = 0 limit); pass a (batch, latent) draw for stochastic steps.
    """
    dist = encode(params, spec, x, module_ids)
    if epsilon is None:
        z = dist.mu
        dist.z = z
    else:
        z = reparameterize(dist, epsilon)
    x_hat = decode(params, spec, z, module_ids)
    rec = mse(x, x_hat)
    kl = kld_gaussian(dist)
    total = T.add(rec, T.scalar_mul(kl, eta))
    return LossTensors(reconstruction=rec, kld=kl, total=total, eta=eta, dist=dist)


def loss(
    params: ModelParameters,
    spec: ModelSpec,
    x: Tensor,
    module_ids: np.ndarray | None = None,
    eta: float = 1.0,
    epsilon: np.ndarray | None = None,
) -> LossBreakdown:
    return loss_forward(params, spec, x, module_ids, eta, epsilon).breakdown()


def reconstruct(
    params: ModelParameters,
    spec: ModelSpec,
    x: np.ndarray,
    module_ids: np.ndarray | None = None,
    epsilon: np.ndarray | None = None,
) -> np.ndarray:
    """Encode then decode plain arrays; deterministic when epsilon is None."""
    xt = Tensor(x)
    dist = encode(params, spec, xt, module_ids)
    z = dist.mu if epsilon is None else reparameterize(dist, epsilon)
    return decode(params, spec, z, module_ids).data
