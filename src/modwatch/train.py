"""Seeded training loop with early stopping and best-checkpoint retention.

Training only ever sees normal samples; the caller hands in already
standardised train/validation splits.  Every epoch derives its own RNG
stream from (seed, epoch), so logs and final weights are bit-reproducible
for a given configuration on one platform.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as M
from . import serialize as ser
from .checkpoint import save_checkpoint
from .data import NORMAL_LABEL, WaveformTensor, save_dataset
from .errors import ConfigError, DataError, NumericError, ShapeError, TrainingDiverged
from .model import LossBreakdown, ModelParameters, ModelSpec
from .optim import AdamState, adam_step
from .tensor import Tensor, backward
from .util import atomic_open, parallel_map, seeded_rng, write_csv

_EPOCH_TAG = 0xE70C


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 20
    eta: float = 1.0
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.eta < 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        return self


@dataclass
class EpochRecord:
    epoch: int
    train: LossBreakdown
    validation: LossBreakdown


@dataclass
class TrainLog:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False
    wall_seconds: float = 0.0

    def best_validation_total(self) -> float:
        for rec in self.epochs:
            if rec.epoch == self.best_epoch:
                return rec.validation.total
        return float("nan")

    def save_csv(self, path) -> None:
        parts = ("reconstruction", "kld", "total")
        write_csv(
            path,
            ["epoch", "train_reconstruction", "train_kld", "train_total",
             "val_reconstruction", "val_kld", "val_total", "is_best"],
            [
                [r.epoch for r in self.epochs],
                *([getattr(r.train, p) for r in self.epochs] for p in parts),
                *([getattr(r.validation, p) for r in self.epochs] for p in parts),
                [r.epoch == self.best_epoch for r in self.epochs],
            ],
        )


@dataclass
class TrainResult:
    spec: ModelSpec
    params: ModelParameters
    log: TrainLog


def _check_inputs(spec: ModelSpec, train_set: WaveformTensor, val_set: WaveformTensor) -> None:
    for name, ds in (("train", train_set), ("validation", val_set)):
        ds.validate()
        if ds.data.shape[1:] != (spec.time_steps, spec.channels):
            raise ShapeError(
                f"{name} split dims {ds.data.shape[1:]} vs model "
                f"({spec.time_steps}, {spec.channels})"
            )
    if train_set.n_samples == 0:
        raise DataError("training split is empty")
    if val_set.n_samples == 0:
        raise DataError("validation split is empty")
    if not train_set.normal_mask().all():
        bad = sorted(set(train_set.labels[~train_set.normal_mask()].tolist()))
        raise DataError(f"training split contains abnormal samples: {bad}")
    overlap = set(train_set.sample_ids.tolist()) & set(val_set.sample_ids.tolist())
    if overlap:
        raise DataError(f"train/validation sample ids overlap: {sorted(overlap)[:5]} ...")
    if spec.mode == "cvae":
        for ds in (train_set, val_set):
            if ds.module_ids.size and int(ds.module_ids.max()) >= spec.module_count:
                raise DataError(
                    f"module id {int(ds.module_ids.max())} out of range for "
                    f"module_count {spec.module_count}"
                )


def dataset_loss(
    params: ModelParameters,
    spec: ModelSpec,
    ds: WaveformTensor,
    eta: float,
    batch_size: int,
) -> LossBreakdown:
    """Deterministic (epsilon = 0) loss over a whole split, evaluated in a
    fixed batch order with 64-bit sample-weighted accumulation."""
    params = params.frozen()  # forward only: no tape
    n = ds.n_samples
    sums = np.zeros(2, dtype=np.float64)  # reconstruction, kld
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        x = Tensor(ds.data[start:stop])
        br = M.loss(params, spec, x, ds.module_ids[start:stop], eta=eta, epsilon=None)
        weight = stop - start
        sums += np.array([br.reconstruction, br.kld]) * weight
    rec, kld = (sums / n).tolist()
    return LossBreakdown(rec, kld, eta, rec + eta * kld)


def train(
    spec: ModelSpec,
    train_set: WaveformTensor,
    val_set: WaveformTensor,
    config: TrainConfig,
    out_dir=None,
) -> TrainResult:
    """Train a model and return the best-validation-loss checkpoint.

    The retained parameters always correspond to the epoch whose validation
    total is minimal; training stops early once ``patience`` epochs pass
    without improvement.  With ``out_dir`` set, the checkpoint, the epoch
    log CSV, and a run manifest are written there.
    """
    spec.validate()
    config.validate()
    _check_inputs(spec, train_set, val_set)

    t0 = time.monotonic()
    params = M.init_parameters(spec, config.seed)
    best_params = params.clone()  # overwritten in place at each improving epoch
    adam = AdamState(params.count(), learning_rate=config.learning_rate)
    grad = np.empty_like(params.flat)
    log = TrainLog()
    best_val = float("inf")
    n = train_set.n_samples

    for epoch in range(1, config.max_epochs + 1):
        rng = seeded_rng(config.seed, _EPOCH_TAG, epoch)
        perm = rng.permutation(n)
        sums = np.zeros(2, dtype=np.float64)
        for start in range(0, n, config.batch_size):
            take = perm[start : start + config.batch_size]
            x = Tensor(train_set.data[take])
            ids = train_set.module_ids[take]
            eps = rng.standard_normal((take.size, spec.latent_dim)).astype(np.float32)
            # overflow is detected (and reported) via the loss check, so the
            # intermediate fp warnings are pure noise
            with np.errstate(over="ignore", invalid="ignore"):
                tensors = M.loss_forward(params, spec, x, ids, eta=config.eta, epsilon=eps)
                try:
                    br = tensors.breakdown()
                except NumericError as exc:
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch starting {start}"
                    ) from exc
                try:
                    backward(tensors.total)
                    adam_step(params.flat, params.take_grads(grad), adam)
                except NumericError as exc:
                    raise TrainingDiverged(
                        f"non-finite gradient at epoch {epoch}, batch starting {start}"
                    ) from exc
            sums += np.array([br.reconstruction, br.kld]) * take.size
        rec, kld = (sums / n).tolist()
        train_br = LossBreakdown(rec, kld, config.eta, rec + config.eta * kld)
        val_br = dataset_loss(params, spec, val_set, config.eta, config.batch_size)
        log.epochs.append(EpochRecord(epoch=epoch, train=train_br, validation=val_br))
        if val_br.total < best_val:
            best_val = val_br.total
            best_params.copy_from(params)
            log.best_epoch = epoch
        elif epoch - log.best_epoch >= config.patience:
            log.stopped_early = True
            break

    log.wall_seconds = time.monotonic() - t0
    result = TrainResult(spec=spec, params=best_params, log=log)
    if out_dir is not None:
        write_run_artifacts(out_dir, result, config, train_set, val_set)
    return result


def write_run_artifacts(
    out_dir, result: TrainResult, config: TrainConfig, train_set, val_set
) -> None:
    ckpt_path = os.path.join(out_dir, "checkpoint.mwck")
    ckpt_sha256 = save_checkpoint(ckpt_path, result.spec, result.params)
    result.log.save_csv(os.path.join(out_dir, "trainlog.csv"))
    manifest = {
        "mode": result.spec.mode,
        "model_spec": ";".join(f"{k}={v}" for k, v in result.spec.to_kv().items()),
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "max_epochs": config.max_epochs,
        "patience": config.patience,
        "eta": config.eta,
        "seed": config.seed,
        "train_samples": train_set.n_samples,
        "validation_samples": val_set.n_samples,
        "train_data_sha256": ser.sha256_hex(lambda fh: save_dataset(fh, train_set)),
        "validation_data_sha256": ser.sha256_hex(lambda fh: save_dataset(fh, val_set)),
        "checkpoint": "checkpoint.mwck",
        "checkpoint_sha256": ckpt_sha256,
        "epochs_run": len(result.log.epochs),
        "best_epoch": result.log.best_epoch,
        "best_validation_total": result.log.best_validation_total(),
        "stopped_early": result.log.stopped_early,
        "wall_seconds": f"{result.log.wall_seconds:.3f}",
    }
    write_manifest(os.path.join(out_dir, "manifest.txt"), manifest)


def write_manifest(path, entries: dict) -> None:
    with atomic_open(path) as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def read_manifest(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def train_single_module_suite(
    spec: ModelSpec,
    train_set: WaveformTensor,
    val_set: WaveformTensor,
    config: TrainConfig,
    jobs: int = 1,
    out_dir=None,
) -> dict[int, TrainResult]:
    """Train one single-module (unconditioned) model per module.

    Every per-module model uses identical hyperparameters and the same
    weight-initialisation seed, so differences between modules come from
    their data alone.  Module order and worker count do not affect results.
    With ``out_dir`` set, each module's run artifacts are written to
    ``out_dir/vae_module_<id>``.
    """
    spec.validate()
    config.validate()
    modules = sorted(set(train_set.module_ids.tolist()))
    if not modules:
        raise DataError("training split is empty")
    single_spec = replace(spec, mode="vae", module_count=1).validate()

    def _one(module_id: int) -> tuple[int, TrainResult]:
        tr = train_set.module_rows(module_id)
        va = val_set.module_rows(module_id)
        va = va.select(va.normal_mask())
        n_batches = -(-tr.n_samples // config.batch_size) if tr.n_samples else 0
        if n_batches < 2:
            raise DataError(
                f"module {module_id} has {tr.n_samples} training samples: fewer than "
                f"2 batches of {config.batch_size}"
            )
        if va.n_samples == 0:
            raise DataError(f"module {module_id} has no normal validation samples")
        module_dir = None
        if out_dir is not None:
            module_dir = os.path.join(out_dir, f"vae_module_{module_id}")
        return module_id, train(single_spec, tr, va, config, out_dir=module_dir)

    return dict(parallel_map(_one, modules, jobs))
