"""Synthetic multichannel pulsed-waveform data with injectable faults.

A station is modelled as a set of identical high-voltage pulse modules.
Each sample is one macro-pulse: (time_steps, 14) float32 with the canonical
channel order below.  Normal samples are per-module parameterised templates
(trapezoidal MOD-V pulse, scaled MOD-I / CB-I variants, a drooping CB-V,
damped-oscillatory FLUX A/B/C, six phase-shifted IGBT current bursts) plus
Gaussian sensor noise; the DV/DT channel is always the scaled discrete
time-derivative of the final MOD-V channel, so the two stay consistent by
construction.

Faults perturb only their designated channels' generating parameters, with
a severity knob that fades to indistinguishable as it approaches zero.  A
deterministic fraction of fault samples flatline their designated channels
entirely (the severity = infinity analog: trivially detectable).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import serialize as ser
from .errors import ConfigError, DataError, ShapeError
from .util import check_finite, seeded_rng, write_csv

CHANNELS: tuple[str, ...] = (
    "IGBT-A+",
    "IGBT-A+*",
    "IGBT-B+",
    "IGBT-B+*",
    "IGBT-C+",
    "IGBT-C+*",
    "FLUX-A",
    "FLUX-B",
    "FLUX-C",
    "CB-V",
    "CB-I",
    "MOD-V",
    "MOD-I",
    "DV/DT",
)
CHANNEL_INDEX = {name: i for i, name in enumerate(CHANNELS)}
NORMAL_LABEL = "normal"

# derivative channel gain: keeps the MOD-V ramp slope O(1) in DV/DT units
DVDT_GAIN_PER_STEP = 0.1


class FaultClass(str, Enum):
    DVDT = "DV/DT"
    FLUX = "FLUX"
    IGBT = "IGBT"
    DRIVER = "Driver"
    SCR = "SCR"
    SNS_PPS = "SNS-PPS"


FAULT_CLASSES: tuple[FaultClass, ...] = tuple(FaultClass)

# Channels whose generating parameters each fault class touches.  The
# SNS-PPS timing shift moves the whole pulse, which shows up strongest on
# the phase-sensitive oscillating channels and the derivative channel.
DESIGNATED_CHANNELS: dict[FaultClass, tuple[str, ...]] = {
    FaultClass.DVDT: ("MOD-V", "DV/DT"),
    FaultClass.FLUX: ("FLUX-A", "FLUX-B", "FLUX-C"),
    FaultClass.IGBT: tuple(CHANNELS[0:6]),
    FaultClass.DRIVER: tuple(CHANNELS[0:6]),
    FaultClass.SCR: ("CB-V", "CB-I"),
    FaultClass.SNS_PPS: tuple(CHANNELS[0:6]) + ("FLUX-A", "FLUX-B", "FLUX-C", "DV/DT"),
}

_NOISE_TAG = 0x401
_FAULT_TAG = 0x402


def _default_mix() -> dict[FaultClass, float]:
    return {fc: 1.0 / len(FAULT_CLASSES) for fc in FAULT_CLASSES}


def _default_severity() -> dict[FaultClass, float]:
    return {
        FaultClass.DVDT: 2.0,
        FaultClass.FLUX: 1.0,
        FaultClass.IGBT: 1.0,
        FaultClass.DRIVER: 1.0,
        FaultClass.SCR: 1.0,
        FaultClass.SNS_PPS: 1.0,
    }


@dataclass(frozen=True)
class GeneratorConfig:
    module_count: int = 15
    samples_per_module: int | tuple[int, ...] = 40
    time_steps: int = 512
    noise_sd: float = 0.02
    amplitude_spread: float = 0.25
    frequency_spread: float = 0.30
    fault_count: int = 150
    fault_mix: dict[FaultClass, float] = field(default_factory=_default_mix)
    severity: dict[FaultClass, float] = field(default_factory=_default_severity)
    flatline_fraction: float = 0.05
    fault_modules: tuple[int, ...] | None = None
    seed: int = 0

    def validate(self) -> "GeneratorConfig":
        if self.module_count < 1:
            raise ConfigError(f"module_count must be >= 1, got {self.module_count}")
        if self.time_steps < 16:
            raise ConfigError(f"time_steps must be >= 16, got {self.time_steps}")
        counts = self.per_module_counts()
        if any(c < 0 for c in counts):
            raise ConfigError("samples_per_module entries must be >= 0")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be >= 0, got {self.noise_sd}")
        for name in ("amplitude_spread", "frequency_spread"):
            v = getattr(self, name)
            if not 0 <= v <= 0.9:
                raise ConfigError(f"{name} must lie in [0, 0.9], got {v}")
        if self.fault_count < 0:
            raise ConfigError(f"fault_count must be >= 0, got {self.fault_count}")
        if set(self.fault_mix) - set(FAULT_CLASSES):
            raise ConfigError(f"unknown fault classes in mix: {set(self.fault_mix) - set(FAULT_CLASSES)}")
        if any(v < 0 for v in self.fault_mix.values()):
            raise ConfigError("fault_mix proportions must be >= 0")
        if abs(sum(self.fault_mix.values()) - 1.0) > 1e-6:
            raise ConfigError(f"fault_mix proportions must sum to 1, got {sum(self.fault_mix.values())}")
        for fc, s in self.severity.items():
            if s <= 0:
                raise ConfigError(f"severity for {fc.value} must be > 0, got {s}")
        if not 0 <= self.flatline_fraction <= 1:
            raise ConfigError(f"flatline_fraction must lie in [0, 1], got {self.flatline_fraction}")
        if self.fault_modules is not None:
            bad = [m for m in self.fault_modules if not 0 <= m < self.module_count]
            if bad or not self.fault_modules:
                raise ConfigError(f"fault_modules out of range: {self.fault_modules}")
        return self

    def per_module_counts(self) -> tuple[int, ...]:
        if isinstance(self.samples_per_module, int):
            return (self.samples_per_module,) * self.module_count
        counts = tuple(int(c) for c in self.samples_per_module)
        if len(counts) != self.module_count:
            raise ConfigError(
                f"samples_per_module has {len(counts)} entries for {self.module_count} modules"
            )
        return counts


@dataclass
class WaveformTensor:
    """A batch of macro-pulse samples plus aligned per-sample metadata."""

    data: np.ndarray
    channel_names: tuple[str, ...]
    module_ids: np.ndarray
    labels: np.ndarray
    sample_ids: np.ndarray

    def validate(self) -> "WaveformTensor":
        if self.data.ndim != 3:
            raise ShapeError(f"waveform data must be 3-d, got dims {self.data.shape}")
        if self.data.dtype != np.float32:
            raise ShapeError(f"waveform data must be float32, got {self.data.dtype}")
        n = self.data.shape[0]
        if len(self.channel_names) != self.data.shape[2]:
            raise ShapeError(
                f"{len(self.channel_names)} channel names for {self.data.shape[2]} channels"
            )
        for name, arr in (
            ("module_ids", self.module_ids),
            ("labels", self.labels),
            ("sample_ids", self.sample_ids),
        ):
            if arr.shape != (n,):
                raise ShapeError(f"{name} dims {arr.shape} vs sample count {n}")
        check_finite(self.data, "waveform data")
        return self

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def time_steps(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def normal_mask(self) -> np.ndarray:
        return self.labels == NORMAL_LABEL

    def select(self, index) -> "WaveformTensor":
        return WaveformTensor(
            data=np.ascontiguousarray(self.data[index]),
            channel_names=self.channel_names,
            module_ids=self.module_ids[index].copy(),
            labels=self.labels[index].copy(),
            sample_ids=self.sample_ids[index].copy(),
        )

    def module_rows(self, module: int) -> "WaveformTensor":
        """The rows of one module, relabelled module 0 as a single-module
        model sees them."""
        out = self.select(self.module_ids == module)
        out.module_ids = np.zeros_like(out.module_ids)
        return out


def module_template_params(cfg: GeneratorConfig, module_id: int) -> dict[str, float]:
    """Deterministic per-module template parameters (no RNG involved)."""
    m_count = cfg.module_count
    if not 0 <= module_id < m_count:
        raise DataError(f"module id {module_id} out of range for {m_count} modules")
    u = module_id / (m_count - 1) if m_count > 1 else 0.5
    v = ((module_id * 7) % m_count) / (m_count - 1) if m_count > 1 else 0.5
    return {
        "amp": 1.0 + cfg.amplitude_spread * (2.0 * u - 1.0),
        "freq": 1.0 + cfg.frequency_spread * (2.0 * v - 1.0),
        "droop": 0.12 + 0.08 * u,
    }


def _trapezoid(t: np.ndarray, on: float, off: float, rise: float, fall: float) -> np.ndarray:
    up = np.clip((t - on) / rise, 0.0, 1.0)
    down = np.clip((off - t) / fall, 0.0, 1.0)
    return np.minimum(up, down) * ((t >= on) & (t <= off))


def render_sample(
    cfg: GeneratorConfig,
    module_id: int,
    sample_key: int,
    fault: FaultClass | None = None,
    severity: float | None = None,
    flatline: bool = False,
) -> np.ndarray:
    """Render one (time_steps, 14) sample.

    The noise stream depends only on (seed, sample_key), never on the fault
    arguments, so the severity -> 0 limit reproduces the normal counterpart
    of the same key exactly.
    """
    p = module_template_params(cfg, module_id)
    amp, freq, droop = p["amp"], p["freq"], p["droop"]
    steps = cfg.time_steps
    t = np.arange(steps, dtype=np.float64) / steps

    on, off = 0.10, 0.85
    rise, fall = 0.05, 0.07
    igbt_rise = 0.04
    flux_amp = [0.7 * amp] * 3
    flux_tau = 0.35
    igbt_amp = [0.9 * amp] * 6
    cb_level = 1.1 * amp
    cbi_scale = 0.6 * amp
    cbv_ripple = 0.0
    bump_height = 0.0
    bump_center = 0.5
    bump_width = 0.02

    sev = 0.0
    if fault is not None:
        sev = float(cfg.severity[fault] if severity is None else severity)
        if sev <= 0:
            raise ConfigError(f"severity must be > 0, got {sev}")
        frng = seeded_rng(cfg.seed, _FAULT_TAG, sample_key)
        if fault is FaultClass.DVDT:
            bump_height = 0.35 * amp * sev
            bump_center = frng.uniform(0.35, 0.65)
            bump_width = 0.05 * (1.0 + 0.5 * sev)
            rise *= 1.0 + 0.6 * sev
        elif fault is FaultClass.FLUX:
            signs = frng.choice([-1.0, 1.0], size=3)
            flux_amp = [a * (1.0 + 0.5 * sev * s) for a, s in zip(flux_amp, signs)]
            flux_tau /= 1.0 + 0.6 * sev
        elif fault is FaultClass.IGBT:
            pair = int(frng.integers(3))
            igbt_amp[2 * pair] *= 1.0 + 0.6 * sev
            igbt_amp[2 * pair + 1] *= max(1.0 - 0.6 * sev, 0.05)
        elif fault is FaultClass.DRIVER:
            igbt_rise *= 1.0 + 1.5 * sev
            igbt_amp = [a * max(1.0 - 0.25 * sev, 0.05) for a in igbt_amp]
        elif fault is FaultClass.SCR:
            droop *= 1.0 + 0.8 * sev
            cbi_scale *= max(1.0 - 0.3 * sev, 0.05)
            cbv_ripple = 0.05 * amp * sev
        elif fault is FaultClass.SNS_PPS:
            shift = 0.02 * sev * float(frng.choice([-1.0, 1.0]))
            on += shift
            off += shift

    window = (t >= on) & (t <= off)
    rel = t - on

    mod_v = amp * _trapezoid(t, on, off, rise, fall)
    if bump_height:
        center = on + bump_center * rise
        sigma = bump_width / 4.0
        mod_v = mod_v + bump_height * np.exp(-0.5 * ((t - center) / sigma) ** 2) * window

    mod_i = 0.8 * amp * _trapezoid(t, on, off, rise * 1.2, fall * 1.2)
    cb_i = cbi_scale * _trapezoid(t, on, off, rise, fall)

    cb_v = np.full(steps, cb_level)
    frac = np.clip((t - on) / max(off - on, 1e-9), 0.0, 1.0)
    cb_v = cb_v - cb_level * droop * frac * (t < off) - cb_level * droop * (t >= off)
    recover = t >= off
    cb_v[recover] += cb_level * droop * (1.0 - np.exp(-(t[recover] - off) / 0.05))
    if cbv_ripple:
        cb_v = cb_v + cbv_ripple * np.sin(2.0 * np.pi * 6.0 * freq * rel) * window

    phases = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
    damping = np.exp(-np.clip(rel, 0.0, None) / flux_tau)
    flux = [
        fa * np.sin(2.0 * np.pi * 12.0 * freq * rel + ph) * damping * window
        for fa, ph in zip(flux_amp, phases)
    ]

    igbt_env = _trapezoid(t, on, off, igbt_rise, fall)
    igbt = []
    for pair, ph in enumerate(phases):
        for star, extra in enumerate((0.0, np.pi)):
            idx = 2 * pair + star
            burst = np.abs(np.sin(2.0 * np.pi * 24.0 * freq * rel + ph + extra))
            igbt.append(igbt_amp[idx] * burst * igbt_env)

    sample = np.zeros((steps, len(CHANNELS)), dtype=np.float64)
    for i in range(6):
        sample[:, i] = igbt[i]
    for i in range(3):
        sample[:, 6 + i] = flux[i]
    sample[:, CHANNEL_INDEX["CB-V"]] = cb_v
    sample[:, CHANNEL_INDEX["CB-I"]] = cb_i
    sample[:, CHANNEL_INDEX["MOD-V"]] = mod_v
    sample[:, CHANNEL_INDEX["MOD-I"]] = mod_i

    if flatline:
        if fault is None:
            raise ConfigError("flatline is a fault mode; no fault class given")
        onset = int(round(0.10 * steps))
        for name in DESIGNATED_CHANNELS[fault]:
            ch = CHANNEL_INDEX[name]
            if ch != CHANNEL_INDEX["DV/DT"]:
                sample[onset:, ch] = 0.0

    if cfg.noise_sd > 0:
        nrng = seeded_rng(cfg.seed, _NOISE_TAG, sample_key)
        sample[:, :-1] += nrng.normal(0.0, cfg.noise_sd, size=(steps, len(CHANNELS) - 1))

    out = sample.astype(np.float32)
    # derive DV/DT from the stored (already float32-rounded) MOD-V so the
    # finite-difference identity holds on the emitted data
    gain = DVDT_GAIN_PER_STEP * steps
    mv = out[:, CHANNEL_INDEX["MOD-V"]].astype(np.float64)
    dvdt = np.zeros(steps, dtype=np.float64)
    dvdt[1:] = (mv[1:] - mv[:-1]) * gain
    out[:, CHANNEL_INDEX["DV/DT"]] = dvdt.astype(np.float32)
    return check_finite(out, "rendered sample")


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Integer allocation of ``total`` proportional to ``weights``."""
    wsum = sum(weights)
    if wsum <= 0:
        raise ConfigError("allocation weights must have a positive sum")
    raw = [total * w / wsum for w in weights]
    base = [math.floor(r) for r in raw]
    rem = total - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:rem]:
        base[i] += 1
    return base


def fault_plan(cfg: GeneratorConfig) -> list[tuple[FaultClass, int, bool]]:
    """Deterministic (class, module, flatline) schedule for fault samples."""
    counts = _largest_remainder(cfg.fault_count, [cfg.fault_mix.get(fc, 0.0) for fc in FAULT_CLASSES])
    modules = cfg.fault_modules if cfg.fault_modules is not None else tuple(range(cfg.module_count))
    plan = []
    cursor = 0
    for fc, k in zip(FAULT_CLASSES, counts):
        n_flat = int(round(cfg.flatline_fraction * k))
        for i in range(k):
            plan.append((fc, modules[cursor % len(modules)], i < n_flat))
            cursor += 1
    return plan


def generate(cfg: GeneratorConfig) -> WaveformTensor:
    """Render the full dataset described by ``cfg``: every normal sample for
    every module, then the fault schedule.  Pure in ``cfg`` (same seed, same
    bytes)."""
    cfg.validate()
    counts = cfg.per_module_counts()
    rows: list[np.ndarray] = []
    module_ids: list[int] = []
    labels: list[str] = []
    key = 0
    for m, n in enumerate(counts):
        for _ in range(n):
            rows.append(render_sample(cfg, m, key))
            module_ids.append(m)
            labels.append(NORMAL_LABEL)
            key += 1
    for fc, m, flat in fault_plan(cfg):
        rows.append(render_sample(cfg, m, key, fault=fc, flatline=flat))
        module_ids.append(m)
        labels.append(fc.value)
        key += 1
    if not rows:
        raise DataError("generator config produces an empty dataset")
    wt = WaveformTensor(
        data=np.stack(rows),
        channel_names=CHANNELS,
        module_ids=np.asarray(module_ids, dtype=np.int32),
        labels=np.asarray(labels, dtype="<U16"),
        sample_ids=np.arange(len(rows), dtype=np.int64),
    )
    return wt.validate()


@dataclass
class ChannelStats:
    """Per-channel standardisation statistics measured on a training split."""

    mean: np.ndarray
    sd: np.ndarray
    constant: np.ndarray

    CONSTANT_SD = 1e-8

    def save_csv(self, path, channel_names: tuple[str, ...]) -> None:
        write_csv(path, ["channel", "mean", "sd", "constant"],
                  [channel_names, self.mean, self.sd, self.constant])

    @classmethod
    def load_csv(cls, path) -> "ChannelStats":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise DataError(f"empty channel stats file {path}")
        mean = np.array([float(r["mean"]) for r in rows])
        sd = np.array([float(r["sd"]) for r in rows])
        constant = np.array([bool(int(r["constant"])) for r in rows])
        return cls(mean=mean, sd=sd, constant=constant)


def standardize(
    wt: WaveformTensor, stats: ChannelStats | None = None
) -> tuple[WaveformTensor, ChannelStats]:
    """Z-score each channel over samples x time.

    With ``stats=None`` the statistics are measured on ``wt`` itself (do
    this on the training split only); otherwise the given statistics are
    applied unchanged.  Constant channels map to exactly zero and are
    flagged rather than divided by ~0.
    """
    wt.validate()
    if stats is None:
        flat = wt.data.reshape(-1, wt.channels).astype(np.float64)
        mean = flat.mean(axis=0)
        sd = flat.std(axis=0)
        constant = sd < ChannelStats.CONSTANT_SD
        stats = ChannelStats(mean=mean, sd=sd, constant=constant)
    if stats.mean.shape != (wt.channels,):
        raise ShapeError(f"stats cover {stats.mean.shape[0]} channels, data has {wt.channels}")
    safe_sd = np.where(stats.constant, 1.0, stats.sd)
    out = (wt.data.astype(np.float64) - stats.mean) / safe_sd
    out[:, :, stats.constant] = 0.0
    new = WaveformTensor(
        data=out.astype(np.float32),
        channel_names=wt.channel_names,
        module_ids=wt.module_ids.copy(),
        labels=wt.labels.copy(),
        sample_ids=wt.sample_ids.copy(),
    )
    return new.validate(), stats


@dataclass
class SplitResult:
    train: WaveformTensor
    validation: WaveformTensor
    test: WaveformTensor


def split(
    wt: WaveformTensor,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> SplitResult:
    """Stratified train/validation/test split.

    Strata are (module, label) groups; normal strata follow ``fractions``,
    abnormal strata are divided between validation and test only (renormed
    to the validation:test ratio), so no fault ever reaches the training
    split.  Deterministic in ``seed``.
    """
    wt.validate()
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3 or any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be 3 non-negative values summing to 1, got {fractions}")
    has_abnormal = bool((~wt.normal_mask()).any())
    if has_abnormal and fr[1] + fr[2] <= 0:
        raise DataError("abnormal samples present but validation and test fractions are both 0")

    rng = seeded_rng(seed, 0x5411)
    parts: list[list[int]] = [[], [], []]
    keys = sorted(set(zip(wt.module_ids.tolist(), wt.labels.tolist())))
    for module_id, label in keys:
        idx = np.flatnonzero((wt.module_ids == module_id) & (wt.labels == label))
        idx = idx[rng.permutation(idx.size)]
        if label == NORMAL_LABEL:
            use = fr
        else:
            tail = fr[1] + fr[2]
            use = (0.0, fr[1] / tail, fr[2] / tail)
        # normal strata must be able to put a sample in every requested
        # split; abnormal strata may be arbitrarily small (they only feed
        # validation/test and land where the largest remainder puts them)
        n_nonzero = sum(1 for f in use if f > 0)
        if label == NORMAL_LABEL and idx.size < n_nonzero:
            raise DataError(
                f"stratum (module {module_id}, label {label!r}) has {idx.size} samples; "
                f"too small to fill {n_nonzero} splits"
            )
        alloc = _largest_remainder(idx.size, list(use))
        start = 0
        for part, k in enumerate(alloc):
            parts[part].extend(idx[start : start + k].tolist())
            start += k

    out = []
    for part in parts:
        sel = np.sort(np.asarray(part, dtype=np.int64))
        out.append(wt.select(sel))
    result = SplitResult(train=out[0], validation=out[1], test=out[2])
    if (~result.train.normal_mask()).any():
        raise DataError("internal error: abnormal sample assigned to the training split")
    return result


MAGIC = b"MWTS"
VERSION = 1


def save_dataset(path, wt: WaveformTensor) -> None:
    """Write a waveform tensor file (magic ``MWTS``): version, dims, the
    channel-name table, per-sample module ids and label indices (with their
    name table), then the row-major little-endian float32 payload."""
    wt.validate()
    if wt.module_ids.size and int(wt.module_ids.max()) > 0xFFFF:
        raise DataError("module ids exceed the u16 range of the file format")
    label_names = sorted(set(wt.labels.tolist()))
    if len(label_names) > 0x100:
        raise DataError(
            f"{len(label_names)} label names exceed the u8 label codes of the file format"
        )
    label_idx = {name: i for i, name in enumerate(label_names)}
    fh, owned = ser.open_maybe(path, "wb")
    try:
        fh.write(MAGIC)
        ser.write_u32(fh, VERSION)
        for d in wt.data.shape:
            ser.write_u32(fh, d)
        for name in wt.channel_names:
            ser.write_str(fh, name)
        fh.write(np.ascontiguousarray(wt.module_ids, dtype="<u2").tobytes())
        ser.write_u32(fh, len(label_names))
        for name in label_names:
            ser.write_str(fh, name)
        fh.write(np.array([label_idx[l] for l in wt.labels], dtype="<u1").tobytes())
        fh.write(np.ascontiguousarray(wt.data, dtype=ser.F32).tobytes())
    finally:
        if owned:
            fh.close()


def load_dataset(path) -> WaveformTensor:
    fh, owned = ser.open_maybe(path, "rb")
    try:
        ser.check_magic(fh, MAGIC, "waveform tensor")
        version = ser.read_u32(fh)
        if version != VERSION:
            raise DataError(f"unsupported waveform tensor version {version}")
        n, steps, chans = (ser.read_u32(fh) for _ in range(3))
        channel_names = tuple(ser.read_str(fh) for _ in range(chans))
        raw = ser.read_exact(fh, 2 * n, "module id array")
        module_ids = np.frombuffer(raw, dtype="<u2").astype(np.int32)
        n_labels = ser.read_u32(fh)
        label_names = [ser.read_str(fh) for _ in range(n_labels)]
        label_codes = np.frombuffer(ser.read_exact(fh, n, "label array"), dtype="<u1")
        if label_codes.size and int(label_codes.max()) >= n_labels:
            raise DataError("label index out of range")
        labels = np.asarray([label_names[c] for c in label_codes], dtype="<U16")
        data = ser.read_f32(fh, (n, steps, chans), "waveform payload")
        ser.expect_eof(fh, "waveform tensor")
    finally:
        if owned:
            fh.close()
    wt = WaveformTensor(
        data=data,
        channel_names=channel_names,
        module_ids=module_ids,
        labels=labels,
        sample_ids=np.arange(n, dtype=np.int64),
    )
    return wt.validate()


def dataset_bytes(wt: WaveformTensor) -> bytes:
    return ser.to_bytes(lambda fh: save_dataset(fh, wt))


def save_metadata_csv(path, wt: WaveformTensor) -> None:
    write_csv(path, ["sample_id", "module", "label"], [wt.sample_ids, wt.module_ids, wt.labels])


def desk_config(seed: int = 0, **overrides) -> GeneratorConfig:
    """Default laptop-sized dataset: 15 modules x 40 normals + 150 faults."""
    return replace(GeneratorConfig(seed=seed), **overrides).validate()
