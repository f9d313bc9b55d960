"""Layered run configuration: INI file, environment, command-line flags.

Precedence, highest first: explicit CLI flag, config-file key, the
MODWATCH_SEED environment variable (seeds only), built-in default.
Unknown sections or keys in a config file are rejected outright, and every
command writes its fully-resolved configuration next to its outputs.
"""
from __future__ import annotations

import configparser
import os

from .errors import ConfigError
from .util import atomic_open

ENV_SEED = "MODWATCH_SEED"


def _ints(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


def _int_or_ints(raw: str):
    parts = _ints(raw)
    return parts[0] if len(parts) == 1 else parts


# section -> key -> converter
SCHEMA: dict[str, dict[str, object]] = {
    "general": {"seed": int, "jobs": int},
    "generate": {
        "modules": int,
        "samples_per_module": _int_or_ints,
        "time_steps": int,
        "noise_sd": float,
        "amplitude_spread": float,
        "frequency_spread": float,
        "faults": int,
        "flatline_fraction": float,
        "fault_modules": _ints,
        "seed": int,
    },
    "model": {
        "preset": str,
        "mode": str,
        "time_steps": int,
        "channels": int,
        "encoder_conv_blocks": int,
        "decoder_conv_blocks": int,
        "kernels_per_block": int,
        "kernel_width": int,
        "dense_units": int,
        "latent_dim": int,
        "module_count": int,
    },
    "train": {
        "batch_size": int,
        "learning_rate": float,
        "max_epochs": int,
        "patience": int,
        "eta": float,
        "seed": int,
    },
    "split": {
        "train_fraction": float,
        "val_fraction": float,
        "test_fraction": float,
        "seed": int,
    },
    "eval": {
        "fpr_budget": float,
        "mode": str,
        "n_draws": int,
        "batch_size": int,
        "seed": int,
    },
    "landscape": {
        "resolution": int,
        "span": float,
        "gamma_seed": int,
        "nu_seed": int,
        "depths": _ints,
        "batch_size": int,
        "dataset_split": str,
    },
    "uq": {"n_draws": int, "examples": int, "seed": int},
}


def load_config_file(path) -> dict[str, dict[str, str]]:
    """Parse an INI config, rejecting anything outside the schema."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {}
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            out[section][key] = value
    return out


def resolve_section(
    file_cfg: dict[str, dict[str, str]],
    section: str,
    defaults: dict,
    overrides: dict | None = None,
) -> dict:
    """Typed merge of defaults <- config file <- CLI overrides."""
    if section not in SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    resolved = dict(defaults)
    for key, raw in file_cfg.get(section, {}).items():
        conv = SCHEMA[section][key]
        try:
            resolved[key] = conv(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        resolved[key] = value
    return resolved


def resolve_seed(flag_seed, file_cfg: dict[str, dict[str, str]],
                 section: str = "general", default: int = 0) -> int:
    """Seed precedence: flag, config, MODWATCH_SEED env, default."""
    if flag_seed is not None:
        return int(flag_seed)
    raw = file_cfg.get(section, {}).get("seed")
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad seed in [{section}]: {raw!r}") from exc
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"bad {ENV_SEED} value: {env!r}") from exc
    return default


def write_resolved_config(path, sections: dict[str, dict]) -> None:
    """Self-documenting dump of every setting a run actually used, written
    atomically."""
    parser = configparser.ConfigParser()
    for name in sorted(sections):
        parser[name] = {}
        for key in sorted(sections[name]):
            value = sections[name][key]
            if isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            parser[name][key] = str(value)
    with atomic_open(path) as fh:
        parser.write(fh)
