"""Layered run configuration: INI file, environment, command-line flags.

Precedence, highest first: explicit CLI flag, config-file key, the
MODWATCH_SEED environment variable (seeds only), built-in default.
Unknown sections or keys in a config file are rejected outright, and every
command writes its fully-resolved configuration next to its outputs.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import fields

from .data import GeneratorConfig
from .errors import ConfigError
from .model import ModelSpec
from .train import TrainConfig
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


def finite_float(raw: str) -> float:
    """``float(raw)``, refusing ``nan`` and infinities with ``ValueError``."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# [generate] keys named apart from their GeneratorConfig field
GENERATE_KEYS = {"module_count": "modules", "fault_count": "faults"}

# section -> key -> built-in default.  A key's parser follows its default's
# type (see ``parse_value``).  [generate] is GeneratorConfig's fields but the
# fault mix and severities, which no setting reaches; [train] is
# TrainConfig's; [model] is ModelSpec's but ``mode``, whose defaults come
# from the preset and the data instead, so they only give the keys their
# types.
SETTINGS: dict[str, dict[str, object]] = {
    "general": {"seed": 0, "jobs": 1},
    "generate": {
        GENERATE_KEYS.get(f.name, f.name): f.default
        for f in fields(GeneratorConfig) if f.name not in ("fault_mix", "severity")
    },
    "model": {
        "preset": "desk",
        **{f.name: f.default for f in fields(ModelSpec) if f.name != "mode"},
    },
    "train": {f.name: f.default for f in fields(TrainConfig)},
    "split": {"train_fraction": 0.8, "val_fraction": 0.1, "test_fraction": 0.1, "seed": 0},
    "eval": {
        "fpr_budget": 0.10,
        "mode": "deterministic",
        "n_draws": 100,
        "batch_size": 32,
        "seed": 0,
    },
    "landscape": {
        "resolution": 25,
        "span": 1.0,
        "gamma_seed": 101,
        "nu_seed": 202,
        "depths": (3, 5, 10, 20, 30, 40),
        "batch_size": 64,
        "dataset_split": "train",
    },
    "uq": {"n_draws": 100, "examples": 10, "seed": 0},
}

_PARSERS = {int: int, float: finite_float, str: str, tuple: _ints}

# subcommand -> the "section.key" settings its flags override.  A flag is
# its key with dashes unless FLAG_NAMES names it; --seed sets the one seed
# MODWATCH_SEED stands in for.
FLAGS: dict[str, tuple[str, ...]] = {
    "generate": ("generate.modules", "generate.samples_per_module", "generate.time_steps",
                 "generate.faults", "generate.seed", "general.jobs"),
    "train": ("model.preset", "train.max_epochs", "train.batch_size", "train.learning_rate",
              "train.eta", "train.patience", "train.seed", "general.jobs"),
    "eval": ("eval.fpr_budget", "eval.mode", "eval.n_draws", "eval.seed", "general.jobs"),
    "landscape": ("landscape.resolution", "landscape.span", "train.seed", "general.jobs"),
    "uq": ("uq.n_draws", "uq.examples", "uq.seed", "general.jobs"),
    "reproduce": ("general.seed", "general.jobs"),
}
FLAG_NAMES = {"train.max_epochs": "--epochs", "landscape.resolution": "--res",
              "landscape.span": "--range"}
CHOICES = {"model.preset": ("desk", "full"), "eval.mode": ("deterministic", "sampled")}


def parse_value(section: str, key: str, raw: str):
    """A config-file string for ``section.key``, read as its default's type."""
    if key == "samples_per_module":  # one count for every module, or one each
        parts = _ints(raw)
        return parts[0] if len(parts) == 1 else parts
    return _PARSERS[type(SETTINGS[section][key])](raw)


def format_value(value) -> str:
    """``value`` as ``resolved.ini`` writes it and ``parse_value`` reads it."""
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def load_config_file(path) -> dict[str, dict[str, str]]:
    """Parse an INI config, rejecting anything outside the schema.  No
    setting takes ``%``, so values are read as written, uninterpolated."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {getattr(exc, 'strerror', exc)}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in SETTINGS:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {}
        for key, value in parser.items(section):
            if key not in SETTINGS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            out[section][key] = value
    return out


def resolve_section(
    file_cfg: dict[str, dict[str, str]],
    section: str,
    defaults: dict | None = None,
    overrides: dict | None = None,
) -> dict:
    """Typed merge of defaults (the built-in ones unless given) <- config
    file <- the ``overrides`` that are not ``None``."""
    if section not in SETTINGS:
        raise ConfigError(f"unknown config section [{section}]")
    resolved = dict(SETTINGS[section] if defaults is None else defaults)
    for key, raw in file_cfg.get(section, {}).items():
        try:
            resolved[key] = parse_value(section, key, raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    resolved.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return resolved


def env_seed(default: int) -> int:
    """The MODWATCH_SEED environment variable as a seed, else ``default``."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {ENV_SEED} value: {raw!r}") from exc


def write_resolved_config(path, sections: dict[str, dict]) -> None:
    """Self-documenting dump of every setting a run actually used, written
    atomically."""
    parser = configparser.ConfigParser(interpolation=None)
    for name in sorted(sections):
        parser[name] = {}
        for key in sorted(sections[name]):
            parser[name][key] = format_value(sections[name][key])
    with atomic_open(path) as fh:
        parser.write(fh)
