"""Command-line surface: generate, train, eval, landscape, uq, reproduce.

Exit codes are a stable contract: 0 ok, else the ``exit_code`` of the
``errors`` class raised.  ``--out`` appears with the first file written,
so a run refused before then leaves none.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from functools import cached_property

import numpy as np

from . import config as C
from . import data as D
from . import evaluate as E
from . import landscape as L
from . import model as M
from . import uq as U
from .checkpoint import load_checkpoint
from .errors import ConfigError, DataError, ModwatchError
from .train import TrainConfig, train, train_single_module_suite, write_manifest
from .util import atomic_open, sha256_file

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ModwatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modwatch",
        description="Waveform anomaly-detection workbench: synthetic data, "
        "VAE/CVAE training, scoring, loss landscapes, calibration.",
    )
    sub = parser.add_subparsers(dest="command")

    _subcommand(sub, "generate", cmd_generate, "render a synthetic waveform dataset")

    p = _subcommand(sub, "train", cmd_train, "train a model on a dataset file")
    p.add_argument("--data", required=True, help="dataset file (.mwts)")
    p.add_argument("--mode", choices=("vae", "cvae"), default="cvae")
    p.add_argument("--module", default=None,
                   help="vae mode: module id to train, or 'all'")

    p = _subcommand(sub, "eval", cmd_eval, "score a dataset and write metric CSVs")
    p.add_argument("--data", required=True)
    p.add_argument("--multi", default=None,
                   help="multi-module checkpoint (file or training out dir)")
    p.add_argument("--single-dir", default=None,
                   help="directory holding vae_module_<id>/checkpoint.mwck")
    p.add_argument("--stats", default=None,
                   help="channel stats CSV (default: alongside the model)")

    p = _subcommand(sub, "landscape", cmd_landscape, "loss-surface grids and convexity report")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="checkpoint (file or out dir)")
    p.add_argument("--stats", default=None)
    p.add_argument("--depth-sweep", action="store_true",
                   help="retrain at several conv depths and map each surface")

    p = _subcommand(sub, "uq", cmd_uq, "latent-sampling replicas and calibration")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--stats", default=None)

    p = _subcommand(sub, "reproduce", cmd_reproduce, "run a packaged experiment bundle")
    p.add_argument("--experiment", choices=("detection", "depth", "calibration", "all"),
                   default="all")
    p.add_argument("--scale", choices=("desk", "full"), default="desk")
    p.add_argument("--force", action="store_true",
                   help="allow --scale full (about 42 min per epoch, up to 9 days, "
                        ">= 11 GiB)")
    return parser


def _subcommand(sub, name: str, func, help_text: str) -> argparse.ArgumentParser:
    """Subcommand ``name`` with --config, --out and one flag per setting in
    ``config.FLAGS[name]``, parsed as a config file's value would be."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--out", required=True, help="output directory")
    for setting in C.FLAGS[name]:
        section, key = setting.split(".")
        p.add_argument(C.FLAG_NAMES.get(setting, "--" + key.replace("_", "-")), dest=setting,
                       type=_flag_type(section, key), choices=C.CHOICES.get(setting))
    return p


def _flag_type(section: str, key: str):
    def parse(raw: str):
        try:
            return C.parse_value(section, key, raw)
        except ConfigError as exc:  # a usage error, as a bad int is
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = type(C.SETTINGS[section][key]).__name__  # named in argparse's errors
    return parse


def _file_cfg(args) -> dict:
    return C.load_config_file(args.config) if args.config else {}


def _settings(args, file_cfg, section: str, defaults=None) -> dict:
    """``[section]`` as this run uses it: flag > config key > MODWATCH_SEED
    (only for the seed the subcommand's --seed sets) > ``defaults`` (the
    built-in ones unless given)."""
    flags = {key: getattr(args, f"{section}.{key}", None) for key in C.SETTINGS[section]}
    resolved = C.resolve_section(file_cfg, section, defaults, flags)
    if (f"{section}.seed" in C.FLAGS[args.command] and flags["seed"] is None
            and "seed" not in file_cfg.get(section, {})):
        resolved["seed"] = C.env_seed(resolved["seed"])
    return resolved


def _jobs(args, file_cfg) -> int:
    return max(1, _settings(args, file_cfg, "general")["jobs"])


def _load_dataset(path) -> D.WaveformTensor:
    if not os.path.exists(path):
        raise DataError(f"dataset file not found: {path}")
    return D.load_dataset(path)


def _find_checkpoint(path) -> str:
    if os.path.isdir(path):
        candidate = os.path.join(path, "checkpoint.mwck")
        if not os.path.exists(candidate):
            raise DataError(f"no checkpoint.mwck under {path}")
        return candidate
    if not os.path.exists(path):
        raise DataError(f"checkpoint not found: {path}")
    return path


def _find_stats(stats_flag, model_path, wt: D.WaveformTensor) -> D.ChannelStats:
    """The channel statistics at ``stats_flag``, else beside the model, for
    ``wt``'s channels in order."""
    if stats_flag is None:
        base = model_path if os.path.isdir(model_path) else os.path.dirname(model_path)
        stats_flag = os.path.join(base, "stats.csv")
    if not os.path.exists(stats_flag):
        raise DataError(f"channel stats file not found: {stats_flag} (pass --stats explicitly)")
    return D.ChannelStats.load_csv(stats_flag, wt.channel_names)


class _Splits:
    """The ``[split]`` partition of one dataset.  Each part is standardized
    on first read, so a command pays only for the parts it uses; without
    given ``stats`` they are fitted on the train part."""

    def __init__(self, wt: D.WaveformTensor, config: dict, stats=None):
        self.config = config
        self.names = list(wt.channel_names)
        fractions = tuple(self.config[f"{part}_fraction"] for part in ("train", "val", "test"))
        self._parts = D.split(wt, fractions=fractions, seed=self.config["seed"])
        if stats is None:  # fitting standardizes the train part as well
            self.train, stats = D.standardize(self._parts.train)
        self.stats = stats

    @cached_property
    def train(self) -> D.WaveformTensor:
        return D.standardize(self._parts.train, self.stats)[0]

    @cached_property
    def val_normal(self) -> D.WaveformTensor:
        val = self._parts.validation
        return D.standardize(val.select(val.normal_mask()), self.stats)[0]

    @cached_property
    def test(self) -> D.WaveformTensor:
        return D.standardize(self._parts.test, self.stats)[0]

    def surface(self, dataset_split: str) -> D.WaveformTensor:
        """The part a loss surface is mapped on (``[landscape] dataset_split``)."""
        attr = {"train": "train", "val": "val_normal", "test": "test"}.get(dataset_split)
        if attr is None:
            raise ConfigError(f"unknown dataset_split {dataset_split!r}")
        return getattr(self, attr)


def _model_spec(args, file_cfg, wt: D.WaveformTensor, mode: str, defaults=None) -> M.ModelSpec:
    """Architecture from preset + config; dims and module count follow the
    data unless the config pins them."""
    section = _settings(args, file_cfg, "model", defaults or {})
    preset = section.pop("preset", None) or C.SETTINGS["model"]["preset"]
    if preset == "desk":
        base = M.desk_spec()
    elif preset == "full":
        base = M.full_spec()
    else:
        raise ConfigError(f"unknown model preset {preset!r}")
    fields = {
        "mode": mode,
        "time_steps": wt.data.shape[1],
        "channels": wt.data.shape[2],
        "module_count": int(wt.module_ids.max()) + 1 if wt.n_samples else 1,
    }
    fields.update(section)
    return dataclasses.replace(base, **fields).validate()


def _write_resolved(out, sections: dict) -> None:
    C.write_resolved_config(os.path.join(out, "resolved.ini"), sections)


# -------------------------------------------------------------------- stages
#
# Each stage is written once and called by its subcommand and by the
# matching ``reproduce`` experiment.


def _generate_stage(out, gen: dict) -> D.WaveformTensor:
    """Render the dataset of the resolved ``[generate]`` section ``gen``
    into ``out``."""
    field = {key: name for name, key in C.GENERATE_KEYS.items()}
    wt = D.generate(D.GeneratorConfig(**{field.get(k, k): v for k, v in gen.items()}).validate())
    D.save_dataset(os.path.join(out, "dataset.mwts"), wt)
    D.save_metadata_csv(os.path.join(out, "metadata.csv"), wt)
    return wt


def _train_stage(out, spec: M.ModelSpec, parts: _Splits, tc: TrainConfig,
                 jobs: int = 1, module=None):
    """Train the CVAE (``spec.mode == "cvae"``) or one VAE per module (only
    ``module`` when it is an id) into ``out``, with ``stats.csv`` beside
    every checkpoint."""
    parts.stats.save_csv(os.path.join(out, "stats.csv"), parts.names)
    if spec.mode == "cvae":
        result = train(spec, parts.train, parts.val_normal, tc, out_dir=out)
        print(
            f"cvae: {len(result.log.epochs)} epochs, best {result.log.best_epoch} "
            f"(val {result.log.best_validation_total():.6g}) -> {out}"
        )
        return result
    train_set, val_set = parts.train, parts.val_normal
    if module is not None:
        train_set = train_set.select(train_set.module_ids == module)
        val_set = val_set.select(val_set.module_ids == module)
    results = train_single_module_suite(spec, train_set, val_set, tc, jobs=jobs, out_dir=out)
    for m, res in sorted(results.items()):
        parts.stats.save_csv(os.path.join(out, f"vae_module_{m}", "stats.csv"), parts.names)
        print(
            f"vae module {m}: best epoch {res.log.best_epoch} "
            f"(val {res.log.best_validation_total():.6g})"
        )
    return results


def _detection_stage(out, parts: _Splits, ev: dict, multi=None, singles=None,
                     jobs: int = 1):
    """Score the test split with a multi-module model ``(spec, params)``
    and/or per-module models ``{module: (spec, params)}``, over ``jobs``
    worker threads, and write the detection metric CSVs.  The threshold is
    picked on validation normals.  Returns the manifest entries and the
    per-module scores."""
    names = parts.names
    draws = {"mode": ev["mode"], "n_draws": ev["n_draws"], "seed": ev["seed"],
             "batch_size": ev["batch_size"], "jobs": jobs}
    entries, multi_scores, single_scores = {}, None, None
    if multi is not None:
        spec, params = multi
        val_scores = E.score(params, spec, parts.val_normal, batch_size=ev["batch_size"],
                             jobs=jobs)
        threshold = E.pick_threshold(val_scores.aggregate, ev["fpr_budget"])
        multi_scores = E.score(params, spec, parts.test, **draws)
        agg, labels = multi_scores.aggregate, multi_scores.label
        flags = E.flagged(agg, threshold)
        normal_mask = labels == D.NORMAL_LABEL
        entries.update(
            {
                "threshold": repr(threshold),
                "flagged_normal": int(flags[normal_mask].sum()),
                "flagged_abnormal": int(flags[~normal_mask].sum()),
                "test_normal": int(normal_mask.sum()),
                "test_abnormal": int((~normal_mask).sum()),
            }
        )
        E.write_scores_csv(os.path.join(out, "scores.csv"), multi_scores, names)
        box, density = E.summarize(multi_scores, names)
        E.write_boxstats_csv(os.path.join(out, "boxstats.csv"), box)
        E.write_density_csv(os.path.join(out, "density.csv"), density)
        E.write_auc_table_csv(os.path.join(out, "auc_table.csv"),
                              E.auc_table(multi_scores, names))
        for fault in np.unique(labels[~normal_mask]).tolist():
            curve = E.roc_auc(agg[normal_mask], agg[labels == fault])
            safe = fault.replace("/", "-")
            E.write_roc_csv(os.path.join(out, f"roc_{safe}.csv"), curve)
            print(f"{fault}: aggregate AUC {curve.auc:.4f}")
        print(f"threshold {threshold:.6g} (budget {ev['fpr_budget']})")

    if singles is not None:
        # a vae model reads no module ids, so its scores keep the real module
        test = parts.test
        single_scores = {
            module: E.score(params, spec, test.select(test.module_ids == module), **draws)
            for module, (spec, params) in singles.items()
        }
        if multi_scores is not None:
            report = E.compare_methods(multi_scores, single_scores)
            E.write_comparison_csv(os.path.join(out, "report.csv"), report)
            deltas = [d for d in report["delta"] if d is not None]
            if deltas:
                mean_delta = float(np.mean(deltas))
                entries["mean_auc_delta"] = repr(mean_delta)
                print(f"multi - single mean AUC delta {mean_delta:+.4f}")
    return entries, single_scores


def _depth_stage(out, spec: M.ModelSpec, parts: _Splits, tc: TrainConfig, ls: dict,
                 jobs: int) -> None:
    """Retrain at each ``[landscape] depths`` conv depth and write every
    loss surface and the convexity report."""
    sweep = L.depth_sweep(ls["depths"], spec, parts.train, parts.val_normal, tc,
                          (ls["gamma_seed"], ls["nu_seed"]), ls["resolution"], ls["span"],
                          parts.surface(ls["dataset_split"]), ls["batch_size"], jobs)
    _write_surfaces(out, {f"depth{d}": sweep[d] for d in sorted(sweep)}, ls["resolution"])


def _write_surfaces(out, surfaces: dict[str, L.Surface], resolution: int) -> None:
    """Each surface's grid as ``landscape_<tag>.csv`` and, at a resolution
    with convexity reports, the reports as ``report.csv``."""
    rows = []
    for tag, surface in surfaces.items():
        L.write_landscape_csv(os.path.join(out, f"landscape_{tag}.csv"), surface.grid)
        line = f"{tag}: center {surface.grid.center_loss!r}"
        if surface.report is not None:
            rows.append(L.convexity_row(tag, surface.grid, surface.report))
            line += f" psd {surface.report.psd_fraction:.3f}"
        print(line)
    if resolution >= L.REPORT_RESOLUTION:
        L.write_convexity_csv(os.path.join(out, "report.csv"), rows)


def _calibration_stage(out, spec: M.ModelSpec, params, normals: D.WaveformTensor,
                       uc: dict, names: list, jobs: int = 1, bands: bool = True) -> list[int]:
    """Latent-sampling replicas of ``[uq] examples`` seeded picks from
    ``normals``, with the per-channel calibration of each module, and either
    every pick's uncertainty bands or each module's overall calibration
    curve.  Returns the modules covered."""
    n_draws, seed = uc["n_draws"], uc["seed"]
    chosen = normals.select(U.choose_examples(normals.n_samples, uc["examples"], seed))
    modules = sorted(set(chosen.module_ids.tolist()))
    for module in modules:
        subset = chosen.select(chosen.module_ids == module)
        reps = U.replicate(params, spec, subset.data, subset.module_ids, n_draws=n_draws,
                           seed=seed, jobs=jobs)
        observed = subset.data.astype(np.float64)
        U.write_uq_csv(
            os.path.join(out, f"uq_{module}.csv"), names,
            U.per_channel_calibration(reps, observed), n_draws=n_draws, seed=seed,
        )
        overall = U.miscalibration_area(reps, observed)
        if bands:
            for row, sid in enumerate(subset.sample_ids.tolist()):
                U.write_bands_csv(os.path.join(out, f"bands_{sid}.csv"), reps, row, names)
        else:
            U.write_calibration_csv(os.path.join(out, f"calibration_{module}.csv"), overall)
        print(f"module {module}: MA {overall.area:.4f} over {subset.n_samples} samples")
    return modules


# ------------------------------------------------------------------ generate


def cmd_generate(args) -> int:
    gen = _settings(args, _file_cfg(args), "generate")
    wt = _generate_stage(args.out, gen)
    _write_resolved(args.out, {"generate": gen})
    for module in sorted(set(wt.module_ids.tolist())):
        labels = wt.labels[wt.module_ids == module]
        normal = int((labels == D.NORMAL_LABEL).sum())
        print(f"module {module}: {normal} normal, {labels.size - normal} fault")
    print(f"total {wt.n_samples} samples -> {os.path.join(args.out, 'dataset.mwts')}")
    return 0


# --------------------------------------------------------------------- train


def _module_id(flag, parts: _Splits) -> int | None:
    """``--module`` as the id of a module with training samples, or None
    for every module."""
    if flag in (None, "all"):
        return None
    try:
        module = int(flag)
    except ValueError:
        raise ConfigError(f"--module must be a module id or 'all', got {flag!r}") from None
    if not (parts.train.module_ids == module).any():
        raise DataError(f"module {module} has no training samples")
    return module


def cmd_train(args) -> int:
    if args.mode == "cvae" and args.module is not None:
        raise ConfigError("--module needs --mode vae: the cvae trains on every module")
    file_cfg = _file_cfg(args)
    jobs = _jobs(args, file_cfg)
    wt = _load_dataset(args.data)
    parts = _Splits(wt, _settings(args, file_cfg, "split"))
    tc = TrainConfig(**_settings(args, file_cfg, "train")).validate()
    spec = _model_spec(args, file_cfg, wt, args.mode)
    module = _module_id(args.module, parts)
    _write_resolved(
        args.out,
        {
            "model": spec.to_kv(),
            "train": dataclasses.asdict(tc),
            "split": parts.config,
            "general": {"jobs": jobs},
        },
    )
    _train_stage(args.out, spec, parts, tc, jobs=jobs, module=module)
    return 0


# ---------------------------------------------------------------------- eval


def _load_single_models(single_dir) -> dict[int, tuple[M.ModelSpec, M.ModelParameters]]:
    if not os.path.isdir(single_dir):
        raise DataError(f"--single-dir is not a directory: {single_dir}")
    found = {}
    for entry in sorted(os.listdir(single_dir)):
        if not entry.startswith("vae_module_"):
            continue
        try:
            module = int(entry.rsplit("_", 1)[1])
        except ValueError:
            continue
        found[module] = load_checkpoint(
            os.path.join(single_dir, entry, "checkpoint.mwck")
        )
    if not found:
        raise DataError(f"no vae_module_<id> checkpoints under {single_dir}")
    return found


def cmd_eval(args) -> int:
    if args.multi is None and args.single_dir is None:
        raise ConfigError("give --multi and/or --single-dir")
    file_cfg = _file_cfg(args)
    jobs = _jobs(args, file_cfg)
    ev = _settings(args, file_cfg, "eval")
    wt = _load_dataset(args.data)
    stats = _find_stats(args.stats, args.multi if args.multi else args.single_dir, wt)
    parts = _Splits(wt, _settings(args, file_cfg, "split"), stats)
    multi = load_checkpoint(_find_checkpoint(args.multi)) if args.multi else None
    singles = _load_single_models(args.single_dir) if args.single_dir else None
    entries, single_scores = _detection_stage(args.out, parts, ev, multi, singles, jobs)
    for module, scores_m in sorted((single_scores or {}).items()):
        E.write_scores_csv(
            os.path.join(args.out, f"scores_module_{module}.csv"), scores_m, parts.names
        )
    write_manifest(
        os.path.join(args.out, "manifest.txt"),
        {
            "data": os.path.abspath(args.data),
            "mode": ev["mode"],
            "fpr_budget": ev["fpr_budget"],
            "test_samples": parts.test.n_samples,
            **entries,
        },
    )
    _write_resolved(args.out, {"eval": ev, "split": parts.config, "general": {"jobs": jobs}})
    return 0


# ----------------------------------------------------------------- landscape


def cmd_landscape(args) -> int:
    file_cfg = _file_cfg(args)
    jobs = _jobs(args, file_cfg)
    ls = _settings(args, file_cfg, "landscape")
    tc = TrainConfig(**_settings(args, file_cfg, "train")).validate()
    wt = _load_dataset(args.data)
    spec, params = load_checkpoint(_find_checkpoint(args.model))
    parts = _Splits(wt, _settings(args, file_cfg, "split"), _find_stats(args.stats, args.model, wt))

    if args.depth_sweep:
        _depth_stage(args.out, spec, parts, tc, ls, jobs)
    else:
        surface = L.map_surface(params, spec, parts.surface(ls["dataset_split"]),
                                (ls["gamma_seed"], ls["nu_seed"]), ls["resolution"],
                                ls["span"], tc.eta, ls["batch_size"], jobs)
        _write_surfaces(args.out, {"main": surface}, ls["resolution"])

    _write_resolved(
        args.out,
        {
            "landscape": ls,
            "train": dataclasses.asdict(tc),
            "split": parts.config,
            "general": {"jobs": jobs},
        },
    )
    return 0


# ------------------------------------------------------------------------ uq


def cmd_uq(args) -> int:
    file_cfg = _file_cfg(args)
    uc = _settings(args, file_cfg, "uq")
    wt = _load_dataset(args.data)
    spec, params = load_checkpoint(_find_checkpoint(args.model))
    parts = _Splits(wt, _settings(args, file_cfg, "split"), _find_stats(args.stats, args.model, wt))
    normals = parts.test.select(parts.test.normal_mask())
    if normals.n_samples == 0:
        raise DataError("test split has no normal samples")
    modules = _calibration_stage(args.out, spec, params, normals, uc, parts.names)
    write_manifest(
        os.path.join(args.out, "manifest.txt"),
        {
            "n_draws": uc["n_draws"],
            "examples": uc["examples"],
            "seed": uc["seed"],
            "modules": ",".join(str(m) for m in modules),
        },
    )
    _write_resolved(args.out, {"uq": uc, "split": parts.config})
    return 0


# ----------------------------------------------------------------- reproduce

# Per-section defaults of each experiment, by scale.  They sit between the
# built-in defaults and the config file: a config key overrides one entry.
# Desk detection runs at the built-in defaults.
_FULL_SIZES = {
    "generate": {"samples_per_module": 450, "time_steps": 4500, "faults": 450},
    "train": {"max_epochs": 300},
    "model": {"preset": "full"},
}
EXPERIMENT_SIZES = {
    "desk": {
        "detection": {},
        # smaller waveforms keep the six retrains tractable on a laptop
        "depth": {
            "generate": {"modules": 4, "samples_per_module": 24, "time_steps": 128,
                         "faults": 0},
            "model": {"kernels_per_block": 8, "dense_units": 32, "latent_dim": 16},
            "train": {"max_epochs": 30, "batch_size": 8},
            "landscape": {"resolution": 15},
        },
        "calibration": {
            "generate": {"modules": 4, "samples_per_module": 40, "time_steps": 256,
                         "faults": 0},
            "model": {"kernels_per_block": 8, "dense_units": 64, "latent_dim": 16},
            "train": {"max_epochs": 60, "batch_size": 8},
        },
    },
    "full": dict.fromkeys(("detection", "depth", "calibration"), _FULL_SIZES),
}


def cmd_reproduce(args) -> int:
    if args.scale == "full" and not args.force:
        raise ConfigError(
            "--scale full retrains everything at full size (about 7.5 s per step "
            "at batch 16, 42 min per epoch, up to 9 days for 300 epochs, and at "
            "least 11 GiB of parameter and optimizer state); re-run with --force "
            "to confirm"
        )
    file_cfg = _file_cfg(args)
    general = _settings(args, file_cfg, "general")
    jobs, seed = max(1, general["jobs"]), general["seed"]
    experiments = (
        ("detection", "depth", "calibration")
        if args.experiment == "all"
        else (args.experiment,)
    )
    for name in experiments:
        print(f"== {name} ({args.scale}) ==")
        sizes = EXPERIMENT_SIZES[args.scale][name]

        def sized(section, **plain):
            """``[section]`` over this experiment's sizes, then ``plain``."""
            defaults = {**C.SETTINGS[section], **sizes.get(section, {})}
            return {**_settings(args, file_cfg, section, defaults), **plain}

        exp_dir = os.path.join(args.out, name)
        gen = sized("generate", seed=seed)
        wt = _generate_stage(os.path.join(exp_dir, "data"), gen)
        parts = _Splits(wt, sized("split"))
        tc = TrainConfig(**sized("train", seed=seed)).validate()
        spec = _model_spec(args, file_cfg, wt, "cvae", sizes.get("model"))
        resolved = {"generate": gen, "split": parts.config, "train": dataclasses.asdict(tc)}
        if name == "detection":
            resolved["eval"] = sized("eval", mode="sampled", seed=seed)
            _reproduce_detection(exp_dir, spec, parts, tc, resolved["eval"], jobs)
        elif name == "depth":
            resolved["landscape"] = sized("landscape")
            _depth_stage(exp_dir, spec, parts, tc, resolved["landscape"], jobs)
        else:
            uc = resolved["uq"] = sized("uq", seed=seed)
            model = _train_stage(os.path.join(exp_dir, "model"), spec, parts, tc)
            normals = parts.test.select(parts.test.normal_mask())
            uc["examples"] = min(uc["examples"], normals.n_samples)
            _calibration_stage(exp_dir, spec, model.params, normals, uc, parts.names,
                               jobs=jobs, bands=False)
        _write_resolved(exp_dir, resolved)
    _write_repro_manifest(os.path.join(args.out, "MANIFEST.txt"), args.out)
    print(f"bundle complete -> {args.out}")
    return 0


def _reproduce_detection(exp_dir, spec, parts: _Splits, tc, ev, jobs) -> None:
    """Both model kinds, scores in ``ev``'s (sampled) mode, every detection
    metric, and the uncertainty bands of the first normal and first abnormal
    test sample."""
    models_dir = os.path.join(exp_dir, "models")
    cvae = _train_stage(os.path.join(models_dir, "cvae"), spec, parts, tc)
    suite = _train_stage(models_dir, dataclasses.replace(spec, mode="vae"), parts, tc, jobs)
    metrics_dir = os.path.join(exp_dir, "metrics")
    entries, _ = _detection_stage(
        metrics_dir, parts, ev,
        multi=(spec, cvae.params),
        singles={m: (r.spec, r.params) for m, r in suite.items()},
        jobs=jobs,
    )
    write_manifest(
        os.path.join(metrics_dir, "summary.txt"),
        {"threshold": entries["threshold"], "fpr_budget": ev["fpr_budget"],
         "test_samples": parts.test.n_samples},
    )
    bands_dir = os.path.join(exp_dir, "bands")
    normal = parts.test.normal_mask()
    for idx in (*np.flatnonzero(normal)[:1], *np.flatnonzero(~normal)[:1]):
        sample = parts.test.select(np.array([idx]))
        reps = U.replicate(cvae.params, spec, sample.data, sample.module_ids,
                           n_draws=ev["n_draws"], seed=ev["seed"])
        U.write_bands_csv(
            os.path.join(bands_dir, f"bands_{int(sample.sample_ids[0])}.csv"),
            reps, 0, parts.names,
        )


def _write_repro_manifest(path, root) -> None:
    """Write to ``path``, atomically, the SHA-256 of every file under
    ``root`` (``sha256sum`` format), leaving out files named as ``path``."""
    skip = os.path.basename(path)
    rels = sorted(
        os.path.relpath(os.path.join(d, name), root)
        for d, _, files in os.walk(root)
        for name in files
        if name != skip
    )
    with atomic_open(path) as fh:
        for rel in rels:
            fh.write(f"{sha256_file(os.path.join(root, rel))}  {rel}\n")


if __name__ == "__main__":
    sys.exit(main())
