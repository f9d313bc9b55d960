"""Command-line surface: generate, train, eval, landscape, uq, reproduce.

Exit codes are a stable contract: 0 ok, 2 configuration, 3 numeric
(including training divergence), 4 data, 5 shape.
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
from .errors import (
    ConfigError,
    DataError,
    ModwatchError,
    NumericError,
    ShapeError,
)
from .train import TrainConfig, train, train_single_module_suite, write_manifest
from .util import atomic_open, sha256_file

EXIT_CODES: tuple[tuple[type, int], ...] = (
    (ConfigError, 2),
    (NumericError, 3),
    (DataError, 4),
    (ShapeError, 5),
)

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ModwatchError as exc:
        for etype, code in EXIT_CODES:
            if isinstance(exc, etype):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modwatch",
        description="Waveform anomaly-detection workbench: synthetic data, "
        "VAE/CVAE training, scoring, loss landscapes, calibration.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="render a synthetic waveform dataset")
    _common_flags(p)
    p.add_argument("--modules", type=int, help="number of modules")
    p.add_argument("--samples-per-module", type=str,
                   help="normal samples per module (int or comma list)")
    p.add_argument("--time-steps", type=int)
    p.add_argument("--faults", type=int, help="total abnormal samples")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a dataset file")
    _common_flags(p)
    p.add_argument("--data", required=True, help="dataset file (.mwts)")
    p.add_argument("--mode", choices=("vae", "cvae"), default="cvae")
    p.add_argument("--module", default=None,
                   help="vae mode: module id to train, or 'all'")
    p.add_argument("--preset", choices=("desk", "full"), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=C.finite_float, default=None)
    p.add_argument("--eta", type=C.finite_float, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a dataset and write metric CSVs")
    _common_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--multi", default=None,
                   help="multi-module checkpoint (file or training out dir)")
    p.add_argument("--single-dir", default=None,
                   help="directory holding vae_module_<id>/checkpoint.mwck")
    p.add_argument("--stats", default=None,
                   help="channel stats CSV (default: alongside the model)")
    p.add_argument("--fpr-budget", type=C.finite_float, default=None)
    p.add_argument("--mode", choices=("deterministic", "sampled"), default=None)
    p.add_argument("--n-draws", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("landscape", help="loss-surface grids and convexity report")
    _common_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="checkpoint (file or out dir)")
    p.add_argument("--stats", default=None)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--range", dest="span", type=C.finite_float, default=None)
    p.add_argument("--depth-sweep", action="store_true",
                   help="retrain at several conv depths and map each surface")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("uq", help="latent-sampling replicas and calibration")
    _common_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--n-draws", type=int, default=None)
    p.add_argument("--examples", type=int, default=None)
    p.set_defaults(func=cmd_uq)

    p = sub.add_parser("reproduce", help="run a packaged experiment bundle")
    _common_flags(p)
    p.add_argument("--experiment", choices=("detection", "depth", "calibration", "all"),
                   default="all")
    p.add_argument("--scale", choices=("desk", "full"), default="desk")
    p.add_argument("--force", action="store_true",
                   help="allow --scale full (about 42 min per epoch, up to 9 days, "
                        ">= 11 GiB)")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker threads for per-module training, landscape cells "
                        "and eval scoring; uq ignores it")


def _file_cfg(args) -> dict:
    return C.load_config_file(args.config) if args.config else {}


def _jobs(args, file_cfg) -> int:
    if args.jobs is not None:
        return max(1, args.jobs)
    return max(1, C.resolve_section(file_cfg, "general")["jobs"])


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


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


def _find_stats(stats_flag, model_path) -> D.ChannelStats:
    if stats_flag is None:
        base = model_path if os.path.isdir(model_path) else os.path.dirname(model_path)
        stats_flag = os.path.join(base, "stats.csv")
    if not os.path.exists(stats_flag):
        raise ConfigError(
            f"channel stats file not found: {stats_flag} (pass --stats explicitly)"
        )
    return D.ChannelStats.load_csv(stats_flag)


class _Splits:
    """The ``[split]`` partition of one dataset.  Each part is standardized
    on first read, so a command pays only for the parts it uses; without
    given ``stats`` they are fitted on the train part."""

    def __init__(self, wt: D.WaveformTensor, file_cfg: dict, stats=None):
        self.config = C.resolve_section(file_cfg, "split")
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


def _model_spec(file_cfg, wt: D.WaveformTensor, mode: str, defaults=None,
                preset=None) -> M.ModelSpec:
    """Architecture from preset + config; dims and module count follow the
    data unless the config pins them."""
    section = C.resolve_section(file_cfg, "model", defaults or {}, {"preset": preset})
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


def _train_config(file_cfg, seed, defaults=None, **overrides) -> TrainConfig:
    resolved = C.resolve_section(file_cfg, "train", defaults, overrides)
    resolved["seed"] = C.resolve_seed(seed, file_cfg, "train", default=resolved["seed"])
    return TrainConfig(**resolved).validate()


def _write_resolved(out, sections: dict) -> None:
    C.write_resolved_config(os.path.join(out, "resolved.ini"), sections)


# -------------------------------------------------------------------- stages
#
# Each stage is written once and called by its subcommand and by the
# matching ``reproduce`` experiment.


def _generate_stage(out, file_cfg, seed, defaults=None, overrides=None):
    """Render the ``[generate]`` dataset into ``out``; returns it with the
    resolved section."""
    gen = C.resolve_section(file_cfg, "generate", defaults, overrides)
    gen["seed"] = C.resolve_seed(seed, file_cfg, "generate", default=gen["seed"])
    wt = D.generate(
        D.GeneratorConfig(
            module_count=gen["modules"],
            samples_per_module=gen["samples_per_module"],
            time_steps=gen["time_steps"],
            noise_sd=gen["noise_sd"],
            amplitude_spread=gen["amplitude_spread"],
            frequency_spread=gen["frequency_spread"],
            fault_count=gen["faults"],
            flatline_fraction=gen["flatline_fraction"],
            fault_modules=gen["fault_modules"] or None,
            seed=gen["seed"],
        ).validate()
    )
    os.makedirs(out, exist_ok=True)
    D.save_dataset(os.path.join(out, "dataset.mwts"), wt)
    D.save_metadata_csv(os.path.join(out, "metadata.csv"), wt)
    return wt, gen


def _train_stage(out, spec: M.ModelSpec, parts: _Splits, tc: TrainConfig,
                 jobs: int = 1, module=None):
    """Train the CVAE (``spec.mode == "cvae"``) or one VAE per module (only
    ``module`` when it is an id) into ``out``, with ``stats.csv`` beside
    every checkpoint."""
    os.makedirs(out, exist_ok=True)
    parts.stats.save_csv(os.path.join(out, "stats.csv"), parts.names)
    if spec.mode == "cvae":
        result = train(spec, parts.train, parts.val_normal, tc, out_dir=out)
        print(
            f"cvae: {len(result.log.epochs)} epochs, best {result.log.best_epoch} "
            f"(val {result.log.best_validation_total():.6g}) -> {out}"
        )
        return result
    train_set, val_set = parts.train, parts.val_normal
    if module not in (None, "all"):
        try:
            module = int(module)
        except ValueError:
            raise ConfigError(f"--module must be a module id or 'all', got {module!r}") from None
        train_set = train_set.select(train_set.module_ids == module)
        val_set = val_set.select(val_set.module_ids == module)
        if train_set.n_samples == 0:
            raise DataError(f"module {module} has no training samples")
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
    sweep = L.depth_sweep(
        ls["depths"],
        spec,
        parts.train,
        parts.val_normal,
        tc,
        direction_seeds=(ls["gamma_seed"], ls["nu_seed"]),
        resolution=ls["resolution"],
        span=ls["span"],
        surface_data=parts.surface(ls["dataset_split"]),
        batch_size=ls["batch_size"],
        jobs=jobs,
    )
    rows = []
    for depth, res in sorted(sweep.items()):
        tag = f"depth{depth}"
        L.write_landscape_csv(os.path.join(out, f"landscape_{tag}.csv"), res.grid)
        rows.append(L.convexity_row(tag, res.grid, res.report))
        print(
            f"depth {depth}: psd {res.report.psd_fraction:.3f} "
            f"center {res.grid.center_loss:.6g}"
        )
    L.write_convexity_csv(os.path.join(out, "report.csv"), rows)


def _calibration_stage(out, spec: M.ModelSpec, params, normals: D.WaveformTensor,
                       examples: int, n_draws: int, seed: int, names: list,
                       jobs: int = 1, bands: bool = True) -> list[int]:
    """Latent-sampling replicas of ``examples`` seeded picks from
    ``normals``, with the per-channel calibration of each module, and either
    every pick's uncertainty bands or each module's overall calibration
    curve.  Returns the modules covered."""
    chosen = normals.select(U.choose_examples(normals.n_samples, examples, seed))
    modules = sorted(set(chosen.module_ids.tolist()))
    for module in modules:
        subset = chosen.select(chosen.module_ids == module)
        ids = subset.module_ids if spec.mode == "cvae" else None
        reps = U.replicate(params, spec, subset.data, ids, n_draws=n_draws, seed=seed,
                           jobs=jobs)
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
    spm = args.samples_per_module
    overrides = {
        "modules": args.modules,
        "samples_per_module": C._int_or_ints(spm) if spm is not None else None,
        "time_steps": args.time_steps,
        "faults": args.faults,
    }
    wt, gen = _generate_stage(args.out, _file_cfg(args), args.seed, overrides=overrides)
    _write_resolved(args.out, {"generate": gen})
    for module in sorted(set(wt.module_ids.tolist())):
        labels = wt.labels[wt.module_ids == module]
        normal = int((labels == D.NORMAL_LABEL).sum())
        print(f"module {module}: {normal} normal, {labels.size - normal} fault")
    print(f"total {wt.n_samples} samples -> {os.path.join(args.out, 'dataset.mwts')}")
    return 0


# --------------------------------------------------------------------- train


def cmd_train(args) -> int:
    file_cfg = _file_cfg(args)
    jobs = _jobs(args, file_cfg)
    wt = _load_dataset(args.data)
    parts = _Splits(wt, file_cfg)
    tc = _train_config(
        file_cfg, args.seed, max_epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, eta=args.eta, patience=args.patience,
    )
    spec = _model_spec(file_cfg, wt, args.mode, preset=args.preset)
    out = _outdir(args)
    _write_resolved(
        out,
        {
            "model": spec.to_kv(),
            "train": dataclasses.asdict(tc),
            "split": parts.config,
            "general": {"jobs": jobs},
        },
    )
    _train_stage(out, spec, parts, tc, jobs=jobs, module=args.module)
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
    ev = C.resolve_section(
        file_cfg,
        "eval",
        overrides={
            "fpr_budget": args.fpr_budget,
            "mode": args.mode,
            "n_draws": args.n_draws,
        },
    )
    ev["seed"] = C.resolve_seed(args.seed, file_cfg, "eval", default=ev["seed"])
    wt = _load_dataset(args.data)
    stats = _find_stats(args.stats, args.multi if args.multi else args.single_dir)
    parts = _Splits(wt, file_cfg, stats)
    multi = load_checkpoint(_find_checkpoint(args.multi)) if args.multi else None
    singles = _load_single_models(args.single_dir) if args.single_dir else None
    out = _outdir(args)
    entries, single_scores = _detection_stage(out, parts, ev, multi, singles, jobs)
    for module, scores_m in sorted((single_scores or {}).items()):
        E.write_scores_csv(
            os.path.join(out, f"scores_module_{module}.csv"), scores_m, parts.names
        )
    write_manifest(
        os.path.join(out, "manifest.txt"),
        {
            "data": os.path.abspath(args.data),
            "mode": ev["mode"],
            "fpr_budget": ev["fpr_budget"],
            "test_samples": parts.test.n_samples,
            **entries,
        },
    )
    _write_resolved(out, {"eval": ev, "split": parts.config, "general": {"jobs": jobs}})
    return 0


# ----------------------------------------------------------------- landscape


def cmd_landscape(args) -> int:
    file_cfg = _file_cfg(args)
    jobs = _jobs(args, file_cfg)
    ls = C.resolve_section(
        file_cfg, "landscape", overrides={"resolution": args.res, "span": args.span}
    )
    tc = _train_config(file_cfg, args.seed)
    wt = _load_dataset(args.data)
    spec, params = load_checkpoint(_find_checkpoint(args.model))
    parts = _Splits(wt, file_cfg, _find_stats(args.stats, args.model))
    out = _outdir(args)

    if args.depth_sweep:
        _depth_stage(out, spec, parts, tc, ls, jobs)
    else:
        surface_data = parts.surface(ls["dataset_split"])
        gamma = L.random_direction(params, ls["gamma_seed"], tag="gamma")
        nu = L.random_direction(params, ls["nu_seed"], tag="nu")
        grid = L.evaluate_grid(
            params,
            spec,
            gamma,
            nu,
            surface_data,
            resolution=ls["resolution"],
            span=ls["span"],
            eta=tc.eta,
            batch_size=ls["batch_size"],
            jobs=jobs,
        )
        L.write_landscape_csv(os.path.join(out, "landscape_main.csv"), grid)
        print(f"center loss {grid.center_loss!r}")
        if ls["resolution"] >= 5:
            report = L.convexity_report(grid)
            L.write_convexity_csv(
                os.path.join(out, "report.csv"), [L.convexity_row("main", grid, report)]
            )
            print(f"psd fraction {report.psd_fraction:.3f}")

    _write_resolved(
        out,
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
    uc = C.resolve_section(
        file_cfg, "uq", overrides={"n_draws": args.n_draws, "examples": args.examples}
    )
    uc["seed"] = C.resolve_seed(args.seed, file_cfg, "uq", default=uc["seed"])
    wt = _load_dataset(args.data)
    spec, params = load_checkpoint(_find_checkpoint(args.model))
    parts = _Splits(wt, file_cfg, _find_stats(args.stats, args.model))
    normals = parts.test.select(parts.test.normal_mask())
    if normals.n_samples == 0:
        raise DataError("test split has no normal samples")
    out = _outdir(args)
    modules = _calibration_stage(
        out, spec, params, normals, uc["examples"], uc["n_draws"], uc["seed"], parts.names
    )
    write_manifest(
        os.path.join(out, "manifest.txt"),
        {
            "n_draws": uc["n_draws"],
            "examples": uc["examples"],
            "seed": uc["seed"],
            "modules": ",".join(str(m) for m in modules),
        },
    )
    _write_resolved(out, {"uq": uc, "split": parts.config})
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
    jobs = _jobs(args, file_cfg)
    seed = C.resolve_seed(args.seed, file_cfg, "general", C.SETTINGS["general"]["seed"])
    out = _outdir(args)
    experiments = (
        ("detection", "depth", "calibration")
        if args.experiment == "all"
        else (args.experiment,)
    )
    for name in experiments:
        print(f"== {name} ({args.scale}) ==")
        sizes = EXPERIMENT_SIZES[args.scale][name]

        def sized(section):
            return {**C.SETTINGS[section], **sizes.get(section, {})}

        exp_dir = os.path.join(out, name)
        wt, gen = _generate_stage(
            os.path.join(exp_dir, "data"), file_cfg, seed, sized("generate")
        )
        parts = _Splits(wt, file_cfg)
        tc = _train_config(file_cfg, seed, sized("train"))
        spec = _model_spec(file_cfg, wt, "cvae", sizes.get("model"))
        resolved = {"generate": gen, "split": parts.config, "train": dataclasses.asdict(tc)}
        if name == "detection":
            ev = C.resolve_section(file_cfg, "eval", sized("eval"))
            resolved["eval"] = {**ev, "mode": "sampled", "seed": seed}
            _reproduce_detection(exp_dir, spec, parts, tc, resolved["eval"], jobs)
        elif name == "depth":
            ls = C.resolve_section(file_cfg, "landscape", sized("landscape"))
            _depth_stage(exp_dir, spec, parts, tc, ls, jobs)
            resolved["landscape"] = ls
        else:
            uc = C.resolve_section(file_cfg, "uq", sized("uq"))
            model = _train_stage(os.path.join(exp_dir, "model"), spec, parts, tc)
            normals = parts.test.select(parts.test.normal_mask())
            uc.update(examples=min(uc["examples"], normals.n_samples), seed=seed)
            _calibration_stage(
                exp_dir, spec, model.params, normals, uc["examples"], uc["n_draws"],
                uc["seed"], parts.names, jobs=jobs, bands=False,
            )
            resolved["uq"] = uc
        _write_resolved(exp_dir, resolved)
    _write_repro_manifest(os.path.join(out, "MANIFEST.txt"), out)
    print(f"bundle complete -> {out}")
    return 0


def _reproduce_detection(exp_dir, spec, parts: _Splits, tc, ev, jobs) -> None:
    """Both model kinds, scores in ``ev``'s (sampled) mode, every detection
    metric, and the uncertainty bands of the first normal and first abnormal
    test sample."""
    models_dir = os.path.join(exp_dir, "models")
    cvae = _train_stage(os.path.join(models_dir, "cvae"), spec, parts, tc)
    suite = _train_stage(models_dir, dataclasses.replace(spec, mode="vae"), parts, tc, jobs)
    metrics_dir = os.path.join(exp_dir, "metrics")
    os.makedirs(metrics_dir, exist_ok=True)
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
    os.makedirs(bands_dir, exist_ok=True)
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
