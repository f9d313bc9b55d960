"""Command-line surface: generate, train, eval, landscape, uq, reproduce.

Exit codes are a stable contract: 0 ok, 2 configuration, 3 numeric
(including training divergence), 4 data, 5 shape.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

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
from .train import (
    TrainConfig,
    train,
    train_single_module_suite,
    write_manifest,
    write_run_artifacts,
)
from .util import sha256_file

EXIT_CODES: tuple[tuple[type, int], ...] = (
    (ConfigError, 2),
    (NumericError, 3),
    (DataError, 4),
    (ShapeError, 5),
)

GENERATE_DEFAULTS = {
    "modules": 15,
    "samples_per_module": 40,
    "time_steps": 512,
    "noise_sd": 0.02,
    "amplitude_spread": 0.25,
    "frequency_spread": 0.30,
    "faults": 150,
    "flatline_fraction": 0.05,
    "fault_modules": (),
    "seed": 0,
}
TRAIN_DEFAULTS = {
    "batch_size": 16,
    "learning_rate": 1e-3,
    "max_epochs": 100,
    "patience": 20,
    "eta": 1.0,
    "seed": 0,
}
SPLIT_DEFAULTS = {
    "train_fraction": 0.8,
    "val_fraction": 0.1,
    "test_fraction": 0.1,
    "seed": 0,
}
EVAL_DEFAULTS = {
    "fpr_budget": 0.10,
    "mode": "deterministic",
    "n_draws": 100,
    "batch_size": 32,
    "seed": 0,
}
LANDSCAPE_DEFAULTS = {
    "resolution": 25,
    "span": 1.0,
    "gamma_seed": 101,
    "nu_seed": 202,
    "depths": (3, 5, 10, 20, 30, 40),
    "batch_size": 64,
    "dataset_split": "train",
}
UQ_DEFAULTS = {"n_draws": 100, "examples": 10, "seed": 0}


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
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
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
    p.add_argument("--fpr-budget", type=float, default=None)
    p.add_argument("--mode", choices=("deterministic", "sampled"), default=None)
    p.add_argument("--n-draws", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("landscape", help="loss-surface grids and convexity report")
    _common_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", default=None, help="checkpoint (file or out dir)")
    p.add_argument("--stats", default=None)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--range", dest="span", type=float, default=None)
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
                   help="allow --scale full (runtime: hours)")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=None)


def _file_cfg(args) -> dict:
    return C.load_config_file(args.config) if args.config else {}


def _jobs(args, file_cfg) -> int:
    if args.jobs is not None:
        return max(1, args.jobs)
    general = C.resolve_section(file_cfg, "general", {"jobs": 1})
    return max(1, general["jobs"])


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


def _split_config(args, file_cfg) -> dict:
    return C.resolve_section(file_cfg, "split", SPLIT_DEFAULTS)


def _split_and_standardize(wt, split_cfg, stats=None):
    fractions = (
        split_cfg["train_fraction"],
        split_cfg["val_fraction"],
        split_cfg["test_fraction"],
    )
    parts = D.split(wt, fractions=fractions, seed=split_cfg["seed"])
    if stats is None:
        train_std, stats = D.standardize(parts.train)
    else:
        train_std, _ = D.standardize(parts.train, stats)
    val_std, _ = D.standardize(parts.validation, stats)
    test_std, _ = D.standardize(parts.test, stats)
    return train_std, val_std, test_std, stats


def _model_spec(args, file_cfg, wt: D.WaveformTensor, mode: str) -> M.ModelSpec:
    """Architecture from preset + config; dims and module count follow the
    data unless the config pins them."""
    section = C.resolve_section(
        file_cfg, "model", {}, {"preset": getattr(args, "preset", None)}
    )
    preset = section.pop("preset", None) or "desk"
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
    fields["mode"] = mode
    return dataclasses.replace(base, **fields).validate()


def _train_config(args, file_cfg) -> TrainConfig:
    overrides = {
        "max_epochs": getattr(args, "epochs", None),
        "batch_size": getattr(args, "batch_size", None),
        "learning_rate": getattr(args, "learning_rate", None),
        "eta": getattr(args, "eta", None),
        "patience": getattr(args, "patience", None),
    }
    resolved = C.resolve_section(file_cfg, "train", TRAIN_DEFAULTS, overrides)
    resolved["seed"] = C.resolve_seed(args.seed, file_cfg, "train",
                                      default=resolved["seed"])
    return TrainConfig(**resolved).validate()


def _write_resolved(out, sections: dict) -> None:
    C.write_resolved_config(os.path.join(out, "resolved.ini"), sections)


# ------------------------------------------------------------------ generate


def cmd_generate(args) -> int:
    file_cfg = _file_cfg(args)
    overrides = {
        "modules": args.modules,
        "samples_per_module": (
            C._int_or_ints(args.samples_per_module)
            if args.samples_per_module is not None
            else None
        ),
        "time_steps": args.time_steps,
        "faults": args.faults,
    }
    gen = C.resolve_section(file_cfg, "generate", GENERATE_DEFAULTS, overrides)
    seed = C.resolve_seed(args.seed, file_cfg, "generate", default=gen["seed"])
    gen["seed"] = seed
    cfg = D.GeneratorConfig(
        module_count=gen["modules"],
        samples_per_module=gen["samples_per_module"],
        time_steps=gen["time_steps"],
        noise_sd=gen["noise_sd"],
        amplitude_spread=gen["amplitude_spread"],
        frequency_spread=gen["frequency_spread"],
        fault_count=gen["faults"],
        flatline_fraction=gen["flatline_fraction"],
        fault_modules=gen["fault_modules"] or None,
        seed=seed,
    ).validate()
    wt = D.generate(cfg)

    out = _outdir(args)
    dataset_path = os.path.join(out, "dataset.mwts")
    D.save_dataset(dataset_path, wt)
    D.save_metadata_csv(os.path.join(out, "metadata.csv"), wt)
    _write_resolved(out, {"generate": gen})

    for module in sorted(set(wt.module_ids.tolist())):
        mask = wt.module_ids == module
        labels = wt.labels[mask]
        normal = int((labels == D.NORMAL_LABEL).sum())
        faulty = int((labels != D.NORMAL_LABEL).sum())
        print(f"module {module}: {normal} normal, {faulty} fault")
    print(f"total {wt.n_samples} samples -> {dataset_path}")
    return 0


# --------------------------------------------------------------------- train


def cmd_train(args) -> int:
    file_cfg = _file_cfg(args)
    jobs = _jobs(args, file_cfg)
    wt = _load_dataset(args.data)
    split_cfg = _split_config(args, file_cfg)
    train_std, val_std, _, stats = _split_and_standardize(wt, split_cfg)
    val_normal = val_std.select(val_std.normal_mask())
    tc = _train_config(args, file_cfg)
    spec = _model_spec(args, file_cfg, wt, args.mode)
    out = _outdir(args)
    stats.save_csv(os.path.join(out, "stats.csv"), tuple(wt.channel_names))
    _write_resolved(
        out,
        {
            "model": spec.to_kv(),
            "train": dataclasses.asdict(tc),
            "split": split_cfg,
            "general": {"jobs": jobs},
        },
    )

    if args.mode == "cvae":
        result = train(spec, train_std, val_normal, tc, out_dir=out)
        print(
            f"cvae: {len(result.log.epochs)} epochs, best {result.log.best_epoch} "
            f"(val {result.log.best_validation_total():.6g}) -> {out}"
        )
        return 0

    if args.module in (None, "all"):
        results = train_single_module_suite(spec, train_std, val_normal, tc, jobs=jobs)
        for module, res in sorted(results.items()):
            module_dir = os.path.join(out, f"vae_module_{module}")
            tr_m = train_std.select(train_std.module_ids == module)
            va_m = val_normal.select(val_normal.module_ids == module)
            write_run_artifacts(module_dir, res, tc, tr_m, va_m)
            stats.save_csv(os.path.join(module_dir, "stats.csv"), tuple(wt.channel_names))
            print(
                f"vae module {module}: best epoch {res.log.best_epoch} "
                f"(val {res.log.best_validation_total():.6g})"
            )
        return 0

    module = int(args.module)
    single = dataclasses.replace(spec, mode="vae", module_count=1).validate()
    tr_m = train_std.select(train_std.module_ids == module)
    va_m = val_normal.select(val_normal.module_ids == module)
    if tr_m.n_samples == 0:
        raise DataError(f"module {module} has no training samples")
    tr_m.module_ids = np.zeros_like(tr_m.module_ids)
    va_m.module_ids = np.zeros_like(va_m.module_ids)
    module_dir = os.path.join(out, f"vae_module_{module}")
    result = train(single, tr_m, va_m, tc, out_dir=module_dir)
    stats.save_csv(os.path.join(module_dir, "stats.csv"), tuple(wt.channel_names))
    print(
        f"vae module {module}: best epoch {result.log.best_epoch} "
        f"(val {result.log.best_validation_total():.6g})"
    )
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


def _score_single(models, ds, mode, n_draws, seed, batch_size):
    out = {}
    for module, (spec, params) in models.items():
        subset = ds.select(ds.module_ids == module)
        subset.module_ids = np.zeros_like(subset.module_ids)
        out[module] = E.score(
            params, spec, subset, mode=mode, n_draws=n_draws, seed=seed,
            batch_size=batch_size,
        )
        for s in out[module]:
            s.module_id = int(module)
    return out


def cmd_eval(args) -> int:
    if args.multi is None and args.single_dir is None:
        raise ConfigError("give --multi and/or --single-dir")
    file_cfg = _file_cfg(args)
    ev = C.resolve_section(
        file_cfg,
        "eval",
        EVAL_DEFAULTS,
        {
            "fpr_budget": args.fpr_budget,
            "mode": args.mode,
            "n_draws": args.n_draws,
        },
    )
    ev["seed"] = C.resolve_seed(args.seed, file_cfg, "eval", default=ev["seed"])
    wt = _load_dataset(args.data)
    split_cfg = _split_config(args, file_cfg)

    stats_source = args.multi if args.multi else args.single_dir
    stats = _find_stats(args.stats, stats_source)
    _, val_std, test_std, _ = _split_and_standardize(wt, split_cfg, stats=stats)
    val_normal = val_std.select(val_std.normal_mask())
    out = _outdir(args)
    names = list(wt.channel_names)
    manifest = {
        "data": os.path.abspath(args.data),
        "mode": ev["mode"],
        "fpr_budget": ev["fpr_budget"],
        "test_samples": test_std.n_samples,
    }

    multi_scores = None
    if args.multi:
        spec, params = load_checkpoint(_find_checkpoint(args.multi))
        multi_scores = E.score(
            params, spec, test_std, mode=ev["mode"], n_draws=ev["n_draws"],
            seed=ev["seed"], batch_size=ev["batch_size"],
        )
        val_scores = [
            s.aggregate
            for s in E.score(params, spec, val_normal, batch_size=ev["batch_size"])
        ]
        threshold = E.pick_threshold(val_scores, ev["fpr_budget"])
        agg = np.array([s.aggregate for s in multi_scores])
        labels = np.array([s.label for s in multi_scores])
        flags = E.flagged(agg, threshold)
        normal_mask = labels == D.NORMAL_LABEL
        manifest.update(
            {
                "threshold": repr(threshold),
                "flagged_normal": int(flags[normal_mask].sum()),
                "flagged_abnormal": int(flags[~normal_mask].sum()),
                "test_normal": int(normal_mask.sum()),
                "test_abnormal": int((~normal_mask).sum()),
            }
        )
        E.write_scores_csv(os.path.join(out, "scores.csv"), multi_scores, names)
        box_rows, density_rows = E.summarize(multi_scores, names)
        E.write_boxstats_csv(os.path.join(out, "boxstats.csv"), box_rows)
        E.write_density_csv(os.path.join(out, "density.csv"), density_rows)
        rows = E.auc_table(multi_scores, names)
        E.write_auc_table_csv(os.path.join(out, "auc_table.csv"), rows)
        for fault in np.unique(labels[~normal_mask]).tolist():
            curve = E.roc_auc(agg[normal_mask], agg[labels == fault])
            safe = fault.replace("/", "-")
            E.write_roc_csv(os.path.join(out, f"roc_{safe}.csv"), curve)
            print(f"{fault}: aggregate AUC {curve.auc:.4f}")
        print(f"threshold {threshold:.6g} (budget {ev['fpr_budget']})")

    if args.single_dir:
        models = _load_single_models(args.single_dir)
        single_scores = _score_single(
            models, test_std, ev["mode"], ev["n_draws"], ev["seed"], ev["batch_size"]
        )
        for module, scores_m in sorted(single_scores.items()):
            E.write_scores_csv(
                os.path.join(out, f"scores_module_{module}.csv"), scores_m, names
            )
        if multi_scores is not None:
            cells = E.compare_methods(multi_scores, single_scores)
            E.write_comparison_csv(os.path.join(out, "report.csv"), cells)
            present = [c for c in cells if c.delta is not None]
            if present:
                mean_delta = float(np.mean([c.delta for c in present]))
                manifest["mean_auc_delta"] = repr(mean_delta)
                print(f"multi - single mean AUC delta {mean_delta:+.4f}")

    write_manifest(os.path.join(out, "manifest.txt"), manifest)
    _write_resolved(out, {"eval": ev, "split": split_cfg})
    return 0


# ----------------------------------------------------------------- landscape


def cmd_landscape(args) -> int:
    file_cfg = _file_cfg(args)
    jobs = _jobs(args, file_cfg)
    ls = C.resolve_section(
        file_cfg,
        "landscape",
        LANDSCAPE_DEFAULTS,
        {"resolution": args.res, "span": args.span},
    )
    tc = _train_config(args, file_cfg)
    wt = _load_dataset(args.data)
    split_cfg = _split_config(args, file_cfg)
    out = _outdir(args)

    if args.model is None:
        raise ConfigError("give --model (checkpoint file or training out dir)")
    spec, params = load_checkpoint(_find_checkpoint(args.model))
    stats = _find_stats(args.stats, args.model)
    train_std, val_std, test_std, _ = _split_and_standardize(wt, split_cfg, stats=stats)
    val_normal = val_std.select(val_std.normal_mask())
    surface_data = {
        "train": train_std,
        "val": val_normal,
        "test": test_std,
    }.get(ls["dataset_split"])
    if surface_data is None:
        raise ConfigError(f"unknown dataset_split {ls['dataset_split']!r}")

    rows = []
    if args.depth_sweep:
        sweep = L.depth_sweep(
            ls["depths"],
            spec,
            train_std,
            val_normal,
            tc,
            direction_seeds=(ls["gamma_seed"], ls["nu_seed"]),
            resolution=ls["resolution"],
            span=ls["span"],
            surface_data=surface_data,
            batch_size=ls["batch_size"],
            jobs=jobs,
        )
        for depth, res in sorted(sweep.items()):
            tag = f"depth{depth}"
            L.write_landscape_csv(os.path.join(out, f"landscape_{tag}.csv"), res.grid)
            rows.append(L.convexity_row(tag, res.grid, res.report))
            print(
                f"depth {depth}: psd {res.report.psd_fraction:.3f} "
                f"center {res.grid.center_loss:.6g}"
            )
    else:
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
            rows.append(L.convexity_row("main", grid, report))
            print(f"psd fraction {report.psd_fraction:.3f}")

    if rows:
        L.write_convexity_csv(os.path.join(out, "report.csv"), rows)
    _write_resolved(
        out,
        {
            "landscape": ls,
            "train": dataclasses.asdict(tc),
            "split": split_cfg,
            "general": {"jobs": jobs},
        },
    )
    return 0


# ------------------------------------------------------------------------ uq


def cmd_uq(args) -> int:
    file_cfg = _file_cfg(args)
    uc = C.resolve_section(
        file_cfg,
        "uq",
        UQ_DEFAULTS,
        {"n_draws": args.n_draws, "examples": args.examples},
    )
    uc["seed"] = C.resolve_seed(args.seed, file_cfg, "uq", default=uc["seed"])
    wt = _load_dataset(args.data)
    split_cfg = _split_config(args, file_cfg)
    spec, params = load_checkpoint(_find_checkpoint(args.model))
    stats = _find_stats(args.stats, args.model)
    _, _, test_std, _ = _split_and_standardize(wt, split_cfg, stats=stats)
    normals = test_std.select(test_std.normal_mask())
    if normals.n_samples == 0:
        raise DataError("test split has no normal samples")
    picked = U.choose_examples(normals.n_samples, uc["examples"], uc["seed"])
    chosen = normals.select(picked)
    out = _outdir(args)
    names = list(wt.channel_names)

    overall_curves = []
    for module in sorted(set(chosen.module_ids.tolist())):
        subset = chosen.select(chosen.module_ids == module)
        ids = subset.module_ids if spec.mode == "cvae" else None
        reps = U.replicate(
            params, spec, subset.data, ids, n_draws=uc["n_draws"], seed=uc["seed"]
        )
        curves = U.per_channel_calibration(reps, subset.data.astype(np.float64))
        U.write_uq_csv(
            os.path.join(out, f"uq_{module}.csv"), names, curves,
            n_draws=uc["n_draws"], seed=uc["seed"],
        )
        overall = U.miscalibration_area(reps, subset.data.astype(np.float64))
        overall_curves.append((module, overall))
        for row, sid in enumerate(subset.sample_ids.tolist()):
            U.write_bands_csv(
                os.path.join(out, f"bands_{sid}.csv"), reps, row, names
            )
        print(f"module {module}: MA {overall.area:.4f} over {subset.n_samples} samples")

    write_manifest(
        os.path.join(out, "manifest.txt"),
        {
            "n_draws": uc["n_draws"],
            "examples": uc["examples"],
            "seed": uc["seed"],
            "modules": ",".join(str(m) for m, _ in overall_curves),
        },
    )
    _write_resolved(out, {"uq": uc, "split": split_cfg})
    return 0


# ----------------------------------------------------------------- reproduce


def cmd_reproduce(args) -> int:
    if args.scale == "full" and not args.force:
        raise ConfigError(
            "--scale full retrains everything at full size (runtime: hours); "
            "re-run with --force to confirm"
        )
    file_cfg = _file_cfg(args)
    jobs = _jobs(args, file_cfg)
    seed = C.resolve_seed(args.seed, file_cfg, "general", default=0)
    out = _outdir(args)
    experiments = (
        ("detection", "depth", "calibration")
        if args.experiment == "all"
        else (args.experiment,)
    )
    for name in experiments:
        exp_dir = os.path.join(out, name)
        os.makedirs(exp_dir, exist_ok=True)
        runner = {
            "detection": _reproduce_detection,
            "depth": _reproduce_depth,
            "calibration": _reproduce_calibration,
        }[name]
        print(f"== {name} ({args.scale}) ==")
        runner(exp_dir, seed, jobs, args.scale, file_cfg)
    _write_repro_manifest(out)
    print(f"bundle complete -> {out}")
    return 0


def _repro_sizes(scale: str, file_cfg: dict) -> dict:
    """Experiment sizing; the config file can override the generate and
    train sections for smaller smoke runs."""
    if scale == "full":
        gen = {"modules": 15, "samples_per_module": 450, "time_steps": 4500,
               "faults": 450}
        train_kv = {"max_epochs": 300, "batch_size": 16}
        model_kv = {"preset": "full"}
    else:
        gen = {"modules": 15, "samples_per_module": 40, "time_steps": 512,
               "faults": 150}
        train_kv = {"max_epochs": 100, "batch_size": 16}
        model_kv = {"preset": "desk"}
    gen = C.resolve_section(file_cfg, "generate", {**GENERATE_DEFAULTS, **gen})
    train_kv = C.resolve_section(file_cfg, "train", {**TRAIN_DEFAULTS, **train_kv})
    model_kv = {"preset": model_kv["preset"], **file_cfg.get("model", {})}
    return {"generate": gen, "train": train_kv, "model": model_kv}


def _repro_data(exp_dir, seed, sizes):
    gen = dict(sizes["generate"])
    gen["seed"] = seed
    cfg = D.GeneratorConfig(
        module_count=gen["modules"],
        samples_per_module=gen["samples_per_module"],
        time_steps=gen["time_steps"],
        noise_sd=gen["noise_sd"],
        amplitude_spread=gen["amplitude_spread"],
        frequency_spread=gen["frequency_spread"],
        fault_count=gen["faults"],
        flatline_fraction=gen["flatline_fraction"],
        fault_modules=gen["fault_modules"] or None,
        seed=seed,
    ).validate()
    wt = D.generate(cfg)
    data_dir = os.path.join(exp_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    D.save_dataset(os.path.join(data_dir, "dataset.mwts"), wt)
    D.save_metadata_csv(os.path.join(data_dir, "metadata.csv"), wt)
    return wt, gen


def _repro_spec(wt, sizes, mode):
    preset = sizes["model"].get("preset", "desk")
    base = M.full_spec() if preset == "full" else M.desk_spec()
    fields = {
        "mode": mode,
        "time_steps": wt.data.shape[1],
        "channels": wt.data.shape[2],
        "module_count": int(wt.module_ids.max()) + 1,
    }
    for key, raw in sizes["model"].items():
        if key == "preset":
            continue
        fields[key] = int(raw) if key != "mode" else raw
    fields["mode"] = mode
    return dataclasses.replace(base, **fields).validate()


def _repro_train_config(sizes, seed) -> TrainConfig:
    kv = sizes["train"]
    return TrainConfig(
        batch_size=kv["batch_size"],
        learning_rate=kv["learning_rate"],
        max_epochs=kv["max_epochs"],
        patience=kv["patience"],
        eta=kv["eta"],
        seed=seed,
    ).validate()


def _reproduce_detection(exp_dir, seed, jobs, scale, file_cfg) -> None:
    """Box stats, densities, per-fault ROC/AUC, and the multi-vs-single
    comparison, all on one synthetic dataset."""
    sizes = _repro_sizes(scale, file_cfg)
    wt, gen = _repro_data(exp_dir, seed, sizes)
    split_cfg = C.resolve_section(file_cfg, "split", SPLIT_DEFAULTS)
    train_std, val_std, test_std, stats = _split_and_standardize(wt, split_cfg)
    val_normal = val_std.select(val_std.normal_mask())
    tc = _repro_train_config(sizes, seed)
    spec = _repro_spec(wt, sizes, "cvae")

    models_dir = os.path.join(exp_dir, "models")
    cvae = train(spec, train_std, val_normal, tc, out_dir=os.path.join(models_dir, "cvae"))
    stats.save_csv(os.path.join(models_dir, "cvae", "stats.csv"), tuple(wt.channel_names))
    suite = train_single_module_suite(spec, train_std, val_normal, tc, jobs=jobs)
    for module, res in sorted(suite.items()):
        module_dir = os.path.join(models_dir, f"vae_module_{module}")
        tr_m = train_std.select(train_std.module_ids == module)
        va_m = val_normal.select(val_normal.module_ids == module)
        write_run_artifacts(module_dir, res, tc, tr_m, va_m)

    names = list(wt.channel_names)
    ev = C.resolve_section(file_cfg, "eval", EVAL_DEFAULTS)
    multi_scores = E.score(
        cvae.params, spec, test_std, mode="sampled", n_draws=ev["n_draws"],
        seed=seed, batch_size=ev["batch_size"],
    )
    single_models = {m: (r.spec, r.params) for m, r in suite.items()}
    single_scores = _score_single(
        single_models, test_std, "sampled", ev["n_draws"], seed, ev["batch_size"]
    )

    metrics_dir = os.path.join(exp_dir, "metrics")
    os.makedirs(metrics_dir, exist_ok=True)
    E.write_scores_csv(os.path.join(metrics_dir, "scores.csv"), multi_scores, names)
    box_rows, density_rows = E.summarize(multi_scores, names)
    E.write_boxstats_csv(os.path.join(metrics_dir, "boxstats.csv"), box_rows)
    E.write_density_csv(os.path.join(metrics_dir, "density.csv"), density_rows)
    E.write_auc_table_csv(
        os.path.join(metrics_dir, "auc_table.csv"), E.auc_table(multi_scores, names)
    )
    normals = [s.aggregate for s in multi_scores if s.label == D.NORMAL_LABEL]
    for fault in sorted({s.label for s in multi_scores if s.label != D.NORMAL_LABEL}):
        abnormal = [s.aggregate for s in multi_scores if s.label == fault]
        curve = E.roc_auc(normals, abnormal)
        E.write_roc_csv(
            os.path.join(metrics_dir, f"roc_{fault.replace('/', '-')}.csv"), curve
        )
        print(f"  {fault}: AUC {curve.auc:.4f}")
    cells = E.compare_methods(multi_scores, single_scores)
    E.write_comparison_csv(os.path.join(metrics_dir, "report.csv"), cells)

    val_scores = [s.aggregate for s in E.score(cvae.params, spec, val_normal)]
    threshold = E.pick_threshold(val_scores, ev["fpr_budget"])
    write_manifest(
        os.path.join(metrics_dir, "summary.txt"),
        {"threshold": repr(threshold), "fpr_budget": ev["fpr_budget"],
         "test_samples": test_std.n_samples},
    )

    # uncertainty bands for one normal and one abnormal test sample
    bands_dir = os.path.join(exp_dir, "bands")
    os.makedirs(bands_dir, exist_ok=True)
    normal_idx = int(np.flatnonzero(test_std.normal_mask())[0])
    abnormal_idx_arr = np.flatnonzero(~test_std.normal_mask())
    picks = [normal_idx] + ([int(abnormal_idx_arr[0])] if abnormal_idx_arr.size else [])
    for idx in picks:
        sample = test_std.select(np.array([idx]))
        ids = sample.module_ids if spec.mode == "cvae" else None
        reps = U.replicate(cvae.params, spec, sample.data, ids,
                           n_draws=ev["n_draws"], seed=seed)
        U.write_bands_csv(
            os.path.join(bands_dir, f"bands_{int(sample.sample_ids[0])}.csv"),
            reps, 0, names,
        )
    _write_resolved(exp_dir, {"generate": gen, "split": split_cfg,
                              "train": dataclasses.asdict(tc), "eval": ev})


def _reproduce_depth(exp_dir, seed, jobs, scale, file_cfg) -> None:
    """Loss-surface convexity as conv depth grows; six depths by default."""
    sizes = _repro_sizes(scale, file_cfg)
    if scale == "desk" and "generate" not in file_cfg:
        # smaller waveforms keep the six retrains tractable on a laptop
        sizes["generate"].update({"modules": 4, "samples_per_module": 24,
                                  "time_steps": 128, "faults": 0})
    if scale == "desk" and "model" not in file_cfg:
        sizes["model"].update({"kernels_per_block": 8, "dense_units": 32,
                               "latent_dim": 16})
    if scale == "desk" and "train" not in file_cfg:
        sizes["train"].update({"max_epochs": 30, "batch_size": 8})
    wt, gen = _repro_data(exp_dir, seed, sizes)
    split_cfg = C.resolve_section(file_cfg, "split", SPLIT_DEFAULTS)
    train_std, val_std, _, _ = _split_and_standardize(wt, split_cfg)
    val_normal = val_std.select(val_std.normal_mask())
    tc = _repro_train_config(sizes, seed)
    spec = _repro_spec(wt, sizes, "cvae")
    ls = C.resolve_section(file_cfg, "landscape", LANDSCAPE_DEFAULTS)
    if scale == "desk" and "landscape" not in file_cfg:
        ls["resolution"] = 15

    sweep = L.depth_sweep(
        ls["depths"], spec, train_std, val_normal, tc,
        direction_seeds=(ls["gamma_seed"], ls["nu_seed"]),
        resolution=ls["resolution"], span=ls["span"],
        batch_size=ls["batch_size"], jobs=jobs,
    )
    rows = []
    for depth, res in sorted(sweep.items()):
        tag = f"depth{depth}"
        L.write_landscape_csv(os.path.join(exp_dir, f"landscape_{tag}.csv"), res.grid)
        rows.append(L.convexity_row(tag, res.grid, res.report))
        print(f"  depth {depth}: psd {res.report.psd_fraction:.3f}")
    L.write_convexity_csv(os.path.join(exp_dir, "report.csv"), rows)
    _write_resolved(exp_dir, {"generate": gen, "split": split_cfg,
                              "train": dataclasses.asdict(tc), "landscape": ls})


def _reproduce_calibration(exp_dir, seed, jobs, scale, file_cfg) -> None:
    """Per-channel miscalibration of latent-sampling intervals on held-out
    normal waveforms."""
    sizes = _repro_sizes(scale, file_cfg)
    if scale == "desk" and "generate" not in file_cfg:
        sizes["generate"].update({"modules": 4, "samples_per_module": 40,
                                  "time_steps": 256, "faults": 0})
    if scale == "desk" and "model" not in file_cfg:
        sizes["model"].update({"kernels_per_block": 8, "dense_units": 64,
                               "latent_dim": 16})
    if scale == "desk" and "train" not in file_cfg:
        sizes["train"].update({"max_epochs": 60, "batch_size": 8})
    wt, gen = _repro_data(exp_dir, seed, sizes)
    split_cfg = C.resolve_section(file_cfg, "split", SPLIT_DEFAULTS)
    train_std, val_std, test_std, stats = _split_and_standardize(wt, split_cfg)
    val_normal = val_std.select(val_std.normal_mask())
    tc = _repro_train_config(sizes, seed)
    spec = _repro_spec(wt, sizes, "cvae")
    result = train(spec, train_std, val_normal, tc,
                   out_dir=os.path.join(exp_dir, "model"))
    stats.save_csv(os.path.join(exp_dir, "model", "stats.csv"),
                   tuple(wt.channel_names))

    uc = C.resolve_section(file_cfg, "uq", UQ_DEFAULTS)
    normals = test_std.select(test_std.normal_mask())
    count = min(uc["examples"], normals.n_samples)
    picked = U.choose_examples(normals.n_samples, count, seed)
    chosen = normals.select(picked)
    names = list(wt.channel_names)
    for module in sorted(set(chosen.module_ids.tolist())):
        subset = chosen.select(chosen.module_ids == module)
        reps = U.replicate(result.params, spec, subset.data, subset.module_ids,
                           n_draws=uc["n_draws"], seed=seed, jobs=jobs)
        curves = U.per_channel_calibration(reps, subset.data.astype(np.float64))
        U.write_uq_csv(os.path.join(exp_dir, f"uq_{module}.csv"), names, curves,
                       n_draws=uc["n_draws"], seed=seed)
        overall = U.miscalibration_area(reps, subset.data.astype(np.float64))
        U.write_calibration_csv(
            os.path.join(exp_dir, f"calibration_{module}.csv"), overall
        )
        print(f"  module {module}: MA {overall.area:.4f}")
    _write_resolved(exp_dir, {"generate": gen, "split": split_cfg,
                              "train": dataclasses.asdict(tc), "uq": uc})


def _write_repro_manifest(out) -> None:
    entries = []
    for root, _, files in os.walk(out):
        for name in files:
            if name == "MANIFEST.txt":
                continue
            path = os.path.join(root, name)
            entries.append((os.path.relpath(path, out), sha256_file(path)))
    entries.sort()
    with open(os.path.join(out, "MANIFEST.txt"), "w") as fh:
        for rel, digest in entries:
            fh.write(f"{digest}  {rel}\n")


if __name__ == "__main__":
    sys.exit(main())
