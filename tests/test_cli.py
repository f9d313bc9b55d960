"""End-to-end command-line workflows in temporary directories."""
import configparser
import csv
import hashlib
import io
import os
import shutil
import struct

import numpy as np
import pytest

from modwatch import cli
from modwatch import serialize as ser
from modwatch.checkpoint import MAGIC, VERSION, load_checkpoint
from modwatch.data import load_dataset
from modwatch.train import read_manifest


def run(*argv):
    return cli.main(list(argv))


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generate -> train pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("generate", "--out", str(data), "--modules", "3",
               "--samples-per-module", "40", "--time-steps", "64",
               "--faults", "30", "--seed", "7") == 0
    cvae = root / "cvae"
    assert run("train", "--data", str(data / "dataset.mwts"), "--out", str(cvae),
               "--mode", "cvae", "--epochs", "3", "--batch-size", "8",
               "--seed", "7") == 0
    return root


def test_generate_writes_dataset_and_metadata(workspace):
    data = workspace / "data"
    assert (data / "dataset.mwts").exists()
    assert (data / "resolved.ini").exists()
    wt = load_dataset(data / "dataset.mwts")
    assert wt.n_samples == 3 * 40 + 30
    with open(data / "metadata.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == wt.n_samples + 1


def test_generate_is_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run("generate", "--out", str(tmp_path / name), "--modules", "2",
                   "--samples-per-module", "12", "--time-steps", "32",
                   "--faults", "6", "--seed", "11") == 0
    assert sha(tmp_path / "a" / "dataset.mwts") == sha(tmp_path / "b" / "dataset.mwts")


def test_seed_changes_dataset(tmp_path):
    for name, seed in (("a", "1"), ("b", "2")):
        assert run("generate", "--out", str(tmp_path / name), "--modules", "2",
                   "--samples-per-module", "12", "--time-steps", "32",
                   "--faults", "6", "--seed", seed) == 0
    assert sha(tmp_path / "a" / "dataset.mwts") != sha(tmp_path / "b" / "dataset.mwts")


def test_train_writes_run_artifacts(workspace):
    cvae = workspace / "cvae"
    for name in ("checkpoint.mwck", "trainlog.csv", "manifest.txt",
                 "stats.csv", "resolved.ini"):
        assert (cvae / name).exists(), name
    manifest = read_manifest(cvae / "manifest.txt")
    assert manifest["mode"] == "cvae"
    assert manifest["epochs_run"] == "3"


def test_train_is_deterministic(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    assert run("train", "--data", str(data), "--out", str(tmp_path / "again"),
               "--mode", "cvae", "--epochs", "3", "--batch-size", "8",
               "--seed", "7") == 0
    assert sha(tmp_path / "again" / "checkpoint.mwck") == sha(
        workspace / "cvae" / "checkpoint.mwck"
    )


def test_vae_all_trains_each_module(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    out = tmp_path / "singles"
    assert run("train", "--data", str(data), "--out", str(out), "--mode", "vae",
               "--module", "all", "--epochs", "2", "--batch-size", "8",
               "--seed", "7", "--jobs", "3") == 0
    for module in range(3):
        assert (out / f"vae_module_{module}" / "checkpoint.mwck").exists()


def test_vae_single_module_matches_suite(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    suite = tmp_path / "suite"
    one = tmp_path / "one"
    assert run("train", "--data", str(data), "--out", str(suite), "--mode", "vae",
               "--epochs", "2", "--batch-size", "8", "--seed", "7") == 0
    assert run("train", "--data", str(data), "--out", str(one), "--mode", "vae",
               "--module", "1", "--epochs", "2", "--batch-size", "8",
               "--seed", "7") == 0
    assert sha(one / "vae_module_1" / "checkpoint.mwck") == sha(
        suite / "vae_module_1" / "checkpoint.mwck"
    )
    # both paths hash the rows the model trained on (module ids remapped to 0)
    manifests = [read_manifest(d / "vae_module_1" / "manifest.txt") for d in (one, suite)]
    for manifest in manifests:
        del manifest["wall_seconds"]
    assert manifests[0] == manifests[1]


def test_eval_writes_metric_csvs(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    out = tmp_path / "metrics"
    assert run("eval", "--data", str(data), "--multi", str(workspace / "cvae"),
               "--out", str(out), "--seed", "7") == 0
    for name in ("scores.csv", "auc_table.csv", "boxstats.csv", "density.csv",
                 "manifest.txt", "resolved.ini"):
        assert (out / name).exists(), name
    assert list(out.glob("roc_*.csv"))
    manifest = read_manifest(out / "manifest.txt")
    assert float(manifest["threshold"]) > 0
    flagged = int(manifest["flagged_normal"])
    normals = int(manifest["test_normal"])
    # threshold was picked at a 0.1 budget on validation normals
    assert flagged <= max(1, int(0.35 * normals))


def test_eval_comparison_needs_both_model_kinds(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    singles = tmp_path / "singles"
    assert run("train", "--data", str(data), "--out", str(singles), "--mode", "vae",
               "--epochs", "2", "--batch-size", "8", "--seed", "7") == 0
    out = tmp_path / "metrics"
    assert run("eval", "--data", str(data), "--multi", str(workspace / "cvae"),
               "--single-dir", str(singles), "--out", str(out), "--seed", "7") == 0
    assert (out / "report.csv").exists()
    for module in range(3):
        assert (out / f"scores_module_{module}.csv").exists()
    with open(out / "report.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[:4] == ["fault", "module", "n_normal", "n_abnormal"]
    assert header[-1] == "delta"


def test_eval_without_faults_writes_header_only_tables(tmp_path):
    data = tmp_path / "data"
    assert run("generate", "--out", str(data), "--modules", "2",
               "--samples-per-module", "64", "--time-steps", "32",
               "--faults", "0", "--seed", "5") == 0
    dataset = str(data / "dataset.mwts")
    common = ("--epochs", "1", "--batch-size", "8", "--seed", "5")
    assert run("train", "--data", dataset, "--out", str(tmp_path / "cvae"),
               "--mode", "cvae", *common) == 0
    assert run("train", "--data", dataset, "--out", str(tmp_path / "singles"),
               "--mode", "vae", *common) == 0
    out = tmp_path / "metrics"
    assert run("eval", "--data", dataset, "--multi", str(tmp_path / "cvae"),
               "--single-dir", str(tmp_path / "singles"), "--out", str(out),
               "--seed", "5") == 0
    for name, header in (
        ("auc_table.csv", "fault,module,channel,auc,n_normal,n_abnormal,channel_rank"),
        ("report.csv", "fault,module,n_normal,n_abnormal,auc_multi,sd_multi,auc_single,"
                       "sd_single,delta"),
    ):
        assert (out / name).read_text().splitlines() == [header], name
    assert not list(out.glob("roc_*.csv"))
    assert "mean_auc_delta" not in read_manifest(out / "manifest.txt")


def test_larger_fpr_budget_lowers_threshold(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    results = {}
    for budget in ("0.1", "1.0"):
        out = tmp_path / f"budget_{budget}"
        assert run("eval", "--data", str(data), "--multi", str(workspace / "cvae"),
                   "--out", str(out), "--fpr-budget", budget, "--seed", "7") == 0
        results[budget] = read_manifest(out / "manifest.txt")
    assert float(results["1.0"]["threshold"]) < float(results["0.1"]["threshold"])
    assert int(results["1.0"]["flagged_normal"]) >= int(results["0.1"]["flagged_normal"])


def test_eval_sampled_mode(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    out = tmp_path / "sampled"
    assert run("eval", "--data", str(data), "--multi", str(workspace / "cvae"),
               "--out", str(out), "--mode", "sampled", "--n-draws", "10",
               "--seed", "7") == 0
    assert (out / "scores.csv").exists()


@pytest.fixture(scope="module")
def desk_workspace(tmp_path_factory):
    """Desk-size pulses (512 steps x 14 channels), a one-epoch conditional
    model and per-module models, and a config that scores in batches of 4,
    so every scoring call spreads over several batches."""
    root = tmp_path_factory.mktemp("desk")
    config = root / "desk.ini"
    config.write_text("[split]\ntrain_fraction = 0.5\nval_fraction = 0.2\n"
                      "test_fraction = 0.3\n\n[eval]\nbatch_size = 4\n")
    common = ("--config", str(config), "--seed", "3")
    assert run("generate", "--out", str(root / "data"), "--modules", "2",
               "--samples-per-module", "24", "--faults", "12", *common) == 0
    data = str(root / "data" / "dataset.mwts")
    assert run("train", "--data", data, "--out", str(root / "cvae"), "--mode", "cvae",
               "--epochs", "1", "--batch-size", "4", *common) == 0
    assert run("train", "--data", data, "--out", str(root / "singles"), "--mode", "vae",
               "--module", "all", "--epochs", "1", "--batch-size", "4", *common) == 0
    return root, common


@pytest.mark.parametrize("mode", ["deterministic", "sampled"])
def test_eval_jobs_never_change_a_byte_at_desk_size(desk_workspace, tmp_path, mode):
    # desk layers are large enough for OpenBLAS to thread, so jobs 1 (threaded
    # BLAS) and jobs 2 (one BLAS thread per worker) take different GEMM paths
    root, common = desk_workspace
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert run("eval", "--data", str(root / "data" / "dataset.mwts"),
                   "--multi", str(root / "cvae"), "--single-dir", str(root / "singles"),
                   "--out", str(outs[jobs]), "--mode", mode, "--n-draws", "3",
                   "--jobs", jobs, *common) == 0
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == sorted(p.name for p in outs["2"].iterdir())
    assert "scores_module_1.csv" in names and "report.csv" in names
    for name in names:
        if name != "resolved.ini":
            assert sha(outs["1"] / name) == sha(outs["2"] / name), name
    for jobs, out in outs.items():
        resolved = configparser.ConfigParser()
        resolved.read(out / "resolved.ini")
        assert dict(resolved["general"]) == {"jobs": jobs}


def test_landscape_grid_csv_layout(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    out = tmp_path / "land"
    assert run("landscape", "--data", str(data), "--model", str(workspace / "cvae"),
               "--out", str(out), "--res", "5", "--range", "0.5", "--seed", "7") == 0
    with open(out / "landscape_main.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 6  # header + 5 alphas
    assert rows[0].split(",")[0] == "alpha"
    assert (out / "report.csv").exists()


def test_landscape_res_one_is_center_only(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    out = tmp_path / "center"
    assert run("landscape", "--data", str(data), "--model", str(workspace / "cvae"),
               "--out", str(out), "--res", "1", "--seed", "7") == 0
    with open(out / "landscape_main.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 2
    alpha, loss = rows[1].split(",")
    assert float(alpha) == 0.0
    assert np.isfinite(float(loss))
    assert not (out / "report.csv").exists()


def test_landscape_without_model_is_a_usage_error(workspace, tmp_path):
    out = tmp_path / "land"
    with pytest.raises(SystemExit) as exc:
        run("landscape", "--data", str(workspace / "data" / "dataset.mwts"),
            "--out", str(out))
    assert exc.value.code == 2
    assert not out.exists()


def test_landscape_depth_sweep(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[landscape]\ndepths = 2,3\nresolution = 5\n\n"
        "[train]\nmax_epochs = 2\nbatch_size = 8\n"
    )
    out = tmp_path / "sweep"
    assert run("landscape", "--data", str(data), "--model", str(workspace / "cvae"),
               "--out", str(out), "--depth-sweep", "--config", str(cfg),
               "--seed", "7") == 0
    assert (out / "landscape_depth2.csv").exists()
    assert (out / "landscape_depth3.csv").exists()
    with open(out / "report.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("depth2,")


def _sweep(workspace, tmp_path, ini: str, *flags) -> int:
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(ini + "\n[train]\nmax_epochs = 1\nbatch_size = 8\n")
    return run("landscape", "--data", str(workspace / "data" / "dataset.mwts"),
               "--model", str(workspace / "cvae"), "--out", str(tmp_path / "sweep"),
               "--depth-sweep", "--config", str(cfg), "--seed", "7", *flags)


@pytest.mark.parametrize("ini, flags, message", [
    ("[landscape]\ndepths = 2\n", ("--res", "0"), "resolution must be >= 1"),
    ("[landscape]\ndepths = 2\n", ("--range", "0"), "span must be > 0"),
    ("[landscape]\ndepths = 2,0\nresolution = 5\n", (), "encoder_conv_blocks"),
], ids=["res-0", "range-0", "depth-0"])
def test_depth_sweep_refuses_bad_settings_before_training(workspace, tmp_path, capsys,
                                                          monkeypatch, ini, flags, message):
    def no_training(*args, **kwargs):
        raise AssertionError("the sweep trained before checking its settings")

    monkeypatch.setattr("modwatch.landscape.train", no_training)
    assert _sweep(workspace, tmp_path, ini, *flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_depth_sweep_below_report_resolution_writes_surfaces_only(workspace, tmp_path):
    assert _sweep(workspace, tmp_path, "[landscape]\ndepths = 2,3\n", "--res", "3") == 0
    out = tmp_path / "sweep"
    assert sorted(p.name for p in out.glob("landscape_*.csv")) == [
        "landscape_depth2.csv", "landscape_depth3.csv"]
    assert not (out / "report.csv").exists()


def test_depth_sweep_without_depths_writes_a_header_only_report(workspace, tmp_path):
    assert _sweep(workspace, tmp_path, "[landscape]\ndepths =\nresolution = 5\n") == 0
    out = tmp_path / "sweep"
    assert (out / "report.csv").read_text().startswith("tag,psd_fraction,")
    assert len((out / "report.csv").read_text().splitlines()) == 1
    assert not list(out.glob("landscape_*.csv"))


def test_uq_writes_calibration_and_bands(workspace, tmp_path):
    data = workspace / "data" / "dataset.mwts"
    out = tmp_path / "uq"
    assert run("uq", "--data", str(data), "--model", str(workspace / "cvae"),
               "--out", str(out), "--examples", "4", "--n-draws", "12",
               "--seed", "7") == 0
    assert list(out.glob("uq_*.csv"))
    bands = list(out.glob("bands_*.csv"))
    assert len(bands) == 4
    with open(bands[0]) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["time_step", "channel", "mean", "sd"]


def test_config_file_settings_apply(tmp_path):
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[generate]\nmodules = 2\nsamples_per_module = 12\n"
                   "time_steps = 32\nfaults = 4\nseed = 3\n")
    out = tmp_path / "out"
    assert run("generate", "--config", str(cfg), "--out", str(out)) == 0
    wt = load_dataset(out / "dataset.mwts")
    assert wt.n_samples == 2 * 12 + 4
    assert wt.data.shape[1] == 32


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[generate]\nmodules = 2\nsamples_per_module = 12\n"
                   "time_steps = 32\nfaults = 4\nseed = 3\n")
    out = tmp_path / "out"
    assert run("generate", "--config", str(cfg), "--out", str(out),
               "--modules", "3") == 0
    wt = load_dataset(out / "dataset.mwts")
    assert int(wt.module_ids.max()) == 2


def test_env_seed_is_used_when_nothing_else_set(tmp_path, monkeypatch):
    outs = []
    for name, env in (("a", "21"), ("b", "21"), ("c", "22")):
        monkeypatch.setenv("MODWATCH_SEED", env)
        out = tmp_path / name
        assert run("generate", "--out", str(out), "--modules", "2",
                   "--samples-per-module", "12", "--time-steps", "32",
                   "--faults", "4") == 0
        outs.append(sha(out / "dataset.mwts"))
    assert outs[0] == outs[1] != outs[2]


def test_env_seed_sets_only_the_seed_that_seed_flag_sets(workspace, tmp_path, monkeypatch):
    # landscape's --seed is [train] seed; [split] seed never reads the env
    monkeypatch.setenv("MODWATCH_SEED", "23")
    out = tmp_path / "land"
    assert run("landscape", "--data", str(workspace / "data" / "dataset.mwts"),
               "--model", str(workspace / "cvae"), "--res", "1", "--out", str(out)) == 0
    resolved = configparser.ConfigParser()
    resolved.read(out / "resolved.ini")
    assert resolved["train"]["seed"] == "23" and resolved["split"]["seed"] == "0"


def test_flag_and_config_key_resolve_the_same(tmp_path):
    cfg = tmp_path / "gen.ini"
    cfg.write_text("[generate]\nsamples_per_module = 40,36,44\n")
    common = ["--modules", "3", "--time-steps", "32", "--faults", "6"]
    assert run("generate", "--out", str(tmp_path / "flag"), *common,
               "--samples-per-module", "40,36,44") == 0
    assert run("generate", "--out", str(tmp_path / "file"), *common,
               "--config", str(cfg)) == 0
    for name in ("resolved.ini", "dataset.mwts"):
        assert sha(tmp_path / "flag" / name) == sha(tmp_path / "file" / name), name
    assert "samples_per_module = 40,36,44" in (tmp_path / "flag" / "resolved.ini").read_text()


@pytest.mark.parametrize("argv", [
    ["generate", "--samples-per-module", "4,x"],
    ["train", "--data", "d.mwts", "--epochs", "x"],
    ["train", "--data", "d.mwts", "--preset", "huge"],
    ["eval", "--data", "d.mwts", "--mode", "fast"],
    ["landscape", "--data", "d.mwts", "--model", "m", "--range", "inf"],
])
def test_bad_setting_flag_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[generate]\nmodules = 2\ntypo_key = 5\n")
    assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "typo_key" in capsys.readouterr().err


def test_model_mode_is_not_a_config_key(workspace, tmp_path, capsys):
    # the model kind is --mode's alone; a [model] mode key never took effect
    cfg = tmp_path / "mode.ini"
    cfg.write_text("[model]\nmode = vae\n")
    assert run("train", "--data", str(workspace / "data" / "dataset.mwts"),
               "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "unknown key 'mode' in section [model]" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, key, value", [
    ("train", "split", "train_fraction", "nan"),
    ("train", "train", "learning_rate", "inf"),
    ("landscape", "landscape", "span", "nan"),
    ("landscape", "landscape", "span", "-inf"),
])
def test_exit_code_non_finite_config_float(workspace, tmp_path, capsys,
                                           command, section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    argv = [command, "--data", str(workspace / "data" / "dataset.mwts"),
            "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "train":
        argv += ["--epochs", "1"]
    else:
        argv += ["--model", str(workspace / "cvae"), "--res", "1"]
    assert run(*argv) == 2
    assert f"bad value for {section}.{key}: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--learning-rate", "--eta"])
def test_non_finite_float_flag_exits_2(workspace, tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run("train", "--data", str(workspace / "data" / "dataset.mwts"),
            "--out", str(tmp_path / "o"), flag, "nan")
    assert exc.value.code == 2


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace(",sd,", ",spread,"), "has no 'sd' column"),
    (lambda text: text.replace("\n", "\nc_bad,abc,1.0,0\n", 1), "malformed"),
    (lambda text: text.rstrip("\n") + "x\n", "malformed"),
], ids=["no sd column", "mean not a number", "constant not an int"])
def test_exit_code_malformed_stats_csv(workspace, tmp_path, capsys, edit, message):
    stats = tmp_path / "stats.csv"
    stats.write_text(edit((workspace / "cvae" / "stats.csv").read_text()))
    assert run("eval", "--data", str(workspace / "data" / "dataset.mwts"),
               "--multi", str(workspace / "cvae"), "--stats", str(stats),
               "--out", str(tmp_path / "o")) == 4
    err = capsys.readouterr().err
    assert message in err and str(stats) in err


@pytest.mark.parametrize("edit", [
    lambda rows: rows[::-1],
    lambda rows: [[c, m, repr(-float(sd)), k] for c, m, sd, k in rows],
    lambda rows: rows[:-1],
    lambda rows: [[rows[0][0], "nan", *rows[0][2:]], *rows[1:]],
], ids=["rows reversed", "sd negated", "one row short", "nan mean"])
def test_stats_csv_that_disagrees_with_the_data_exits_4(workspace, tmp_path, capsys, edit):
    # each once scored silently wrong (reversed, negated) or exited 5 or 3
    with open(workspace / "cvae" / "stats.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    stats = tmp_path / "stats.csv"
    with open(stats, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *edit(rows)])
    assert run("eval", "--data", str(workspace / "data" / "dataset.mwts"),
               "--multi", str(workspace / "cvae"), "--stats", str(stats),
               "--out", str(tmp_path / "o")) == 4
    assert str(stats) in capsys.readouterr().err


def test_missing_stats_csv_exits_4(workspace, tmp_path, capsys):
    model = tmp_path / "model"
    model.mkdir()
    shutil.copy(workspace / "cvae" / "checkpoint.mwck", model)
    assert run("eval", "--data", str(workspace / "data" / "dataset.mwts"),
               "--multi", str(model), "--out", str(tmp_path / "o")) == 4
    err = capsys.readouterr().err
    assert "channel stats file not found" in err and "pass --stats" in err
    assert not (tmp_path / "o").exists()


def test_exit_code_config_error(tmp_path, capsys):
    # eval without any model to score with
    assert run("eval", "--data", "whatever.mwts", "--out", str(tmp_path / "o")) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_numeric_error(workspace, tmp_path, capsys):
    data = workspace / "data" / "dataset.mwts"
    code = run("train", "--data", str(data), "--out", str(tmp_path / "o"),
               "--epochs", "2", "--learning-rate", "1e8", "--seed", "7")
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_exit_code_bad_module_id(workspace, tmp_path, capsys):
    assert run("train", "--data", str(workspace / "data" / "dataset.mwts"),
               "--mode", "vae", "--module", "abc", "--out", str(tmp_path / "o")) == 2
    assert "--module" in capsys.readouterr().err


def test_exit_code_nan_in_dataset(workspace, tmp_path, capsys):
    # the payload is the file's tail of little-endian float32s: make the last one NaN
    payload = bytearray((workspace / "data" / "dataset.mwts").read_bytes())
    payload[-4:] = np.float32(np.nan).tobytes()
    bad = tmp_path / "nan.mwts"
    bad.write_bytes(bytes(payload))
    assert run("eval", "--data", str(bad), "--multi", str(workspace / "cvae"),
               "--out", str(tmp_path / "o")) == 3
    assert "non-finite" in capsys.readouterr().err


def _checkpoint_head(workspace, name: bytes) -> bytes:
    """The workspace checkpoint up to its first layer, whose name is given
    raw, and the first layer's kind."""
    spec, params = load_checkpoint(workspace / "cvae" / "checkpoint.mwck")
    buf = io.BytesIO()
    buf.write(MAGIC)
    ser.write_u32(buf, VERSION)
    ser.write_kv_block(buf, spec.to_kv())
    ser.write_u32(buf, len(params.layers))
    buf.write(struct.pack("<I", len(name)) + name)
    ser.write_str(buf, "conv1d")
    return buf.getvalue()


# every claimed size is small or unreadable, so no reader tries to allocate it
@pytest.mark.parametrize("name, first_array", [
    (b"enc.conv0", struct.pack("<IQQ", 2, 2**32, 2**32) + bytes(40)),
    (b"enc.conv0", struct.pack("<IQ", 1, 2**63 + 5) + bytes(40)),
    (b"enc.conv0", struct.pack("<IQ", 1, 1000) + bytes(40)),
    (b"enc.\xffconv0", b""),
], ids=["wrapping-dims", "overflowing-dim", "1000-floats-over-10", "bad-utf8-name"])
def test_exit_code_corrupt_checkpoint(workspace, tmp_path, capsys, name, first_array):
    bad = tmp_path / "bad.mwck"
    bad.write_bytes(_checkpoint_head(workspace, name) + first_array)
    assert run("eval", "--data", str(workspace / "data" / "dataset.mwts"),
               "--multi", str(bad), "--stats", str(workspace / "cvae" / "stats.csv"),
               "--out", str(tmp_path / "o")) == 4
    assert capsys.readouterr().err.startswith("error:")


def _checkpoint_with(workspace, kv_edit=None, first_kind=None) -> bytes:
    """The workspace checkpoint rewritten with spec values replaced and,
    optionally, its first layer's kind."""
    spec, params = load_checkpoint(workspace / "cvae" / "checkpoint.mwck")
    buf = io.BytesIO()
    buf.write(MAGIC)
    ser.write_u32(buf, VERSION)
    ser.write_kv_block(buf, {**spec.to_kv(), **(kv_edit or {})})
    ser.write_u32(buf, len(params.layers))
    for i, (name, lw) in enumerate(params.layers.items()):
        ser.write_str(buf, name)
        ser.write_str(buf, first_kind if first_kind and i == 0 else lw.kind)
        ser.write_f32_array(buf, lw.kernels.data)
        ser.write_f32_array(buf, lw.bias.data)
    return buf.getvalue()


@pytest.mark.parametrize("kv_edit, first_kind", [
    ({"latent_dim": "x2"}, None),
    ({"mode": "cvaf"}, None),
    ({"latent_dim": "0"}, None),
    (None, "conv1e"),
], ids=["spec-not-an-int", "spec-bad-mode", "spec-zero-dim", "layer-kind"])
def test_exit_code_corrupt_checkpoint_spec(workspace, tmp_path, capsys, kv_edit, first_kind):
    # a checkpoint is a file: whatever is wrong inside it is exit 4
    bad = tmp_path / "bad.mwck"
    bad.write_bytes(_checkpoint_with(workspace, kv_edit, first_kind))
    assert run("landscape", "--data", str(workspace / "data" / "dataset.mwts"),
               "--model", str(bad), "--stats", str(workspace / "cvae" / "stats.csv"),
               "--res", "1", "--out", str(tmp_path / "o")) == 4
    assert capsys.readouterr().err.startswith("error: checkpoint")


@pytest.mark.parametrize("text", [
    b"[generate]\nnoise_sd = 5%\n",
    b"[generate]\nmodules = %(x)s\n",
    b"[generate]\nmodules = 2\n# \xff\n",
], ids=["percent", "interpolation", "not-utf8"])
def test_exit_code_unreadable_config(tmp_path, capsys, text):
    cfg = tmp_path / "odd.ini"
    cfg.write_bytes(text)
    assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_exit_code_config_is_a_directory(tmp_path, capsys):
    assert run("generate", "--config", str(tmp_path), "--out", str(tmp_path / "o")) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_exit_code_data_or_checkpoint_is_a_directory(workspace, tmp_path, capsys):
    assert run("train", "--data", str(tmp_path), "--out", str(tmp_path / "o")) == 4
    assert "cannot open" in capsys.readouterr().err
    (tmp_path / "model" / "checkpoint.mwck").mkdir(parents=True)
    assert run("eval", "--data", str(workspace / "data" / "dataset.mwts"),
               "--multi", str(tmp_path / "model"),
               "--stats", str(workspace / "cvae" / "stats.csv"),
               "--out", str(tmp_path / "o")) == 4
    assert "cannot open" in capsys.readouterr().err


@pytest.mark.parametrize("code, message, argv", [
    pytest.param(4, "checkpoint not found",
                 ("eval", "--multi", "{nowhere}", "--stats", "{cvae}/stats.csv"),
                 id="eval-missing-checkpoint"),
    pytest.param(4, "checkpoint not found",
                 ("landscape", "--model", "{nowhere}", "--stats", "{cvae}/stats.csv"),
                 id="landscape-missing-checkpoint"),
    pytest.param(2, "sampled mode needs n_draws >= 2",
                 ("eval", "--multi", "{cvae}", "--mode", "sampled", "--n-draws", "0"),
                 id="eval-n-draws-0"),
    pytest.param(2, "fpr_budget must be in (0, 1]",
                 ("eval", "--multi", "{cvae}", "--fpr-budget", "2"), id="eval-fpr-budget-2"),
    pytest.param(2, "resolution must be >= 1",
                 ("landscape", "--model", "{cvae}", "--res", "0"), id="landscape-res-0"),
    pytest.param(2, "span must be > 0",
                 ("landscape", "--model", "{cvae}", "--range", "-1"), id="landscape-range-neg"),
    pytest.param(2, "count must be >= 1",
                 ("uq", "--model", "{cvae}", "--examples", "0"), id="uq-examples-0"),
    pytest.param(2, "n_draws must be >= 2",
                 ("uq", "--model", "{cvae}", "--n-draws", "1"), id="uq-n-draws-1"),
    pytest.param(4, "module 7 has no training samples",
                 ("train", "--mode", "vae", "--module", "7"), id="train-vae-module-7"),
    pytest.param(2, "--mode vae", ("train", "--mode", "cvae", "--module", "2"),
                 id="train-cvae-module-2"),
    pytest.param(2, "max_epochs must be >= 1", ("train", "--epochs", "0"), id="train-epochs-0"),
    # a later --out wins over the one every case is given
    pytest.param(2, "File exists", ("train", "--out", "{afile}"), id="train-out-names-a-file"),
    pytest.param(2, "Not a directory", ("train", "--out", "{afile}/sub"),
                 id="train-out-under-a-file"),
])
def test_refused_run_leaves_no_out_dir(workspace, tmp_path, capsys, code, message, argv):
    (tmp_path / "afile").write_text("kept\n")
    paths = {"cvae": workspace / "cvae", "nowhere": tmp_path / "nowhere",
             "afile": tmp_path / "afile"}
    command, *rest = (arg.format(**paths) for arg in argv)
    out = tmp_path / "never"
    before = sorted(tmp_path.rglob("*"))
    assert run(command, "--data", str(workspace / "data" / "dataset.mwts"),
               "--out", str(out), *rest) == code
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_exit_code_dataset_name_not_utf8(workspace, tmp_path, capsys):
    payload = bytearray((workspace / "data" / "dataset.mwts").read_bytes())
    payload[24] = 0xFF  # first byte of the first channel name
    bad = tmp_path / "bad.mwts"
    bad.write_bytes(bytes(payload))
    assert run("eval", "--data", str(bad), "--multi", str(workspace / "cvae"),
               "--out", str(tmp_path / "o")) == 4
    assert "UTF-8" in capsys.readouterr().err


def test_exit_code_data_error(tmp_path, capsys):
    assert run("train", "--data", str(tmp_path / "missing.mwts"),
               "--out", str(tmp_path / "o")) == 4
    assert "not found" in capsys.readouterr().err


def test_exit_code_shape_error(workspace, tmp_path, capsys):
    # stats file from a 14-channel model applied to 3-channel... simplest
    # shape failure: dataset with channel count different from checkpoint
    data2 = tmp_path / "data2"
    assert run("generate", "--out", str(data2), "--modules", "3",
               "--samples-per-module", "40", "--time-steps", "48",
               "--faults", "12", "--seed", "9") == 0
    code = run("eval", "--data", str(data2 / "dataset.mwts"),
               "--multi", str(workspace / "cvae"),
               "--stats", str(workspace / "cvae" / "stats.csv"),
               "--out", str(tmp_path / "o"))
    assert code == 5
    assert capsys.readouterr().err.startswith("error:")


def test_reproduce_refuses_full_scale_without_force(tmp_path, capsys):
    assert run("reproduce", "--scale", "full",
               "--out", str(tmp_path / "o")) == 2
    assert "--force" in capsys.readouterr().err


def test_reproduce_detection_bundle(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        "[generate]\nmodules = 3\nsamples_per_module = 40\ntime_steps = 48\n"
        "faults = 24\n\n"
        "[train]\nmax_epochs = 2\nbatch_size = 8\n\n"
        "[eval]\nn_draws = 8\n"
    )
    out = tmp_path / "bundle"
    assert run("reproduce", "--experiment", "detection", "--config", str(cfg),
               "--out", str(out), "--seed", "7") == 0
    exp = out / "detection"
    assert (exp / "metrics" / "boxstats.csv").exists()
    assert (exp / "metrics" / "report.csv").exists()
    assert list((exp / "metrics").glob("roc_*.csv"))
    assert list((exp / "bands").glob("bands_*.csv"))
    # manifest covers every artifact with its checksum
    with open(out / "MANIFEST.txt") as fh:
        lines = fh.read().strip().splitlines()
    listed = {line.split(maxsplit=1)[1] for line in lines}
    on_disk = {
        os.path.relpath(os.path.join(r, f), out)
        for r, _, files in os.walk(out)
        for f in files
        if f != "MANIFEST.txt"
    }
    assert listed == on_disk
    digest, rel = lines[0].split(maxsplit=1)
    assert sha(out / rel) == digest
    # resolved.ini records how the bundle scored: sampled, with the general seed
    resolved = configparser.ConfigParser()
    resolved.read(exp / "resolved.ini")
    assert dict(resolved["eval"]) == {
        "batch_size": "32", "fpr_budget": "0.1", "mode": "sampled", "n_draws": "8",
        "seed": "7"}

    # the subcommand chain with the same config and seed writes the same files
    chain = tmp_path / "chain"
    assert run("generate", "--config", str(cfg), "--out", str(chain / "data"),
               "--seed", "7") == 0
    data = str(chain / "data" / "dataset.mwts")
    assert run("train", "--data", data, "--config", str(cfg), "--out", str(chain / "cvae"),
               "--seed", "7") == 0
    assert run("train", "--data", data, "--config", str(cfg), "--mode", "vae",
               "--out", str(chain / "singles"), "--seed", "7") == 0
    assert run("eval", "--data", data, "--config", str(cfg), "--multi", str(chain / "cvae"),
               "--single-dir", str(chain / "singles"), "--mode", "sampled",
               "--out", str(chain / "metrics"), "--seed", "7") == 0
    assert sha(chain / "data" / "dataset.mwts") == sha(exp / "data" / "dataset.mwts")
    assert sha(chain / "cvae" / "checkpoint.mwck") == sha(
        exp / "models" / "cvae" / "checkpoint.mwck")
    for module in range(3):
        rel = os.path.join(f"vae_module_{module}", "checkpoint.mwck")
        assert sha(chain / "singles" / rel) == sha(exp / "models" / rel)
    metric_csvs = sorted(p.name for p in (exp / "metrics").glob("*.csv"))
    assert len(metric_csvs) > 5
    for name in metric_csvs:
        assert sha(chain / "metrics" / name) == sha(exp / "metrics" / name), name
    threshold = read_manifest(exp / "metrics" / "summary.txt")["threshold"]
    assert read_manifest(chain / "metrics" / "manifest.txt")["threshold"] == threshold

    # the bundle's models directory is what eval --single-dir expects
    assert run("eval", "--data", str(exp / "data" / "dataset.mwts"),
               "--single-dir", str(exp / "models"), "--out", str(tmp_path / "single"),
               "--seed", "7") == 0


def test_reproduce_rejects_unknown_model_preset(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(
        "[generate]\nmodules = 2\nsamples_per_module = 60\ntime_steps = 32\n"
        "faults = 4\n\n[train]\nmax_epochs = 1\nbatch_size = 8\n\n"
        "[model]\npreset = ful\n"
    )
    assert run("reproduce", "--experiment", "detection", "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert "unknown model preset 'ful'" in capsys.readouterr().err


def test_reproduce_depth_and_calibration(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        "[generate]\nmodules = 2\nsamples_per_module = 30\ntime_steps = 48\n"
        "faults = 0\n\n"
        "[train]\nmax_epochs = 2\nbatch_size = 8\n\n"
        "[landscape]\ndepths = 2,3\nresolution = 5\n\n"
        "[uq]\nn_draws = 8\nexamples = 3\n"
    )
    out = tmp_path / "bundle"
    assert run("reproduce", "--experiment", "depth", "--config", str(cfg),
               "--out", str(out), "--seed", "7") == 0
    assert (out / "depth" / "report.csv").exists()
    assert run("reproduce", "--experiment", "calibration", "--config", str(cfg),
               "--out", str(out), "--seed", "7") == 0
    assert list((out / "calibration").glob("uq_*.csv"))
    assert list((out / "calibration").glob("calibration_*.csv"))
    # resolved.ini records the general seed and the example count used
    resolved = configparser.ConfigParser()
    resolved.read(out / "calibration" / "resolved.ini")
    assert dict(resolved["uq"]) == {"examples": "3", "n_draws": "8", "seed": "7"}


def test_no_subcommand_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage:" in capsys.readouterr().out
