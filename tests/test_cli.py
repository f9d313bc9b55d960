"""End-to-end command-line workflows in temporary directories."""
import configparser
import hashlib
import io
import os
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


@pytest.mark.parametrize("command, model_flag", [("eval", "--multi"), ("landscape", "--model")])
def test_missing_checkpoint_leaves_no_out_dir(workspace, tmp_path, capsys, command, model_flag):
    out = tmp_path / "never"
    assert run(command, "--data", str(workspace / "data" / "dataset.mwts"),
               model_flag, str(tmp_path / "nowhere"),
               "--stats", str(workspace / "cvae" / "stats.csv"), "--out", str(out)) == 4
    assert "checkpoint not found" in capsys.readouterr().err
    assert not out.exists()


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
