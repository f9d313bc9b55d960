"""Byte pins for the training, data, landscape and uq writers, and the
single-writer rule.

Like ``test_evaluate_golden.py``, every input is built from a seeded
generator with plain numpy arithmetic (no model, no BLAS), so the digests
depend only on the writers and the small reductions they call.  The inputs
reach the awkward cells: a best-epoch flag, a constant channel, a label that
needs quoting, an overflowed landscape cell, a NaN loss with a minimal
centre, and a degenerate calibration curve.  A change that moves a digest
changes an output file.
"""
import hashlib
import pathlib

import numpy as np
import pytest

import modwatch
from modwatch import data as D
from modwatch.landscape import (
    ConvexityReport,
    LandscapeGrid,
    convexity_report,
    convexity_row,
    write_convexity_csv,
    write_landscape_csv,
)
from modwatch.model import LossBreakdown
from modwatch.train import EpochRecord, TrainLog, write_manifest
from modwatch.uq import (
    ReplicaSet,
    miscalibration_area,
    per_channel_calibration,
    write_bands_csv,
    write_calibration_csv,
    write_uq_csv,
)
from modwatch.util import write_csv

UQ_NAMES = ["MOD-V", "CB-I", "FLUX-A"]


def _train_log(rng):
    log = TrainLog(best_epoch=2, stopped_early=True, wall_seconds=1.5)
    for epoch in range(5):
        parts = rng.standard_normal(2) ** 2 * 10.0 ** int(rng.integers(-6, 4))
        rec, kld = float(parts[0]), float(parts[1])
        val = LossBreakdown(rec * 1.1, kld, 1.0, rec * 1.1 + kld)
        log.epochs.append(EpochRecord(epoch, LossBreakdown(rec, kld, 1.0, rec + kld), val))
    return log


def _channel_stats(rng):
    n = len(D.CHANNELS)
    mean = rng.standard_normal(n) * 100.0
    sd = np.abs(rng.standard_normal(n)) + 0.1
    constant = np.zeros(n, dtype=bool)
    constant[5] = True
    sd[5] = 1.0
    return D.ChannelStats(mean=mean, sd=sd, constant=constant)


def _waveforms(rng):
    n = 9
    labels = np.array(
        [D.NORMAL_LABEL, "IGBT", "Driver/Cap", "TPS", "odd, label"] * 2, dtype=str
    )[:n]
    return D.WaveformTensor(
        data=np.zeros((n, 4, len(D.CHANNELS)), dtype=np.float32),
        channel_names=D.CHANNELS,
        module_ids=rng.integers(0, 3, size=n),
        labels=labels,
        sample_ids=rng.permutation(n).astype(np.int64) + 100,
    )


def _grid(rng):
    r = 5
    axis = np.linspace(-1.0, 1.0, r)
    losses = (axis[:, None] ** 2 + axis[None, :] ** 2) * 3.0 + rng.random((r, r)) / 7.0
    losses[0, 4] = np.inf
    return LandscapeGrid(
        alphas=axis, betas=axis, losses=losses, center_loss=float(losses[2, 2]),
        resolution=r, span=1.0, eta=1.0, n_samples=12, dataset_checksum="0" * 64,
        gamma_seed=101, nu_seed=202,
    )


def _replicas(rng):
    draws = rng.standard_normal((8, 3, 16, len(UQ_NAMES))).astype(np.float32)
    draws[:, :, :, 1] = draws[0, :, :, 1]  # identical draws: SD 0, a degenerate curve
    observed = rng.standard_normal((3, 16, len(UQ_NAMES)))
    return ReplicaSet.from_draws(draws, seed=7), observed


def write_all(out):
    rng = np.random.default_rng(20231018)
    _train_log(rng).save_csv(out / "trainlog.csv")
    _channel_stats(rng).save_csv(out / "stats.csv", D.CHANNELS)
    D.save_metadata_csv(out / "metadata.csv", _waveforms(rng))

    grid = _grid(rng)
    write_landscape_csv(out / "landscape_main.csv", grid)
    odd = ConvexityReport(
        psd_fraction=0.25, interior_count=9, loss_min=float("nan"),
        loss_max=float("nan"), ray_monotonicity=0.375, center_minimal=True,
        overflow_count=25, resolution=5,
    )
    rows = [convexity_row("main", grid, convexity_report(grid)), convexity_row("odd", grid, odd)]
    write_convexity_csv(out / "report.csv", rows)

    reps, observed = _replicas(rng)
    curves = per_channel_calibration(reps, observed)
    assert [c.degenerate for c in curves] == [False, True, False]
    write_uq_csv(out / "uq_0.csv", UQ_NAMES, curves, n_draws=reps.n_draws, seed=reps.seed)
    write_bands_csv(out / "bands_101.csv", reps, 1, UQ_NAMES)
    write_calibration_csv(out / "calibration_0.csv", miscalibration_area(reps, observed))
    write_manifest(
        out / "manifest.txt",
        {"mode": "cvae", "threshold": repr(0.1 + 0.2), "best_epoch": 2, "data": "a b/c"},
    )


GOLDEN = {
    "bands_101.csv": "61a3008d994730d70126bee027b58ae5e42495b44ff0585dd62e271cf03e880f",
    "calibration_0.csv": "ac5e1e09f2be7b3374b6c46023599abd93f8b7a14c2b42952da8366cca95f145",
    "landscape_main.csv": "9c2f3d1259205004bb99a5646fdb69c0702b55a51fe87afe78c22de9387a7bf0",
    "manifest.txt": "19592c6e103fa7e9cd3ebff70ba52125d83f5704949b45b2a38b077775bcf6f6",
    "metadata.csv": "8e5d772a08eb450caaad37ad4d6ecd7c94ca4bf5e85e2d614af7deccfef4fa44",
    "report.csv": "d994894174e9cd0ab881992dbac34fe88041733e0cca248595f00e20a881537e",
    "stats.csv": "66f91b724c117a7fd35aeb8a0c5fc6856898765f30787ce57772af77520ef8f3",
    "trainlog.csv": "b46e676b24e4b5adaa0a7279aaee194de4d04bea3c8fb595c463457e6e10f35f",
    "uq_0.csv": "9b23bb99a98595dd7aceb56c9f7cb644b3004292f2ba179a87b14dc6a7e6b63a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_writer_bytes_are_pinned(tmp_path, name):
    write_all(tmp_path)
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], name


def test_pins_cover_every_file_written(tmp_path):
    write_all(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN)



def test_csv_writing_lives_only_in_util():
    src = pathlib.Path(modwatch.__file__).parent
    offenders = [
        f"{p.name}: {pattern}"
        for p in sorted(src.glob("*.py")) if p.name != "util.py"
        for pattern in ("csv.writer(", "repr(float(") if pattern in p.read_text()
    ]
    assert offenders == []


def test_cell_rule(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(
        path,
        ["f", np.float32(0.1), "b", "n", "o"],
        [
            np.array([0.1, np.inf], dtype=np.float32),
            [np.float64(0.1 + 0.2), float("nan")],
            np.array([True, False]),
            [np.int64(3), "a,b"],
            [None, np.bool_(True)],
        ],
    )
    assert path.read_bytes() == (
        b"f,0.10000000149011612,b,n,o\r\n"
        b"0.10000000149011612,0.30000000000000004,1,3,\r\n"
        b'inf,nan,0,"a,b",1\r\n'
    )


def test_columns_of_unequal_length_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [1]])
    assert list(tmp_path.iterdir()) == []


def test_failed_csv_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a"], [[1.5, 2.5]])
    before = path.read_bytes()

    def halfway():
        yield 3.5
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError):
        write_csv(path, ["a"], [halfway()])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_failed_manifest_write_leaves_nothing(tmp_path):
    class Unprintable:
        def __format__(self, spec):
            raise RuntimeError("cannot format")

    with pytest.raises(RuntimeError):
        write_manifest(tmp_path / "manifest.txt", {"mode": "cvae", "bad": Unprintable()})
    assert list(tmp_path.iterdir()) == []
