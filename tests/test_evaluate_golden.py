"""Byte pins for the metric CSVs of the evaluate layer.

The scores are built from a seeded generator with plain numpy arithmetic (no
model, no BLAS), so the digests depend only on the metric code.  The set is
shaped to reach the awkward branches: many tied scores, a module with faults
but no normals, fault classes missing from some modules, and per-draw
replica aggregates.  A change that moves a digest changes an output file.
"""
import hashlib

import numpy as np
import pytest

from modwatch import data as D
from modwatch.evaluate import (
    AnomalyScore,
    auc_table,
    compare_methods,
    roc_auc,
    summarize,
    write_auc_table_csv,
    write_boxstats_csv,
    write_comparison_csv,
    write_density_csv,
    write_roc_csv,
    write_scores_csv,
)

NAMES = ["ch0", "ch1", "ch2"]
DRAWS = 5
# (module, label, count); module 3 has no normals, TPS skips modules 0 and 2,
# IGBT skips module 2, Driver/Cap skips modules 1 and 3
LAYOUT = [
    (0, D.NORMAL_LABEL, 14), (0, "IGBT", 4), (0, "Driver/Cap", 3),
    (1, D.NORMAL_LABEL, 11), (1, "IGBT", 3), (1, "TPS", 2),
    (2, D.NORMAL_LABEL, 9), (2, "Driver/Cap", 4),
    (3, "IGBT", 3), (3, "TPS", 2),
]
FAULT_CHANNEL = {"IGBT": 0, "Driver/Cap": 2, "TPS": 1}


def _channels(rng, label):
    # eighths times a power of ten: heavy ties, and values on both sides of
    # the density grid's clipping range (1e-7 .. 10)
    ch = rng.integers(1, 6, size=len(NAMES)) / 8.0 * 10.0 ** int(rng.integers(-8, 2))
    if label != D.NORMAL_LABEL:
        ch[FAULT_CHANNEL[label]] += rng.integers(0, 4) / 4.0
    return ch


def _score(rng, sample_id, module, label):
    ch = _channels(rng, label)
    agg = float(ch.mean())
    reps = agg + rng.integers(-2, 3, size=DRAWS) / 64.0
    return AnomalyScore(sample_id, module, label, ch, agg, reps)


def golden_scores():
    rng = np.random.default_rng(20230420)
    cells = [(m, lbl) for m, lbl, count in LAYOUT for _ in range(count)]
    order = rng.permutation(len(cells))  # interleave the groups
    multi = [_score(rng, 1000 + i, *cells[j]) for i, j in enumerate(order)]
    single = {}
    for s in multi:
        single.setdefault(s.module_id, []).append(_score(rng, s.sample_id, s.module_id, s.label))
    return multi, single


def write_all(out):
    multi, single = golden_scores()
    write_scores_csv(out / "scores.csv", multi, NAMES)
    box_rows, density_rows = summarize(multi, NAMES)
    write_boxstats_csv(out / "boxstats.csv", box_rows)
    write_density_csv(out / "density.csv", density_rows)
    write_auc_table_csv(out / "auc_table.csv", auc_table(multi, NAMES))
    write_comparison_csv(out / "report.csv", compare_methods(multi, single))
    normals = [s.aggregate for s in multi if s.label == D.NORMAL_LABEL]
    for fault in sorted({s.label for s in multi} - {D.NORMAL_LABEL}):
        abnormal = [s.aggregate for s in multi if s.label == fault]
        write_roc_csv(out / f"roc_{fault.replace('/', '-')}.csv", roc_auc(normals, abnormal))


GOLDEN = {
    "auc_table.csv": "14bcb492a1ce0ba8918ad2031bf1b7ecf38633a3dc572db46740ec3408ddba07",
    "boxstats.csv": "8a90bd0a6fdfb5bc6078e69f175ae15ffeb343b9c88f8048cf62d52fe1c25fc5",
    "density.csv": "66d69a977e3df47098d4fec8f0a69a5c762259b57969680f17f5105a03e5e4fb",
    "report.csv": "e1811af6eacc8cda0223a1b1243be24bfb58ba2f2f8cd4a77d2d0095c099ed84",
    "roc_Driver-Cap.csv": "44a8977f7f9b621519bd15301e82e98690bc20a32444a86d26f9e4af17d27f50",
    "roc_IGBT.csv": "6bcb0afcb62830c7d350cd6d4fdb05321cd514b67eadd83e2c22d910562d8ac2",
    "roc_TPS.csv": "ec7592f6d88c72b7b262b4961c892b8d289b0b0683c22fac95251df670f45715",
    "scores.csv": "42e2d7be1fb0f910b7d51237829a024b6664cba6babfe293a7aea3a8ffff77a2",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_metric_csv_bytes_are_pinned(tmp_path, name):
    write_all(tmp_path)
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], name


def test_pins_cover_every_file_written(tmp_path):
    write_all(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN)
