"""The README's output-file table: the columns it lists for each eval
summary CSV are the keys of the column table its builder returns, so the
docs cannot drift from the one place each header is declared."""
from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

from modwatch import data as D
from modwatch.evaluate import AnomalyScore, auc_table, compare_methods, summarize

from conftest import stack_scores

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
NAMES = ["c0", "c1"]


def _readme_columns() -> dict[str, list[str]]:
    """``| `file` (note) | `a, b, c` (comment) |`` rows -> {"`file` (note)": [a, b, c]}."""
    found = {}
    for line in README.read_text().splitlines():
        match = re.match(r"\| (`[^|]+?) \| `([^`]*)`", line)
        if match:
            found[match.group(1)] = [c.strip() for c in match.group(2).split(",")]
    return found


def _tables() -> dict[str, dict]:
    rng = np.random.default_rng(5)
    labels = [D.NORMAL_LABEL] * 6 + ["IGBT"] * 4
    channels = rng.uniform(0.1, 1.0, (len(labels), len(NAMES)))
    rows = [
        AnomalyScore(i, i % 2, label, ch, float(ch.mean()), ch.mean() + rng.normal(0, 0.01, 3))
        for i, (label, ch) in enumerate(zip(labels, channels))
    ]
    multi = stack_scores(rows)
    single = {m: stack_scores(r for r in rows if r.module_id == m) for m in (0, 1)}
    box, density = summarize(multi, NAMES)
    return {
        "`auc_table.csv` (eval)": auc_table(multi, NAMES),
        "`boxstats.csv` (eval)": box,
        "`density.csv` (eval)": density,
        "`report.csv` (eval comparison)": compare_methods(multi, single),
    }


@pytest.mark.parametrize("row", sorted(_tables()))
def test_readme_lists_each_summary_header(row):
    assert _readme_columns()[row] == list(_tables()[row])
