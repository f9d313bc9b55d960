"""The README's tables: the columns it lists for each eval summary CSV are
the keys of the column table its builder returns, the flags it lists for
each command are the parser's, and the exit code it gives each error class
is the class's, so the docs cannot drift from the one place each header,
flag or code is declared."""
from __future__ import annotations

import argparse
import pathlib
import re

import numpy as np
import pytest

from modwatch import cli
from modwatch import data as D
from modwatch import errors
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


# every subcommand has these; the Commands table's text lists them once
COMMON_FLAGS = {"-h", "--help", "--out", "--config", "--seed", "--jobs"}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _readme_command_flags() -> dict[str, set[str]]:
    """``| `cmd` | purpose | `--a`, `--b X` |`` rows -> {"cmd": {"--a", "--b"}}."""
    text = README.read_text()
    table = text[text.index("| command | purpose | key flags |"):]
    found = {}
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        command, _, flags = line.strip("|").split(" | ")
        found[command.strip("` ")] = set(re.findall(r"`(--[a-z-]+)", flags))
    return found


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_readme_lists_each_command_flag(command):
    sub = _subparsers()[command]
    flags = {s for action in sub._actions for s in action.option_strings}
    assert _readme_command_flags()[command] == flags - COMMON_FLAGS


ERROR_CLASSES = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, errors.ModwatchError)]


def _readme_exit_codes() -> list[tuple[str, int]]:
    """The Exit codes paragraph's "`N` ... (`SomeError` ...)" -> [("SomeError", N)]."""
    text = README.read_text()
    paragraph = text[text.index("Exit codes"):text.index("Failures print")]
    parts = re.split(r"`(\d)`\s", paragraph)
    names = {cls.__name__ for cls in ERROR_CLASSES}
    return [(name, int(code)) for code, segment in zip(parts[1::2], parts[2::2])
            for name in re.findall(r"`(\w+)`", segment) if name in names]


def test_readme_gives_each_error_class_its_exit_code():
    assert sorted(_readme_exit_codes()) == sorted((c.__name__, c.exit_code) for c in ERROR_CLASSES)
