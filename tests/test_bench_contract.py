"""What the benchmark under ``perfbench/`` reads from the package.

The tracer wraps functions at the module attributes listed in
``perfbench.tracing.LOOKUP_SITES``, and the workloads read scores through
the row view (``scores[0].sample_id``, truthiness, and each row's
``replica_aggregates`` over iteration).  A rename or a changed return type
here would break the benchmark, not a test, so it is guarded here.
"""
import importlib
import os
import sys

import numpy as np
import pytest

from modwatch import data as D
from modwatch import model as M
from modwatch.evaluate import score

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import LOOKUP_SITES  # noqa: E402

SITES = sorted({site for sites in LOOKUP_SITES.values() for site in sites})


@pytest.mark.parametrize("module, attr", SITES)
def test_every_lookup_site_resolves_to_a_callable(module, attr):
    target = getattr(importlib.import_module(f"modwatch.{module}"), attr, None)
    assert callable(target), f"modwatch.{module}.{attr}"


def _pulses(n: int) -> D.WaveformTensor:
    rng = np.random.default_rng(3)
    return D.WaveformTensor(
        data=rng.standard_normal((n, 16, 3)).astype(np.float32),
        channel_names=["c0", "c1", "c2"],
        module_ids=(np.arange(n) % 2).astype(np.int32),
        labels=np.array([D.NORMAL_LABEL] * n, dtype="<U16"),
        sample_ids=np.arange(10, 10 + n, dtype=np.int64),
    )


SPEC = M.ModelSpec(
    mode="cvae", time_steps=16, channels=3, encoder_conv_blocks=1,
    decoder_conv_blocks=1, kernels_per_block=4, kernel_width=3, dense_units=8,
    latent_dim=4, module_count=2,
).validate()


def test_batch_one_verdict_row_view():
    params = M.init_parameters(SPEC, 0)
    table = score(params, SPEC, _pulses(1), batch_size=1)
    assert bool(table)
    row = table[0]
    assert type(row.sample_id) is int and row.sample_id == 10
    assert type(row.label) is str and row.label == D.NORMAL_LABEL
    assert type(row.aggregate) is float


def test_sampled_rows_carry_one_aggregate_per_draw():
    params = M.init_parameters(SPEC, 0)
    table = score(params, SPEC, _pulses(5), mode="sampled", n_draws=6, seed=1, batch_size=5)
    assert bool(table)
    assert all(s.replica_aggregates.size == 6 for s in table)
    assert len(list(table)) == 5
