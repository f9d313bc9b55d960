"""Corrupt waveform files: a truncated or bit-flipped ``.mwts`` image either
loads or raises a ModwatchError, and ``modwatch eval`` on it exits with a
documented code instead of a traceback."""
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwatch import cli
from modwatch import data as D
from modwatch import model as M
from modwatch.checkpoint import save_checkpoint
from modwatch.errors import ModwatchError

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}  # README, "Exit codes"
HEADER_BYTES = 512  # dims, names, ids and labels: most of the parsing


@pytest.fixture(scope="module")
def station(tmp_path_factory):
    """A small dataset, its image, and an untrained model with stats that
    ``modwatch eval`` scores it with."""
    root = tmp_path_factory.mktemp("fuzz")
    wt = D.generate(D.GeneratorConfig(module_count=2, samples_per_module=50, time_steps=16,
                                      fault_count=6, seed=1).validate())
    spec = M.ModelSpec(mode="cvae", time_steps=16, channels=len(D.CHANNELS),
                       encoder_conv_blocks=1, decoder_conv_blocks=1, kernels_per_block=4,
                       kernel_width=3, dense_units=8, latent_dim=4,
                       module_count=2).validate()
    model = root / "model"
    model.mkdir()
    save_checkpoint(model / "checkpoint.mwck", spec, M.init_parameters(spec, seed=0))
    D.standardize(wt)[1].save_csv(model / "stats.csv", D.CHANNELS)
    blob = D.dataset_bytes(wt)
    assert eval_exit_code(root, model, blob) == 0
    return root, model, blob


def eval_exit_code(root, model, blob) -> int:
    path = root / "stream.mwts"
    path.write_bytes(blob)
    return cli.main(["eval", "--data", str(path), "--multi", str(model),
                     "--out", str(root / "out")])


def corrupt(blob: bytes, data) -> bytes:
    """A cut of the image, or the image with one to three bits flipped,
    most of them in the header."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    out = bytearray(blob)
    anywhere = st.integers(0, 8 * len(blob) - 1)
    header = st.integers(0, 8 * HEADER_BYTES - 1)
    for bit in data.draw(st.lists(header | anywhere, min_size=1, max_size=3), label="bits"):
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_returns_or_raises_a_modwatch_error(station, data):
    blob = corrupt(station[2], data)
    try:
        D.load_dataset(io.BytesIO(blob))
    except ModwatchError:
        pass


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_eval_exits_with_a_documented_code(station, data):
    root, model, blob = station
    assert eval_exit_code(root, model, corrupt(blob, data)) in DOCUMENTED_EXIT_CODES
