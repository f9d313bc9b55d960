"""Corrupt checkpoints: a truncated or bit-flipped ``.mwck`` image either
loads or raises ``DataError`` (exit 4), and ``modwatch eval`` with it exits
with the code the README documents for it instead of a traceback."""
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwatch import cli
from modwatch import data as D
from modwatch import model as M
from modwatch.checkpoint import checkpoint_bytes, load_checkpoint
from modwatch.errors import DataError

# README, "Exit codes": a malformed file is 4, a non-finite score 3.  A
# checkpoint's spec and payload dims must agree, so no flip makes a model
# of other dims (5), and nothing in a file is a usage error (2)
CORRUPT_CHECKPOINT_EXIT_CODES = {0, 3, 4}
HEADER_BYTES = 400  # the model spec block and the first layer's header


@pytest.fixture(scope="module")
def station(tmp_path_factory):
    """A small dataset with stats, and an untrained model's checkpoint image
    that ``modwatch eval`` scores it with."""
    root = tmp_path_factory.mktemp("fuzz")
    wt = D.generate(D.GeneratorConfig(module_count=2, samples_per_module=50, time_steps=16,
                                      fault_count=6, seed=1).validate())
    spec = M.ModelSpec(mode="cvae", time_steps=16, channels=len(D.CHANNELS),
                       encoder_conv_blocks=1, decoder_conv_blocks=1, kernels_per_block=4,
                       kernel_width=3, dense_units=8, latent_dim=4,
                       module_count=2).validate()
    D.save_dataset(root / "stream.mwts", wt)
    D.standardize(wt)[1].save_csv(root / "stats.csv", D.CHANNELS)
    blob = checkpoint_bytes(spec, M.init_parameters(spec, seed=0))
    assert eval_exit_code(root, blob) == 0
    return root, blob


def eval_exit_code(root, blob) -> int:
    path = root / "checkpoint.mwck"
    path.write_bytes(blob)
    return cli.main(["eval", "--data", str(root / "stream.mwts"), "--multi", str(path),
                     "--stats", str(root / "stats.csv"), "--out", str(root / "out")])


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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_returns_or_raises_a_data_error(station, data):
    try:
        load_checkpoint(io.BytesIO(corrupt(station[1], data)))
    except DataError:
        pass


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eval_exits_with_a_documented_code(station, data):
    root, blob = station
    assert eval_exit_code(root, corrupt(blob, data)) in CORRUPT_CHECKPOINT_EXIT_CODES
