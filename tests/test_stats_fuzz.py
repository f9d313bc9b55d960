"""Corrupt channel-stats files: a truncated, bit-flipped or line-edited
``stats.csv`` either loads or raises ``DataError``, and ``modwatch eval``
with it exits 0 or 4 instead of a traceback."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwatch import cli
from modwatch import data as D
from modwatch import model as M
from modwatch.checkpoint import save_checkpoint
from modwatch.errors import DataError


@pytest.fixture(scope="module")
def station(tmp_path_factory):
    """A small dataset, an untrained model, and the text of the stats file
    ``modwatch eval`` scores the dataset with."""
    root = tmp_path_factory.mktemp("statsfuzz")
    wt = D.generate(D.GeneratorConfig(module_count=2, samples_per_module=60, time_steps=16,
                                      fault_count=4, seed=2).validate())
    D.save_dataset(root / "data.mwts", wt)
    spec = M.ModelSpec(mode="cvae", time_steps=16, channels=len(D.CHANNELS),
                       encoder_conv_blocks=1, decoder_conv_blocks=1, kernels_per_block=4,
                       kernel_width=3, dense_units=8, latent_dim=4,
                       module_count=2).validate()
    save_checkpoint(root / "checkpoint.mwck", spec, M.init_parameters(spec, seed=0))
    D.standardize(wt)[1].save_csv(root / "stats.csv", D.CHANNELS)
    blob = (root / "stats.csv").read_bytes()
    assert eval_exit_code(root, blob) == 0
    return root, blob


def eval_exit_code(root, blob: bytes) -> int:
    (root / "fuzzed.csv").write_bytes(blob)
    return cli.main(["eval", "--data", str(root / "data.mwts"),
                     "--multi", str(root / "checkpoint.mwck"),
                     "--stats", str(root / "fuzzed.csv"), "--out", str(root / "out")])


def corrupt(blob: bytes, data) -> bytes:
    """A cut of the file, the file with one to three bits flipped, or the
    file with one line dropped or doubled."""
    how = data.draw(st.sampled_from(["truncate", "flip", "drop", "duplicate"]), label="how")
    if how == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    if how == "flip":
        out = bytearray(blob)
        for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1,
                                      max_size=3), label="bits"):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    lines = blob.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    return b"".join(lines[:i] + ([] if how == "drop" else [lines[i]] * 2) + lines[i + 1:])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_returns_or_raises_a_data_error(station, data):
    root, blob = station
    path = root / "loaded.csv"
    path.write_bytes(corrupt(blob, data))
    try:
        D.ChannelStats.load_csv(path, D.CHANNELS)
    except DataError:
        pass


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_eval_exits_0_or_4(station, data):
    root, blob = station
    assert eval_exit_code(root, corrupt(blob, data)) in (0, 4)
