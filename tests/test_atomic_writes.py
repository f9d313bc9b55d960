"""Binary, config and bundle-manifest writers: a path is replaced whole or
not at all, an open file is written as is, and the checkpoint's digest is
the file's."""
from __future__ import annotations

import configparser
import hashlib
import io
import os

import numpy as np
import pytest

from modwatch import checkpoint as CK
from modwatch import cli
from modwatch import config as C
from modwatch import data as D
from modwatch import model as M
from modwatch import serialize as ser
from modwatch.errors import ShapeError

SPEC = M.ModelSpec(
    mode="cvae", time_steps=16, channels=3, encoder_conv_blocks=1,
    decoder_conv_blocks=1, kernels_per_block=4, kernel_width=3, dense_units=8,
    latent_dim=4, module_count=2,
).validate()


class Boom(Exception):
    pass


def _pulses(seed: int) -> D.WaveformTensor:
    rng = np.random.default_rng(seed)
    return D.WaveformTensor(
        data=rng.standard_normal((5, 16, 3)).astype(np.float32),
        channel_names=("c0", "c1", "c2"),
        module_ids=(np.arange(5) % 2).astype(np.int32),
        labels=np.array([D.NORMAL_LABEL] * 5, dtype="<U16"),
        sample_ids=np.arange(5, dtype=np.int64),
    )


def _fail_after(monkeypatch, module, attr: str, calls: int) -> None:
    """Make ``module.attr`` raise ``Boom`` on its call number ``calls + 1``,
    after ``calls`` real calls have written their bytes."""
    original = getattr(module, attr)
    seen = [0]

    def flaky(*args, **kwargs):
        seen[0] += 1
        if seen[0] > calls:
            raise Boom(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, flaky)


def _writers():
    return {
        "checkpoint": (
            lambda path, seed: CK.save_checkpoint(path, SPEC, M.init_parameters(SPEC, seed)),
            (ser, "write_f32_array", 3),
        ),
        "dataset": (
            lambda path, seed: D.save_dataset(path, _pulses(seed)),
            (ser, "write_str", 2),
        ),
        "bundle manifest": (
            # digests of a directory outside the test's own, one per seed
            lambda path, seed: cli._write_repro_manifest(
                path, os.path.dirname((C.__file__, __file__)[seed % 2])),
            (cli, "sha256_file", 2),
        ),
        "resolved config": (
            lambda path, seed: C.write_resolved_config(path, {"general": {"seed": seed}}),
            (configparser.ConfigParser, "_write_section", 0),
        ),
    }


@pytest.mark.parametrize("kind", sorted(_writers()))
def test_failed_write_leaves_the_earlier_file(tmp_path, monkeypatch, kind):
    write, (module, attr, calls) = _writers()[kind]
    path = tmp_path / "artifact"
    write(path, 1)
    before = path.read_bytes()
    _fail_after(monkeypatch, module, attr, calls)
    with pytest.raises(Boom):
        write(path, 2)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


@pytest.mark.parametrize("kind", sorted(_writers()))
def test_failed_first_write_leaves_no_file(tmp_path, monkeypatch, kind):
    write, (module, attr, calls) = _writers()[kind]
    _fail_after(monkeypatch, module, attr, calls)
    with pytest.raises(Boom):
        write(tmp_path / "artifact", 1)
    assert list(tmp_path.iterdir()) == []


def test_open_handles_are_written_as_is(tmp_path):
    params = M.init_parameters(SPEC, 3)
    buf = io.BytesIO(b"head")
    buf.seek(4)
    digest = CK.save_checkpoint(buf, SPEC, params)
    assert not buf.closed
    body = buf.getvalue()[4:]
    assert body == CK.checkpoint_bytes(SPEC, params)
    assert digest == hashlib.sha256(body).hexdigest()
    wt = _pulses(4)
    with open(tmp_path / "d.mwts", "wb") as fh:
        D.save_dataset(fh, wt)
        assert not fh.closed
    assert (tmp_path / "d.mwts").read_bytes() == D.dataset_bytes(wt)


def test_checkpoint_digest_is_the_written_file(tmp_path):
    params = M.init_parameters(SPEC, 5)
    path = tmp_path / "checkpoint.mwck"
    digest = CK.save_checkpoint(path, SPEC, params)
    assert path.read_bytes() == CK.checkpoint_bytes(SPEC, params)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_copy_from_overwrites_in_place():
    best = M.init_parameters(SPEC, 0)
    held = [t.data for _, t in best.named_tensors()]
    other = M.init_parameters(SPEC, 1)
    best.copy_from(other)
    for arr, (_, t), (_, o) in zip(held, best.named_tensors(), other.named_tensors()):
        assert t.data is arr
        assert arr.tobytes() == o.data.tobytes() and arr is not o.data
    smaller = M.init_parameters(SPEC.with_depth(2), 0)
    with pytest.raises(ShapeError):
        best.copy_from(smaller)
