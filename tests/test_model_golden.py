"""Byte pins for the model paths: generate, train, score, replicate, landscape.

One tiny seeded configuration runs the whole model pipeline through the
library: a 3-module dataset, a 2-epoch CVAE training, deterministic and
sampled scoring, latent replicas, and a landscape grid whose far corners
overflow.  Each result is pinned by the SHA-256 of its bytes, so a change to
the tensor ops, the model or the forward-only entry points that moves a
single bit fails here.  The writer pins live in ``test_writers_golden.py``
and ``test_evaluate_golden.py``; these cover what they cannot reach.

The arrays pass through float32 GEMMs, so the digests hold for one numpy
and BLAS build on one CPU family; they were taken with numpy 2.4 and its
bundled OpenBLAS on x86-64.  Every digest was taken on the code before the
tape-free forward path and the in-place conv1d, and passes unchanged after.
"""
import hashlib

import numpy as np

from modwatch import data as D
from modwatch import landscape as L
from modwatch.evaluate import score
from modwatch.model import ModelSpec
from modwatch.train import TrainConfig, train
from modwatch.uq import replicate

SPEC = ModelSpec(
    mode="cvae", time_steps=48, channels=14, encoder_conv_blocks=2,
    decoder_conv_blocks=2, kernels_per_block=4, kernel_width=3,
    dense_units=8, latent_dim=4, module_count=3,
).validate()
SEED = 5

GOLDEN = {
    "dataset.mwts": "3d9795572cff084a29a28a73055eaf5bde65c55ca154e6cb40dbd943c6b1ce01",
    "checkpoint.mwck": "857f42bb989fedad6c69f3054644081ae9bbd1e9f89ecf187d1af8f661c7fe31",
    "trainlog.csv": "1f87010fc406268e5bdcc6f1ea7777758812e5245f1fe99df58a87b393a50f45",
    "manifest.txt": "fbf59cd6037b87af2d799479202e0f13efe60116c1789ed4f4499ffe81e235c5",
    "score_deterministic": "fa14ef4bafde220ef46e3e2d8351399fdba62bfc7c25bcfb540196f6a72b3fc0",
    "score_sampled": "3365c32a293a0dc6e26b25c672849727a5cf63998884c4256e0e70e1f4abeb8d",
    "replicate": "5304b9bc7d1723ee93318068350da88c0df5a17ca6b88ac1a12577a73ac8177b",
    "landscape": "2a2e2c732dae845fbae1e278d0966e88171d06c66f0621b2bcf828bf036632a3",
}


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _score_bytes(scores) -> bytes:
    parts = [np.array([s.sample_id for s in scores], dtype=np.int64),
             np.array([s.channel_mse for s in scores], dtype=np.float64),
             np.array([s.aggregate for s in scores], dtype=np.float64)]
    if scores[0].replica_aggregates is not None:
        parts.append(np.array([s.replica_aggregates for s in scores], dtype=np.float64))
    return b"".join(p.tobytes() for p in parts)


def _run(tmp_path, jobs: int = 1) -> dict[str, str]:
    cfg = D.GeneratorConfig(module_count=3, samples_per_module=16, time_steps=48,
                            fault_count=12, seed=SEED).validate()
    wt = D.generate(cfg)
    D.save_dataset(tmp_path / "dataset.mwts", wt)
    parts = D.split(wt, seed=SEED)
    train_std, stats = D.standardize(parts.train)
    val_std, _ = D.standardize(parts.validation, stats)
    test_std, _ = D.standardize(parts.test, stats)
    val_normal = val_std.select(val_std.normal_mask())
    result = train(SPEC, train_std, val_normal,
                   TrainConfig(batch_size=8, max_epochs=2, seed=SEED),
                   out_dir=tmp_path / "run")
    params = result.params

    out = {name: _sha((tmp_path / name).read_bytes()) for name in ("dataset.mwts",)}
    for name in ("checkpoint.mwck", "trainlog.csv"):
        out[name] = _sha((tmp_path / "run" / name).read_bytes())
    manifest = (tmp_path / "run" / "manifest.txt").read_text().splitlines(keepends=True)
    out["manifest.txt"] = _sha("".join(
        line for line in manifest if not line.startswith("wall_seconds")).encode())

    out["score_deterministic"] = _sha(_score_bytes(
        score(params, SPEC, test_std, batch_size=5, jobs=jobs)))
    out["score_sampled"] = _sha(_score_bytes(
        score(params, SPEC, test_std, mode="sampled", n_draws=4, seed=SEED,
              batch_size=5, jobs=jobs)))
    reps = replicate(params, SPEC, test_std.data[:3], test_std.module_ids[:3],
                     n_draws=3, seed=SEED, jobs=jobs)
    out["replicate"] = _sha(reps.draws.tobytes())

    gamma = L.random_direction(params, SEED)
    nu = L.random_direction(params, SEED + 1)
    grid = L.evaluate_grid(params, SPEC, gamma, nu, val_normal, resolution=5,
                           span=6.0, batch_size=4, jobs=jobs)
    out["landscape"] = _sha(grid.losses.tobytes() + np.float64(grid.center_loss).tobytes())
    return out


def test_model_paths_match_pins(tmp_path):
    assert _run(tmp_path) == GOLDEN


def test_worker_threads_share_the_pins(tmp_path):
    got = _run(tmp_path, jobs=2)
    for name in ("score_deterministic", "score_sampled", "replicate", "landscape"):
        assert got[name] == GOLDEN[name], name

