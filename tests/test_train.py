"""Training-loop behavior: determinism, checkpoint selection, early stop."""
import dataclasses
import os

import numpy as np
import pytest

from modwatch import data as D
from modwatch import model as M
from modwatch import train as train_module
from modwatch.checkpoint import checkpoint_bytes, load_checkpoint
from modwatch.errors import ConfigError, DataError, NumericError, ShapeError, TrainingDiverged
from modwatch.train import (
    TrainConfig,
    dataset_loss,
    read_manifest,
    train,
    train_single_module_suite,
)


def tiny_spec(mode="cvae", modules=2):
    return M.ModelSpec(
        mode=mode,
        time_steps=16,
        channels=3,
        encoder_conv_blocks=1,
        decoder_conv_blocks=1,
        kernels_per_block=4,
        kernel_width=3,
        dense_units=8,
        latent_dim=4,
        module_count=modules,
    ).validate()


def toy_waveforms(n, time_steps=16, channels=3, modules=2, seed=0, id_offset=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, time_steps, endpoint=False)
    data = np.zeros((n, time_steps, channels), dtype=np.float32)
    for i in range(n):
        for c in range(channels):
            f = 1.0 + (i % modules) + 0.5 * c
            data[i, :, c] = np.sin(2 * np.pi * f * t) + 0.05 * rng.standard_normal(time_steps)
    return D.WaveformTensor(
        data=data,
        channel_names=[f"ch{c}" for c in range(channels)],
        module_ids=(np.arange(n) % modules).astype(np.int32),
        labels=np.array([D.NORMAL_LABEL] * n, dtype="<U16"),
        sample_ids=np.arange(id_offset, id_offset + n, dtype=np.int64),
    )


def constant_waveforms(n, time_steps, channels, seed=5, id_offset=0):
    rng = np.random.default_rng(seed)
    levels = rng.uniform(-1.5, 1.5, size=(n, 1, channels)).astype(np.float32)
    data = np.broadcast_to(levels, (n, time_steps, channels)).copy()
    return D.WaveformTensor(
        data=data,
        channel_names=list(D.CHANNELS)[:channels],
        module_ids=np.arange(n, dtype=np.int32),
        labels=np.array([D.NORMAL_LABEL] * n, dtype="<U16"),
        sample_ids=np.arange(id_offset, id_offset + n, dtype=np.int64),
    )


class TestTrainBasics:
    def test_zero_epochs_is_refused(self, tmp_path):
        # no epoch would leave the untrained weights as the "best" checkpoint
        spec = tiny_spec()
        tr = toy_waveforms(8)
        va = toy_waveforms(4, id_offset=100)
        with pytest.raises(ConfigError, match="max_epochs must be >= 1"):
            train(spec, tr, va, TrainConfig(batch_size=4, max_epochs=0, seed=11),
                  out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_loss_decreases_on_toy_data(self):
        spec = tiny_spec()
        tr = toy_waveforms(16, seed=1)
        va = toy_waveforms(8, seed=2, id_offset=100)
        cfg = TrainConfig(batch_size=8, learning_rate=3e-3, max_epochs=40, seed=0)
        res = train(spec, tr, va, cfg)
        first = res.log.epochs[0].train.total
        last = min(r.train.total for r in res.log.epochs)
        assert last < 0.7 * first

    def test_training_is_deterministic(self):
        spec = tiny_spec()
        tr = toy_waveforms(12, seed=3)
        va = toy_waveforms(6, seed=4, id_offset=50)
        cfg = TrainConfig(batch_size=4, max_epochs=15, seed=9)
        a = train(spec, tr, va, cfg)
        b = train(spec, tr, va, cfg)
        assert len(a.log.epochs) == len(b.log.epochs)
        for ra, rb in zip(a.log.epochs, b.log.epochs):
            assert ra.train == rb.train
            assert ra.validation == rb.validation
        assert checkpoint_bytes(spec, a.params) == checkpoint_bytes(spec, b.params)

    def test_seed_changes_the_run(self):
        spec = tiny_spec()
        tr = toy_waveforms(12, seed=3)
        va = toy_waveforms(6, seed=4, id_offset=50)
        a = train(spec, tr, va, TrainConfig(batch_size=4, max_epochs=5, seed=0))
        b = train(spec, tr, va, TrainConfig(batch_size=4, max_epochs=5, seed=1))
        assert a.log.epochs[-1].train.total != b.log.epochs[-1].train.total


class TestCheckpointSelection:
    def test_best_checkpoint_has_minimal_validation_loss(self):
        spec = tiny_spec()
        tr = toy_waveforms(12, seed=6)
        va = toy_waveforms(6, seed=7, id_offset=60)
        cfg = TrainConfig(batch_size=4, learning_rate=1e-2, max_epochs=60, patience=60, seed=2)
        res = train(spec, tr, va, cfg)
        totals = [r.validation.total for r in res.log.epochs]
        best = res.log.best_epoch
        assert totals[best - 1] == min(totals)
        # every later epoch is no better than the kept checkpoint
        assert all(t >= totals[best - 1] for t in totals[best:])

    def test_returned_params_reproduce_best_validation_loss(self):
        spec = tiny_spec()
        tr = toy_waveforms(12, seed=6)
        va = toy_waveforms(6, seed=7, id_offset=60)
        cfg = TrainConfig(batch_size=4, learning_rate=1e-2, max_epochs=30, patience=30, seed=2)
        res = train(spec, tr, va, cfg)
        best_rec = res.log.epochs[res.log.best_epoch - 1].validation
        again = dataset_loss(res.params, spec, va, cfg.eta, cfg.batch_size)
        assert again.total == best_rec.total

    def test_early_stopping_honors_patience(self):
        spec = tiny_spec()
        tr = toy_waveforms(12, seed=8)
        va = toy_waveforms(6, seed=9, id_offset=70)
        cfg = TrainConfig(
            batch_size=4, learning_rate=3e-2, max_epochs=300, patience=1, seed=4
        )
        res = train(spec, tr, va, cfg)
        assert res.log.stopped_early
        assert len(res.log.epochs) < 300
        assert len(res.log.epochs) - res.log.best_epoch == 1

    def test_patience_not_triggered_while_improving(self):
        spec = tiny_spec()
        tr = toy_waveforms(12, seed=8)
        va = toy_waveforms(6, seed=9, id_offset=70)
        cfg = TrainConfig(batch_size=4, learning_rate=1e-3, max_epochs=8, patience=2, seed=4)
        res = train(spec, tr, va, cfg)
        if not res.log.stopped_early:
            assert len(res.log.epochs) == 8


class TestMemorization:
    def test_single_batch_memorization_reaches_tiny_error(self):
        # one batch of constant waveforms, 500 epochs, reconstruction-only
        spec = dataclasses.replace(M.desk_spec(), module_count=4)
        tr = constant_waveforms(4, spec.time_steps, spec.channels)
        va = constant_waveforms(4, spec.time_steps, spec.channels, id_offset=100)
        cfg = TrainConfig(
            batch_size=4, learning_rate=1e-3, max_epochs=500, patience=500, eta=0.0, seed=3
        )
        res = train(spec, tr, va, cfg)
        assert res.log.epochs[-1].train.reconstruction < 1e-3


class TestInputChecks:
    def test_abnormal_sample_in_train_split_rejected(self):
        spec = tiny_spec()
        tr = toy_waveforms(8)
        tr.labels[3] = "IGBT"
        va = toy_waveforms(4, id_offset=100)
        with pytest.raises(DataError, match="abnormal"):
            train(spec, tr, va, TrainConfig(max_epochs=1))

    def test_overlapping_sample_ids_rejected(self):
        spec = tiny_spec()
        tr = toy_waveforms(8)
        va = toy_waveforms(4)  # same id range
        with pytest.raises(DataError, match="overlap"):
            train(spec, tr, va, TrainConfig(max_epochs=1))

    def test_dims_mismatch_rejected(self):
        spec = tiny_spec()
        tr = toy_waveforms(8, time_steps=32)
        va = toy_waveforms(4, time_steps=32, id_offset=100)
        with pytest.raises(ShapeError):
            train(spec, tr, va, TrainConfig(max_epochs=1))

    def test_module_id_out_of_range_rejected(self):
        spec = tiny_spec(modules=2)
        tr = toy_waveforms(8, modules=2)
        tr.module_ids[0] = 7
        va = toy_waveforms(4, id_offset=100)
        with pytest.raises(DataError, match="module id"):
            train(spec, tr, va, TrainConfig(max_epochs=1))

    def test_empty_split_rejected(self):
        spec = tiny_spec()
        tr = toy_waveforms(8)
        va = toy_waveforms(4, id_offset=100).select(np.zeros(4, dtype=bool))
        with pytest.raises(DataError, match="empty"):
            train(spec, tr, va, TrainConfig(max_epochs=1))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(patience=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(eta=-0.1).validate()

    def test_divergence_raises_with_diagnostic(self):
        spec = tiny_spec()
        tr = toy_waveforms(8)
        va = toy_waveforms(4, id_offset=100)
        cfg = TrainConfig(batch_size=4, learning_rate=1e8, max_epochs=50, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match="epoch"):
                train(spec, tr, va, cfg)

    def test_non_finite_gradient_names_epoch_and_batch(self, monkeypatch):
        made = []
        real_init, real_backward = M.init_parameters, train_module.backward

        def init_parameters(*args, **kwargs):
            made.append(real_init(*args, **kwargs))
            return made[-1]

        def nan_backward(loss):
            real_backward(loss)
            nan_backward.calls += 1
            if nan_backward.calls == 3:  # 2 batches an epoch: epoch 2's first
                made[0].named_tensors()[0][1].grad.flat[0] = np.nan

        nan_backward.calls = 0
        monkeypatch.setattr(M, "init_parameters", init_parameters)
        monkeypatch.setattr(train_module, "backward", nan_backward)
        cfg = TrainConfig(batch_size=4, max_epochs=3, seed=0)
        with pytest.raises(TrainingDiverged) as info:
            train(tiny_spec(), toy_waveforms(8), toy_waveforms(4, id_offset=100), cfg)
        assert str(info.value) == "non-finite gradient at epoch 2, batch starting 0"
        assert isinstance(info.value, NumericError)  # the CLI's exit code 3
        assert "adam: non-finite gradient" in str(info.value.__cause__)


class TestDatasetLoss:
    def test_matches_single_batch_evaluation(self):
        spec = tiny_spec()
        ds = toy_waveforms(8)
        params = M.init_parameters(spec, 0)
        from modwatch.tensor import Tensor

        whole = M.loss(params, spec, Tensor(ds.data), ds.module_ids, eta=1.0, epsilon=None)
        batched = dataset_loss(params, spec, ds, eta=1.0, batch_size=4)
        assert batched.reconstruction == pytest.approx(whole.reconstruction, abs=1e-9)
        assert batched.kld == pytest.approx(whole.kld, abs=1e-9)

    def test_batch_size_does_not_change_result_materially(self):
        spec = tiny_spec()
        ds = toy_waveforms(10)
        params = M.init_parameters(spec, 1)
        a = dataset_loss(params, spec, ds, eta=0.5, batch_size=3)
        b = dataset_loss(params, spec, ds, eta=0.5, batch_size=10)
        assert a.total == pytest.approx(b.total, rel=1e-6)


class TestArtifacts:
    def test_run_directory_contents(self, tmp_path):
        spec = tiny_spec()
        tr = toy_waveforms(8, seed=1)
        va = toy_waveforms(4, seed=2, id_offset=100)
        cfg = TrainConfig(batch_size=4, max_epochs=6, seed=5)
        res = train(spec, tr, va, cfg, out_dir=tmp_path)

        loaded_spec, loaded_params = load_checkpoint(tmp_path / "checkpoint.mwck")
        assert loaded_spec == spec
        assert checkpoint_bytes(loaded_spec, loaded_params) == checkpoint_bytes(
            spec, res.params
        )

        lines = (tmp_path / "trainlog.csv").read_text().strip().splitlines()
        assert len(lines) == len(res.log.epochs) + 1
        assert lines[0].startswith("epoch,train_reconstruction")
        best_rows = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert len(best_rows) == 1
        assert best_rows[0].startswith(f"{res.log.best_epoch},")

        manifest = read_manifest(tmp_path / "manifest.txt")
        assert manifest["best_epoch"] == str(res.log.best_epoch)
        assert manifest["train_samples"] == "8"
        assert manifest["checkpoint"] == "checkpoint.mwck"
        assert len(manifest["checkpoint_sha256"]) == 64

    def test_trainlog_csv_is_deterministic(self, tmp_path):
        spec = tiny_spec()
        tr = toy_waveforms(8, seed=1)
        va = toy_waveforms(4, seed=2, id_offset=100)
        cfg = TrainConfig(batch_size=4, max_epochs=6, seed=5)
        train(spec, tr, va, cfg, out_dir=tmp_path / "a")
        train(spec, tr, va, cfg, out_dir=tmp_path / "b")
        la = (tmp_path / "a" / "trainlog.csv").read_bytes()
        lb = (tmp_path / "b" / "trainlog.csv").read_bytes()
        assert la == lb
        ca = (tmp_path / "a" / "checkpoint.mwck").read_bytes()
        cb = (tmp_path / "b" / "checkpoint.mwck").read_bytes()
        assert ca == cb


class TestSingleModuleSuite:
    def _sets(self):
        tr = toy_waveforms(24, modules=3, seed=1)
        va = toy_waveforms(9, modules=3, seed=2, id_offset=200)
        return tr, va

    def test_one_model_per_module_with_distinct_losses(self):
        spec = tiny_spec(modules=3)
        tr, va = self._sets()
        cfg = TrainConfig(batch_size=4, max_epochs=5, seed=7)
        out = train_single_module_suite(spec, tr, va, cfg)
        assert sorted(out) == [0, 1, 2]
        totals = {m: r.log.epochs[-1].train.total for m, r in out.items()}
        assert len(set(totals.values())) == 3
        for res in out.values():
            assert res.spec.mode == "vae"

    def test_matches_manual_single_module_training(self):
        spec = tiny_spec(modules=3)
        tr, va = self._sets()
        cfg = TrainConfig(batch_size=4, max_epochs=5, seed=7)
        out = train_single_module_suite(spec, tr, va, cfg)

        single = dataclasses.replace(spec, mode="vae", module_count=1)
        tr1 = tr.select(tr.module_ids == 1)
        tr1.module_ids = np.zeros_like(tr1.module_ids)
        va1 = va.select(va.module_ids == 1)
        va1.module_ids = np.zeros_like(va1.module_ids)
        manual = train(single, tr1, va1, cfg)
        assert checkpoint_bytes(manual.spec, manual.params) == checkpoint_bytes(
            out[1].spec, out[1].params
        )

    def test_worker_count_does_not_change_results(self):
        spec = tiny_spec(modules=3)
        tr, va = self._sets()
        cfg = TrainConfig(batch_size=4, max_epochs=4, seed=7)
        serial = train_single_module_suite(spec, tr, va, cfg, jobs=1)
        parallel = train_single_module_suite(spec, tr, va, cfg, jobs=3)
        for m in serial:
            assert checkpoint_bytes(serial[m].spec, serial[m].params) == checkpoint_bytes(
                parallel[m].spec, parallel[m].params
            )

    def test_module_with_too_few_batches_rejected(self):
        spec = tiny_spec(modules=3)
        tr, va = self._sets()
        keep = (tr.module_ids != 2) | (tr.sample_ids == tr.sample_ids[tr.module_ids == 2][0])
        tr = tr.select(keep)  # module 2 down to one sample
        cfg = TrainConfig(batch_size=16, max_epochs=2, seed=7)
        with pytest.raises(DataError, match="fewer than"):
            train_single_module_suite(spec, tr, va, cfg)
