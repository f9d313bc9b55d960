"""Model: shape round trips, latent algebra, loss identities, checkpoints.

Frozen expected values below were computed from the analytic closed forms
of the Gaussian KL divergence and the mean-squared error before being
asserted here.
"""
from __future__ import annotations

import io
import math

import numpy as np
import pytest

from conftest import assert_gradients_close, fd_gradients
from modwatch import model as M
from modwatch import tensor as T
from modwatch.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from modwatch.data import WaveformTensor
from modwatch.errors import ConfigError, DataError, ShapeError
from modwatch.evaluate import score
from modwatch.tensor import Tensor
from modwatch.train import dataset_loss
from modwatch.uq import replicate


def tiny_spec(mode="cvae"):
    return M.ModelSpec(
        mode=mode,
        time_steps=16,
        channels=3,
        encoder_conv_blocks=2,
        decoder_conv_blocks=2,
        kernels_per_block=4,
        kernel_width=3,
        dense_units=8,
        latent_dim=4,
        module_count=3,
    ).validate()


class TestSpecValidation:
    def test_presets_validate(self):
        desk = M.desk_spec()
        full = M.full_spec()
        assert desk.time_steps == 512 and desk.channels == 14
        assert full.time_steps == 4500 and full.kernels_per_block == 128
        assert full.dense_units == 512 and full.latent_dim == 512
        assert full.encoder_conv_blocks == 3 and full.decoder_conv_blocks == 3
        assert full.kernel_width == 3

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            M.ModelSpec(mode="gan").validate()
        with pytest.raises(ShapeError):
            M.ModelSpec(kernel_width=4).validate()
        with pytest.raises(ConfigError):
            M.ModelSpec(latent_dim=0).validate()
        with pytest.raises(ShapeError):
            M.ModelSpec(time_steps=2, kernel_width=3).validate()

    def test_with_depth(self):
        spec = tiny_spec().with_depth(5)
        assert spec.encoder_conv_blocks == 5 and spec.decoder_conv_blocks == 5
        with pytest.raises(ConfigError):
            tiny_spec().with_depth(0)


class TestInitialization:
    def test_deterministic_per_seed(self):
        a = M.init_parameters(tiny_spec(), seed=5)
        b = M.init_parameters(tiny_spec(), seed=5)
        c = M.init_parameters(tiny_spec(), seed=6)
        for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)
        assert any(
            not np.array_equal(ta.data, tc.data)
            for (_, ta), (_, tc) in zip(a.named_tensors(), c.named_tensors())
        )

    def test_fan_in_bound_and_zero_bias(self):
        params = M.init_parameters(tiny_spec(), seed=0)
        for name, lw in params.layers.items():
            fan_in = int(np.prod(lw.kernels.data.shape[1:]))
            bound = 1.0 / math.sqrt(fan_in)
            assert np.abs(lw.kernels.data).max() <= bound, name
            np.testing.assert_array_equal(lw.bias.data, 0)

    def test_layer_plan_matches_mode(self):
        cvae = {name for name, _, _ in M.layer_plan(tiny_spec("cvae"))}
        vae_plan = dict((name, dims) for name, _, dims in M.layer_plan(tiny_spec("vae")))
        assert cvae == set(vae_plan) | set()
        # conditioning widens the latent heads and the decoder input
        assert vae_plan["enc.mu"] == (4, 8)
        cvae_plan = dict((name, dims) for name, _, dims in M.layer_plan(tiny_spec("cvae")))
        assert cvae_plan["enc.mu"] == (4, 8 + 3)
        assert cvae_plan["dec.dense0"] == (8, 4 + 3)


class TestEncodeDecode:
    def test_shape_round_trip(self, rng):
        for mode in ("vae", "cvae"):
            spec = tiny_spec(mode)
            params = M.init_parameters(spec, seed=1)
            x = Tensor(rng.standard_normal((5, 16, 3)).astype(np.float32))
            ids = np.array([0, 1, 2, 0, 1])
            dist = M.encode(params, spec, x, ids)
            assert dist.mu.dims == (5, 4) and dist.log_var.dims == (5, 4)
            out = M.decode(params, spec, dist.mu, ids)
            assert out.dims == (5, 16, 3)

    def test_conditioning_changes_output(self, rng):
        spec = tiny_spec("cvae")
        params = M.init_parameters(spec, seed=2)
        x = rng.standard_normal((1, 16, 3)).astype(np.float32)
        a = M.reconstruct(params, spec, x, np.array([0]))
        b = M.reconstruct(params, spec, x, np.array([2]))
        assert not np.array_equal(a, b)

    def test_vae_ignores_ids_cvae_requires_them(self, rng):
        x = rng.standard_normal((2, 16, 3)).astype(np.float32)
        vae = tiny_spec("vae")
        p_vae = M.init_parameters(vae, seed=3)
        a = M.reconstruct(p_vae, vae, x, None)
        b = M.reconstruct(p_vae, vae, x, np.array([0, 1]))
        np.testing.assert_array_equal(a, b)
        cvae = tiny_spec("cvae")
        p_cvae = M.init_parameters(cvae, seed=3)
        with pytest.raises(ShapeError):
            M.encode(p_cvae, cvae, Tensor(x), None)

    def test_unseen_module_id_raises(self, rng):
        spec = tiny_spec("cvae")
        params = M.init_parameters(spec, seed=4)
        x = Tensor(rng.standard_normal((1, 16, 3)).astype(np.float32))
        with pytest.raises(DataError):
            M.encode(params, spec, x, np.array([3]))

    def test_wrong_input_dims_raise(self, rng):
        spec = tiny_spec("vae")
        params = M.init_parameters(spec, seed=4)
        with pytest.raises(ShapeError):
            M.encode(params, spec, Tensor(rng.standard_normal((1, 8, 3)).astype(np.float32)))
        with pytest.raises(ShapeError):
            M.decode(params, spec, Tensor(rng.standard_normal((1, 7)).astype(np.float32)))


class TestLatentAlgebra:
    def test_reparameterize_identity(self, rng):
        mu = rng.standard_normal((4, 6)).astype(np.float32)
        log_var = rng.uniform(-1, 1, (4, 6)).astype(np.float32)
        eps = rng.standard_normal((4, 6)).astype(np.float32)
        dist = M.LatentDistribution(mu=Tensor(mu), log_var=Tensor(log_var))
        z = M.reparameterize(dist, eps)
        want = mu + np.exp(0.5 * log_var) * eps
        np.testing.assert_allclose(z.data, want, rtol=1e-6)

    def test_zero_epsilon_returns_mu_exactly(self, rng):
        mu = rng.standard_normal((2, 5)).astype(np.float32)
        dist = M.LatentDistribution(
            mu=Tensor(mu), log_var=Tensor(rng.standard_normal((2, 5)).astype(np.float32))
        )
        z = M.reparameterize(dist, np.zeros((2, 5), np.float32))
        np.testing.assert_array_equal(z.data, mu)

    def test_gradient_flows_to_mu_and_log_var_not_eps(self, rng):
        mu = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        log_var = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        dist = M.LatentDistribution(mu=mu, log_var=log_var)
        z = M.reparameterize(dist, rng.standard_normal((2, 3)).astype(np.float32))
        T.backward(T.tsum(T.square(z)))
        assert mu.grad is not None and log_var.grad is not None
        assert dist.epsilon.grad is None

    def test_sigma_positive(self, rng):
        dist = M.LatentDistribution(
            mu=Tensor(np.zeros((1, 4), np.float32)),
            log_var=Tensor(rng.uniform(-8, 8, (1, 4)).astype(np.float32)),
        )
        assert (dist.sigma().data > 0).all()


class TestLosses:
    def test_mse_frozen_value(self):
        # mean((1-0)^2, (2-0)^2) = 2.5
        x = Tensor(np.array([[1.0, 2.0]], np.float32))
        y = Tensor(np.zeros((1, 2), np.float32))
        assert M.mse(x, y).item() == pytest.approx(2.5, abs=1e-7)

    def test_kld_standard_normal_is_zero(self):
        dist = M.LatentDistribution(
            mu=Tensor(np.zeros((3, 4), np.float32)), log_var=Tensor(np.zeros((3, 4), np.float32))
        )
        assert M.kld_gaussian(dist).item() == 0.0

    def test_kld_frozen_values(self):
        # mu = [0.5, -0.5], log_var = 0: 0.5 * sum(mu^2) = 0.25
        dist = M.LatentDistribution(
            mu=Tensor(np.array([[0.5, -0.5]], np.float32)),
            log_var=Tensor(np.zeros((1, 2), np.float32)),
        )
        assert M.kld_gaussian(dist).item() == pytest.approx(0.25, abs=1e-6)
        # mu = 0, log_var = ln 2: -0.5 * (1 + ln2 - 2) = (1 - ln2) / 2
        dist = M.LatentDistribution(
            mu=Tensor(np.zeros((1, 1), np.float32)),
            log_var=Tensor(np.full((1, 1), math.log(2.0), np.float32)),
        )
        assert M.kld_gaussian(dist).item() == pytest.approx((1 - math.log(2.0)) / 2, abs=1e-6)

    def test_kld_non_negative_1000_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dist = M.LatentDistribution(
                mu=Tensor(rng.standard_normal((1, 6)).astype(np.float32) * 2),
                log_var=Tensor(rng.uniform(-4, 4, (1, 6)).astype(np.float32)),
            )
            assert M.kld_gaussian(dist).item() >= -1e-6

    def test_batch_mean_convention(self, rng):
        mu = rng.standard_normal((8, 5)).astype(np.float32)
        lv = rng.uniform(-1, 1, (8, 5)).astype(np.float32)
        whole = M.kld_gaussian(M.LatentDistribution(mu=Tensor(mu), log_var=Tensor(lv))).item()
        per = [
            M.kld_gaussian(
                M.LatentDistribution(mu=Tensor(mu[i : i + 1]), log_var=Tensor(lv[i : i + 1]))
            ).item()
            for i in range(8)
        ]
        assert whole == pytest.approx(float(np.mean(per)), rel=1e-5)

    def test_total_recomposes(self, rng):
        spec = tiny_spec("cvae")
        params = M.init_parameters(spec, seed=7)
        x = Tensor(rng.standard_normal((4, 16, 3)).astype(np.float32))
        ids = np.array([0, 1, 2, 1])
        eps = rng.standard_normal((4, 4)).astype(np.float32)
        for eta in (0.0, 1.0, 2.5):
            breakdown = M.loss(params, spec, x, ids, eta=eta, epsilon=eps)
            assert breakdown.total == pytest.approx(
                breakdown.reconstruction + eta * breakdown.kld, abs=1e-6
            )
        b0 = M.loss(params, spec, x, ids, eta=0.0, epsilon=eps)
        assert b0.total == pytest.approx(b0.reconstruction, abs=1e-7)

    def test_full_loss_gradient_matches_finite_differences(self, rng):
        """End-to-end gradcheck of the complete conditional objective on a
        2-sample batch, against a float64 re-implementation."""
        spec = M.ModelSpec(
            mode="cvae",
            time_steps=8,
            channels=2,
            encoder_conv_blocks=1,
            decoder_conv_blocks=1,
            kernels_per_block=3,
            kernel_width=3,
            dense_units=4,
            latent_dim=2,
            module_count=2,
        ).validate()
        ids = np.array([0, 1])
        eta = 0.7

        from test_tensor import conv1d_oracle, dense_oracle

        onehot = np.zeros((2, 2))
        onehot[[0, 1], ids] = 1.0

        def oracle(ew, eb, dw, db, mw, mb, lw, lb, d0w, d0b, d1w, d1b, cw, cb):
            h = np.maximum(conv1d_oracle(x.astype(np.float64), ew, eb), 0.0)
            h = h.reshape(2, -1)
            h = np.maximum(dense_oracle(h, dw, db), 0.0)
            h = np.concatenate([h, onehot], axis=1)
            mu = dense_oracle(h, mw, mb)
            log_var = dense_oracle(h, lw, lb)
            z = mu + np.exp(0.5 * log_var) * eps.astype(np.float64)
            g = np.concatenate([z, onehot], axis=1)
            g = np.maximum(dense_oracle(g, d0w, d0b), 0.0)
            g = np.maximum(dense_oracle(g, d1w, d1b), 0.0)
            g = g.reshape(2, 8, 3)
            x_hat = conv1d_oracle(g, cw, cb)
            rec = ((x.astype(np.float64) - x_hat) ** 2).mean()
            kld = float(np.mean(-0.5 * (1.0 + log_var - mu**2 - np.exp(log_var)).sum(axis=1)))
            return rec + eta * kld

        order = [
            "enc.conv0",
            "enc.dense",
            "enc.mu",
            "enc.logvar",
            "dec.dense0",
            "dec.dense1",
            "dec.conv0",
        ]

        # keep every ReLU preactivation away from the kink so the oracle is
        # smooth across the +-h probes
        def kink_distance(arrays):
            h = conv1d_oracle(x.astype(np.float64), arrays[0], arrays[1])
            h2 = np.maximum(h, 0).reshape(2, -1)
            d = dense_oracle(h2, arrays[2], arrays[3])
            h3 = np.concatenate([np.maximum(d, 0), onehot], axis=1)
            mu = dense_oracle(h3, arrays[4], arrays[5])
            log_var = dense_oracle(h3, arrays[6], arrays[7])
            z = mu + np.exp(0.5 * log_var) * eps.astype(np.float64)
            g = np.concatenate([z, onehot], axis=1)
            g1 = dense_oracle(g, arrays[8], arrays[9])
            g2 = dense_oracle(np.maximum(g1, 0), arrays[10], arrays[11])
            return min(np.abs(p).min() for p in (h, d, g1, g2))

        for attempt in range(50):
            trial_rng = np.random.default_rng(1000 + attempt)
            params = M.init_parameters(spec, seed=1000 + attempt)
            # zero-init biases leave preactivations exactly on the kink when
            # a ReLU row saturates; jitter them
            for lw_ in params.layers.values():
                lw_.bias.data[:] = trial_rng.uniform(-0.2, 0.2, lw_.bias.dims).astype(np.float32)
            x = trial_rng.standard_normal((2, 8, 2)).astype(np.float32) * 0.5
            eps = trial_rng.standard_normal((2, 2)).astype(np.float32)
            arrays = []
            for name in order:
                lw_ = params.layers[name]
                arrays.append(lw_.kernels.data.astype(np.float64))
                arrays.append(lw_.bias.data.astype(np.float64))
            if kink_distance(arrays) > 5e-3:
                break
        else:
            pytest.fail("no kink-free configuration found in 50 attempts")

        tensors = M.loss_forward(params, spec, Tensor(x), ids, eta=eta, epsilon=eps)
        T.backward(tensors.total)
        fd = fd_gradients(oracle, arrays)
        i = 0
        for name in order:
            lw_ = params.layers[name]
            assert_gradients_close(lw_.kernels.grad, fd[i], label=f"{name}.kernels")
            assert_gradients_close(lw_.bias.grad, fd[i + 1], label=f"{name}.bias")
            i += 2


class TestCheckpoints:
    def test_round_trip_bit_exact(self, rng):
        spec = tiny_spec("cvae")
        params = M.init_parameters(spec, seed=21)
        blob = checkpoint_bytes(spec, params)
        spec2, params2 = load_checkpoint(io.BytesIO(blob))
        assert spec2 == spec
        for (name, a), (_, b) in zip(params.named_tensors(), params2.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name
        blob2 = checkpoint_bytes(spec2, params2)
        assert blob == blob2

    def test_file_round_trip(self, tmp_path, rng):
        spec = tiny_spec("vae")
        params = M.init_parameters(spec, seed=22)
        path = tmp_path / "model.mwck"
        save_checkpoint(path, spec, params)
        spec2, params2 = load_checkpoint(path)
        assert spec2 == spec
        for (name, a), (_, b) in zip(params.named_tensors(), params2.named_tensors()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.mwck"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated_raises(self, rng, tmp_path):
        spec = tiny_spec("vae")
        blob = checkpoint_bytes(spec, M.init_parameters(spec, seed=1))
        path = tmp_path / "cut.mwck"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_trailing_bytes_raise(self, rng, tmp_path):
        spec = tiny_spec("vae")
        blob = checkpoint_bytes(spec, M.init_parameters(spec, seed=1))
        path = tmp_path / "fat.mwck"
        path.write_bytes(blob + b"x")
        with pytest.raises(DataError):
            load_checkpoint(path)


class TestOneHot:
    def test_basic(self):
        out = M.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            out, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], np.float32)
        )

    def test_out_of_range(self):
        with pytest.raises(DataError):
            M.one_hot(np.array([3]), 3)
        with pytest.raises(DataError):
            M.one_hot(np.array([-1]), 3)


class TestForwardOnlyPaths:
    """Scoring, replicas and dataset losses run on constants: no op records
    a tape, even when the caller hands in trainable parameters."""

    @pytest.fixture
    def tapeless(self, monkeypatch):
        original = T.Function.apply.__func__

        def apply(cls, *tensors, **kwargs):
            out = original(cls, *tensors, **kwargs)
            assert out._ctx is None, f"{cls.__name__} recorded a tape"
            return out

        monkeypatch.setattr(T.Function, "apply", classmethod(apply))

    def _setup(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 3)
        assert all(t.requires_grad for _, t in params.named_tensors())
        rng = np.random.default_rng(5)
        n = 5
        ds = WaveformTensor(
            data=rng.standard_normal((n, spec.time_steps, spec.channels)).astype(np.float32),
            channel_names=tuple(f"c{i}" for i in range(spec.channels)),
            module_ids=np.array([0, 1, 2, 0, 1], dtype=np.int32),
            labels=np.array(["normal"] * n, dtype="<U16"),
            sample_ids=np.arange(n, dtype=np.int64),
        )
        return spec, params, ds

    def test_forward_only_entry_points_record_no_tape(self, tapeless):
        spec, params, ds = self._setup()
        score(params, spec, ds, batch_size=2)
        score(params, spec, ds, mode="sampled", n_draws=3, batch_size=2)
        replicate(params, spec, ds.data, ds.module_ids, n_draws=2)
        dataset_loss(params, spec, ds, eta=1.0, batch_size=2)
        # the patch does see a taped op: the training objective records one
        with pytest.raises(AssertionError, match="recorded a tape"):
            M.loss_forward(params, spec, Tensor(ds.data), ds.module_ids)

    def test_frozen_shares_the_arrays_as_constants(self):
        spec, params, _ = self._setup()
        frozen = params.frozen()
        assert list(frozen.layers) == list(params.layers)
        for (name, t), (fname, f) in zip(params.named_tensors(), frozen.named_tensors()):
            assert name == fname
            assert f.data is t.data
            assert not f.requires_grad and f._ctx is None
        assert params.named_tensors()[0][1].requires_grad
