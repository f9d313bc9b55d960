"""Replica statistics and interval calibration."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from modwatch import model as M
from modwatch.errors import ConfigError, DataError, ShapeError
from modwatch.uq import (
    CalibrationCurve,
    EXPECTED_PROPORTIONS,
    ReplicaSet,
    SD_FLOOR,
    choose_examples,
    miscalibration_area,
    per_channel_calibration,
    replicate,
    write_bands_csv,
    write_calibration_csv,
    write_uq_csv,
)


def tiny_spec(modules=2):
    return M.ModelSpec(
        mode="cvae",
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


def toy_batch(n=3, spec=None, seed=0):
    spec = spec or tiny_spec()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.time_steps, spec.channels)).astype(np.float32)
    ids = (np.arange(n) % spec.module_count).astype(np.int32)
    return x, ids


class TestReplicate:
    def test_shapes_and_summary(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        x, ids = toy_batch()
        reps = replicate(params, spec, x, ids, n_draws=6, seed=1)
        assert reps.draws.shape == (6, 3, 16, 3)
        mean, sd = reps.moments()
        assert mean.shape == (3, 16, 3)
        assert np.all(sd >= 0)
        assert np.allclose(mean, reps.draws.astype(np.float64).mean(axis=0), atol=1e-6)

    def test_same_seed_identical(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        x, ids = toy_batch()
        a = replicate(params, spec, x, ids, n_draws=5, seed=3)
        b = replicate(params, spec, x, ids, n_draws=5, seed=3)
        assert np.array_equal(a.draws, b.draws)

    def test_seed_changes_draws(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        x, ids = toy_batch()
        a = replicate(params, spec, x, ids, n_draws=5, seed=3)
        b = replicate(params, spec, x, ids, n_draws=5, seed=4)
        assert not np.array_equal(a.draws, b.draws)

    def test_collapsed_latent_makes_identical_replicas(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        # drive sigma to ~0: large negative log-variance output
        params.layers["enc.logvar"].kernels.data[...] = 0.0
        params.layers["enc.logvar"].bias.data[...] = -100.0
        x, ids = toy_batch()
        reps = replicate(params, spec, x, ids, n_draws=8, seed=2)
        assert np.all(reps.moments()[1] == 0.0)
        for i in range(1, 8):
            assert np.array_equal(reps.draws[i], reps.draws[0])

    def test_worker_count_does_not_change_draws(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 1)
        x, ids = toy_batch(seed=5)
        a = replicate(params, spec, x, ids, n_draws=8, seed=1, jobs=1)
        b = replicate(params, spec, x, ids, n_draws=8, seed=1, jobs=4)
        assert np.array_equal(a.draws, b.draws)

    def test_too_few_draws_rejected(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        x, ids = toy_batch()
        with pytest.raises(ConfigError):
            replicate(params, spec, x, ids, n_draws=1)

    def test_bad_input_dims_rejected(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        with pytest.raises(ShapeError):
            replicate(params, spec, np.zeros((2, 8, 3), dtype=np.float32), None)

    def test_sd_stabilizes_with_draw_count(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 2)
        x, ids = toy_batch(n=2, seed=7)
        half = replicate(params, spec, x, ids, n_draws=500, seed=1)
        full = replicate(params, spec, x, ids, n_draws=1000, seed=1)
        num = np.linalg.norm(half.moments()[1] - full.moments()[1])
        den = np.linalg.norm(full.moments()[1])
        assert num / den < 0.1


class TestFromDraws:
    def test_from_draws_validation(self, rng):
        with pytest.raises(ShapeError):
            ReplicaSet.from_draws(rng.standard_normal((4, 2, 3)))
        with pytest.raises(ConfigError):
            ReplicaSet.from_draws(rng.standard_normal((1, 2, 4, 3)))


def exact_replicas(mean, sd):
    """Two draws mean +/- sd give exactly those summary statistics."""
    return ReplicaSet.from_draws(np.stack([mean + sd, mean - sd]).astype(np.float32))


class TestMiscalibrationArea:
    def test_calibrated_observations_have_small_area(self, rng):
        shape = (10, 40, 25)  # 10k points
        mean = rng.standard_normal(shape)
        sd = 0.5 + rng.random(shape)
        reps = exact_replicas(mean, sd)
        rep_mean, rep_sd = reps.moments()
        obs = rep_mean + rep_sd * rng.standard_normal(shape)
        curve = miscalibration_area(reps, obs)
        assert curve.area < 0.02
        assert not curve.degenerate
        assert curve.n_points == 10000

    def test_observation_equal_to_mean_gives_half(self, rng):
        mean = rng.standard_normal((2, 8, 3))
        reps = exact_replicas(mean, 0.3 + rng.random((2, 8, 3)))
        curve = miscalibration_area(reps, reps.moments()[0])
        assert np.all(curve.observed == 1.0)
        assert curve.area == pytest.approx(0.5, abs=1e-12)

    def test_area_always_within_bounds(self, rng):
        for _ in range(25):
            shape = (1, 16, 2)
            reps = exact_replicas(
                rng.standard_normal(shape), 0.01 + rng.random(shape)
            )
            obs = 5.0 * rng.standard_normal(shape)
            curve = miscalibration_area(reps, obs)
            assert 0.0 <= curve.area <= 0.5 + 1e-12

    def test_observed_proportions_nondecreasing(self, rng):
        shape = (3, 16, 4)
        reps = exact_replicas(rng.standard_normal(shape), 0.1 + rng.random(shape))
        obs = rng.standard_normal(shape)
        curve = miscalibration_area(reps, obs)
        assert np.all(np.diff(curve.observed) >= 0)
        assert np.array_equal(curve.expected, EXPECTED_PROPORTIONS)

    def test_affine_rescaling_invariance_exact_for_pure_scaling(self, rng):
        shape = (2, 10, 3)
        draws = rng.standard_normal((6, *shape)).astype(np.float32)
        reps = ReplicaSet.from_draws(draws)
        obs = rng.standard_normal(shape)
        base = miscalibration_area(reps, obs)
        scaled = miscalibration_area(
            ReplicaSet.from_draws(draws * 4.0), np.asarray(obs) * 4.0
        )
        assert scaled.area == base.area
        assert np.array_equal(scaled.observed, base.observed)

    def test_affine_rescaling_invariance_generic(self, rng):
        shape = (2, 10, 3)
        draws = rng.standard_normal((6, *shape)).astype(np.float32)
        reps = ReplicaSet.from_draws(draws)
        obs = rng.standard_normal(shape)
        base = miscalibration_area(reps, obs)
        moved = miscalibration_area(
            ReplicaSet.from_draws(draws * 1.7 + 0.3), obs * 1.7 + 0.3
        )
        assert moved.area == pytest.approx(base.area, abs=1e-6)

    def test_zero_sd_with_mismatch_flags_degenerate(self):
        mean = np.ones((1, 8, 2))
        reps = ReplicaSet.from_draws(np.stack([mean, mean]).astype(np.float32))
        obs = mean + 0.5
        curve = miscalibration_area(reps, obs)
        assert curve.degenerate
        assert np.all(curve.observed == 0.0)
        assert curve.area == pytest.approx(0.5, abs=1e-12)
        assert (reps.moments()[1] < SD_FLOOR).all()

    def test_shape_mismatch_rejected(self, rng):
        reps = exact_replicas(np.zeros((1, 8, 2)), np.ones((1, 8, 2)))
        with pytest.raises(ShapeError):
            miscalibration_area(reps, np.zeros((1, 8, 3)))

    def test_per_channel_curves(self, rng):
        shape = (4, 16, 3)
        mean = rng.standard_normal(shape)
        sd = 0.2 + rng.random(shape)
        reps = exact_replicas(mean, sd)
        obs = mean.copy()
        obs[..., 0] += sd[..., 0] * rng.standard_normal(shape[:2])  # calibrated
        # channel 1 = exact mean (area ~0.5); channel 2 = far outside (area ~0.5)
        obs[..., 2] += 50.0 * sd[..., 2]
        curves = per_channel_calibration(reps, obs)
        assert len(curves) == 3
        assert curves[0].area < 0.1
        assert curves[1].area == pytest.approx(0.5, abs=1e-12)
        assert curves[2].area == pytest.approx(0.5, abs=1e-12)


class TestChooseExamples:
    def test_deterministic_and_sorted(self):
        a = choose_examples(50, 10, seed=3)
        b = choose_examples(50, 10, seed=3)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        assert a.size == 10 and a.min() >= 0 and a.max() < 50

    def test_seed_changes_selection(self):
        assert not np.array_equal(choose_examples(50, 10, 0), choose_examples(50, 10, 1))

    def test_count_bounds(self):
        with pytest.raises(DataError):
            choose_examples(5, 10)
        with pytest.raises(ConfigError):
            choose_examples(5, 0)


class TestUqCsv:
    def test_uq_and_bands_files(self, rng, tmp_path):
        shape = (2, 6, 3)
        reps = exact_replicas(rng.standard_normal(shape), 0.1 + rng.random(shape))
        obs = reps.moments()[0]
        curves = per_channel_calibration(reps, obs)
        names = ["c0", "c1", "c2"]

        write_uq_csv(tmp_path / "uq_3.csv", names, curves, n_draws=2, seed=9)
        lines = (tmp_path / "uq_3.csv").read_text().strip().splitlines()
        assert lines[0] == "channel,miscalibration_area,degenerate,n_points,n_draws,seed"
        assert len(lines) == 4

        write_bands_csv(tmp_path / "bands_0.csv", reps, 0, names)
        blines = (tmp_path / "bands_0.csv").read_text().strip().splitlines()
        assert blines[0] == "time_step,channel,mean,sd"
        assert len(blines) == 1 + 6 * 3

        curve = miscalibration_area(reps, obs)
        write_calibration_csv(tmp_path / "calibration.csv", curve)
        clines = (tmp_path / "calibration.csv").read_text().strip().splitlines()
        assert clines[0] == "expected,observed"
        assert len(clines) == 100

    def test_bands_bad_sample_rejected(self, rng, tmp_path):
        shape = (2, 6, 3)
        reps = exact_replicas(rng.standard_normal(shape), np.ones(shape))
        with pytest.raises(DataError):
            write_bands_csv(tmp_path / "b.csv", reps, 5, ["c0", "c1", "c2"])


def _loop_curve(replicas, obs):
    """The calibration curve as one np.mean per proportion, over a float64
    mean and SD taken from the draws it is given."""
    draws = replicas.draws.astype(np.float64)
    mean, sd = draws.mean(axis=0), draws.std(axis=0)
    degenerate = bool((sd < SD_FLOOR).any())
    sd = np.maximum(sd, SD_FLOOR).ravel()
    resid = np.abs(obs - mean).ravel()
    p = EXPECTED_PROPORTIONS
    z = norm.ppf((1.0 + p) / 2.0)
    observed = np.empty_like(p)
    for k in range(p.size):
        observed[k] = float(np.mean(resid <= z[k] * sd))
    area = float(np.trapezoid(np.abs(observed - p), p) / (p[-1] - p[0]))
    return observed, area, degenerate, resid.size


def _loop_per_channel(replicas, obs):
    return [
        _loop_curve(ReplicaSet(draws=replicas.draws[..., c : c + 1], seed=0), obs[..., c : c + 1])
        for c in range(obs.shape[2])
    ]


class TestCalibrationOracle:
    """One mean and SD per call and one count per proportion give the bits
    of a per-channel rebuild and a per-proportion mean."""

    @given(
        dims=st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(1, 9),
                       st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-14, 1e-3, 1.0, 1e5]),
        quantized=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_loop(self, dims, seed, scale, quantized):
        rng = np.random.default_rng(seed)
        draws = (rng.standard_normal(dims) * scale).astype(np.float32)
        obs = rng.standard_normal(dims[1:]) * scale
        if quantized:  # ties between residuals and interval edges
            draws = np.round(draws * 4 / scale) / 4
            obs = np.round(obs * 4 / scale) / 4
        draws[:, :, :, 0] = draws[0, :, :, 0]  # a constant (degenerate) channel
        replicas = ReplicaSet(draws=draws.astype(np.float32), seed=seed)
        got = per_channel_calibration(replicas, obs)
        want = _loop_per_channel(replicas, obs)
        assert len(got) == len(want)
        for curve, (observed, area, degenerate, n) in zip(got, want):
            assert curve.observed.tobytes() == observed.tobytes()
            assert (curve.area, curve.degenerate, curve.n_points) == (area, degenerate, n)
        whole = miscalibration_area(replicas, obs)
        observed, area, degenerate, n = _loop_curve(replicas, obs)
        assert whole.observed.tobytes() == observed.tobytes()
        assert (whole.area, whole.degenerate, whole.n_points) == (area, degenerate, n)

    @given(
        dims=st.tuples(st.integers(2, 12), st.integers(1, 3), st.integers(1, 40),
                       st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-14, 1e-3, 1.0, 1e5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_moments_match_separate_reductions(self, dims, seed, scale):
        draws = (np.random.default_rng(seed).standard_normal(dims) * scale).astype(np.float32)
        mean, sd = ReplicaSet(draws=draws, seed=seed).moments()
        assert mean.tobytes() == draws.astype(np.float64).mean(axis=0).tobytes()
        assert sd.tobytes() == draws.astype(np.float64).std(axis=0).tobytes()
