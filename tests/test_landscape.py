"""Loss-surface geometry: direction normalization, grid determinism,
convexity diagnostics."""
import numpy as np
import pytest

from modwatch import data as D
from modwatch import model as M
from modwatch.errors import ConfigError, DataError, ShapeError
from modwatch.landscape import (
    _offset_parameters,
    ConvexityReport,
    Direction,
    LandscapeGrid,
    convexity_report,
    convexity_row,
    depth_sweep,
    evaluate_grid,
    normalize_direction,
    random_direction,
    unit_norms,
    write_convexity_csv,
    write_landscape_csv,
)
from modwatch.train import TrainConfig, dataset_loss, train


def tiny_spec(modules=2, blocks=1):
    return M.ModelSpec(
        mode="cvae",
        time_steps=16,
        channels=3,
        encoder_conv_blocks=blocks,
        decoder_conv_blocks=blocks,
        kernels_per_block=4,
        kernel_width=3,
        dense_units=8,
        latent_dim=4,
        module_count=modules,
    ).validate()


def toy_set(n=6, time_steps=16, channels=3, modules=2, seed=0):
    rng = np.random.default_rng(seed)
    return D.WaveformTensor(
        data=rng.standard_normal((n, time_steps, channels)).astype(np.float32),
        channel_names=[f"ch{c}" for c in range(channels)],
        module_ids=(np.arange(n) % modules).astype(np.int32),
        labels=np.array([D.NORMAL_LABEL] * n, dtype="<U16"),
        sample_ids=np.arange(n, dtype=np.int64),
    )


class TestDirections:
    def test_unit_norms_match_weight_norms(self):
        params = M.init_parameters(tiny_spec(), 0)
        for seed in range(20):
            d = random_direction(params, seed)
            for name, lw in params.layers.items():
                wn = unit_norms(lw.kernels.data)
                dn = unit_norms(d.layers[name])
                nz = wn > 0
                assert np.allclose(dn[nz] / wn[nz], 1.0, atol=1e-6), (name, seed)

    def test_normalization_is_idempotent(self):
        params = M.init_parameters(tiny_spec(), 1)
        d = random_direction(params, 5)
        d2 = normalize_direction(d, params)
        for name in d.layers:
            delta = np.abs(d2.layers[name] - d.layers[name]).max()
            assert delta <= 1e-7, name

    def test_direction_norms_track_weight_scaling(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 2)
        scaled = params.clone()
        for _, t in scaled.named_tensors():
            t.data *= 10.0
        d1 = random_direction(params, 9)
        d2 = random_direction(scaled, 9)
        for name in d1.layers:
            n1 = unit_norms(d1.layers[name])
            n2 = unit_norms(d2.layers[name])
            nz = n1 > 0
            assert np.allclose(n2[nz] / n1[nz], 10.0, rtol=1e-6), name

    def test_zero_weight_unit_gives_zero_direction_unit(self):
        params = M.init_parameters(tiny_spec(), 3)
        params.layers["enc.conv0"].kernels.data[1] = 0.0
        d = random_direction(params, 4)
        assert np.all(d.layers["enc.conv0"][1] == 0.0)
        assert np.any(d.layers["enc.conv0"][0] != 0.0)

    def test_offsets_move_kernels_only(self):
        params = M.init_parameters(tiny_spec(), 0)
        for lw in params.layers.values():
            lw.bias.data[:] = 0.25
        g, n = random_direction(params, 7), random_direction(params, 8)
        moved = _offset_parameters(params, g, n, 0.5, -0.25)
        for name, lw in params.layers.items():
            assert g.layers[name].shape == lw.kernels.data.shape
            assert np.array_equal(moved.layers[name].bias.data, lw.bias.data)
            assert not np.array_equal(moved.layers[name].kernels.data, lw.kernels.data)

    def test_seed_changes_direction(self):
        params = M.init_parameters(tiny_spec(), 0)
        a = random_direction(params, 1)
        b = random_direction(params, 2)
        assert not np.array_equal(a.layers["enc.dense"], b.layers["enc.dense"])

    def test_matches_per_unit_loop(self):
        params = M.init_parameters(tiny_spec(), 4)
        params.layers["enc.conv0"].kernels.data[1] = 0.0
        raw = random_direction(params, 6)
        for name, layer in raw.layers.items():
            raw.layers[name] = -np.abs(layer)  # zeroed units must come out +0.0
        raw.layers["dec.dense0"][2] = 0.0
        got = normalize_direction(raw, params)
        for name, lw in params.layers.items():
            w64 = lw.kernels.data.astype(np.float64)
            d64 = raw.layers[name].astype(np.float64)
            want = np.empty_like(raw.layers[name])
            for j in range(want.shape[0]):
                wn, dn = np.linalg.norm(w64[j]), np.linalg.norm(d64[j])
                want[j] = 0.0 if wn == 0.0 or dn == 0.0 else (d64[j] * (wn / dn)).astype(np.float32)
            assert np.array_equal(got.layers[name].view(np.uint32), want.view(np.uint32)), name

    def test_mismatched_direction_rejected(self):
        params = M.init_parameters(tiny_spec(), 0)
        other = M.init_parameters(tiny_spec(blocks=2), 0)
        d = random_direction(other, 1)
        with pytest.raises(ShapeError):
            normalize_direction(d, params)
        good = random_direction(params, 2)
        with pytest.raises(ShapeError):
            evaluate_grid(params, tiny_spec(), good, d, toy_set(), resolution=3)


class TestGrid:
    def _setup(self, seed=0):
        spec = tiny_spec()
        params = M.init_parameters(spec, seed)
        data = toy_set(seed=seed)
        g = random_direction(params, 11)
        n = random_direction(params, 22)
        return spec, params, data, g, n

    def test_center_cell_matches_center_loss_bitwise(self):
        spec, params, data, g, n = self._setup()
        grid = evaluate_grid(params, spec, g, n, data, resolution=5)
        assert grid.losses[2, 2] == grid.center_loss
        direct = dataset_loss(params, spec, data, eta=grid.eta, batch_size=64)
        assert grid.center_loss == direct.total

    def test_resolution_one_is_the_center(self):
        spec, params, data, g, n = self._setup()
        grid = evaluate_grid(params, spec, g, n, data, resolution=1)
        assert grid.losses.shape == (1, 1)
        assert grid.losses[0, 0] == grid.center_loss
        assert grid.alphas[0] == 0.0

    def test_axes_cover_span(self):
        spec, params, data, g, n = self._setup()
        grid = evaluate_grid(params, spec, g, n, data, resolution=7, span=0.5)
        assert grid.alphas[0] == -0.5 and grid.alphas[-1] == 0.5
        assert grid.alphas.size == 7 and grid.betas.size == 7

    def test_transpose_symmetry_is_exact(self):
        spec, params, data, g, n = self._setup(seed=1)
        ab = evaluate_grid(params, spec, g, n, data, resolution=5)
        ba = evaluate_grid(params, spec, n, g, data, resolution=5)
        assert np.array_equal(ab.losses.T, ba.losses)

    def test_collinear_directions_constant_on_antidiagonals(self):
        spec, params, data, g, _ = self._setup(seed=2)
        same = Direction(layers=g.layers, seed=g.seed + 1)
        grid = evaluate_grid(params, spec, g, same, data, resolution=5)
        f = grid.losses
        for offset in range(-4, 5):
            cells = [f[i, j] for i in range(5) for j in range(5) if i + j == offset + 4]
            assert all(v == cells[0] for v in cells), offset

    def test_worker_count_does_not_change_a_bit(self):
        spec, params, data, g, n = self._setup(seed=3)
        serial = evaluate_grid(params, spec, g, n, data, resolution=5, jobs=1)
        threaded = evaluate_grid(params, spec, g, n, data, resolution=5, jobs=8)
        assert np.array_equal(serial.losses, threaded.losses)
        assert serial.center_loss == threaded.center_loss

    def test_desk_model_same_bits_for_any_worker_count(self):
        # desk layers are large enough for OpenBLAS to thread, so this
        # compares threaded BLAS (jobs 1) with one BLAS thread per worker
        spec = M.desk_spec()
        params = M.init_parameters(spec, 5)
        data = toy_set(n=6, time_steps=spec.time_steps, channels=spec.channels,
                       modules=spec.module_count, seed=5)
        g = random_direction(params, 11)
        n = random_direction(params, 22)
        serial = evaluate_grid(params, spec, g, n, data, resolution=2, jobs=1)
        threaded = evaluate_grid(params, spec, g, n, data, resolution=2, jobs=2)
        assert np.array_equal(serial.losses, threaded.losses)
        assert serial.center_loss == threaded.center_loss

    def test_overflow_marked_not_raised(self):
        spec, params, data, g, n = self._setup(seed=4)
        for _, t in params.named_tensors():
            t.data *= 60.0
        data.data *= 100.0
        g = random_direction(params, 11)
        n = random_direction(params, 22)
        grid = evaluate_grid(params, spec, g, n, data, resolution=5)
        assert grid.overflowed.any()
        assert np.all(np.isinf(grid.losses[grid.overflowed]))

    def test_same_direction_seeds_rejected(self):
        spec, params, data, g, _ = self._setup()
        clone = Direction(layers=g.layers, seed=g.seed)
        with pytest.raises(ConfigError, match="seed"):
            evaluate_grid(params, spec, g, clone, data)

    def test_empty_data_rejected(self):
        spec, params, data, g, n = self._setup()
        empty = data.select(np.zeros(data.n_samples, dtype=bool))
        with pytest.raises(DataError):
            evaluate_grid(params, spec, g, n, empty)

    def test_bad_grid_settings_rejected(self):
        spec, params, data, g, n = self._setup()
        with pytest.raises(ConfigError):
            evaluate_grid(params, spec, g, n, data, resolution=0)
        with pytest.raises(ConfigError):
            evaluate_grid(params, spec, g, n, data, span=0.0)


def analytic_grid(fn, resolution=9, span=1.0):
    alphas = np.linspace(-span, span, resolution)
    betas = np.linspace(-span, span, resolution)
    f = np.empty((resolution, resolution))
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            f[i, j] = fn(a, b)
    return LandscapeGrid(
        alphas=alphas,
        betas=betas,
        losses=f,
        center_loss=fn(0.0, 0.0),
        eta=1.0,
    )


class TestConvexity:
    def test_paraboloid_fully_psd_and_center_minimal(self):
        grid = analytic_grid(lambda a, b: a * a + b * b)
        rep = convexity_report(grid)
        assert rep.psd_fraction == 1.0
        assert rep.center_minimal
        assert rep.ray_monotonicity == 1.0
        assert rep.loss_min == 0.0
        assert rep.loss_max == 2.0
        assert rep.overflow_count == 0

    def test_saddle_has_zero_psd_fraction(self):
        grid = analytic_grid(lambda a, b: a * a - b * b)
        rep = convexity_report(grid)
        assert rep.psd_fraction == 0.0
        assert not rep.center_minimal

    def test_tilted_plane_ray_monotonicity(self):
        grid = analytic_grid(lambda a, b: a)
        rep = convexity_report(grid)
        # increasing along +alpha rays (3), flat along the two beta rays
        assert rep.ray_monotonicity == 5 / 8
        assert rep.psd_fraction == 1.0  # second differences are all zero
        assert not rep.center_minimal

    def test_overflow_counts_against_convexity(self):
        grid = analytic_grid(lambda a, b: a * a + b * b)
        grid.losses[4, 5] = np.inf
        rep = convexity_report(grid)
        assert rep.psd_fraction < 1.0
        assert rep.overflow_count == 1

    def test_small_grid_rejected(self):
        grid = analytic_grid(lambda a, b: a * a, resolution=3)
        with pytest.raises(ConfigError):
            convexity_report(grid)

    def test_interior_count(self):
        grid = analytic_grid(lambda a, b: a * a + b * b, resolution=7)
        rep = convexity_report(grid)
        assert rep.interior_count == 25


class TestDepthSweep:
    def _sets(self):
        tr = toy_waveforms_for_depth(16, seed=1)
        va = toy_waveforms_for_depth(8, seed=2, id_offset=100)
        return tr, va

    def test_reports_per_depth_and_determinism(self):
        spec = tiny_spec()
        tr, va = self._sets()
        cfg = TrainConfig(batch_size=8, max_epochs=3, seed=5)
        a = depth_sweep((1, 2), spec, tr, va, cfg, resolution=5)
        b = depth_sweep((1, 2), spec, tr, va, cfg, resolution=5)
        assert sorted(a) == [1, 2]
        for d in a:
            assert np.array_equal(a[d].grid.losses, b[d].grid.losses)
            assert a[d].report == b[d].report

    def test_single_depth_matches_direct_pipeline(self):
        spec = tiny_spec()
        tr, va = self._sets()
        cfg = TrainConfig(batch_size=8, max_epochs=2, seed=6)
        swept = depth_sweep((2,), spec, tr, va, cfg, resolution=5)[2]

        deep = spec.with_depth(2)
        res = train(deep, tr, va, cfg)
        g = random_direction(res.params, 101)
        n = random_direction(res.params, 202)
        grid = evaluate_grid(res.params, deep, g, n, tr, resolution=5, eta=cfg.eta)
        assert np.array_equal(swept.grid.losses, grid.losses)
        assert swept.report == convexity_report(grid)

    def test_duplicate_depths_collapse(self):
        spec = tiny_spec()
        tr, va = self._sets()
        cfg = TrainConfig(batch_size=8, max_epochs=1, seed=7)
        out = depth_sweep((1, 1), spec, tr, va, cfg, resolution=5)
        assert sorted(out) == [1]

    def test_invalid_depth_rejected(self):
        spec = tiny_spec()
        tr, va = self._sets()
        cfg = TrainConfig(batch_size=8, max_epochs=1, seed=7)
        with pytest.raises(ConfigError):
            depth_sweep((0,), spec, tr, va, cfg, resolution=5)

    def test_identical_direction_seeds_rejected(self):
        spec = tiny_spec()
        tr, va = self._sets()
        cfg = TrainConfig(batch_size=8, max_epochs=1, seed=7)
        with pytest.raises(ConfigError):
            depth_sweep((1,), spec, tr, va, cfg, direction_seeds=(3, 3))


def toy_waveforms_for_depth(n, seed=0, id_offset=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, 16, endpoint=False)
    data = np.zeros((n, 16, 3), dtype=np.float32)
    for i in range(n):
        for c in range(3):
            data[i, :, c] = np.sin(2 * np.pi * (1 + i % 2 + 0.5 * c) * t)
    data += 0.05 * rng.standard_normal(data.shape).astype(np.float32)
    return D.WaveformTensor(
        data=data,
        channel_names=["ch0", "ch1", "ch2"],
        module_ids=(np.arange(n) % 2).astype(np.int32),
        labels=np.array([D.NORMAL_LABEL] * n, dtype="<U16"),
        sample_ids=np.arange(id_offset, id_offset + n, dtype=np.int64),
    )


class TestLandscapeCsv:
    def test_matrix_layout_round_trip(self, tmp_path):
        grid = analytic_grid(lambda a, b: a + 2 * b, resolution=5)
        path = tmp_path / "landscape_gamma.csv"
        write_landscape_csv(path, grid)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        header = lines[0].split(",")
        assert header[0] == "alpha"
        assert [float(v) for v in header[1:]] == list(grid.betas)
        row2 = lines[2].split(",")
        assert float(row2[0]) == grid.alphas[1]
        assert [float(v) for v in row2[1:]] == list(grid.losses[1])

    def test_overflow_cells_serializable(self, tmp_path):
        grid = analytic_grid(lambda a, b: a, resolution=5)
        grid.losses[0, 0] = np.inf
        write_landscape_csv(tmp_path / "g.csv", grid)
        first = (tmp_path / "g.csv").read_text().splitlines()[1].split(",")[1]
        assert float(first) == np.inf

    def test_convexity_csv(self, tmp_path):
        grid = analytic_grid(lambda a, b: a * a + b * b)
        rep = convexity_report(grid)
        write_convexity_csv(tmp_path / "report.csv", [convexity_row("gamma", grid, rep)])
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0].startswith("tag,psd_fraction,interior_count")
        assert lines[1].startswith("gamma,1.0")
