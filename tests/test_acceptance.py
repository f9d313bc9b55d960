"""Acceptance gate: ten go/no-go checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the whole gate takes roughly 15 minutes on 8 cores (criteria 5 and 8 retrain
models at reduced scale).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import modwatch.tensor as T
from modwatch import data as D
from modwatch import evaluate as E
from modwatch import landscape as L
from modwatch import model as M
from modwatch import uq as U
from modwatch.checkpoint import (
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from modwatch.tensor import Tensor, backward
from modwatch.train import TrainConfig, train

from conftest import assert_gradients_close, fd_gradients, relative_error


@contextmanager
def verdict(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} ({label}): FAIL")
        raise
    print(f"criterion {n:2d} ({label}): PASS")


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
    )


def micro_spec(modules: int) -> M.ModelSpec:
    return replace(
        M.desk_spec(),
        time_steps=128,
        encoder_conv_blocks=2,
        decoder_conv_blocks=2,
        kernels_per_block=8,
        dense_units=32,
        latent_dim=16,
        module_count=modules,
    )


def standardized_splits(cfg: D.GeneratorConfig, fractions=(0.8, 0.1, 0.1), seed=0):
    wt = D.generate(cfg)
    parts = D.split(wt, fractions=fractions, seed=seed)
    train_std, stats = D.standardize(parts.train)
    val_std, _ = D.standardize(parts.validation, stats)
    test_std, _ = D.standardize(parts.test, stats)
    return train_std, val_std.select(val_std.normal_mask()), test_std


def label_aucs(scores: E.ScoreTable) -> dict[str, float]:
    normal = scores.label == D.NORMAL_LABEL
    return {
        fault: E.roc_auc(scores.aggregate[normal], scores.aggregate[scores.label == fault]).auc
        for fault in np.unique(scores.label[~normal]).tolist()
    }


# --------------------------------------------------------------- criterion 1


def _project(out: Tensor, rng) -> tuple[Tensor, np.ndarray]:
    r = rng.standard_normal(out.dims).astype(np.float32)
    return T.tsum(T.mul(out, Tensor(r))), r.astype(np.float64)


def _op_cases(rng):
    """(name, build) pairs; build returns (loss tensor, inputs, f64 oracle)."""

    def arrays(*dims_list, low=-1.0, high=1.0):
        return [
            Tensor(rng.uniform(low, high, dims).astype(np.float32), requires_grad=True)
            for dims in dims_list
        ]

    def case_add():
        a, b = arrays((3, 5), (3, 5))
        loss, r = _project(T.add(a, b), rng)
        return loss, [a, b], lambda x, y: float(((x + y) * r).sum())

    def case_sub():
        a, b = arrays((3, 5), (3, 5))
        loss, r = _project(T.sub(a, b), rng)
        return loss, [a, b], lambda x, y: float(((x - y) * r).sum())

    def case_mul():
        a, b = arrays((3, 5), (3, 5))
        loss, r = _project(T.mul(a, b), rng)
        return loss, [a, b], lambda x, y: float(((x * y) * r).sum())

    def case_square():
        (a,) = arrays((4, 3))
        loss, r = _project(T.square(a), rng)
        return loss, [a], lambda x: float((x**2 * r).sum())

    def case_scalar_mul():
        (a,) = arrays((4, 3))
        f = float(rng.uniform(-2, 2))
        loss, r = _project(T.scalar_mul(a, f), rng)
        return loss, [a], lambda x: float((x * f * r).sum())

    def case_scalar_add():
        (a,) = arrays((4, 3))
        c = float(rng.uniform(-2, 2))
        loss, r = _project(T.scalar_add(a, c), rng)
        return loss, [a], lambda x: float(((x + c) * r).sum())

    def case_exp():
        (a,) = arrays((4, 3))
        loss, r = _project(T.exp(a), rng)
        return loss, [a], lambda x: float((np.exp(x) * r).sum())

    def case_relu():
        # inputs held away from the kink so finite differences are valid
        mag = rng.uniform(0.1, 1.0, (4, 5)).astype(np.float32)
        sign = rng.choice([-1.0, 1.0], (4, 5)).astype(np.float32)
        a = Tensor(mag * sign, requires_grad=True)
        loss, r = _project(T.relu(a), rng)
        return loss, [a], lambda x: float((np.maximum(x, 0.0) * r).sum())

    def case_reshape():
        (a,) = arrays((2, 6))
        loss, r = _project(T.reshape(a, (3, 4)), rng)
        return loss, [a], lambda x: float((x.reshape(3, 4) * r).sum())

    def case_flatten():
        (a,) = arrays((2, 3, 4))
        loss, r = _project(T.flatten(a), rng)
        return loss, [a], lambda x: float((x.reshape(2, 12) * r).sum())

    def case_concat():
        a, b = arrays((3, 2), (3, 4))
        loss, r = _project(T.concat([a, b]), rng)
        return (
            loss,
            [a, b],
            lambda x, y: float((np.concatenate([x, y], axis=1) * r).sum()),
        )

    def case_tsum():
        (a,) = arrays((4, 5))
        return T.tsum(a), [a], lambda x: float(x.sum())

    def case_mean():
        (a,) = arrays((4, 5))
        return T.mean(a), [a], lambda x: float(x.mean())

    def case_sum_axis():
        (a,) = arrays((3, 4, 2))
        axis = int(rng.integers(3))
        loss, r = _project(T.sum_axis(a, axis), rng)
        return loss, [a], lambda x: float((x.sum(axis=axis) * r).sum())

    def case_dense():
        x, w, b = arrays((3, 5), (4, 5), (4,))
        loss, r = _project(T.dense(x, w, b), rng)
        return loss, [x, w, b], lambda xx, ww, bb: float(((xx @ ww.T + bb) * r).sum())

    def case_conv1d():
        stride = int(rng.integers(1, 4))
        padding = "same" if rng.random() < 0.5 else "valid"
        x, w, b = arrays((2, 9, 3), (4, 3, 3), (4,))
        loss, r = _project(T.conv1d(x, w, b, stride=stride, padding=padding), rng)

        def oracle(xx, ww, bb):
            width = ww.shape[2]
            if padding == "same":
                t_out = -(-xx.shape[1] // stride)
                pad = max((t_out - 1) * stride + width - xx.shape[1], 0)
                pl = pad // 2
                xp = np.pad(xx, ((0, 0), (pl, pad - pl), (0, 0)))
            else:
                t_out = (xx.shape[1] - width) // stride + 1
                xp = xx
            acc = np.zeros((xx.shape[0], t_out, ww.shape[0]))
            for k in range(width):
                acc += xp[:, k : k + stride * t_out : stride, :] @ ww[:, :, k].T
            return float(((acc + bb) * r).sum())

        return loss, [x, w, b], oracle

    return [
        ("add", case_add),
        ("sub", case_sub),
        ("mul", case_mul),
        ("square", case_square),
        ("scalar_mul", case_scalar_mul),
        ("scalar_add", case_scalar_add),
        ("exp", case_exp),
        ("relu", case_relu),
        ("reshape", case_reshape),
        ("flatten", case_flatten),
        ("concat", case_concat),
        ("tsum", case_tsum),
        ("mean", case_mean),
        ("sum_axis", case_sum_axis),
        ("dense", case_dense),
        ("conv1d", case_conv1d),
    ]


def _f64_conv_same(x, w, b):
    width = w.shape[2]
    pl = (width - 1) // 2
    xp = np.pad(x, ((0, 0), (pl, width - 1 - pl), (0, 0)))
    acc = np.zeros((x.shape[0], x.shape[1], w.shape[0]))
    for k in range(width):
        acc += xp[:, k : k + x.shape[1], :] @ w[:, :, k].T
    return acc + b


def _f64_cvae_loss(weights, spec, x, onehot, eps, eta):
    """Independent float64 forward pass of the full objective."""
    h = x
    for i in range(spec.encoder_conv_blocks):
        w, b = weights[f"enc.conv{i}"]
        h = np.maximum(_f64_conv_same(h, w, b), 0.0)
    h = h.reshape(x.shape[0], -1)
    w, b = weights["enc.dense"]
    h = np.maximum(h @ w.T + b, 0.0)
    if onehot is not None:
        h = np.concatenate([h, onehot], axis=1)
    wm, bm = weights["enc.mu"]
    wl, bl = weights["enc.logvar"]
    mu = h @ wm.T + bm
    lv = h @ wl.T + bl
    z = mu + np.exp(0.5 * lv) * eps
    g = z if onehot is None else np.concatenate([z, onehot], axis=1)
    w0, b0 = weights["dec.dense0"]
    g = np.maximum(g @ w0.T + b0, 0.0)
    w1, b1 = weights["dec.dense1"]
    g = np.maximum(g @ w1.T + b1, 0.0)
    g = g.reshape(x.shape[0], spec.time_steps, spec.kernels_per_block)
    last = spec.decoder_conv_blocks - 1
    for i in range(spec.decoder_conv_blocks):
        w, b = weights[f"dec.conv{i}"]
        g = _f64_conv_same(g, w, b)
        if i != last:
            g = np.maximum(g, 0.0)
    rec = float(np.mean((x - g) ** 2))
    kld = float(np.mean(-0.5 * np.sum(1.0 + lv - mu**2 - np.exp(lv), axis=1)))
    return rec + eta * kld


def test_criterion_01_gradient_correctness():
    with verdict(1, "gradient correctness"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        for name, build in _op_cases(rng):
            for _ in range(100):
                loss, inputs, oracle = build()
                backward(loss)
                numeric = fd_gradients(oracle, [t.data for t in inputs])
                for t_in, fd in zip(inputs, numeric):
                    assert_gradients_close(t_in.grad, fd, tol=1e-3, label=name)

        # full desk-architecture objective on a 2-sample batch, spot-checked
        # against an independent float64 forward on coordinates drawn from
        # every parameter tensor
        spec = M.desk_spec()
        params = M.init_parameters(spec, seed=0)
        x32 = rng.uniform(-1, 1, (2, spec.time_steps, spec.channels)).astype(np.float32)
        ids = np.array([3, 11])
        eps32 = rng.standard_normal((2, spec.latent_dim)).astype(np.float32)
        eta = 0.7
        tensors = M.loss_forward(params, spec, Tensor(x32), ids, eta=eta, epsilon=eps32)
        backward(tensors.total)

        weights = {
            name: (
                lw.kernels.data.astype(np.float64),
                lw.bias.data.astype(np.float64),
            )
            for name, lw in params.layers.items()
        }
        x64 = x32.astype(np.float64)
        onehot = M.one_hot(ids, spec.module_count).astype(np.float64)
        eps64 = eps32.astype(np.float64)
        h = 1e-5
        # the graph computes in float32, the oracle in float64; at this
        # depth the precision gap alone is ~1e-3 relative, so the wiring
        # check runs at 1e-2 (real backprop bugs show up as O(1) errors)
        for name, lw in params.layers.items():
            for which, tensor in (("kernels", lw.kernels), ("bias", lw.bias)):
                arr = weights[name][0 if which == "kernels" else 1]
                flat = arr.reshape(-1)
                count = min(8, flat.size)
                coords = rng.choice(flat.size, size=count, replace=False)
                analytic = tensor.grad.reshape(-1)[coords]
                numeric = np.empty(count)
                for j, c in enumerate(coords):
                    keep = flat[c]
                    flat[c] = keep + h
                    up = _f64_cvae_loss(weights, spec, x64, onehot, eps64, eta)
                    flat[c] = keep - h
                    down = _f64_cvae_loss(weights, spec, x64, onehot, eps64, eta)
                    flat[c] = keep
                    numeric[j] = (up - down) / (2.0 * h)
                assert_gradients_close(
                    analytic, numeric, tol=1e-2, label=f"{name}.{which}"
                )
        assert time.monotonic() - t0 < 120.0


# --------------------------------------------------------------- criterion 2


def test_criterion_02_loss_identities():
    with verdict(2, "loss identities"):
        zero = M.LatentDistribution(
            mu=Tensor(np.zeros((5, 7), dtype=np.float32)),
            log_var=Tensor(np.zeros((5, 7), dtype=np.float32)),
        )
        assert M.kld_gaussian(zero).item() == 0.0

        rng = np.random.default_rng(42)
        for _ in range(1000):
            dist = M.LatentDistribution(
                mu=Tensor(rng.normal(0, 2, (3, 6)).astype(np.float32)),
                log_var=Tensor(rng.normal(0, 1, (3, 6)).astype(np.float32)),
            )
            assert M.kld_gaussian(dist).item() >= 0.0

        spec = tiny_spec()
        params = M.init_parameters(spec, seed=1)
        x = rng.uniform(-1, 1, (4, spec.time_steps, spec.channels)).astype(np.float32)
        ids = np.array([0, 1, 0, 1])
        for eta in (0.0, 0.3, 1.0, 2.5):
            br = M.loss(params, spec, Tensor(x), ids, eta=eta)
            assert abs(br.total - (br.reconstruction + eta * br.kld)) <= 1e-6
            x_hat = M.reconstruct(params, spec, x, ids)
            rec_external = float(
                np.mean((x.astype(np.float64) - x_hat.astype(np.float64)) ** 2)
            )
            assert abs(br.reconstruction - rec_external) <= 1e-6


# --------------------------------------------------------------- criterion 3


def auc_pair_oracle(normal, abnormal) -> float:
    wins = ties = 0
    for a in abnormal:
        for n in normal:
            if a > n:
                wins += 1
            elif a == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(abnormal) * len(normal))


def test_criterion_03_auc_oracle_equivalence():
    with verdict(3, "AUC oracle equivalence"):
        rng = np.random.default_rng(3)
        for _ in range(200):
            normal = rng.integers(0, 10, 20).astype(float)
            abnormal = rng.integers(0, 10, 20).astype(float)
            got = E.roc_auc(normal.tolist(), abnormal.tolist()).auc
            assert got == auc_pair_oracle(normal, abnormal)


# --------------------------------------------------------------- criterion 4


def test_criterion_04_threshold_budget():
    with verdict(4, "threshold FPR budget"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(10, 300))
            kind = rng.integers(3)
            if kind == 0:
                scores = rng.normal(0, 1, n)
            elif kind == 1:
                scores = rng.integers(0, 8, n).astype(float)  # heavy ties
            else:
                scores = np.abs(rng.standard_cauchy(n))
            budget = float(rng.uniform(0.05, 0.5))
            thr = E.pick_threshold(scores.tolist(), budget)
            realized = float(np.mean(scores >= thr))
            assert realized <= budget + 1e-12

        # held-out behavior at the default budget, 1000-sample sets
        for trial in range(20):
            cal = np.abs(rng.normal(0, 1, 1000))
            fresh = np.abs(rng.normal(0, 1, 1000))
            thr = E.pick_threshold(cal.tolist(), 0.10)
            fresh_fpr = float(np.mean(fresh >= thr))
            assert 0.05 <= fresh_fpr <= 0.15, f"trial {trial}: {fresh_fpr}"


# --------------------------------------------------------------- criterion 5


def test_criterion_05_synthetic_detection():
    with verdict(5, "synthetic-analog detection"):
        t0 = time.monotonic()
        train_std, val_normal, test_std = standardized_splits(D.desk_config(seed=0))
        spec = M.desk_spec()
        config = TrainConfig(max_epochs=100, patience=100, seed=0)
        result = train(spec, train_std, val_normal, config)
        scores = E.score(result.params, spec, test_std, batch_size=64)
        aucs = label_aucs(scores)
        assert len(aucs) == 6
        assert aucs["DV/DT"] >= 0.90, f"strong class AUC {aucs['DV/DT']:.3f}"
        good = sum(a >= 0.75 for a in aucs.values())
        assert good >= 4, f"only {good}/6 classes at AUC >= 0.75: {aucs}"
        assert time.monotonic() - t0 < 900.0


# --------------------------------------------------------------- criterion 6


def test_criterion_06_multi_vs_single_trend():
    with verdict(6, "multi vs single on a starved module"):
        wins = 0
        for seed in range(5):
            cfg = D.desk_config(
                seed=seed,
                module_count=4,
                samples_per_module=(20, 40, 40, 40),
                time_steps=128,
                fault_count=40,
                fault_modules=(0,),
            )
            train_std, val_normal, test_std = standardized_splits(
                cfg, fractions=(0.25, 0.25, 0.5), seed=seed
            )
            assert int((train_std.module_ids == 0).sum()) == 5
            config = TrainConfig(batch_size=2, max_epochs=40, patience=40, seed=seed)
            spec = micro_spec(4)

            multi = train(replace(spec, mode="cvae"), train_std, val_normal, config)

            tr0 = train_std.select(train_std.module_ids == 0)
            va0 = val_normal.select(val_normal.module_ids == 0)
            tr0.module_ids = np.zeros_like(tr0.module_ids)
            va0.module_ids = np.zeros_like(va0.module_ids)
            single = train(
                replace(spec, mode="vae", module_count=1), tr0, va0, config
            )

            test0 = test_std.select(test_std.module_ids == 0)
            multi_scores = E.score(multi.params, multi.spec, test0, batch_size=32)
            test0_zeroed = test0.select(np.arange(test0.n_samples))
            test0_zeroed.module_ids = np.zeros_like(test0_zeroed.module_ids)
            single_scores = E.score(
                single.params, single.spec, test0_zeroed, batch_size=32
            )

            def pooled_auc(scores):
                normal = scores.label == D.NORMAL_LABEL
                return E.roc_auc(scores.aggregate[normal], scores.aggregate[~normal]).auc

            wins += pooled_auc(multi_scores) >= pooled_auc(single_scores)
        assert wins >= 4, f"multi won only {wins}/5 seeds"


# --------------------------------------------------------------- criterion 7


def test_criterion_07_landscape_exactness():
    with verdict(7, "landscape exactness"):
        rng = np.random.default_rng(7)
        spec = tiny_spec()
        params = M.init_parameters(spec, seed=3)
        data = D.WaveformTensor(
            data=rng.uniform(-1, 1, (12, spec.time_steps, spec.channels)).astype(
                np.float32
            ),
            channel_names=("a", "b", "c"),
            module_ids=np.tile(np.array([0, 1]), 6),
            labels=np.array([D.NORMAL_LABEL] * 12),
            sample_ids=np.arange(12),
        ).validate()
        gamma = L.random_direction(params, seed=101)
        nu = L.random_direction(params, seed=202)

        from modwatch.train import dataset_loss

        grid = L.evaluate_grid(params, spec, gamma, nu, data, resolution=7, span=0.5)
        direct = dataset_loss(params, spec, data, eta=grid.eta, batch_size=64).total
        assert grid.center_loss == direct
        center = grid.losses[3, 3]
        assert center == grid.center_loss

        grid8 = L.evaluate_grid(
            params, spec, gamma, nu, data, resolution=7, span=0.5, jobs=8
        )
        assert np.array_equal(grid.losses, grid8.losses)

        for direction in (gamma, nu):
            for name, lw in params.layers.items():
                w = L.unit_norms(lw.kernels.data)
                d = L.unit_norms(direction.layers[name])
                mask = w > 0
                assert np.all(np.abs(d[mask] - w[mask]) / w[mask] <= 1e-6), name
                assert np.all(d[~mask] == 0.0)


# --------------------------------------------------------------- criterion 8


def test_criterion_08_depth_sweep_trend():
    with verdict(8, "depth sweep convexity trend"):
        wins = 0
        for seed in range(5):
            cfg = D.desk_config(
                seed=seed,
                module_count=4,
                samples_per_module=24,
                time_steps=128,
                fault_count=0,
            )
            train_std, val_normal, _ = standardized_splits(cfg, seed=seed)
            spec = replace(micro_spec(4), dense_units=32)
            config = TrainConfig(batch_size=8, max_epochs=30, patience=30, seed=seed)
            sweep = L.depth_sweep(
                (3, 30), spec, train_std, val_normal, config, resolution=15, jobs=8
            )
            wins += (
                sweep[30].report.psd_fraction <= sweep[3].report.psd_fraction
            )
        assert wins >= 4, f"PSD fraction non-increasing in only {wins}/5 seeds"


# --------------------------------------------------------------- criterion 9


def test_criterion_09_uq_calibration():
    with verdict(9, "uncertainty calibration"):
        rng = np.random.default_rng(9)
        shape = (10, 40, 25)  # 10k points
        mean = rng.standard_normal(shape)
        sd = 0.5 + rng.random(shape)
        reps = U.ReplicaSet.from_draws(
            np.stack([mean + sd, mean - sd]).astype(np.float32)
        )
        rep_mean, rep_sd = reps.moments()
        obs = rep_mean + rep_sd * rng.standard_normal(shape)
        curve = U.miscalibration_area(reps, obs)
        assert curve.area < 0.02
        assert curve.n_points == 10000

        for _ in range(50):
            reps_i = U.ReplicaSet.from_draws(
                np.stack(
                    [
                        rng.standard_normal((2, 8, 3)),
                        rng.standard_normal((2, 8, 3)),
                        rng.standard_normal((2, 8, 3)),
                    ]
                ).astype(np.float32)
            )
            area = U.miscalibration_area(reps_i, rng.standard_normal((2, 8, 3))).area
            assert 0.0 <= area <= 0.5

        # Monte-Carlo convergence: replica summary statistics stabilize
        # as the draw count grows
        spec = tiny_spec()
        params = M.init_parameters(spec, seed=2)
        x = rng.uniform(-1, 1, (2, spec.time_steps, spec.channels)).astype(np.float32)
        ids = np.array([0, 1])
        half = U.replicate(params, spec, x, ids, n_draws=500, seed=1)
        full = U.replicate(params, spec, x, ids, n_draws=1000, seed=1)
        half_sd, full_sd = half.moments()[1], full.moments()[1]
        gap = np.linalg.norm(half_sd - full_sd) / np.linalg.norm(full_sd)
        assert gap < 0.1


# -------------------------------------------------------------- criterion 10


def test_criterion_10_determinism_and_formats(tmp_path):
    with verdict(10, "determinism and file formats"):
        cfg = D.desk_config(seed=5, module_count=3, samples_per_module=12,
                            time_steps=32, fault_count=6)
        a, b = D.generate(cfg), D.generate(cfg)
        assert D.dataset_bytes(a) == D.dataset_bytes(b)

        spec = replace(tiny_spec(modules=3), time_steps=32, channels=14)
        parts = D.split(a, seed=0)
        train_std, stats = D.standardize(parts.train)
        val_std, _ = D.standardize(parts.validation, stats)
        val_normal = val_std.select(val_std.normal_mask())
        config = TrainConfig(batch_size=4, max_epochs=4, patience=4, seed=6)
        r1 = train(spec, train_std, val_normal, config)
        r2 = train(spec, train_std, val_normal, config)
        series1 = [(e.train.total, e.validation.total) for e in r1.log.epochs]
        series2 = [(e.train.total, e.validation.total) for e in r2.log.epochs]
        assert series1 == series2
        assert checkpoint_bytes(spec, r1.params) == checkpoint_bytes(spec, r2.params)

        gamma = L.random_direction(r1.params, seed=101)
        nu = L.random_direction(r1.params, seed=202)
        for name in ("g1.csv", "g2.csv"):
            grid = L.evaluate_grid(
                r1.params, spec, gamma, nu, train_std, resolution=5, span=0.5
            )
            L.write_landscape_csv(tmp_path / name, grid)
        assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()

        D.save_dataset(tmp_path / "ds.mwts", a)
        assert D.dataset_bytes(D.load_dataset(tmp_path / "ds.mwts")) == D.dataset_bytes(a)
        save_checkpoint(tmp_path / "ck.mwck", spec, r1.params)
        spec_rt, params_rt = load_checkpoint(tmp_path / "ck.mwck")
        assert checkpoint_bytes(spec_rt, params_rt) == checkpoint_bytes(spec, r1.params)
