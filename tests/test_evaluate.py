"""Scoring and metric correctness against brute-force oracles."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwatch import data as D
from modwatch import model as M
from modwatch.errors import ConfigError, DataError, ShapeError
from modwatch.evaluate import (
    _rank_auc,
    AnomalyScore,
    ScoreTable,
    auc_table,
    compare_methods,
    density_counts,
    DENSITY_EDGES,
    flagged,
    pick_threshold,
    roc_auc,
    score,
    summarize,
    write_auc_table_csv,
    write_boxstats_csv,
    write_comparison_csv,
    write_density_csv,
    write_roc_csv,
    write_scores_csv,
)

from conftest import stack_scores


def auc_pair_oracle(neg, pos):
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def roc_sweep_oracle(neg, pos):
    """The per-threshold sweep roc_auc used before its sort-based rewrite:
    one pass over both classes for every distinct score."""
    neg = np.asarray(neg, dtype=np.float64)
    pos = np.asarray(pos, dtype=np.float64)
    thresholds = np.concatenate([[np.inf], np.unique(np.concatenate([neg, pos]))[::-1]])
    fpr = np.array([(neg >= t).mean() for t in thresholds])
    tpr = np.array([(pos >= t).mean() for t in thresholds])
    return np.column_stack([fpr, tpr]), thresholds


def threshold_loop_oracle(normal_scores, fpr_budget):
    """pick_threshold's candidate loop before vectorisation (valid inputs)."""
    s = np.sort(np.asarray(normal_scores, dtype=np.float64))
    k = int(np.floor(fpr_budget * s.size))
    for v in np.unique(s):
        if s.size - np.searchsorted(s, v, side="left") <= k:
            return float(v)
    return float(np.nextafter(s[-1], np.inf))


# small integers scaled by a power of two: exact in floats, and heavily tied
tied_floats = st.integers(-6, 6).map(lambda i: i / 4.0)
any_floats = st.floats(-1e3, 1e3) | tied_floats


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


def toy_set(n=6, time_steps=16, channels=3, modules=2, seed=0):
    rng = np.random.default_rng(seed)
    return D.WaveformTensor(
        data=rng.standard_normal((n, time_steps, channels)).astype(np.float32),
        channel_names=[f"ch{c}" for c in range(channels)],
        module_ids=(np.arange(n) % modules).astype(np.int32),
        labels=np.array([D.NORMAL_LABEL] * n, dtype="<U16"),
        sample_ids=np.arange(n, dtype=np.int64),
    )


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([1, 2], [3, 4]).auc == 1.0

    def test_identical_multisets(self):
        assert roc_auc([1, 2, 3], [1, 2, 3]).auc == 0.5

    def test_matches_pair_counting_on_random_sets(self, rng):
        for trial in range(200):
            # integer-valued scores so ties actually occur
            neg = rng.integers(0, 15, size=20).astype(float)
            pos = rng.integers(0, 15, size=20).astype(float) + rng.integers(0, 3)
            curve = roc_auc(neg, pos)
            assert curve.auc == auc_pair_oracle(neg, pos), f"trial {trial}"

    def test_curve_endpoints_and_monotonicity(self, rng):
        neg = rng.standard_normal(30)
        pos = rng.standard_normal(25) + 0.5
        curve = roc_auc(neg, pos)
        assert tuple(curve.points[0]) == (0.0, 0.0)
        assert tuple(curve.points[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.points[:, 0]) >= 0)
        assert np.all(np.diff(curve.points[:, 1]) >= 0)
        assert curve.positive_count == 25
        assert curve.negative_count == 30

    def test_curve_trapezoid_area_matches_auc(self, rng):
        neg = rng.standard_normal(40)
        pos = rng.standard_normal(40) + 1.0
        curve = roc_auc(neg, pos)
        area = np.trapezoid(curve.points[:, 1], curve.points[:, 0])
        assert area == pytest.approx(curve.auc, abs=1e-12)

    def test_empty_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([], [1.0])
        with pytest.raises(DataError):
            roc_auc([1.0], [])

    @given(
        neg=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        pos=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_leaves_auc_unchanged(self, neg, pos):
        # power-of-two scaling is exact in floats, so order is truly preserved
        base = roc_auc(neg, pos).auc
        scaled = roc_auc(np.asarray(neg) * 4.0, np.asarray(pos) * 4.0)
        assert scaled.auc == base

    def test_log_scaling_leaves_auc_unchanged(self, rng):
        neg = 10 ** rng.uniform(-6, 0, size=40)
        pos = 10 ** rng.uniform(-5, 1, size=40)
        assert roc_auc(np.log(neg), np.log(pos)).auc == roc_auc(neg, pos).auc

    @given(
        scores=st.lists(
            st.floats(-1e3, 1e3), min_size=4, max_size=40, unique=True
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_complement_property_without_ties(self, scores):
        half = len(scores) // 2
        a, b = scores[:half], scores[half:]
        if not a or not b:
            return
        assert roc_auc(a, b).auc + roc_auc(b, a).auc == 1.0

    @given(
        neg=st.lists(any_floats, min_size=1, max_size=40),
        pos=st.lists(any_floats, min_size=1, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_threshold_sweep(self, neg, pos):
        curve = roc_auc(neg, pos)
        points, thresholds = roc_sweep_oracle(neg, pos)
        assert curve.points.tobytes() == points.tobytes()
        assert curve.thresholds.tobytes() == thresholds.tobytes()
        assert curve.auc == auc_pair_oracle(neg, pos)

    @given(
        data=st.data(),
        n=st.integers(1, 12),
        p=st.integers(1, 12),
        k=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_rank_auc_counts_pairs_per_column(self, data, n, p, k):
        cell = st.lists(any_floats, min_size=k, max_size=k)
        neg = np.array(data.draw(st.lists(cell, min_size=n, max_size=n)))
        pos = np.array(data.draw(st.lists(cell, min_size=p, max_size=p)))
        aucs = _rank_auc(neg, pos)
        assert aucs.shape == (k,)
        for j in range(k):
            assert aucs[j] == auc_pair_oracle(neg[:, j], pos[:, j]), j


class TestPickThreshold:
    def test_one_in_ten_budget(self):
        scores = list(range(1, 11))
        assert pick_threshold(scores, 0.10) == 10.0

    def test_full_budget_returns_min(self):
        scores = [5.0, 2.0, 9.0, 3.0, 7.0, 4.0, 6.0, 8.0, 1.0, 10.0]
        assert pick_threshold(scores, 1.0) == 1.0

    def test_realized_fpr_never_exceeds_budget(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 200))
            scores = rng.integers(0, 20, size=n).astype(float)  # heavy ties
            budget = float(rng.uniform(0.02, 0.9))
            if int(budget * n) < 1:
                continue
            tau = pick_threshold(scores, budget)
            assert flagged(scores, tau).mean() <= budget

    def test_fresh_resample_fpr_near_budget(self, rng):
        fit = np.abs(rng.standard_normal(1000))
        tau = pick_threshold(fit, 0.10)
        fresh = np.abs(rng.standard_normal(1000))
        fpr = flagged(fresh, tau).mean()
        assert 0.05 <= fpr <= 0.15

    def test_too_few_scores_rejected(self):
        with pytest.raises(DataError):
            pick_threshold([1.0] * 9, 0.5)

    def test_budget_below_resolution_rejected(self):
        with pytest.raises(DataError):
            pick_threshold(list(range(10)), 0.05)  # floor(0.5) = 0 flags allowed

    def test_bad_budget_rejected(self):
        for budget in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                pick_threshold(list(range(20)), budget)

    @given(
        scores=st.lists(any_floats, min_size=10, max_size=60),
        budget=st.floats(0.01, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_candidate_loop(self, scores, budget):
        if int(np.floor(budget * len(scores))) < 1:
            return
        assert pick_threshold(scores, budget) == threshold_loop_oracle(scores, budget)

    def test_all_tied_scores_flag_nothing(self):
        scores = [3.0] * 20
        tau = pick_threshold(scores, 0.10)
        assert tau > 3.0
        assert flagged(scores, tau).sum() == 0


class TestScore:
    def test_zero_model_scores_zero_input_as_zero(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        for _, t in params.named_tensors():
            t.data[...] = 0.0
        ds = toy_set()
        ds.data[...] = 0.0
        out = score(params, spec, ds)
        assert all(s.aggregate == 0.0 for s in out)
        assert all(np.all(s.channel_mse == 0.0) for s in out)

    def test_deterministic_mode_is_repeatable(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 1)
        ds = toy_set(seed=3)
        a = score(params, spec, ds)
        b = score(params, spec, ds)
        for sa, sb in zip(a, b):
            assert sa.aggregate == sb.aggregate
            assert np.array_equal(sa.channel_mse, sb.channel_mse)

    def test_matches_external_reconstruction_error(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 2)
        ds = toy_set(n=5, seed=4)
        out = score(params, spec, ds, batch_size=2)
        for i, s in enumerate(out):
            x = ds.data[i : i + 1]
            ids = ds.module_ids[i : i + 1]
            x_hat = M.reconstruct(params, spec, x, ids, epsilon=None)
            err = (x.astype(np.float64) - x_hat.astype(np.float64)) ** 2
            per_channel = err.mean(axis=1)[0]
            assert np.allclose(s.channel_mse, per_channel, atol=1e-7)
            assert s.aggregate == pytest.approx(per_channel.mean(), abs=1e-7)

    def test_aggregate_is_mean_of_channels(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 1)
        ds = toy_set(seed=5)
        for s in score(params, spec, ds):
            assert s.aggregate == float(s.channel_mse.mean())
            assert np.all(s.channel_mse >= 0)

    def test_sampled_mode_keeps_replicas(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 1)
        ds = toy_set(seed=6)
        out = score(params, spec, ds, mode="sampled", n_draws=8, seed=1)
        for s in out:
            assert s.replica_aggregates.shape == (8,)
            assert s.aggregate == pytest.approx(s.replica_aggregates.mean(), rel=1e-9)

    def test_sampled_mode_monte_carlo_consistency(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 1)
        ds = toy_set(n=4, seed=7)
        a = score(params, spec, ds, mode="sampled", n_draws=100, seed=1)
        b = score(params, spec, ds, mode="sampled", n_draws=200, seed=2)
        for sa, sb in zip(a, b):
            se = sa.replica_aggregates.std() / np.sqrt(100) + sb.replica_aggregates.std() / np.sqrt(200)
            assert abs(sa.aggregate - sb.aggregate) <= 2 * se + 1e-12

    def test_unseen_module_id_rejected(self):
        spec = tiny_spec(modules=2)
        params = M.init_parameters(spec, 0)
        ds = toy_set()
        ds.module_ids[0] = 5
        with pytest.raises(DataError, match="unseen"):
            score(params, spec, ds)

    def test_shape_mismatch_rejected(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        ds = toy_set(time_steps=32)
        with pytest.raises(ShapeError):
            score(params, spec, ds)

    def test_worker_count_does_not_change_scores(self):
        # more workers than cores, switching often: each fills its own rows
        spec = tiny_spec()
        params = M.init_parameters(spec, 1)
        ds = toy_set(n=10, seed=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kw in ({}, {"mode": "sampled", "n_draws": 5}):
                a = score(params, spec, ds, batch_size=3, jobs=1, **kw)
                b = score(params, spec, ds, batch_size=3, jobs=4, **kw)
                assert a.channel_mse.tobytes() == b.channel_mse.tobytes()
                assert a.aggregate.tobytes() == b.aggregate.tobytes()
                if kw:
                    assert a.replica_aggregates.tobytes() == b.replica_aggregates.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_bad_mode_rejected(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        with pytest.raises(ConfigError):
            score(params, spec, toy_set(), mode="stochastic")

    def test_returns_one_table_of_columns(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 1)
        ds = toy_set(n=7, seed=9)
        det = score(params, spec, ds, batch_size=3)
        assert isinstance(det, ScoreTable) and len(det) == 7
        assert det.sample_id.dtype == np.int64 and det.module_id.dtype == np.int64
        assert np.array_equal(det.sample_id, ds.sample_ids)
        assert np.array_equal(det.module_id, ds.module_ids)
        assert det.label.tolist() == ds.labels.tolist()
        assert det.channel_mse.shape == (7, 3) and det.channel_mse.dtype == np.float64
        assert np.array_equal(det.aggregate, det.channel_mse.mean(axis=1))
        assert det.replica_aggregates is None
        smp = score(params, spec, ds, mode="sampled", n_draws=5, batch_size=3)
        assert smp.replica_aggregates.shape == (7, 5)

    def test_empty_input_gives_empty_table(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 0)
        ds = toy_set().select(np.zeros(6, dtype=bool))
        det = score(params, spec, ds)
        assert not det and len(det) == 0 and list(det) == []
        assert det.channel_mse.shape == (0, 3) and det.aggregate.shape == (0,)
        smp = score(params, spec, ds, mode="sampled", n_draws=4)
        assert smp.replica_aggregates.shape == (0, 4)

    def test_row_view_has_the_row_types(self):
        spec = tiny_spec()
        params = M.init_parameters(spec, 1)
        table = score(params, spec, toy_set(seed=2), mode="sampled", n_draws=3)
        row = table[1]
        assert isinstance(row, AnomalyScore)
        assert type(row.sample_id) is int and type(row.module_id) is int
        assert type(row.label) is str and type(row.aggregate) is float
        assert np.array_equal(row.channel_mse, table.channel_mse[1])
        assert np.array_equal(row.replica_aggregates, table.replica_aggregates[1])
        row.replica_aggregates[0] = -1.0  # a copy: the table keeps its draws
        assert table.replica_aggregates[1, 0] != -1.0
        assert [r.sample_id for r in table] == table.sample_id.tolist()


def box_stats(values):
    """summarize's box row for one group whose single channel holds ``values``."""
    v = np.asarray(values, dtype=np.float64)
    scores = stack_scores(
        AnomalyScore(i, 0, D.NORMAL_LABEL, v[i : i + 1], float(v[i])) for i in range(v.size))
    box, _ = summarize(scores, ["c0"])
    assert box["channel"][1] == "c0"
    return {key: column[1] for key, column in box.items()}


def assert_columns_line_up(table):
    assert len({len(column) for column in table.values()}) == 1, table.keys()


class TestBoxStats:
    def test_midpoint_convention(self):
        st_ = box_stats([1, 2, 3, 4, 5])
        assert (st_["q1"], st_["median"], st_["q3"]) == (2.0, 3.0, 4.0)
        assert (st_["min"], st_["max"], st_["mean"], st_["count"]) == (1.0, 5.0, 3.0, 5)

    def test_identical_scores_collapse(self):
        st_ = box_stats([7.5] * 12)
        assert st_["min"] == st_["q1"] == st_["median"] == st_["q3"] == st_["max"] == 7.5

    def test_matches_sort_oracle(self, rng):
        v = rng.standard_normal(101)
        st_ = box_stats(v)
        s = np.sort(v)
        assert st_["median"] == s[50]
        assert st_["q1"] == s[25]
        assert st_["q3"] == s[75]


class TestDensity:
    def test_grid_shape(self):
        assert DENSITY_EDGES.size == 33
        assert DENSITY_EDGES[0] == pytest.approx(1e-7)
        assert DENSITY_EDGES[-1] == pytest.approx(10.0)

    def test_counts_cover_all_values(self, rng):
        v = 10 ** rng.uniform(-9, 2, size=500)  # some outside the grid
        counts = density_counts(v)
        assert counts.sum() == 500
        assert counts.size == 32

    def test_out_of_range_values_clipped_to_ends(self):
        counts = density_counts([1e-12, 1e-12, 100.0])
        assert counts[0] == 2
        assert counts[-1] == 1


def synthetic_scores(rng, n_normal=30, n_fault=10, modules=(0, 1), fault="IGBT",
                     channels=3, fault_channel=1, separation=5.0, draws=None):
    out = []
    sid = 0
    for label, count in ((D.NORMAL_LABEL, n_normal), (fault, n_fault)):
        for i in range(count):
            ch = np.abs(rng.standard_normal(channels)) * 0.1
            if label != D.NORMAL_LABEL:
                ch[fault_channel] += separation
            reps = None
            if draws:
                reps = ch.mean() + 0.01 * rng.standard_normal(draws)
            out.append(
                AnomalyScore(
                    sample_id=sid,
                    module_id=modules[i % len(modules)],
                    label=label,
                    channel_mse=ch,
                    aggregate=float(ch.mean()),
                    replica_aggregates=reps,
                )
            )
            sid += 1
    return stack_scores(out)


class TestSummarize:
    def test_groups_and_columns(self, rng):
        scores = synthetic_scores(rng)
        box, density = summarize(scores, ["c0", "c1", "c2"])
        assert_columns_line_up(box)
        assert_columns_line_up(density)
        groups = set(zip(box["module"].tolist(), box["label"].tolist()))
        assert groups == {(0, "IGBT"), (1, "IGBT"), (0, "normal"), (1, "normal")}
        assert set(box["channel"].tolist()) == {"aggregate", "c0", "c1", "c2"}
        # every (label, channel) density block spans the full grid
        assert len(density["label"]) == 2 * 4 * 32
        block = (density["label"] == "IGBT") & (density["channel"] == "aggregate")
        assert density["fraction"][block].sum() == pytest.approx(1.0)
        assert np.array_equal(density["bin_low"][block], DENSITY_EDGES[:-1])

    def test_box_rows_match_each_group_taken_alone(self, rng):
        scores = synthetic_scores(rng)
        box, _ = summarize(scores, ["c0", "c1", "c2"])
        values = np.column_stack([scores.aggregate, scores.channel_mse])
        for i, (module, label) in enumerate(zip(box["module"], box["label"])):
            c = i % 4
            group = values[(scores.module_id == module) & (scores.label == label), c]
            assert box["count"][i] == group.size
            assert box["median"][i] == np.percentile(group, 50.0)
            assert box["mean"][i] == group.mean()

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            summarize(stack_scores([]), ["c0"])


class TestAucTable:
    def test_fault_channel_ranks_first(self, rng):
        scores = synthetic_scores(rng, fault_channel=1, separation=8.0)
        table = auc_table(scores, ["c0", "c1", "c2"])
        assert_columns_line_up(table)
        rows = [dict(zip(table, row)) for row in zip(*table.values())]
        pooled = {r["channel"]: r for r in rows if r["module"] == "all"}
        assert pooled["c1"]["auc"] == 1.0
        assert pooled["c1"]["channel_rank"] == 1
        assert pooled["aggregate"]["n_abnormal"] == 10
        assert pooled["aggregate"]["channel_rank"] == ""
        module_rows = [r for r in rows if r["module"] != "all"]
        assert {r["module"] for r in module_rows} == {0, 1}
        assert {r["channel"] for r in module_rows} == {"aggregate"}

    def test_tied_channels_keep_channel_order(self, rng):
        scores = synthetic_scores(rng, separation=8.0)
        scores.channel_mse[:, 2] = scores.channel_mse[:, 0]  # c0 and c2 tie
        table = auc_table(scores, ["c0", "c1", "c2"])
        ranks = dict(zip(table["channel"][1:4], table["channel_rank"][1:4]))
        assert ranks == {"c1": 1, "c0": 2, "c2": 3}

    def test_requires_normals(self, rng):
        scores = stack_scores(s for s in synthetic_scores(rng) if s.label != D.NORMAL_LABEL)
        with pytest.raises(DataError):
            auc_table(scores, ["c0", "c1", "c2"])


class TestCompareMethods:
    def test_identical_scores_give_zero_delta(self, rng):
        multi = synthetic_scores(rng, draws=6)
        single = {m: stack_scores(s for s in multi if s.module_id == m) for m in (0, 1)}
        table = compare_methods(multi, single)
        assert_columns_line_up(table)
        assert table["delta"] and all(d == 0.0 for d in table["delta"])
        assert all(sd is not None and sd >= 0 for sd in table["sd_multi"])

    def test_absent_cells_marked_none(self, rng):
        multi = synthetic_scores(rng, modules=(0, 1))
        # strip module-1 faults: that cell must come back absent, not zero
        multi = stack_scores(
            s for s in multi if not (s.label != D.NORMAL_LABEL and s.module_id == 1))
        single = {m: stack_scores(s for s in multi if s.module_id == m) for m in (0, 1)}
        table = compare_methods(multi, single)
        i = table["module"].index(1)
        assert table["n_abnormal"][i] == 0 and table["n_normal"][i] > 0
        for key in ("auc_multi", "sd_multi", "auc_single", "sd_single", "delta"):
            assert table[key][i] is None, key

    def test_mismatched_sample_sets_rejected(self, rng):
        multi = synthetic_scores(rng)
        single = {m: stack_scores([s for s in multi if s.module_id == m][:-1]) for m in (0, 1)}
        with pytest.raises(DataError, match="different sample sets"):
            compare_methods(multi, single)

    def test_missing_module_rejected(self, rng):
        multi = synthetic_scores(rng)
        single = {0: stack_scores(s for s in multi if s.module_id == 0)}
        with pytest.raises(DataError, match="no single-module scores"):
            compare_methods(multi, single)

    def test_sd_none_without_replicas(self, rng):
        multi = synthetic_scores(rng, draws=None)
        single = {m: stack_scores(s for s in multi if s.module_id == m) for m in (0, 1)}
        table = compare_methods(multi, single)
        assert all(sd is None for auc, sd in zip(table["auc_multi"], table["sd_multi"])
                   if auc is not None)


class TestCsvWriters:
    def test_all_writers_produce_stable_files(self, rng, tmp_path):
        scores = synthetic_scores(rng, draws=4)
        names = ["c0", "c1", "c2"]
        box, density = summarize(scores, names)
        table = auc_table(scores, names)
        curve = roc_auc([1, 2, 3], [2, 3, 4])
        single = {m: stack_scores(s for s in scores if s.module_id == m) for m in (0, 1)}
        report = compare_methods(scores, single)

        write_scores_csv(tmp_path / "scores.csv", scores, names)
        write_roc_csv(tmp_path / "roc.csv", curve)
        write_auc_table_csv(tmp_path / "auc_table.csv", table)
        write_boxstats_csv(tmp_path / "boxstats.csv", box)
        write_density_csv(tmp_path / "density.csv", density)
        write_comparison_csv(tmp_path / "report.csv", report)

        headers = {
            "scores.csv": "sample_id,module,label,c0,c1,c2,aggregate",
            "roc.csv": "threshold,fpr,tpr",
            "auc_table.csv": "fault,module,channel,auc,n_normal,n_abnormal,channel_rank",
            "boxstats.csv": "module,label,channel,count,min,q1,median,q3,max,mean",
            "density.csv": "label,channel,bin_low,bin_high,count,fraction",
            "report.csv": "fault,module,n_normal,n_abnormal,auc_multi,sd_multi,auc_single,sd_single,delta",
        }
        for name, header in headers.items():
            text = (tmp_path / name).read_text().splitlines()
            assert text[0] == header, name
            assert len(text) > 1, name

        # scores.csv has one row per sample
        assert len((tmp_path / "scores.csv").read_text().splitlines()) == len(scores) + 1
