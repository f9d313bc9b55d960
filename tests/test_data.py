"""Generator, splits, standardisation, and waveform-file round trips."""
from __future__ import annotations

import hashlib
import io
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from modwatch import data as D
from modwatch import serialize as ser
from modwatch.errors import ConfigError, DataError, NumericError, ShapeError


@pytest.fixture(scope="module")
def small_cfg():
    return D.GeneratorConfig(
        module_count=4, samples_per_module=6, time_steps=128, fault_count=12, seed=11
    ).validate()


@pytest.fixture(scope="module")
def small_set(small_cfg):
    return D.generate(small_cfg)


class TestChannelCatalogue:
    def test_canonical_order(self):
        assert D.CHANNELS == (
            "IGBT-A+", "IGBT-A+*", "IGBT-B+", "IGBT-B+*", "IGBT-C+", "IGBT-C+*",
            "FLUX-A", "FLUX-B", "FLUX-C", "CB-V", "CB-I", "MOD-V", "MOD-I", "DV/DT",
        )
        assert len(D.CHANNELS) == 14

    def test_fault_classes_closed(self):
        assert tuple(fc.value for fc in D.FAULT_CLASSES) == (
            "DV/DT", "FLUX", "IGBT", "Driver", "SCR", "SNS-PPS",
        )
        for fc in D.FAULT_CLASSES:
            assert set(D.DESIGNATED_CHANNELS[fc]) <= set(D.CHANNELS)


class TestGenerator:
    def test_dims_and_metadata(self, small_set, small_cfg):
        assert small_set.data.shape == (4 * 6 + 12, 128, 14)
        assert small_set.data.dtype == np.float32
        normals = small_set.normal_mask()
        assert normals.sum() == 24
        assert sorted(set(small_set.labels[~normals])) == sorted(
            fc.value for fc in D.FAULT_CLASSES
        )
        assert small_set.sample_ids.tolist() == list(range(36))

    def test_deterministic_given_seed(self, small_cfg):
        a = D.generate(small_cfg)
        b = D.generate(small_cfg)
        np.testing.assert_array_equal(a.data, b.data)
        assert D.dataset_bytes(a) == D.dataset_bytes(b)
        c = D.generate(replace(small_cfg, seed=12))
        assert not np.array_equal(a.data, c.data)

    def test_dvdt_is_scaled_difference_of_mod_v(self, small_set):
        gain = D.DVDT_GAIN_PER_STEP * small_set.time_steps
        mv = small_set.data[:, :, D.CHANNEL_INDEX["MOD-V"]].astype(np.float64)
        dv = small_set.data[:, :, D.CHANNEL_INDEX["DV/DT"]].astype(np.float64)
        want = np.zeros_like(mv)
        want[:, 1:] = (mv[:, 1:] - mv[:, :-1]) * gain
        assert np.abs(dv - want).max() < 1e-6

    def test_fault_locality_over_50_trials(self):
        cfg = D.GeneratorConfig(module_count=15, time_steps=512, seed=0).validate()
        for fc in D.FAULT_CLASSES:
            designated = {D.CHANNEL_INDEX[name] for name in D.DESIGNATED_CHANNELS[fc]}
            for trial in range(50):
                key = 10_000 + trial
                normal = D.render_sample(cfg, trial % 15, key)
                faulty = D.render_sample(cfg, trial % 15, key, fault=fc)
                mse = ((faulty.astype(np.float64) - normal) ** 2).mean(axis=0)
                assert int(np.argmax(mse)) in designated, (
                    f"{fc.value} trial {trial}: max deviation on "
                    f"{D.CHANNELS[int(np.argmax(mse))]}"
                )

    def test_severity_fades_to_normal(self):
        cfg = D.GeneratorConfig(module_count=5, time_steps=256, seed=3).validate()
        floor = cfg.noise_sd**2
        for fc in D.FAULT_CLASSES:
            for trial in range(5):
                key = 555 + trial
                normal = D.render_sample(cfg, trial % 5, key)
                faint = D.render_sample(cfg, trial % 5, key, fault=fc, severity=1e-6)
                mse = ((faint.astype(np.float64) - normal) ** 2).mean(axis=0)
                assert mse.max() < floor

    def test_flatline_zeroes_designated_channels(self):
        cfg = D.GeneratorConfig(module_count=3, time_steps=256, noise_sd=0.0, seed=9).validate()
        flat = D.render_sample(cfg, 1, 42, fault=D.FaultClass.IGBT, flatline=True)
        onset = int(round(0.10 * 256))
        for name in D.DESIGNATED_CHANNELS[D.FaultClass.IGBT]:
            ch = D.CHANNEL_INDEX[name]
            np.testing.assert_array_equal(flat[onset:, ch], 0.0)
        # non-designated channels keep their pulse
        assert np.abs(flat[:, D.CHANNEL_INDEX["MOD-V"]]).max() > 0.5

    def test_module_separability_nearest_centroid(self):
        cfg = D.GeneratorConfig(
            module_count=15, samples_per_module=10, fault_count=0, seed=5
        ).validate()
        wt = D.generate(cfg)
        flat = wt.data.reshape(wt.n_samples, -1).astype(np.float64)
        centroids = np.stack([flat[wt.module_ids == m].mean(axis=0) for m in range(15)])
        d2 = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        accuracy = (np.argmin(d2, axis=1) == wt.module_ids).mean()
        assert accuracy >= 0.99

    def test_fault_plan_proportions(self):
        cfg = D.GeneratorConfig(module_count=3, fault_count=20, seed=0).validate()
        plan = D.fault_plan(cfg)
        assert len(plan) == 20
        counts = {fc: 0 for fc in D.FAULT_CLASSES}
        for fc, module, _ in plan:
            counts[fc] += 1
            assert 0 <= module < 3
        # 20 over six equal classes: largest remainder gives 4,4,3,3,3,3
        assert sorted(counts.values(), reverse=True) == [4, 4, 3, 3, 3, 3]

    def test_fault_modules_restriction(self):
        cfg = D.GeneratorConfig(
            module_count=5, fault_count=18, fault_modules=(2,), seed=0
        ).validate()
        wt = D.generate(cfg)
        faulty = ~wt.normal_mask()
        assert set(wt.module_ids[faulty].tolist()) == {2}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            D.GeneratorConfig(module_count=0).validate()
        with pytest.raises(ConfigError):
            D.GeneratorConfig(noise_sd=-0.1).validate()
        with pytest.raises(ConfigError):
            D.GeneratorConfig(fault_mix={D.FaultClass.FLUX: 0.5}).validate()
        with pytest.raises(ConfigError):
            D.GeneratorConfig(samples_per_module=(1, 2)).validate()
        with pytest.raises(ConfigError):
            D.GeneratorConfig(module_count=5, fault_modules=(7,)).validate()
        with pytest.raises(ConfigError):
            bad_sev = D._default_severity()
            bad_sev[D.FaultClass.SCR] = 0.0
            D.GeneratorConfig(severity=bad_sev).validate()


class TestStandardize:
    def test_zero_mean_unit_sd_on_fit_data(self, small_set):
        out, stats = D.standardize(small_set)
        flat = out.data.reshape(-1, out.channels).astype(np.float64)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-5)
        np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-4)
        assert not stats.constant.any()

    def test_reusing_stats_is_affine(self, small_set):
        _, stats = D.standardize(small_set)
        other = small_set.select(slice(0, 5))
        out, _ = D.standardize(other, stats)
        want = (other.data.astype(np.float64) - stats.mean) / stats.sd
        np.testing.assert_allclose(out.data, want.astype(np.float32), atol=1e-6)

    def test_constant_channel_flagged_and_zeroed(self, small_set):
        clone = small_set.select(slice(None))
        clone.data[:, :, 3] = 7.25
        out, stats = D.standardize(clone)
        assert stats.constant[3]
        np.testing.assert_array_equal(out.data[:, :, 3], 0.0)

    def test_stats_csv_round_trip(self, small_set, tmp_path):
        _, stats = D.standardize(small_set)
        path = tmp_path / "stats.csv"
        stats.save_csv(path, small_set.channel_names)
        loaded = D.ChannelStats.load_csv(path)
        np.testing.assert_array_equal(loaded.mean, stats.mean)
        np.testing.assert_array_equal(loaded.sd, stats.sd)
        np.testing.assert_array_equal(loaded.constant, stats.constant)


def whole_array_standardize(data, stats):
    """The whole-array expression ``standardize`` applied before it worked
    in blocks; the blocked pass must give the same bits."""
    safe_sd = np.where(stats.constant, 1.0, stats.sd)
    out = (data.astype(np.float64) - stats.mean) / safe_sd
    out[:, :, stats.constant] = 0.0
    return out.astype(np.float32)


def tensor_of(data):
    n = data.shape[0]
    return D.WaveformTensor(
        data=data,
        channel_names=D.CHANNELS[: data.shape[2]],
        module_ids=np.zeros(n, dtype=np.int32),
        labels=np.full(n, D.NORMAL_LABEL, dtype="<U16"),
        sample_ids=np.arange(n, dtype=np.int64),
    )


def given_stats(channels):
    """Statistics as a stats.csv gives them, with channel 3 constant."""
    rng = np.random.default_rng(channels)
    stats = D.ChannelStats(
        mean=rng.normal(size=channels),
        sd=rng.uniform(0.01, 3.0, size=channels),
        constant=np.zeros(channels, dtype=bool),
    )
    stats.sd[3] = 0.0
    stats.constant[3] = True
    return stats


class TestBlockedStandardize:
    BLOCK_ROWS = D.BLOCK // len(D.CHANNELS)

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_same_bits_as_whole_array(self, rows):
        # a row is one (sample, time step): `rows` samples of one step each
        rng = np.random.default_rng(rows)
        data = rng.normal(0.5, 4.0, size=(rows, 1, len(D.CHANNELS))).astype(np.float32)
        data[:, :, 3] = 7.25  # a constant channel
        stats = given_stats(len(D.CHANNELS))
        out, same = D.standardize(tensor_of(data), stats)
        assert same is stats
        assert out.data.dtype == np.float32 and out.data.shape == data.shape
        assert out.data.tobytes() == whole_array_standardize(data, stats).tobytes()

    def test_fitted_stats_same_bits_with_blocks_inside_samples(self):
        rng = np.random.default_rng(5)
        data = rng.normal(-1.0, 2.0, size=(5, 1000, len(D.CHANNELS))).astype(np.float32)
        data[:, :, 3] = 7.25
        out, stats = D.standardize(tensor_of(data))
        assert stats.constant[3]
        assert out.data.tobytes() == whole_array_standardize(data, stats).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_nan_in_constant_channel_still_rejected(self):
        # the output zeroes that channel, so only the input check can see it
        data = np.ones((4, 8, len(D.CHANNELS)), dtype=np.float32)
        data[2, 5, 3] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            D.standardize(tensor_of(data), given_stats(len(D.CHANNELS)))

    @pytest.mark.filterwarnings("error")
    def test_inf_in_a_split_being_fitted_rejected(self):
        data = np.ones((4, 8, len(D.CHANNELS)), dtype=np.float32)
        data[3, 7, 9] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            D.standardize(tensor_of(data))

    @pytest.mark.filterwarnings("error")
    def test_overflow_after_division_rejected(self):
        # finite float32 input that a small SD pushes past the float32 range
        data = np.zeros((4, 8, len(D.CHANNELS)), dtype=np.float32)
        data[1, 2, 0] = 3e38
        stats = given_stats(len(D.CHANNELS))
        stats.mean[:] = 0.0
        stats.sd[0] = 1e-7
        with pytest.raises(NumericError, match="non-finite"):
            D.standardize(tensor_of(data), stats)


@pytest.fixture(scope="module")
def payload_set():
    return D.generate(D.GeneratorConfig(module_count=2, samples_per_module=60,
                                        fault_count=0, seed=3).validate())


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDataPathPeaks:
    """Each stage of the eval data path holds its arrays once: peaks under
    tracemalloc as a multiple of the float32 payload."""

    def test_load_reads_the_payload_in_place(self, payload_set):
        fh = io.BytesIO(D.dataset_bytes(payload_set))
        loaded, peak = traced_peak(lambda: D.load_dataset(fh))
        np.testing.assert_array_equal(loaded.data, payload_set.data)
        assert peak <= 1.05 * payload_set.data.nbytes

    def test_standardize_with_given_stats_holds_one_block(self, payload_set):
        _, stats = D.standardize(payload_set)
        _, peak = traced_peak(lambda: D.standardize(payload_set, stats))
        assert peak <= 1.05 * payload_set.data.nbytes + 8 * D.BLOCK


class TestSplit:
    def test_80_10_10_per_module(self):
        cfg = D.GeneratorConfig(
            module_count=10, samples_per_module=10, fault_count=0, seed=2
        ).validate()
        wt = D.generate(cfg)  # 100 normals
        result = D.split(wt, (0.8, 0.1, 0.1), seed=0)
        assert result.train.n_samples == 80
        assert result.validation.n_samples == 10
        assert result.test.n_samples == 10
        for m in range(10):
            assert int((result.train.module_ids == m).sum()) == 8
            assert int((result.validation.module_ids == m).sum()) == 1
            assert int((result.test.module_ids == m).sum()) == 1

    def test_rounding_stays_within_one_per_stratum(self):
        cfg = D.GeneratorConfig(
            module_count=4, samples_per_module=25, fault_count=0, seed=2
        ).validate()
        result = D.split(D.generate(cfg), (0.8, 0.1, 0.1), seed=0)
        for m in range(4):
            assert abs(int((result.train.module_ids == m).sum()) - 20) <= 1
            assert abs(int((result.validation.module_ids == m).sum()) - 2.5) <= 1
            assert abs(int((result.test.module_ids == m).sum()) - 2.5) <= 1

    def test_abnormal_never_in_train(self, small_set):
        result = D.split(small_set, (0.6, 0.2, 0.2), seed=4)
        assert result.train.normal_mask().all()
        eval_labels = set(result.validation.labels) | set(result.test.labels)
        assert any(l != D.NORMAL_LABEL for l in eval_labels)

    def test_partition_is_exact(self, small_set):
        result = D.split(small_set, seed=1)
        ids = np.concatenate(
            [result.train.sample_ids, result.validation.sample_ids, result.test.sample_ids]
        )
        assert sorted(ids.tolist()) == small_set.sample_ids.tolist()

    def test_deterministic_and_seed_sensitive(self, small_set):
        a = D.split(small_set, seed=7)
        b = D.split(small_set, seed=7)
        c = D.split(small_set, seed=8)
        assert a.train.sample_ids.tolist() == b.train.sample_ids.tolist()
        assert a.train.sample_ids.tolist() != c.train.sample_ids.tolist()
        # same stratum counts regardless of seed
        assert a.train.n_samples == c.train.n_samples

    def test_too_small_stratum_raises(self):
        cfg = D.GeneratorConfig(
            module_count=2, samples_per_module=2, fault_count=0, seed=0
        ).validate()
        wt = D.generate(cfg)
        with pytest.raises(DataError):
            D.split(wt, (0.4, 0.3, 0.3), seed=0)

    def test_bad_fractions_raise(self, small_set):
        with pytest.raises(ConfigError):
            D.split(small_set, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(DataError):
            D.split(small_set, (1.0, 0.0, 0.0), seed=0)


class TestWaveformFiles:
    def test_round_trip_bit_exact(self, small_set):
        blob = D.dataset_bytes(small_set)
        loaded = D.load_dataset(io.BytesIO(blob))
        np.testing.assert_array_equal(loaded.data, small_set.data)
        assert loaded.channel_names == small_set.channel_names
        np.testing.assert_array_equal(loaded.module_ids, small_set.module_ids)
        np.testing.assert_array_equal(loaded.labels, small_set.labels)
        assert D.dataset_bytes(loaded) == blob

    def test_streamed_digest_keeps_no_copy(self):
        # the manifest's split digests: the file's SHA-256, with neither the
        # whole image nor a copy of the float payload held in memory
        wt = D.generate(D.GeneratorConfig(module_count=2, samples_per_module=60,
                                          fault_count=0, seed=3).validate())
        tracemalloc.start()
        try:
            digest = ser.sha256_hex(lambda fh: D.save_dataset(fh, wt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(D.dataset_bytes(wt)).hexdigest()
        assert peak < wt.data.nbytes / 2

    def test_file_round_trip(self, small_set, tmp_path):
        path = tmp_path / "set.mwts"
        D.save_dataset(path, small_set)
        loaded = D.load_dataset(path)
        np.testing.assert_array_equal(loaded.data, small_set.data)

    @pytest.mark.parametrize("n_labels, fits", [(256, True), (257, False)])
    def test_label_table_limited_to_u8_codes(self, small_set, tmp_path, n_labels, fits):
        wide = small_set.select(np.arange(n_labels) % small_set.n_samples)
        wide.labels = np.array([f"class{i}" for i in range(n_labels)])
        path = tmp_path / "wide.mwts"
        if fits:
            D.save_dataset(path, wide)
            np.testing.assert_array_equal(D.load_dataset(path).labels, wide.labels)
            return
        with pytest.raises(DataError, match="257 label names"):
            D.save_dataset(path, wide)
        assert not path.exists()

    def test_bad_magic_and_truncation(self, small_set, tmp_path):
        blob = D.dataset_bytes(small_set)
        bad = tmp_path / "bad.mwts"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(DataError):
            D.load_dataset(bad)
        cut = tmp_path / "cut.mwts"
        cut.write_bytes(blob[:-9])
        with pytest.raises(DataError):
            D.load_dataset(cut)
        fat = tmp_path / "fat.mwts"
        fat.write_bytes(blob + b"\x00")
        with pytest.raises(DataError):
            D.load_dataset(fat)

    @pytest.mark.parametrize("field", [0, 1], ids=["samples", "time_steps"])
    def test_huge_count_raises_before_reading(self, small_set, field):
        blob = bytearray(D.dataset_bytes(small_set))
        struct.pack_into("<I", blob, 8 + 4 * field, 2**32 - 1)
        with pytest.raises(DataError, match="truncated"):
            D.load_dataset(io.BytesIO(bytes(blob)))

    def test_channel_name_must_be_utf8(self, small_set):
        blob = bytearray(D.dataset_bytes(small_set))
        blob[24] = 0xFF  # first byte of the first channel name
        with pytest.raises(DataError, match="UTF-8"):
            D.load_dataset(io.BytesIO(bytes(blob)))

    def test_metadata_csv(self, small_set, tmp_path):
        path = tmp_path / "meta.csv"
        D.save_metadata_csv(path, small_set)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,module,label"
        assert len(lines) == small_set.n_samples + 1
        assert lines[1] == "0,0,normal"


class TestClaimedSizes:
    """A size a file claims is checked against the bytes it still holds, as a
    Python int, before anything is read.  In-memory files, so no claim can
    allocate on any version of the readers."""

    @pytest.mark.parametrize("header", [
        struct.pack("<IQQ", 2, 2**32, 2**32),  # the int64 product wraps to 0
        struct.pack("<IQ", 1, 2**63 + 5),  # beyond int64
        struct.pack("<IQQ", 2, 0, 2**63 + 5),  # no elements, dims numpy cannot hold
        struct.pack("<IQ", 1, 1000),  # 1000 floats claimed over 10
    ], ids=["wrapping", "overflowing", "zero-by-huge", "short"])
    def test_float_array_dims(self, header):
        with pytest.raises(DataError):
            ser.read_f32_array(io.BytesIO(header + bytes(40)))

    def test_short_read_of_a_payload_raises(self):
        # the file shrinks between the size check and the read
        class ShortReads(io.BytesIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[:-4])

        fh = ShortReads(struct.pack("<IQ", 1, 10) + bytes(40))
        with pytest.raises(DataError, match="needs 40 bytes, read 36"):
            ser.read_f32_array(fh)

    def test_string_must_be_utf8(self):
        with pytest.raises(DataError, match="UTF-8"):
            ser.read_str(io.BytesIO(struct.pack("<I", 2) + b"\xff\xfe"))

    def test_read_exact_checks_before_reading(self):
        fh = io.BytesIO(bytes(10))
        fh.read(3)
        with pytest.raises(DataError, match="needs 1099511627776 bytes, 7 left"):
            ser.read_exact(fh, 2**40, "payload")
        assert fh.tell() == 3
        assert ser.read_exact(fh, 7, "payload") == bytes(7)


class TestWaveformTensor:
    def test_select_keeps_ids(self, small_set):
        subset = small_set.select(np.array([3, 5, 9]))
        assert subset.sample_ids.tolist() == [3, 5, 9]
        np.testing.assert_array_equal(subset.data[0], small_set.data[3])

    def test_validate_catches_mismatches(self, small_set):
        broken = D.WaveformTensor(
            data=small_set.data,
            channel_names=small_set.channel_names[:-1],
            module_ids=small_set.module_ids,
            labels=small_set.labels,
            sample_ids=small_set.sample_ids,
        )
        with pytest.raises(ShapeError):
            broken.validate()

    def test_nan_rejected(self, small_set):
        clone = small_set.select(slice(0, 2))
        clone.data[0, 0, 0] = np.nan
        with pytest.raises(Exception):
            clone.validate()
