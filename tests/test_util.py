"""The worker-thread map's BLAS thread budget, the finiteness check,
hashing or writing arrays without a copy, and the atomic writer's
directory."""
import hashlib
import io
import threading
import tracemalloc

import numpy as np
import pytest

from modwatch import model as M
from modwatch import serialize as ser
from modwatch import util
from modwatch.checkpoint import save_checkpoint
from modwatch.errors import NumericError

needs_blas = pytest.mark.skipif(util._openblas() is None,
                                reason="numpy's bundled OpenBLAS not found")


def blas_threads() -> int:
    return util._openblas()[0]()


def fake_cores(monkeypatch, n: int) -> None:
    """Make ``parallel_map`` see ``n`` cores, whatever the host has."""
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def blas_at_three(monkeypatch):
    """Four cores, and BLAS set to 3 threads, a count no budget on four
    cores gives, put back as found afterwards."""
    fake_cores(monkeypatch, 4)
    get, set_ = util._openblas()
    before = get()
    set_(3)
    yield
    set_(before)


class TestBlasBudget:
    @needs_blas
    def test_pool_caps_blas_at_cores_per_worker(self, blas_at_three):
        seen = util.parallel_map(lambda _: blas_threads(), range(4), 2)
        assert seen == [2] * 4

    @needs_blas
    def test_count_restored_after_the_map(self, blas_at_three):
        assert util.parallel_map(lambda x: x * x, range(5), 2) == [0, 1, 4, 9, 16]
        assert blas_threads() == 3

    @needs_blas
    def test_count_restored_after_a_worker_raises(self, blas_at_three):
        def fail_on_two(x):
            if x == 2:
                raise ValueError("boom")
            return x

        with pytest.raises(ValueError, match="boom"):
            util.parallel_map(fail_on_two, range(4), 2)
        assert blas_threads() == 3

    @needs_blas
    @pytest.mark.parametrize("items, jobs", [(range(4), 1), ([7], 4), ([], 4)])
    def test_inline_map_never_touches_blas(self, blas_at_three, monkeypatch, items, jobs):
        get = util._openblas()[0]

        def no_budget():
            raise AssertionError("an inline map looked up the BLAS handle")

        monkeypatch.setattr(util, "_openblas", no_budget)
        seen = util.parallel_map(lambda _: get(), items, jobs)
        assert seen == [3] * len(items)

    def test_map_works_without_the_handle(self, monkeypatch):
        fake_cores(monkeypatch, 4)
        monkeypatch.setattr(util, "_openblas", lambda: None)
        assert util.parallel_map(lambda x: x + 1, range(6), 3) == [1, 2, 3, 4, 5, 6]

    def test_worker_count_is_capped_by_the_items(self, monkeypatch):
        # two items over eight jobs: two workers, so BLAS gets cores // 2
        calls = []
        monkeypatch.setattr(util, "_openblas", lambda: (lambda: 5, calls.append))
        fake_cores(monkeypatch, 8)
        assert util.parallel_map(lambda x: x, "ab", 8) == ["a", "b"]
        assert calls == [4, 5]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_jobs_above_the_cores_start_at_most_cores_threads(self, monkeypatch, cores):
        calls, pools = [], []
        monkeypatch.setattr(util, "_openblas", lambda: (lambda: 5, calls.append))
        fake_cores(monkeypatch, cores)
        pool = util.ThreadPoolExecutor
        monkeypatch.setattr(util, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers) or pool(max_workers))
        threads = util.parallel_map(lambda _: threading.get_ident(), range(16), 8)
        assert len(set(threads)) <= cores
        if cores == 1:  # one worker runs inline and leaves BLAS alone
            assert threads == [threading.get_ident()] * 16 and pools == calls == []
        else:  # one BLAS thread per worker
            assert pools == [cores] and calls == [1, 5]


class TestCheckFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        arr = np.ones((3, 4, 2), dtype=np.float32)
        arr[1, 2, 1] = bad
        with pytest.raises(NumericError, match="in probe"):
            util.check_finite(arr, "probe")

    def test_nan_beside_infinities_rejected(self):
        with pytest.raises(NumericError):
            util.check_finite(np.array([-np.inf, np.nan, np.inf]), "probe")

    @pytest.mark.parametrize("shape", [(0,), (0, 512, 14), (3, 0)])
    def test_empty_passes(self, shape):
        arr = np.empty(shape, dtype=np.float32)
        assert util.check_finite(arr, "probe") is arr

    def test_finite_returned_as_is(self):
        arr = np.linspace(-1e38, 1e38, 7, dtype=np.float32)
        assert util.check_finite(arr, "probe") is arr


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_desk_validate_allocates_no_mask():
    # 600 desk pulses (512 steps x 14 channels): 17.2 MB of floats
    from modwatch.data import NORMAL_LABEL, WaveformTensor

    n = 600
    wt = WaveformTensor(
        data=np.random.default_rng(5).standard_normal((n, 512, 14), dtype=np.float32),
        channel_names=[f"ch{c}" for c in range(14)],
        module_ids=np.zeros(n, dtype=np.int32),
        labels=np.array([NORMAL_LABEL] * n),
        sample_ids=np.arange(n, dtype=np.int64),
    )
    assert _peak(wt.validate) < wt.data.nbytes / 64


def test_checkpoint_written_without_copies():
    spec = M.desk_spec()
    params = M.init_parameters(spec, 0)
    nbytes = sum(lw.kernels.data.nbytes + lw.bias.data.nbytes for lw in params.layers.values())
    buf = io.BytesIO()
    save_checkpoint(buf, spec, params)
    digest = []
    peak = _peak(lambda: digest.append(
        ser.sha256_hex(lambda fh: save_checkpoint(fh, spec, params))))
    assert digest == [hashlib.sha256(buf.getvalue()).hexdigest()]
    assert peak < nbytes / 16


def test_atomic_open_creates_a_missing_parent_directory(tmp_path):
    path = tmp_path / "run" / "nested" / "out.txt"
    with util.atomic_open(path) as fh:
        fh.write("ok\n")
    assert path.read_text() == "ok\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]
