"""Adam over one flat array: closed-form first step, convergence on a
quadratic, one array per moment, and the blocked in-place update against
the unblocked formula bit for bit."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from modwatch import model as M
from modwatch import tensor as T
from modwatch.errors import NumericError, ShapeError
from modwatch.optim import BETA1, BETA2, CHUNK, EPS, AdamState, adam_step
from modwatch.tensor import DTYPE, Tensor


def test_first_step_matches_closed_form():
    # with zero-initialised moments, bias correction gives m_hat = g and
    # v_hat = g^2, so the first update is exactly lr * g / (|g| + eps)
    theta = np.array([1.0, -2.0], np.float32)
    state = AdamState(2, learning_rate=0.1)
    adam_step(theta, np.array([0.5, -0.25], np.float32), state)
    g = np.array([0.5, -0.25], np.float64)
    want = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(theta, want, rtol=1e-6)
    assert state.step == 1


def test_quadratic_bowl_converges():
    theta = Tensor(np.array([3.0], np.float32), requires_grad=True)
    state = AdamState(1, learning_rate=0.1)
    for _ in range(300):
        theta.grad = None
        loss = T.tsum(T.square(theta))
        T.backward(loss)
        adam_step(theta.data, theta.grad, state)
    assert abs(float(theta.data[0])) < 1e-2


def test_moments_mirror_parameter_dims(rng):
    # one flat array per moment, the size of the parameter array
    p = rng.standard_normal((3, 4)).astype(np.float32)
    state = AdamState(p.size, learning_rate=1e-3)
    adam_step(p, rng.standard_normal((3, 4)).astype(np.float32), state)
    for moment in (state.m, state.v):
        assert moment.shape == (12,) and moment.dtype == DTYPE and moment.flags.c_contiguous


def test_untouched_parameter_gets_zero_gradient(rng):
    # a tensor no op reached gathers as zeros, so Adam leaves it where it is
    params = M.init_parameters(M.desk_spec(), 0)
    named = params.named_tensors()
    for _, t in named[1:]:
        t.grad = rng.standard_normal(t.data.shape).astype(np.float32)
    untouched = named[0][1].data
    before = untouched.copy()
    grad = params.take_grads(np.empty_like(params.flat))
    assert not grad[: untouched.size].any() and all(t.grad is None for _, t in named)
    adam_step(params.flat, grad, AdamState(params.count(), learning_rate=0.5))
    np.testing.assert_array_equal(untouched, before)
    assert not np.array_equal(named[1][1].data, np.zeros_like(named[1][1].data))


def test_non_finite_gradient_raises(rng):
    p = rng.standard_normal(4).astype(np.float32)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError, match="^adam: non-finite gradient$"):
            adam_step(p, np.array([1.0, bad, 0.0, 0.0], np.float32),
                      AdamState(4, learning_rate=0.1))


def test_dims_that_disagree_raise(rng):
    p = np.zeros(6, np.float32)
    with pytest.raises(ShapeError):
        adam_step(p, np.zeros(5, np.float32), AdamState(6, learning_rate=0.1))
    with pytest.raises(ShapeError):
        adam_step(p, np.zeros(6, np.float32), AdamState(7, learning_rate=0.1))


def test_two_runs_identical(rng):
    def run():
        t = Tensor(np.array([1.5, -0.5], np.float32), requires_grad=True)
        state = AdamState(2, learning_rate=0.05)
        for _ in range(50):
            t.grad = None
            T.backward(T.tsum(T.square(t)))
            adam_step(t.data, t.grad, state)
        return t.data.copy()

    np.testing.assert_array_equal(run(), run())


def reference_adam_step(p: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """The unblocked formula the blocked step must reproduce bit for bit:
    whole-array float32 expressions with a fresh temporary for each."""
    if not np.all(np.isfinite(g)):
        raise NumericError("adam: non-finite gradient")
    state.step += 1
    t = state.step
    b1, b2 = DTYPE(BETA1), DTYPE(BETA2)
    lr = DTYPE(state.learning_rate)
    eps = DTYPE(EPS)
    c1 = DTYPE(1.0 - BETA1**t)
    c2 = DTYPE(1.0 - BETA2**t)
    m, v = state.m.reshape(p.shape), state.v.reshape(p.shape)
    m *= b1
    m += (DTYPE(1) - b1) * g
    v *= b2
    v += (DTYPE(1) - b2) * (g * g)
    m_hat = m / c1
    v_hat = v / c2
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).view(np.uint32).tobytes()


def _run_both(shape, grads, lr: float = 1e-3):
    """Five steps of both implementations from the same start; returns
    (blocked, reference) as (p, m, v) triples."""
    rng = np.random.default_rng(11)
    start = rng.standard_normal(shape).astype(np.float32)
    out = []
    for step in (adam_step, reference_adam_step):
        p = start.copy()
        state = AdamState(p.size, learning_rate=lr)
        with np.errstate(over="ignore", invalid="ignore"):
            for g in grads:
                step(p, g.copy(), state)
        out.append((p, state.m.reshape(shape), state.v.reshape(shape)))
    return out


def _assert_same_bits(shape, grads, lr: float = 1e-3):
    """Returns the blocked step's (p, m, v) once they match the reference."""
    blocked, reference = _run_both(shape, grads, lr)
    for got, want in zip(blocked, reference):
        assert got.shape == want.shape
        assert _bits(got) == _bits(want)
    return blocked


@pytest.mark.parametrize(
    "shape", [(0,), (1,), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (3 * CHUNK + 7,), (64, 8192)]
)
def test_blocked_step_matches_reference_bitwise(shape):
    rng = np.random.default_rng(5)
    grads = [(rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)).astype(np.float32)
             for _ in range(5)]
    _assert_same_bits(shape, grads)


def test_blocked_step_matches_reference_on_subnormals_and_signed_zeros():
    n = 2 * CHUNK + 3
    rng = np.random.default_rng(6)
    tiny = np.finfo(np.float32).smallest_subnormal
    grads = []
    for _ in range(5):
        g = rng.standard_normal(n).astype(np.float32)
        g[::3] = tiny * rng.integers(-1000, 1000, size=g[::3].size).astype(np.float32)
        g[1::7] = 0.0
        g[2::7] = -0.0
        grads.append(g)
    assert np.any(np.signbit(grads[0]) & (grads[0] == 0))
    _assert_same_bits((n,), grads)


def test_blocked_step_matches_reference_when_the_square_overflows():
    # g * g overflows to inf in float32 while g itself is finite
    n = CHUNK + 5
    g = np.full(n, 3e19, np.float32)
    g[::2] = -3e19
    with np.errstate(over="ignore"):
        assert np.isfinite(g).all() and np.isinf(g * g).all()
    _, _, v = _assert_same_bits((n,), [g] * 5)
    assert np.isinf(v).all()


def test_non_finite_in_last_block_leaves_the_tensor_untouched(rng):
    n = 3 * CHUNK + 7
    p = rng.standard_normal(n).astype(np.float32)
    state = AdamState(n, learning_rate=0.1)
    adam_step(p, rng.standard_normal(n).astype(np.float32), state)
    before = [a.copy() for a in (p, state.m, state.v)]
    g = rng.standard_normal(n).astype(np.float32)
    g[-1] = np.nan
    with pytest.raises(NumericError):
        adam_step(p, g, state)
    for got, want in zip((p, state.m, state.v), before):
        assert _bits(got) == _bits(want)


def test_update_lands_in_the_parameter_array(rng):
    params = M.init_parameters(M.desk_spec(), 0)
    held = params.layers["enc.conv0"].kernels.data  # a view the layer holds
    start = held.copy()
    adam_step(params.flat, np.ones_like(params.flat), AdamState(params.count(), learning_rate=0.1))
    # the first step moves every value by lr * g / (|g| + eps) = ~0.1
    np.testing.assert_allclose(held, start - 0.1, atol=1e-5)


def test_second_step_allocates_no_tensor_sized_temporary():
    params = M.init_parameters(M.desk_spec(), 0)
    g = np.random.default_rng(2).standard_normal(params.count()).astype(np.float32)
    state = AdamState(params.count(), learning_rate=1e-3)
    adam_step(params.flat, g, state)
    tracemalloc.start()
    try:
        adam_step(params.flat, g, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"second step peaked at {peak / 2**20:.2f} MiB"


def test_non_contiguous_parameter_raises_instead_of_updating_a_copy(rng):
    p = rng.standard_normal((4, 6)).astype(np.float32)[:, ::2]
    with pytest.raises(ShapeError):
        adam_step(p, np.ones((4, 3), np.float32), AdamState(12, learning_rate=0.1))


def test_non_contiguous_gradient_matches_its_contiguous_copy(rng):
    g = rng.standard_normal((6, 4)).astype(np.float32).T
    assert not g.flags.c_contiguous
    p1 = np.ones((4, 6), np.float32)
    p2 = np.ones((4, 6), np.float32)
    adam_step(p1, g, AdamState(24, learning_rate=0.1))
    adam_step(p2, np.ascontiguousarray(g), AdamState(24, learning_rate=0.1))
    assert _bits(p1) == _bits(p2)
