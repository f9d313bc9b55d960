"""Tensor core: forward oracles, finite-difference gradient checks, record
semantics, and reduction precision."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_gradients_close, fd_gradients, relative_error
from modwatch import tensor as T
from modwatch.errors import NumericError, ShapeError
from modwatch.tensor import Tensor


def conv1d_oracle(x, w, b, stride=1, padding="same"):
    """Naive float64 cross-correlation over (batch, time, channels)."""
    batch, time, cin = x.shape
    cout, _, width = w.shape
    if padding == "same":
        t_out = -(-time // stride)
        pad_total = max((t_out - 1) * stride + width - time, 0)
        pl = pad_total // 2
        xp = np.zeros((batch, time + pad_total, cin))
        xp[:, pl : pl + time, :] = x
    else:
        t_out = (time - width) // stride + 1
        xp = np.array(x, dtype=np.float64)
    out = np.zeros((batch, t_out, cout))
    for n in range(batch):
        for j in range(t_out):
            for o in range(cout):
                acc = 0.0
                for k in range(width):
                    for c in range(cin):
                        acc += xp[n, j * stride + k, c] * w[o, c, k]
                out[n, j, o] = acc + b[o]
    return out


def dense_oracle(x, w, b):
    return x.astype(np.float64) @ w.astype(np.float64).T + b.astype(np.float64)


class TestConv1dForward:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_matches_naive_oracle(self, rng, padding, stride, width):
        x = rng.standard_normal((2, 17, 4)).astype(np.float32)
        w = rng.standard_normal((3, 4, width)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        got = T.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
        want = conv1d_oracle(x, w, b, stride=stride, padding=padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_same_padding_output_length(self, rng):
        for time, stride in [(17, 1), (17, 2), (16, 2), (5, 4), (9, 3)]:
            x = Tensor(rng.standard_normal((1, time, 2)).astype(np.float32))
            w = Tensor(rng.standard_normal((2, 2, 3)).astype(np.float32))
            b = Tensor(np.zeros(2, np.float32))
            out = T.conv1d(x, w, b, stride=stride, padding="same")
            assert out.dims[1] == -(-time // stride)

    def test_derivative_kernel_on_ramp(self):
        # width-3 kernel (1, 0, -1) over a linear ramp: every interior output
        # is the constant -2 * slope under the cross-correlation convention
        ramp = np.arange(10, dtype=np.float32).reshape(1, 10, 1)
        w = np.array([[[1.0, 0.0, -1.0]]], dtype=np.float32)
        out = T.conv1d(Tensor(ramp), Tensor(w), Tensor(np.zeros(1, np.float32))).data
        np.testing.assert_array_equal(out[0, 1:-1, 0], np.full(8, -2.0, np.float32))

    def test_shape_errors(self, rng):
        x = Tensor(rng.standard_normal((1, 8, 3)).astype(np.float32))
        w_even = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
        w_badchan = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32))
        w_ok = Tensor(rng.standard_normal((2, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(2, np.float32))
        with pytest.raises(ShapeError):
            T.conv1d(x, w_even, b)
        with pytest.raises(ShapeError):
            T.conv1d(x, w_badchan, b)
        with pytest.raises(ShapeError):
            T.conv1d(x, w_ok, b, stride=0)
        with pytest.raises(ShapeError):
            T.conv1d(x, w_ok, b, padding="reflect")
        with pytest.raises(ShapeError):
            short = Tensor(rng.standard_normal((1, 2, 3)).astype(np.float32))
            T.conv1d(short, w_ok, b, padding="valid")

    @settings(max_examples=30, deadline=None)
    @given(
        time=st.integers(min_value=3, max_value=24),
        stride=st.integers(min_value=1, max_value=4),
        scale=st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    def test_linear_in_input_with_zero_bias(self, time, stride, scale):
        rng = np.random.default_rng(99)
        x = rng.standard_normal((1, time, 2)).astype(np.float32)
        w = Tensor(rng.standard_normal((2, 2, 3)).astype(np.float32))
        b = Tensor(np.zeros(2, np.float32))
        base = T.conv1d(Tensor(x), w, b, stride=stride).data
        scaled = T.conv1d(Tensor(np.float32(scale) * x), w, b, stride=stride).data
        np.testing.assert_allclose(scaled, np.float32(scale) * base, rtol=1e-4, atol=1e-4)


def conv1d_per_tap(x, w, b, stride=1, padding="same"):
    """The float32 per-tap loop conv1d used before its in-place form: np.pad,
    one strided (in, out) weight view per tap, and a fresh array per add."""
    time, width = x.shape[1], w.shape[2]
    if padding == "same":
        t_out = -(-time // stride)
        pad_total = max((t_out - 1) * stride + width - time, 0)
        pl = pad_total // 2
        xp = np.pad(x, ((0, 0), (pl, pad_total - pl), (0, 0)))
    else:
        t_out = (time - width) // stride + 1
        xp = x
    acc = None
    for k in range(width):
        term = xp[:, k : k + stride * t_out : stride, :] @ w[:, :, k].T
        acc = term if acc is None else acc + term
    return acc + b


class TestConv1dBits:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("width", [1, 3, 5])
    @pytest.mark.parametrize("dims", [(3, 29, 5, 7), (4, 64, 16, 16), (1, 48, 14, 4)])
    def test_forward_matches_per_tap_loop_bitwise(self, rng, padding, stride, width, dims):
        batch, time, cin, cout = dims
        x = rng.standard_normal((batch, time, cin)).astype(np.float32)
        w = rng.standard_normal((cout, cin, width)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        got = T.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
        want = conv1d_per_tap(x, w, b, stride=stride, padding=padding)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_padding_leaves_the_input_untouched(self, rng):
        x = rng.standard_normal((2, 9, 3)).astype(np.float32)
        keep = x.copy()
        w = Tensor(rng.standard_normal((4, 3, 5)).astype(np.float32))
        T.conv1d(Tensor(x), w, Tensor(np.zeros(4, np.float32)))
        assert x.tobytes() == keep.tobytes()


RELU_EDGES = np.array(
    [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 1e-40, -1e-40,
     np.finfo(np.float32).tiny, -np.finfo(np.float32).tiny, 3.5, -3.5],
    dtype=np.float32,
)


class TestReluBits:
    def _inputs(self, rng):
        noise = rng.standard_normal(200).astype(np.float32)
        return np.concatenate([RELU_EDGES, noise]).reshape(2, -1)

    def test_forward_matches_where_reference_bitwise(self, rng):
        a = self._inputs(rng)
        want = np.where(a > 0, a, np.float32(0))
        got = T.relu(Tensor(a)).data
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()  # NaN and -0.0 both give +0.0

    def test_backward_matches_saved_mask_reference_bitwise(self, rng):
        a = self._inputs(rng)
        g = np.concatenate([RELU_EDGES[::-1], rng.standard_normal(200).astype(np.float32)])
        g = g.reshape(a.shape)
        x = Tensor(a, requires_grad=True)
        with np.errstate(invalid="ignore"):  # 0 * inf and inf * False
            T.backward(T.tsum(T.mul(T.relu(x), Tensor(g))))
            want = g * (a > 0)
        assert x.grad.tobytes() == want.tobytes()


class TestDenseForward:
    def test_matches_oracle(self, rng):
        x = rng.standard_normal((5, 7)).astype(np.float32)
        w = rng.standard_normal((4, 7)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        got = T.dense(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, dense_oracle(x, w, b), rtol=1e-5, atol=1e-5)

    def test_identity_weights_pass_through(self, rng):
        x = rng.standard_normal((3, 6)).astype(np.float32)
        out = T.dense(Tensor(x), Tensor(np.eye(6, dtype=np.float32)), Tensor(np.zeros(6, np.float32)))
        np.testing.assert_array_equal(out.data, x)

    def test_shape_errors(self, rng):
        x = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        with pytest.raises(ShapeError):
            T.dense(x, Tensor(np.zeros((4, 5), np.float32)), Tensor(np.zeros(4, np.float32)))
        with pytest.raises(ShapeError):
            T.dense(x, Tensor(np.zeros((4, 6), np.float32)), Tensor(np.zeros(3, np.float32)))


class TestElementwiseAndShape:
    def test_relu_values_and_gradient_signs(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(-2, 2, size=100_000).astype(np.float32)
        keep = np.abs(v) > 1e-3
        x = Tensor(v, requires_grad=True)
        out = T.relu(x)
        np.testing.assert_array_equal(out.data, np.maximum(v, 0))
        T.backward(T.tsum(out))
        grad = x.grad[keep]
        np.testing.assert_array_equal(grad, (v[keep] > 0).astype(np.float32))

    def test_concat_and_split_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 5)).astype(np.float32), requires_grad=True)
        out = T.concat([a, b])
        assert out.dims == (2, 8)
        T.backward(T.tsum(T.mul(out, out)))
        np.testing.assert_allclose(a.grad, 2 * a.data, rtol=1e-6)
        np.testing.assert_allclose(b.grad, 2 * b.data, rtol=1e-6)

    def test_reshape_round_trip(self, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        t = Tensor(x)
        flat = T.flatten(t)
        assert flat.dims == (2, 12)
        back = T.reshape(flat, (2, 3, 4))
        np.testing.assert_array_equal(back.data, x)
        with pytest.raises(ShapeError):
            T.reshape(t, (5, 5))

    def test_elementwise_dims_must_match(self, rng):
        a = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
        for op in (T.add, T.sub, T.mul):
            with pytest.raises(ShapeError):
                op(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_add_commutes_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data, T.add(Tensor(b), Tensor(a)).data)


class TestReductions:
    def test_sum_accumulates_in_float64(self):
        # one million 0.1s: a float32 running sum drifts by ~O(1), the
        # 64-bit accumulation stays within float32 rounding of 1e5
        x = np.full(1_000_000, 0.1, dtype=np.float32)
        got = T.tsum(Tensor(x)).item()
        want = float(np.float32(x.astype(np.float64).sum()))
        assert got == want
        assert abs(got - 100_000.0) < 1.0

    def test_mean_and_axis_sum(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_allclose(T.mean(Tensor(x)).item(), x.astype(np.float64).mean(), rtol=1e-6)
        got = T.sum_axis(Tensor(x), axis=1).data
        np.testing.assert_allclose(got, x.astype(np.float64).sum(axis=1).astype(np.float32), rtol=1e-6)

    def test_mean_gradient_is_uniform(self, rng):
        x = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
        T.backward(T.mean(x))
        np.testing.assert_allclose(x.grad, np.full((4, 4), 1 / 16, np.float32), rtol=1e-6)


class TestBackwardSemantics:
    def test_square_sum_gradient_exact_on_integers(self):
        x = Tensor(np.array([[1.0, -2.0, 3.0], [0.0, 4.0, -5.0]], np.float32), requires_grad=True)
        T.backward(T.tsum(T.square(x)))
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([3.0], np.float32), requires_grad=True)
        y = T.add(x, x)
        T.backward(T.tsum(y))
        np.testing.assert_array_equal(x.grad, np.array([2.0], np.float32))

    def test_non_scalar_loss_raises(self, rng):
        x = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
        with pytest.raises(NumericError):
            T.backward(T.square(x))

    def test_record_consumed_twice_raises(self):
        x = Tensor(np.array([1.0], np.float32), requires_grad=True)
        loss = T.tsum(T.square(x))
        T.backward(loss)
        with pytest.raises(NumericError):
            T.backward(loss)

    def test_constant_graph_raises(self):
        c = Tensor(np.array([1.0], np.float32))
        with pytest.raises(NumericError):
            T.backward(c)

    def test_untouched_tensor_keeps_none_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
        unused = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
        T.backward(T.tsum(x))
        assert unused.grad is None


class TestGradientChecks:
    """Analytic float32 gradients vs central finite differences (h = 1e-3)
    of independent float64 oracles."""

    def test_conv1d_gradients(self, rng):
        for trial in range(20):
            stride = [1, 2][trial % 2]
            padding = ["same", "valid"][(trial // 2) % 2]
            x = rng.standard_normal((2, 9, 3))
            w = rng.standard_normal((2, 3, 3))
            b = rng.standard_normal(2)
            proj = rng.standard_normal(
                conv1d_oracle(x, w, b, stride=stride, padding=padding).shape
            )

            def oracle(xv, wv, bv):
                return float((conv1d_oracle(xv, wv, bv, stride=stride, padding=padding) * proj).sum())

            xt = Tensor(x.astype(np.float32), requires_grad=True)
            wt = Tensor(w.astype(np.float32), requires_grad=True)
            bt = Tensor(b.astype(np.float32), requires_grad=True)
            out = T.conv1d(xt, wt, bt, stride=stride, padding=padding)
            T.backward(T.tsum(T.mul(out, Tensor(proj.astype(np.float32)))))
            fd = fd_gradients(oracle, [x, w, b])
            for an, nu, label in [(xt.grad, fd[0], "x"), (wt.grad, fd[1], "w"), (bt.grad, fd[2], "b")]:
                assert_gradients_close(an, nu, label=f"conv1d/{label}")

    def test_dense_gradients(self, rng):
        for _ in range(20):
            x = rng.standard_normal((4, 6))
            w = rng.standard_normal((3, 6))
            b = rng.standard_normal(3)
            proj = rng.standard_normal((4, 3))

            def oracle(xv, wv, bv):
                return float((dense_oracle(xv, wv, bv) * proj).sum())

            xt = Tensor(x.astype(np.float32), requires_grad=True)
            wt = Tensor(w.astype(np.float32), requires_grad=True)
            bt = Tensor(b.astype(np.float32), requires_grad=True)
            T.backward(T.tsum(T.mul(T.dense(xt, wt, bt), Tensor(proj.astype(np.float32)))))
            fd = fd_gradients(oracle, [x, w, b])
            for an, nu, label in [(xt.grad, fd[0], "x"), (wt.grad, fd[1], "w"), (bt.grad, fd[2], "b")]:
                assert_gradients_close(an, nu, label=f"dense/{label}")

    def test_exp_and_reduction_gradients(self, rng):
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=(3, 4))
            proj = rng.standard_normal(3)

            def oracle(xv):
                return float((np.exp(xv).sum(axis=1) * proj).sum())

            xt = Tensor(x.astype(np.float32), requires_grad=True)
            out = T.sum_axis(T.exp(xt), axis=1)
            T.backward(T.tsum(T.mul(out, Tensor(proj.astype(np.float32)))))
            assert_gradients_close(xt.grad, fd_gradients(oracle, [x])[0], label="exp-sum")

    def test_composite_chain_gradient(self, rng):
        """conv -> relu -> flatten -> dense -> mean, checked end to end."""
        for trial in range(10):
            x = rng.standard_normal((2, 8, 2))
            w1 = rng.standard_normal((3, 2, 3)) * 0.7
            b1 = rng.standard_normal(3) * 0.2
            w2 = rng.standard_normal((2, 24)) * 0.5
            b2 = rng.standard_normal(2) * 0.2

            def oracle(xv, w1v, b1v, w2v, b2v):
                h = conv1d_oracle(xv, w1v, b1v)
                h = np.maximum(h, 0.0)
                h = h.reshape(2, -1)
                return float(dense_oracle(h, w2v, b2v).mean())

            # keep ReLU inputs away from the kink so the finite-difference
            # oracle stays smooth over +-h
            pre = conv1d_oracle(x, w1, b1)
            if np.min(np.abs(pre)) < 5e-3:
                continue

            tensors = [
                Tensor(a.astype(np.float32), requires_grad=True) for a in (x, w1, b1, w2, b2)
            ]
            xt, w1t, b1t, w2t, b2t = tensors
            h = T.relu(T.conv1d(xt, w1t, b1t))
            out = T.mean(T.dense(T.flatten(h), w2t, b2t))
            T.backward(out)
            fd = fd_gradients(oracle, [x, w1, b1, w2, b2])
            for tensor, nu, label in zip(tensors, fd, ["x", "w1", "b1", "w2", "b2"]):
                assert_gradients_close(tensor.grad, nu, label=f"chain/{label}")


class TestTensorBasics:
    def test_float32_storage_and_dims(self):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert t.data.dtype == np.float32
        assert t.dims == (2, 3)
        assert t.data.flags["C_CONTIGUOUS"]

    def test_item_requires_scalar(self, rng):
        with pytest.raises(ShapeError):
            Tensor(rng.standard_normal((2, 2)).astype(np.float32)).item()
