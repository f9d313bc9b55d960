"""Minimal float32 tensor library with reverse-mode differentiation.

Provides exactly the operations the waveform models need: 1-D convolution,
dense affine maps, ReLU, reshape/flatten, concatenation, elementwise
arithmetic, exp, and global/axis reductions.  Values are stored as 32-bit
floats; explicit reductions accumulate in 64-bit before rounding back.

The operation graph is recorded implicitly: each Tensor produced by an op
keeps the Function context that created it, and ``backward(loss)`` walks
that record once in reverse topological order.  A record can only be
consumed once; calling backward twice on the same scalar raises.  An op
whose inputs are all constants (no ``requires_grad``, no recorded parent)
records nothing, so forward-only callers pass constant parameters
(``ModelParameters.frozen``) and keep no intermediate alive.

Usage::

    x = Tensor(np.zeros((4, 8), np.float32))
    w = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    loss = mean(square(dense(x, w, b)))
    backward(loss)          # w.grad, b.grad now populated
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float32


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_ctx", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._ctx: Function | None = None
        self._consumed = False

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of dims {self.dims}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims}, requires_grad={self.requires_grad})"


class Function:
    """One recorded operation: forward result plus how to push gradients back."""

    def __init__(self, *parents: Tensor):
        self.parents = parents

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad: np.ndarray):  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def apply(cls, *tensors: Tensor, **kwargs) -> Tensor:
        ctx = cls(*tensors)
        out = Tensor(ctx.forward(*(t.data for t in tensors), **kwargs))
        if any(t.requires_grad or t._ctx is not None for t in tensors):
            out.requires_grad = True
            out._ctx = ctx
        return out


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(tensor) to every recorded tensor's ``grad``.

    Gradients accumulate additively when a tensor feeds several ops.  The
    record is released as it is walked, so a second call raises.
    """
    if loss.data.size != 1:
        raise NumericError(f"backward requires a scalar loss, got dims {loss.dims}")
    if loss._consumed:
        raise NumericError("operation record already consumed by a previous backward")
    if loss._ctx is None and not loss.requires_grad:
        raise NumericError("loss does not depend on any recorded operation")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node._ctx is not None:
            for p in node._ctx.parents:
                if id(p) not in seen:
                    stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        ctx = node._ctx
        if ctx is None or node.grad is None:
            continue
        grads = ctx.backward(node.grad)
        if not isinstance(grads, tuple):
            grads = (grads,)
        for parent, g in zip(ctx.parents, grads):
            if g is None:
                continue
            if parent.requires_grad or parent._ctx is not None:
                g = np.asarray(g, dtype=DTYPE)
                parent.grad = g if parent.grad is None else parent.grad + g
        node._ctx = None
        if not node.requires_grad:
            node.grad = None
    loss._consumed = True


def _same_dims(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: dims {a.shape} vs {b.shape}")


class _Add(Function):
    def forward(self, a, b):
        _same_dims(a, b, "add")
        return a + b

    def backward(self, g):
        return g, g


class _Sub(Function):
    def forward(self, a, b):
        _same_dims(a, b, "sub")
        return a - b

    def backward(self, g):
        return g, -g


class _Mul(Function):
    def forward(self, a, b):
        _same_dims(a, b, "mul")
        self.a, self.b = a, b
        return a * b

    def backward(self, g):
        return g * self.b, g * self.a


class _ScalarMul(Function):
    def forward(self, a, factor=1.0):
        self.factor = DTYPE(factor)
        return a * self.factor

    def backward(self, g):
        return (g * self.factor,)


class _ScalarAdd(Function):
    def forward(self, a, offset=0.0):
        return a + DTYPE(offset)

    def backward(self, g):
        return (g,)


class _Exp(Function):
    def forward(self, a):
        self.out = np.exp(a)
        return self.out

    def backward(self, g):
        return (g * self.out,)


class _Relu(Function):
    def forward(self, a):
        # fmax maps NaN and -0.0 to +0.0, the bits of np.where(a > 0, a, 0);
        # np.maximum would let NaN through
        self.out = np.fmax(a, DTYPE(0))
        return self.out

    def backward(self, g):
        return (g * (self.out > 0),)


class _Reshape(Function):
    def forward(self, a, dims=()):
        self.src = a.shape
        if int(np.prod(dims)) != a.size:
            raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(dims)}")
        return a.reshape(dims)

    def backward(self, g):
        return (g.reshape(self.src),)


class _Concat(Function):
    def forward(self, *arrays, axis=1):
        self.axis = axis
        if len({a.ndim for a in arrays}) != 1:
            raise ShapeError("concat: rank mismatch")
        self.widths = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, g):
        cuts = np.cumsum(self.widths[:-1])
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, cuts, axis=self.axis))


class _Sum(Function):
    def forward(self, a):
        self.src = a.shape
        return np.asarray(a.sum(dtype=np.float64), dtype=DTYPE)

    def backward(self, g):
        return (np.full(self.src, g, dtype=DTYPE),)


class _Mean(Function):
    def forward(self, a):
        self.src = a.shape
        self.n = a.size
        if self.n == 0:
            raise ShapeError("mean of an empty tensor")
        return np.asarray(a.sum(dtype=np.float64) / self.n, dtype=DTYPE)

    def backward(self, g):
        return (np.full(self.src, g / DTYPE(self.n), dtype=DTYPE),)


class _SumAxis(Function):
    def forward(self, a, axis=1):
        self.src = a.shape
        self.axis = axis
        return a.sum(axis=axis, dtype=np.float64).astype(DTYPE)

    def backward(self, g):
        return (np.ascontiguousarray(np.broadcast_to(np.expand_dims(g, self.axis), self.src)),)


class _Dense(Function):
    """Affine map x @ w.T + b with x (batch, in), w (out, in), b (out,)."""

    def forward(self, x, w, b):
        if x.ndim != 2 or w.ndim != 2:
            raise ShapeError(f"dense: need 2-d input and weights, got {x.shape}, {w.shape}")
        if x.shape[1] != w.shape[1]:
            raise ShapeError(f"dense: input width {x.shape[1]} vs weight fan-in {w.shape[1]}")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"dense: bias dims {b.shape} vs fan-out {w.shape[0]}")
        self.x, self.w = x, w
        return x @ w.T + b

    def backward(self, g):
        dx = g @ self.w
        dw = g.T @ self.x
        db = g.sum(axis=0, dtype=np.float64).astype(DTYPE)
        return dx, dw, db


class _Conv1d(Function):
    """1-D convolution over (batch, time, channels) with kernels (out, in, width).

    Padding "same" keeps time' = ceil(time / stride); "valid" requires
    time >= width.  Kernel width must be odd so "same" pads symmetrically
    at stride 1.
    """

    def forward(self, x, w, b, stride=1, padding="same"):
        if x.ndim != 3 or w.ndim != 3:
            raise ShapeError(f"conv1d: need 3-d input and kernels, got {x.shape}, {w.shape}")
        batch, time, cin = x.shape
        cout, cin_w, width = w.shape
        if cin != cin_w:
            raise ShapeError(f"conv1d: input channels {cin} vs kernel fan-in {cin_w}")
        if b.shape != (cout,):
            raise ShapeError(f"conv1d: bias dims {b.shape} vs kernel count {cout}")
        if width < 1 or width % 2 == 0:
            raise ShapeError(f"conv1d: kernel width must be odd and >= 1, got {width}")
        if not isinstance(stride, int) or stride < 1:
            raise ShapeError(f"conv1d: stride must be a positive int, got {stride!r}")
        if padding == "same":
            t_out = -(-time // stride)
            pad_total = max((t_out - 1) * stride + width - time, 0)
            pl = pad_total // 2
            pr = pad_total - pl
        elif padding == "valid":
            if time < width:
                raise ShapeError(f"conv1d: time {time} shorter than kernel width {width}")
            t_out = (time - width) // stride + 1
            pl = pr = 0
        else:
            raise ShapeError(f"conv1d: padding must be 'same' or 'valid', got {padding!r}")

        if pl or pr:
            xp = np.empty((batch, pl + time + pr, cin), dtype=x.dtype)
            xp[:, :pl] = 0
            xp[:, pl + time :] = 0
            xp[:, pl : pl + time] = x
        else:
            xp = x
        # (width, in, out): each tap's operand is contiguous, ready for BLAS
        taps = np.ascontiguousarray(w.transpose(2, 1, 0))
        acc = xp[:, 0 : stride * t_out : stride, :] @ taps[0]
        for k in range(1, width):
            acc += xp[:, k : k + stride * t_out : stride, :] @ taps[k]
        acc += b
        self.xp, self.w = xp, w
        self.stride, self.pl, self.time, self.t_out = stride, pl, time, t_out
        return acc

    def backward(self, g):
        w, xp, stride, t_out = self.w, self.xp, self.stride, self.t_out
        cout, cin, width = w.shape
        db = g.sum(axis=(0, 1), dtype=np.float64).astype(DTYPE)
        dw = np.empty_like(w)
        g2 = g.reshape(-1, cout)
        dxp = np.zeros_like(xp)
        for k in range(width):
            seg = xp[:, k : k + stride * t_out : stride, :]
            dw[:, :, k] = g2.T @ seg.reshape(-1, cin)
            dxp[:, k : k + stride * t_out : stride, :] += g @ w[:, :, k]
        dx = np.ascontiguousarray(dxp[:, self.pl : self.pl + self.time, :])
        return dx, dw, db


def add(a: Tensor, b: Tensor) -> Tensor:
    return _Add.apply(a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _Sub.apply(a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _Mul.apply(a, b)


def square(a: Tensor) -> Tensor:
    return _Mul.apply(a, a)


def scalar_mul(a: Tensor, factor: float) -> Tensor:
    return _ScalarMul.apply(a, factor=factor)


def scalar_add(a: Tensor, offset: float) -> Tensor:
    return _ScalarAdd.apply(a, offset=offset)


def exp(a: Tensor) -> Tensor:
    return _Exp.apply(a)


def relu(a: Tensor) -> Tensor:
    return _Relu.apply(a)


def reshape(a: Tensor, dims: tuple[int, ...]) -> Tensor:
    return _Reshape.apply(a, dims=tuple(dims))


def flatten(a: Tensor) -> Tensor:
    """Collapse everything after the leading (batch) axis."""
    if a.data.ndim < 2:
        raise ShapeError(f"flatten: need at least 2 axes, got dims {a.dims}")
    return reshape(a, (a.dims[0], int(np.prod(a.dims[1:]))))


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    return _Concat.apply(*parts, axis=axis)


def tsum(a: Tensor) -> Tensor:
    return _Sum.apply(a)


def mean(a: Tensor) -> Tensor:
    return _Mean.apply(a)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    return _SumAxis.apply(a, axis=axis)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return _Dense.apply(x, w, b)


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: str = "same") -> Tensor:
    return _Conv1d.apply(x, w, b, stride=stride, padding=padding)


@dataclass
class LayerWeights:
    """One learnable layer: kind is 'conv1d' (kernels (out, in, width)) or
    'dense' (kernels (out, in)).  Bias always has dims (out,)."""

    kind: str
    kernels: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.kind not in ("conv1d", "dense"):
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        want = 3 if self.kind == "conv1d" else 2
        if self.kernels.data.ndim != want:
            raise ShapeError(f"{self.kind} kernels need {want} axes, got dims {self.kernels.dims}")
        if self.kind == "conv1d":
            width = self.kernels.dims[2]
            if width < 1 or width % 2 == 0:
                raise ShapeError(f"conv1d kernel width must be odd and >= 1, got {width}")
        if self.bias.dims != (self.kernels.dims[0],):
            raise ShapeError(f"bias dims {self.bias.dims} vs fan-out {self.kernels.dims[0]}")

    def apply_to(self, x: Tensor, activation: bool = True) -> Tensor:
        out = (
            conv1d(x, self.kernels, self.bias)
            if self.kind == "conv1d"
            else dense(x, self.kernels, self.bias)
        )
        return relu(out) if activation else out
