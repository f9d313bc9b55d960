"""Adam optimiser over named parameter tensors (Kingma & Ba 2015).

The update runs in place: the moments and the parameters are overwritten,
and every parameter is walked in blocks of ``CHUNK`` values through two
work buffers, so all of one block's arithmetic stays in the core's cache
and no step allocates a temporary the size of a tensor.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import DTYPE, Tensor

# float32 values per block: 128 KiB per operand, so the block, its moments,
# its gradient and both work buffers fit in L2 together
CHUNK = 32768


@dataclass
class AdamState:
    """First/second moment accumulators keyed by parameter name.

    Moments are created lazily on the first step and always mirror the
    parameter dims exactly.  ``work`` holds the two block-sized buffers
    every step computes through.
    """

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    work: np.ndarray = field(
        default_factory=lambda: np.empty((2, CHUNK), DTYPE), repr=False, compare=False
    )


def adam_step(named_params: list[tuple[str, Tensor]], state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place.

    Parameters with ``grad is None`` (never touched by the recorded ops)
    receive an exact zero gradient.  Non-finite gradients raise rather
    than silently corrupting the moments: each tensor is checked whole
    before any of its values changes.

    Every element goes through the float32 operations of the textbook
    formula in its order, ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``, so the results are the bits
    of the unblocked expression.
    """
    state.step += 1
    t = state.step
    b1, b2 = DTYPE(state.beta1), DTYPE(state.beta2)
    one_b1, one_b2 = DTYPE(1) - b1, DTYPE(1) - b2
    lr = DTYPE(state.learning_rate)
    eps = DTYPE(state.eps)
    c1 = DTYPE(1.0 - state.beta1**t)
    c2 = DTYPE(1.0 - state.beta2**t)
    work_a, work_b = state.work
    for name, p in named_params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"adam: gradient dims {g.shape} vs parameter dims {p.data.shape} for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"adam: non-finite gradient for {name}")
        if not p.data.flags.c_contiguous:
            raise ShapeError(f"adam: parameter {name} is not contiguous, so it cannot be updated in place")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        # views of the contiguous arrays: writes through them land in place
        flat_p, flat_m, flat_v = p.data.reshape(-1), m.reshape(-1), v.reshape(-1)
        flat_g = g.reshape(-1)
        for lo in range(0, flat_p.size, CHUNK):
            pc, mc, vc = flat_p[lo : lo + CHUNK], flat_m[lo : lo + CHUNK], flat_v[lo : lo + CHUNK]
            gc = flat_g[lo : lo + CHUNK]
            a, b = work_a[: pc.size], work_b[: pc.size]
            mc *= b1
            np.multiply(one_b1, gc, out=a)
            mc += a
            vc *= b2
            np.multiply(gc, gc, out=a)
            np.multiply(one_b2, a, out=a)
            vc += a
            np.divide(mc, c1, out=a)  # m_hat
            np.multiply(lr, a, out=a)
            np.divide(vc, c2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += eps
            a /= b
            pc -= a
