"""Adam optimiser over one flat parameter array (Kingma & Ba 2015).

The update runs in place: the moments and the parameters are overwritten,
and the array is walked in blocks of ``CHUNK`` values through two work
buffers, so all of one block's arithmetic stays in the core's cache and no
step allocates a temporary the size of the model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import DTYPE

# float32 values per block: 128 KiB per operand, so the block, its moments,
# its gradient and both work buffers fit in L2 together
CHUNK = 32768

# the moment decay rates and the denominator's floor, as Kingma & Ba give them
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for ``size`` parameters, zero until
    the first step.  ``work`` holds the two block-sized buffers every step
    computes through."""

    size: int
    learning_rate: float
    step: int = 0
    m: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    work: np.ndarray = field(
        default_factory=lambda: np.empty((2, CHUNK), DTYPE), repr=False, compare=False
    )

    def __post_init__(self):
        self.m = np.zeros(self.size, DTYPE)
        self.v = np.zeros(self.size, DTYPE)


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """Apply one bias-corrected Adam update to the contiguous array ``p`` in
    place, with gradient ``g`` of the same dims.  A non-finite gradient
    raises before any value changes, rather than corrupting the moments.

    Every element goes through the float32 operations of the textbook
    formula in its order, ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``, so the results are the bits
    of the unblocked expression.
    """
    if g.shape != p.shape or p.size != state.size:
        raise ShapeError(f"adam: gradient dims {g.shape}, parameter dims {p.shape}, "
                         f"{state.size} moments")
    if not p.flags.c_contiguous:
        raise ShapeError("adam: parameters not contiguous, so they cannot be updated in place")
    # NaN propagates through min and max, so the two extremes settle it
    if g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
        raise NumericError("adam: non-finite gradient")
    state.step += 1
    t = state.step
    b1, b2 = DTYPE(BETA1), DTYPE(BETA2)
    one_b1, one_b2 = DTYPE(1) - b1, DTYPE(1) - b2
    lr = DTYPE(state.learning_rate)
    eps = DTYPE(EPS)
    c1 = DTYPE(1.0 - BETA1**t)
    c2 = DTYPE(1.0 - BETA2**t)
    work_a, work_b = state.work
    # views of the contiguous arrays: writes through them land in place
    flat_p, flat_g = p.reshape(-1), g.reshape(-1)
    for lo in range(0, flat_p.size, CHUNK):
        pc, mc, vc = flat_p[lo : lo + CHUNK], state.m[lo : lo + CHUNK], state.v[lo : lo + CHUNK]
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
