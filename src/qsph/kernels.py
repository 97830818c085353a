"""SPH smoothing kernels and their first two spatial derivatives.

Two families are provided, both parametrised by the smoothing length h and
written in terms of q = |r| / h:

Gaussian:
    W(r, h)  = exp(-q^2) / (sqrt(pi) h)

Wendland (C2, compact support q <= 2):
    W(r, h)  = (3 / 4h) (1 - q/2)^4 (2q + 1)    for 0 <= q <= 2, else 0

Derivatives are taken with respect to the signed offset r (not q), so the
first derivatives are odd functions of r:

    Gaussian:  W'  = -2 r exp(-q^2) / (sqrt(pi) h^3)
               W'' = 2 (2 q^2 - 1) exp(-q^2) / (sqrt(pi) h^3)
    Wendland:  W'  = -(15 / 4h^2) q (1 - q/2)^3 sign(r)
               W'' = -(15 / 4h^3) (1 - q/2)^2 (1 - 2q)

Both Wendland derivatives vanish at q = 2, so the compact support is
approached continuously. Each (family, order) pair has a closed-form
maximum absolute value, the scaling constant c used by the register
encoding; see ``scaling_constant``.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
DERIVATIVE_ORDERS = (0, 1, 2)


class KernelFamily(enum.Enum):
    GAUSSIAN = "gaussian"
    WENDLAND = "wendland"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, derivative order (0, 1 or 2) and smoothing length."""

    family: KernelFamily
    derivative_order: int
    h: float

    def __post_init__(self):
        if self.derivative_order not in DERIVATIVE_ORDERS:
            raise ValueError(f"derivative_order must be 0, 1 or 2, got {self.derivative_order}")
        if not self.h > 0.0:
            raise ValueError(f"smoothing length must be positive, got {self.h}")

    @property
    def support_radius(self) -> float:
        """Radius beyond which the kernel is (numerically) zero."""
        if self.family is KernelFamily.WENDLAND:
            return 2.0 * self.h
        return 8.0 * self.h  # exp(-64) is far below double precision


# The kernels write into out, one ufunc at a time, in the order of the
# closed forms above, so each value rounds as the written-out expression
# does. A second array holds the other factor of the final product.


def _gaussian(order: int, r: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    q2 = np.square(np.divide(r, h, out=out), out=out)  # (r / h) ** 2
    if order == 0:
        np.exp(np.negative(q2, out=out), out=out)
        return np.divide(out, _SQRT_PI * h, out=out)
    e = np.empty_like(out)
    np.exp(np.negative(q2, out=e), out=e)
    if order == 1:  # -2 r e / (sqrt(pi) h^3)
        np.multiply(-2.0, r, out=out)
    else:  # 2 (2 q^2 - 1) e / (sqrt(pi) h^3)
        np.multiply(2.0, np.subtract(np.multiply(2.0, q2, out=out), 1.0, out=out), out=out)
    return np.divide(np.multiply(out, e, out=out), _SQRT_PI * h ** 3, out=out)


def _wendland(order: int, r: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    q = np.divide(np.abs(r, out=out), h, out=out)
    outside = np.logical_not(np.less_equal(q, 2.0))  # NaN q is outside too
    # evaluate the polynomial piece everywhere, then zero it outside the
    # support; powers of t = 1 - q/2 are products, an array ** 4 or ** 3
    # costs a libm pow per value
    t = np.empty_like(out)
    np.subtract(1.0, np.multiply(0.5, q, out=t), out=t)
    if order == 0:  # (0.75 / h) (t^2 t^2) times (2 q + 1)
        np.multiply(0.75 / h, np.square(np.square(t, out=t), out=t), out=t)
        np.add(np.multiply(2.0, q, out=out), 1.0, out=out)
    elif order == 1:  # (-3.75 / h^2) q (t^2 t) times sign(r); q recomputed
        np.multiply(np.square(t, out=out), t, out=out)
        np.multiply(-3.75 / h ** 2, np.divide(np.abs(r, out=t), h, out=t), out=t)
        np.multiply(t, out, out=out)
        np.sign(r, out=t)
    else:  # (-3.75 / h^3) t^2 times (1 - 2 q)
        np.multiply(-3.75 / h ** 3, np.square(t, out=t), out=t)
        np.subtract(1.0, np.multiply(2.0, q, out=out), out=out)
    np.multiply(t, out, out=out)
    np.copyto(out, 0.0, where=outside)
    return out


def evaluate(spec: KernelSpec, r, out=None):
    """Kernel value (or derivative) at signed offset r.

    Accepts a scalar or an ndarray; the return matches the input shape.
    Total over all real r: the Wendland family returns exact zeros outside
    its support, and odd-order values vanish at r = 0.

    With ``out``, a float64 array of r's shape that shares no memory with r,
    the values are written into it and ``out`` is returned. Both calls run
    the same code, so the values are the same bit for bit.
    """
    r = np.asarray(r, dtype=float)
    kernel = _gaussian if spec.family is KernelFamily.GAUSSIAN else _wendland
    if out is None:
        values = kernel(spec.derivative_order, r, spec.h, np.empty_like(r))
        return values if values.ndim else float(values)
    if out.dtype != np.float64 or out.shape != r.shape or np.may_share_memory(out, r):
        raise ValueError("out must be a float64 array of r's shape sharing no memory with r")
    return kernel(spec.derivative_order, r, spec.h, out)


def divides_by_normal_powers(spec: KernelSpec) -> bool:
    """Whether ``evaluate`` and ``scaling_constant`` can divide by powers of h.

    They divide by h^k for k = 1 .. order + 1, and the Gaussian derivatives
    by h^3 (W' = -2 r e^{-q^2} / (sqrt(pi) h^3)). Each power must be a
    normal double: at 0 the values become inf or NaN, a subnormal keeps too
    few bits, and a power beyond the doubles makes c = max |W| zero (or
    overflows). c, the largest of their quotients, must be finite as well.
    """
    h = spec.h
    top = spec.derivative_order + 1
    if spec.family is KernelFamily.GAUSSIAN and spec.derivative_order:
        top = 3
    try:
        if not all(sys.float_info.min <= h ** k < math.inf for k in range(1, top + 1)):
            return False
    except OverflowError:  # a float ** beyond the doubles raises
        return False
    return 0.0 < scaling_constant(spec) < math.inf


def scaling_constant(spec: KernelSpec) -> float:
    """Maximum of |W| over r for this family and derivative order.

    Closed forms (h the smoothing length):

    ============  =======================  =================
    family        order                    c = max |W|
    ============  =======================  =================
    Gaussian      0                        1 / (sqrt(pi) h)
    Gaussian      1 (at q = 1/sqrt(2))     sqrt(2) e^{-1/2} / (sqrt(pi) h^2)
    Gaussian      2 (at q = 0)             2 / (sqrt(pi) h^3)
    Wendland      0                        3 / (4 h)
    Wendland      1 (at q = 1/2)           405 / (512 h^2)
    Wendland      2 (at q = 0)             15 / (4 h^3)
    ============  =======================  =================

    The constants are hard-coded; a property test cross-checks them
    against dense grid maxima of ``evaluate``.
    """
    h = spec.h
    if spec.family is KernelFamily.GAUSSIAN:
        if spec.derivative_order == 0:
            return 1.0 / (_SQRT_PI * h)
        if spec.derivative_order == 1:
            return math.sqrt(2.0) * math.exp(-0.5) / (_SQRT_PI * h * h)
        return 2.0 / (_SQRT_PI * h ** 3)
    if spec.derivative_order == 0:
        return 0.75 / h
    if spec.derivative_order == 1:
        return 405.0 / 512.0 / (h * h)
    return 3.75 / h ** 3
