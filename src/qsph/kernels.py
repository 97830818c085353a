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
    """Kernel family (a KernelFamily or its name), derivative order (0, 1
    or 2) and smoothing length."""

    family: KernelFamily
    derivative_order: int
    h: float

    def __post_init__(self):
        # a name becomes its member, which evaluate and scaling_constant test by identity
        object.__setattr__(self, "family", KernelFamily(self.family))
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


def _gaussian(order: int, r, h: float):
    q2 = (r / h) ** 2
    e = np.exp(-q2)
    if order == 0:
        return e / (_SQRT_PI * h)
    if order == 1:
        # r (-2 e) rounds as (-2 r) e, but stays 0, not NaN, where -2 r overflows
        return r * (-2.0 * e) / (_SQRT_PI * h ** 3)
    # e is 0 past q^2 = 1600, so clamping there changes no value, and an
    # overflowed q^2 gives 0, not inf * 0; 4 q^2 - 2 rounds as 2 (2 q^2 - 1)
    return (4.0 * np.minimum(q2, 1600.0) - 2.0) * e / (_SQRT_PI * h ** 3)


def _wendland(order: int, r, h: float):
    q = np.abs(r) / h
    inside = q <= 2.0
    # evaluate the polynomial piece everywhere, then mask outside the support;
    # powers of t are products, an array ** 4 or ** 3 costs a libm pow per value
    t = 1.0 - 0.5 * q
    t2 = t * t
    if order == 0:
        val = 0.75 / h * (t2 * t2) * (2.0 * q + 1.0)
    elif order == 1:
        val = -3.75 / h ** 2 * q * (t2 * t) * np.sign(r)
    else:
        val = -3.75 / h ** 3 * t2 * (1.0 - 2.0 * q)
    return np.where(inside, val, 0.0)


@np.errstate(over="ignore")  # as a decorator it costs a third of a `with` block per call
def evaluate(spec: KernelSpec, r):
    """Kernel value (or derivative) at signed offset r.

    Accepts a scalar or an ndarray; the return matches the input shape.
    Total over all real r: the Wendland family returns exact zeros (+0.0)
    outside its support, and odd-order values vanish at r = 0. Far outside
    the support, q and its powers may overflow to inf; the kernel's value
    there is 0 (exp(-inf), or masked), so the overflow is not reported.
    """
    r = np.asarray(r, dtype=float)
    if spec.family is KernelFamily.GAUSSIAN:
        out = _gaussian(spec.derivative_order, r, spec.h)
    else:
        out = _wendland(spec.derivative_order, r, spec.h)
    return out if out.ndim else float(out)


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
