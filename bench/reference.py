"""Independent reference for the benchmark's output checks.

Everything here is written from the formulas the package documents, with
its own particle layout and summation; nothing imports ``qsph``. The checks
in ``checks.py`` compare the program's CSV output against these values.
"""
from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
SQRT_PI = math.sqrt(math.pi)
# elements per block of the (points x particles) direct sum; keeps the
# reference's own memory below the program's, so peak RSS stays the program's
BLOCK_ELEMENTS = 1 << 16


def target(x, order: int):
    """f(x) = 1/(1 + 25 x^2) and its first two derivatives."""
    x = np.asarray(x, dtype=float)
    d = 1.0 + 25.0 * x * x
    if order == 0:
        return 1.0 / d
    if order == 1:
        return -50.0 * x / (d * d)
    if order == 2:
        return 50.0 * (75.0 * x * x - 1.0) / (d * d * d)
    raise ValueError(f"order must be 0, 1 or 2, got {order}")


def kernel(family: str, order: int, r, h: float):
    """Gaussian or Wendland C2 kernel (or its r-derivative) at offset r."""
    r = np.asarray(r, dtype=float)
    q = r / h
    if family == "gaussian":
        e = np.exp(-q * q) / (SQRT_PI * h)
        if order == 0:
            return e
        if order == 1:
            return -2.0 * q * e / h
        return 2.0 * (2.0 * q * q - 1.0) * e / (h * h)
    if family != "wendland":
        raise ValueError(f"unknown kernel family {family!r}")
    aq = np.abs(q)
    t = np.where(aq <= 2.0, 1.0 - 0.5 * aq, 0.0)
    t2 = t * t
    if order == 0:
        return 0.75 / h * t2 * t2 * (2.0 * aq + 1.0)
    if order == 1:
        return -3.75 / (h * h) * q * t2 * t
    return -3.75 / (h * h * h) * t2 * (1.0 - 2.0 * aq)


def kernel_max(family: str, order: int, h: float) -> float:
    """c = max over r of |W|, in closed form."""
    if family == "gaussian":
        return (1.0 / (SQRT_PI * h), math.sqrt(2.0 / math.e) / (SQRT_PI * h * h),
                2.0 / (SQRT_PI * h ** 3))[order]
    return (0.75 / h, 405.0 / (512.0 * h * h), 3.75 / h ** 3)[order]


def particles(a: float, b: float, n: int, ghosts: int):
    """Centres of n equal cells on [a, b], plus `ghosts` cells beyond each end."""
    dx = (b - a) / n
    return a + (np.arange(-ghosts, n + ghosts) + 0.5) * dx, dx


def register_length(count: int) -> int:
    n = 1
    while n < count:
        n *= 2
    return n


def direct_sum(xs, family: str, order: int, h: float, pos, coeff):
    """sum_k coeff_k W(x - pos_k) per query point, in blocks of query points."""
    xs = np.asarray(xs, dtype=float)
    sums = np.empty(xs.size)
    step = max(1, BLOCK_ELEMENTS // pos.size)
    for i in range(0, xs.size, step):
        terms = coeff * kernel(family, order, xs[i:i + step, None] - pos, h)
        sums[i:i + step] = terms.sum(axis=1)
    return sums


def a_norm(coeff) -> float:
    """||a|| for a = [f_k dx_k]."""
    return math.sqrt(math.fsum(c * c for c in coeff))


def integral_f2(a: float, b: float) -> float:
    """Closed-form integral of f^2 over [a, b]; with u = 5x the antiderivative
    is (u / (2 (1 + u^2)) + atan(u) / 2) / 5."""
    def anti(x):
        u = 5.0 * x
        return (u / (2.0 * (1.0 + u * u)) + 0.5 * math.atan(u)) / 5.0
    return anti(b) - anti(a)


def integral_norm(a: float, b: float, n: int) -> float:
    """||a|| ~= sqrt((b - a) / n * integral f^2), from the closed form."""
    return math.sqrt((b - a) / n * integral_f2(a, b))


def integral_norm_trapezoid(a: float, b: float, n: int, nodes: int = 1001) -> float:
    """The same estimate with the composite trapezoid rule the package
    documents (1001 nodes); the per-point checks need the norm the program
    used to within rounding, the closed form checks the rule itself."""
    xs = np.linspace(a, b, nodes)
    y = target(xs, 0) ** 2
    integral = float(np.sum(np.diff(xs) * (y[:-1] + y[1:]))) / 2.0
    return math.sqrt((b - a) / n * integral)


def swap_p0(rho):
    """Probability of ancilla |0> in the swap test: (1 + rho) / 2."""
    return (1.0 + np.asarray(rho, dtype=float)) / 2.0


def swap_theta(rho):
    """theta in [0, pi/2] with sin^2 theta = (1 + rho) / 2."""
    rho = np.clip(np.asarray(rho, dtype=float), -1.0, 1.0)
    return np.arctan2(np.sqrt(1.0 + rho), np.sqrt(1.0 - rho))


def phase_spacing(n_pe: int) -> float:
    """Grid spacing pi / 2^n of an n-qubit angle register."""
    return math.pi / 2 ** n_pe


def phase_bound(n_pe: int) -> float:
    """Worst-case quantizer error pi / 2^{n+1}."""
    return math.pi / 2 ** (n_pe + 1)
