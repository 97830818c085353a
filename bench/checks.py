"""Checks of the program's CSV output against the independent reference.

Each check raises ``CheckFailed`` naming the first property that does not
hold. The tolerances are rounding bounds or statistical bounds fixed here;
``test_checks.py`` shows each check rejecting a slightly corrupted output.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

import reference as ref
from workloads import DOMAIN, GHOSTS, Invocation

CURVE_HEADER = ("x", "f_exact", "f_approx", "abs_error")
SWEEP_HEADER = ("m", "kernel", "order", "rms")
# The trapezoid estimate of ||a|| sits 6e-9 from the closed form on [-1, 1];
# the observed integral-norm ratio must match the closed form this closely.
TRAPEZOID_RTOL = 1e-7
# Sampled readouts: a shot count recovered from f_approx must be a whole
# number to within this many ulps of `shots`.
COUNT_ULPS = 64
# Standardized-residual limits, in standard deviations. A correct stream
# exceeds 7 sigma with probability about 3e-12 per point.
Z_LIMIT = 7.0


class CheckFailed(AssertionError):
    """An output disagrees with the reference or breaks a method property."""


@dataclass(frozen=True)
class Curve:
    """Reference values for one (kernel, order, m, points) configuration."""

    xs: np.ndarray
    truth: np.ndarray
    sums: np.ndarray
    c: float
    n_register: int
    norm_a: float
    norm_integral: float
    norm_closed_form: float

    def norm(self, mode: str) -> float:
        return self.norm_a if mode == "exact" else self.norm_integral

    def rounding(self, mode: str) -> float:
        """Rounding bound on one reconstructed value: 2 log2(N) eps c N ||a||."""
        scale = self.c * self.n_register * self.norm(mode)
        return 2.0 * math.log2(self.n_register) * ref.EPS * scale

    @property
    def rho(self) -> np.ndarray:
        """Re <a|W> per query point."""
        return self.sums / (self.c * self.n_register * self.norm_a)


class Reference:
    """Reference curves, computed once per configuration and kept."""

    def __init__(self) -> None:
        self._curves: dict[tuple, Curve] = {}

    def curve(self, kernel: str, order: int, m: int, points: int) -> Curve:
        key = (kernel, order, m, points)
        if key not in self._curves:
            a, b = DOMAIN
            n = 2 ** m
            h = 4.0 / n
            pos, dx = ref.particles(a, b, n, GHOSTS)
            coeff = ref.target(pos, 0) * dx
            xs = np.linspace(a, b, points)
            sums = ref.direct_sum(xs, kernel, order, h, pos, coeff)
            self._curves[key] = Curve(
                xs, ref.target(xs, order), sums, ref.kernel_max(kernel, order, h),
                ref.register_length(pos.size), ref.a_norm(coeff),
                ref.integral_norm_trapezoid(a, b, n), ref.integral_norm(a, b, n))
        return self._curves[key]


def _read(path: str, header: tuple) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise CheckFailed(f"header {rows[0] if rows else None!r}, expected {header!r}")
    return rows[1:]


def check(inv: Invocation, path: str, reference: Reference) -> None:
    """Check one invocation's output file."""
    if inv.command == "sweep":
        check_sweep(inv, _read(path, SWEEP_HEADER), reference)
    else:
        data = np.array(_read(path, CURVE_HEADER), dtype=float).reshape(-1, 4)
        check_curve(inv, data, reference)


def check_curve(inv: Invocation, data: np.ndarray, reference: Reference) -> None:
    """Columns x, f_exact, f_approx, abs_error of a `qsph run` CSV."""
    if data.shape != (inv.points, 4):
        raise CheckFailed(f"{data.shape[0]} rows, expected {inv.points}")
    x, f_exact, f_approx, abs_error = data.T
    cur = reference.curve(inv.kernel, inv.order, inv.qubits, inv.points)
    if np.max(np.abs(x - cur.xs)) > 4 * ref.EPS:
        raise CheckFailed("query points are not the evenly spaced grid over the domain")
    if np.max(np.abs(f_exact - cur.truth)) > 16 * ref.EPS * np.max(np.abs(cur.truth)):
        raise CheckFailed("f_exact differs from the analytic target")
    if not np.array_equal(abs_error, np.abs(f_exact - f_approx)):
        raise CheckFailed("abs_error is not |f_exact - f_approx|")
    {"exact": check_exact, "sampled": check_sampled, "phase": check_phase}[
        inv.estimator](inv, f_approx, cur)


def check_exact(inv: Invocation, f_approx: np.ndarray, cur: Curve) -> None:
    """Exact readout: the direct sum, rescaled by ||a||_integral / ||a|| under
    the integral norm, within the rounding bound."""
    ratio = cur.norm(inv.norm) / cur.norm_a
    worst = np.max(np.abs(f_approx - ratio * cur.sums))
    if worst > cur.rounding(inv.norm):
        raise CheckFailed(f"exact value off the direct sum by {worst:.3e}, "
                          f"rounding bound {cur.rounding(inv.norm):.3e}")
    if inv.norm == "integral":
        observed = float(np.dot(f_approx, cur.sums) / np.dot(cur.sums, cur.sums))
        closed = cur.norm_closed_form / cur.norm_a
        if abs(observed / closed - 1.0) > TRAPEZOID_RTOL:
            raise CheckFailed(f"integral-norm ratio {observed!r} differs from the "
                              f"closed-form ||a|| estimate {closed!r}")


def check_sampled(inv: Invocation, f_approx: np.ndarray, cur: Curve) -> None:
    """Sampled readout: each value is c N ||a|| (2 k / shots - 1) for a whole
    count k, and the counts are binomial(shots, (1 + rho) / 2)."""
    shots = inv.shots
    estimate = f_approx / (cur.c * cur.n_register * cur.norm(inv.norm))
    counts = (estimate + 1.0) / 2.0 * shots
    k = np.rint(counts)
    off = np.max(np.abs(counts - k))
    if off > COUNT_ULPS * ref.EPS * shots or k.min() < 0 or k.max() > shots:
        raise CheckFailed(f"a sampled value is not a whole shot count (off by {off:.3e})")
    p0 = ref.swap_p0(cur.rho)
    z = (k - shots * p0) / np.sqrt(shots * p0 * (1.0 - p0))
    n = z.size
    if np.max(np.abs(z)) > Z_LIMIT:
        raise CheckFailed(f"standardized shot residual {np.max(np.abs(z)):.2f} "
                          f"exceeds {Z_LIMIT}")
    if abs(np.mean(z)) > Z_LIMIT / math.sqrt(n):
        raise CheckFailed(f"mean shot residual {np.mean(z):.4f} is biased")
    if abs(np.mean(z * z) - 1.0) > Z_LIMIT * math.sqrt(2.0 / n):
        raise CheckFailed(f"shot residual variance {np.mean(z * z):.4f} is not binomial")


def check_phase(inv: Invocation, f_approx: np.ndarray, cur: Curve) -> None:
    """Phase readout: each angle lies on the grid k pi / 2^n and within
    pi / 2^{n+1} of the true theta."""
    n_pe = inv.pe_qubits
    scale = cur.c * cur.n_register * cur.norm(inv.norm)
    theta = ref.swap_theta(f_approx / scale)
    k = np.rint(theta / ref.phase_spacing(n_pe))
    on_grid = scale * (2.0 * np.sin(k * ref.phase_spacing(n_pe)) ** 2 - 1.0)
    worst = np.max(np.abs(f_approx - on_grid))
    if worst > cur.rounding(inv.norm):
        raise CheckFailed(f"a phase value is off the angle grid by {worst:.3e}")
    miss = np.max(np.abs(k * ref.phase_spacing(n_pe) - ref.swap_theta(cur.rho)))
    if miss > ref.phase_bound(n_pe) + 1e-12:
        raise CheckFailed(f"a quantized angle is {miss:.3e} from theta, "
                          f"bound {ref.phase_bound(n_pe):.3e}")


def check_sweep(inv: Invocation, rows: list[list[str]], reference: Reference) -> None:
    """Columns m, kernel, order, rms of a `qsph sweep` CSV."""
    ms = list(inv.m_values)
    if [r[:3] for r in rows] != [[str(m), inv.kernel, str(inv.order)] for m in ms]:
        raise CheckFailed(f"sweep rows {[r[:3] for r in rows]} do not list m = {ms}")
    rms = [float(r[3]) for r in rows]
    if inv.order == 0 and ms[0] <= 4 and ms[-1] >= 8:
        falling = rms[ms.index(4):ms.index(8) + 1]
        if any(b >= a for a, b in zip(falling, falling[1:])):
            raise CheckFailed(f"order-0 RMS does not fall strictly over m = 4..8: {falling}")
    for m, got in zip(ms, rms):
        cur = reference.curve(inv.kernel, inv.order, m, inv.points)
        want = math.sqrt(float(np.mean((cur.truth - cur.sums) ** 2)))
        if abs(got - want) > cur.rounding("exact") + 4 * ref.EPS * want:
            raise CheckFailed(f"m={m}: RMS {got!r}, reference {want!r}")
