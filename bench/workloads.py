"""The benchmark's workloads: each is a fixed round of `qsph run` / `qsph sweep`
invocations, one round per pass.

Only the Philox base seeds of the sampled invocations come from the
benchmark seed, so the work done in a pass, and its cost, is the same for
every seed. The domain, ghost count and boundary mode are passed explicitly
so the reference in ``reference.py`` never depends on the program's
defaults.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

DOMAIN = (-1.0, 1.0)
GHOSTS = 4


@dataclass(frozen=True)
class Invocation:
    """One `qsph run` (m_max None) or `qsph sweep` (m from qubits to m_max)."""

    kernel: str
    order: int
    qubits: int
    points: int
    m_max: int | None = None
    norm: str = "exact"
    estimator: str = "exact"
    shots: int = 10_000
    seed: int = 0
    pe_qubits: int = 8

    @property
    def command(self) -> str:
        return "run" if self.m_max is None else "sweep"

    @property
    def m_values(self) -> range:
        return range(self.qubits, (self.m_max or self.qubits) + 1)

    @property
    def query_points(self) -> int:
        return self.points * len(self.m_values)

    def argv(self, out_path: str) -> list[str]:
        argv = [self.command, "--kernel", self.kernel, "--order", str(self.order),
                "--points", str(self.points),
                "--domain", repr(DOMAIN[0]), repr(DOMAIN[1]),
                "--boundary-particles", str(GHOSTS), "--boundary", "analytic",
                "--norm", self.norm, "--estimator", self.estimator,
                "--shots", str(self.shots), "--seed", str(self.seed),
                "--pe-qubits", str(self.pe_qubits), "--out", out_path]
        if self.m_max is None:
            return argv + ["--qubits", str(self.qubits)]
        return argv + ["--m-min", str(self.qubits), "--m-max", str(self.m_max)]


def _philox_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 32)


def dense_register(rng: random.Random) -> list[Invocation]:
    """m = 14 at 300 points: every estimator, both norms, both kernels.

    Each encoded query point builds |a> and |W> over 2^15 slots (the 8
    ghosts push the register past 2^14); the one-m sweep adds the sweep
    writer at the same size.
    """
    m, p = 14, 300
    return [
        Invocation("gaussian", 0, m, p),
        Invocation("wendland", 1, m, p, norm="integral"),
        Invocation("gaussian", 2, m, p, estimator="sampled", seed=_philox_seed(rng)),
        Invocation("wendland", 0, m, p, norm="integral", estimator="phase"),
        Invocation("gaussian", 0, m, p, m_max=m),
    ]


def convergence_sweep(rng: random.Random) -> list[Invocation]:
    """The paper's convergence study: both kernels, orders 0-2, m = 4..14,
    exact estimator and exact norm, which skip the register encoding.

    Two m = 4 curves read out through the sampled and phase estimators
    keep every layer in the pass, at about 5% of its time.
    """
    sweeps = [Invocation(k, o, 4, 300, m_max=14)
              for k in ("gaussian", "wendland") for o in (0, 1, 2)]
    return sweeps + [
        Invocation("gaussian", 1, 4, 300, norm="integral", estimator="sampled",
                   seed=_philox_seed(rng)),
        Invocation("wendland", 2, 4, 300, estimator="phase", pe_qubits=12),
    ]


def shot_readout(rng: random.Random) -> list[Invocation]:
    """m = 9 with 2000 query points: 10^5 shots per point, a 20-qubit angle
    register, then the exact curve and a two-m sweep at the same size."""
    m, p = 9, 2000
    return [
        Invocation("gaussian", 0, m, p, estimator="sampled", shots=100_000,
                   seed=_philox_seed(rng)),
        Invocation("wendland", 1, m, p, norm="integral", estimator="phase", pe_qubits=20),
        Invocation("wendland", 0, m, p),
        Invocation("gaussian", 2, m - 1, p, m_max=m),
    ]


WORKLOADS = {
    "dense-register": dense_register,
    "convergence-sweep": convergence_sweep,
    "shot-readout": shot_readout,
}
