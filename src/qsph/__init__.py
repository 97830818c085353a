"""Classical simulation of register-encoded SPH kernel summation.

An SPH approximation sum_k f_k dx_k W(x - r_k, h) is the real part of an
inner product of two unit-norm register states, scaled back by c N ||a||,
and is read out either exactly, from simulated measurement shots, or
through an idealized phase-estimation quantizer. A run computes Re <a|W>
from the direct sums and never builds the registers. Run-path submodules:

kernels        -- Gaussian / Wendland kernels, derivatives, peak constants
sph_encoding   -- the batched direct sums, ||a|| and the register length
harness        -- the uniform 1-D particle layout with ghost particles;
                  end-to-end experiments as closed forms in Re <a|W>,
                  returned as float columns; RMS convergence, CSV output
cli            -- `qsph run` and `qsph sweep`

The dense reference the run path is tested against is imported only on
request, never from here:

quantum_state  -- dense unit state vectors and inner products
registers      -- the |a>, |W> states and the reconstruction identity
swap_test      -- the combined swap-test state and the rotation operator R
"""
from .harness import (
    ConfigError,
    Curve,
    ExperimentConfig,
    decompose_error,
    rms_error,
    run_convergence_sweep,
    run_experiment,
    target_function,
)
from .kernels import KernelFamily, KernelSpec, evaluate, scaling_constant
from .sph_encoding import register_length

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Curve",
    "ExperimentConfig",
    "KernelFamily",
    "KernelSpec",
    "decompose_error",
    "evaluate",
    "register_length",
    "rms_error",
    "run_convergence_sweep",
    "run_experiment",
    "scaling_constant",
    "target_function",
]
