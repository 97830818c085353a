"""Classical simulation of register-encoded SPH kernel summation.

An SPH approximation sum_k f_k dx_k W(x - r_k, h) is rewritten as the real
part of an inner product of two unit-norm register states and read out
either exactly, from simulated measurement shots, or through an idealized
phase-estimation quantizer. Submodules:

kernels        -- Gaussian / Wendland kernels, derivatives, peak constants
discretization -- 1-D particle layouts with ghost particles
quantum_state  -- dense state vectors and operators
sph_encoding   -- the |a>, |W> construction, the reconstruction identity
                  and the batched direct sums the experiments read out
swap_test      -- overlap readout (exact / sampled / phase-quantized)
harness        -- end-to-end experiments as closed forms in Re <a|W>,
                  returned as float columns; RMS convergence, CSV output
cli            -- `qsph run` and `qsph sweep`
"""
from .discretization import (
    DiscretisationError,
    Domain,
    ParticleDiscretisation,
    from_edges,
    sample_points,
    uniform_discretise,
)
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
from .quantum_state import Operator, StateVector, inner_product, normalize
from .sph_encoding import (
    EncodedPair,
    FunctionSamples,
    classical_sph_sum,
    encode,
    reconstruct,
    register_length,
    sph_sums,
)
from .swap_test import (
    EstimationResult,
    SwapTestState,
    build_rotation_operator,
    build_swap_state,
    estimate_exact,
    estimate_phase,
    estimate_sampled,
    rotation_eigenpairs,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Curve",
    "DiscretisationError",
    "Domain",
    "EncodedPair",
    "EstimationResult",
    "ExperimentConfig",
    "FunctionSamples",
    "KernelFamily",
    "KernelSpec",
    "Operator",
    "ParticleDiscretisation",
    "StateVector",
    "SwapTestState",
    "build_rotation_operator",
    "build_swap_state",
    "classical_sph_sum",
    "decompose_error",
    "encode",
    "estimate_exact",
    "estimate_phase",
    "estimate_sampled",
    "evaluate",
    "from_edges",
    "inner_product",
    "normalize",
    "reconstruct",
    "register_length",
    "rms_error",
    "rotation_eigenpairs",
    "run_convergence_sweep",
    "run_experiment",
    "sample_points",
    "scaling_constant",
    "sph_sums",
    "target_function",
    "uniform_discretise",
]
