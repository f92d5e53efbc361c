"""Simulation toolkit for an atom in front of a mirror with delayed feedback.

An effective multimode-cavity model with Markovian loss is cross-checked
against two exact single-excitation references: a delay differential
equation for the atomic amplitude and a discretized-waveguide chain.
Lindblad and quantum-trajectory engines drive the multi-excitation
scattering and steady-state experiments.
"""

__version__ = "0.1.0"

from .model import (
    EffectiveModel,
    PhysicalParams,
    build_effective_model,
    params_from_dimensionless,
    snap_block_length,
)
from .dde import (
    AmplitudeSeries,
    analytic_series,
    fit_decay_rate,
    markovian_rate,
    purcell_rate,
    solve_delay_ode,
)
from .hilbert import CompositeSpace
from .results import EvolutionResult
from .lindblad import (
    DriveDissipationSpec,
    build_hamiltonian,
    build_jump_ops,
    build_liouvillian,
    integrate_me,
    steady_state,
)
from .mcwf import mcwf_evolve
from .scattering import PulseSpec, build_drive_term, flux_balance, gaussian_envelope
from .chain import ChainSpec, block_transform, calibrate_chain, evolve_sector

__all__ = [
    "__version__",
    "PhysicalParams",
    "EffectiveModel",
    "params_from_dimensionless",
    "snap_block_length",
    "build_effective_model",
    "AmplitudeSeries",
    "solve_delay_ode",
    "analytic_series",
    "markovian_rate",
    "purcell_rate",
    "fit_decay_rate",
    "CompositeSpace",
    "EvolutionResult",
    "DriveDissipationSpec",
    "build_hamiltonian",
    "build_jump_ops",
    "build_liouvillian",
    "integrate_me",
    "steady_state",
    "mcwf_evolve",
    "PulseSpec",
    "gaussian_envelope",
    "build_drive_term",
    "flux_balance",
    "ChainSpec",
    "calibrate_chain",
    "evolve_sector",
    "block_transform",
]
