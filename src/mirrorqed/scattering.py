"""Coherent-pulse drives and input-output observables.

The incoming coherent pulse drives every retained mode through the shared
loss channel; the outgoing field is the input displaced by the radiated
collective mode, O(t) = E_in(t) * 1 + i sqrt(gamma) A.  The drive carries the
opposite sign so that, with this output convention, photon flux is conserved
(a transparent block transmits |E_in|^2 unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hilbert import CompositeSpace, csr_dot
from .lindblad import collective_mode_op, expectation
from .mcwf import column_vdot
from .model import EffectiveModel, ParameterError
from .results import EvolutionResult


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian coherent input: bandwidth W, center t0, mean photons n_ph."""

    W: float
    t0: float
    n_ph: float
    delta_in: float = 0.0  # carrier detuning from the atom (rotating frame)

    def __post_init__(self):
        if self.W <= 0:
            raise ParameterError("W must be positive")
        if self.n_ph < 0:
            raise ParameterError("n_ph must be non-negative")


def gaussian_envelope(spec: PulseSpec, t):
    """E_in(t), normalized so that the integral of |E_in|^2 is n_ph.

    A scalar t gives a complex, computed in Python floats around numpy's own
    exp: bitwise the value a 0-d array t gives, without the cost of 0-d
    arrays (the drive coefficient takes one per RK4 stage time).
    """
    scalar = isinstance(t, (int, float))
    t = float(t) if scalar else np.asarray(t, dtype=float)
    amp = (
        math.sqrt(spec.n_ph)
        * (spec.W**2 / (2.0 * math.pi)) ** 0.25
        * np.exp(-0.25 * spec.W**2 * (t - spec.t0) ** 2)
    )
    out = amp * np.exp(-1j * spec.delta_in * t)
    return out if out.ndim else complex(out)


def build_drive_term(model: EffectiveModel, spec: PulseSpec, space: CompositeSpace):
    """Drive coefficient and the collective raising operator.

    Returns the (coeff_fn, op) drive that ``build_liouvillian`` and
    ``mcwf_evolve`` take: H(t) += coeff(t) * op + h.c., with
    op = sum_nu a_nu^dagger.  The minus sign pairs the drive with the output
    convention of output_observables.
    """
    root_gamma = math.sqrt(model.gamma)

    def coeff(t: float) -> complex:
        return -root_gamma * gaussian_envelope(spec, t)

    return coeff, collective_mode_op(space).conj().T.tocsr()


def output_operator(space: CompositeSpace, gamma: float, E_in: complex) -> sp.csr_matrix:
    """O = E_in * 1 + i sqrt(gamma) A at one instant."""
    eye = sp.identity(space.dim, dtype=complex, format="csr")
    return E_in * eye + 1j * math.sqrt(gamma) * collective_mode_op(space)


def make_output_e_ops(space: CompositeSpace, model: EffectiveModel, spec: PulseSpec):
    """Callable observables I_out and G2 for the MCWF engine.

    I_out = <O+ O>, G2 = <O+ O+ O O>, evaluated on normalized states: a
    dim x B block gives B values (one per column), a vector one value.  The
    coherent input amplitude enters as a scalar displacement.
    """
    A = collective_mode_op(space)
    rg = math.sqrt(model.gamma)

    def apply_O(E: complex, psi: np.ndarray) -> np.ndarray:
        return E * psi + 1j * rg * csr_dot(A, psi)

    def i_out(t: float, psi: np.ndarray):
        Op = apply_O(gaussian_envelope(spec, t), psi)
        return column_vdot(Op, Op).real

    def g2(t: float, psi: np.ndarray):
        E = gaussian_envelope(spec, t)
        OOp = apply_O(E, apply_O(E, psi))
        return column_vdot(OOp, OOp).real

    return {"I_out": i_out, "G2": g2}


def output_observables(result: EvolutionResult, model: EffectiveModel, space: CompositeSpace, spec: PulseSpec):
    """(I_out(t), G2(t)) from a density-matrix evolution with retained states."""
    if result.states is None:
        raise ParameterError("evolution result does not retain states")
    I_out = np.empty(len(result.t))
    G2 = np.empty(len(result.t))
    for i, (t, rho) in enumerate(zip(result.t, result.states)):
        O = output_operator(space, model.gamma, gaussian_envelope(spec, t))
        I_out[i] = expectation(O.conj().T @ O, rho).real
        O2 = O @ O
        G2[i] = expectation(O2.conj().T @ O2, rho).real
    return I_out, G2


def flux_balance(
    t: np.ndarray,
    I_out: np.ndarray,
    residual_excitation: float,
    n_ph: float,
) -> dict:
    """Photon-number audit: input = integrated output + what is still inside."""
    emitted = float(np.trapezoid(I_out, t))
    mismatch = n_ph - emitted - residual_excitation
    return {
        "n_ph": n_ph,
        "integrated_output": emitted,
        "residual_excitation": residual_excitation,
        "mismatch": float(mismatch),
    }
