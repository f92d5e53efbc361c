"""Master-equation workloads: generators, time evolution, steady states.

The vectorization convention is C-order (row-major) flattening, for which
``vec(A rho B) = (A kron B^T) vec(rho)``.  Liouvillians are assembled sparse;
they stay modest for the truncations used here but their dense form would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from .hilbert import (
    CompositeSpace,
    QuantumOperator,
    as_csr,
    destroy,
    number_op,
    sigma_minus,
    sigma_plus,
    sigma_x,
)
from .model import EffectiveModel, ParameterError
from .results import EvolutionResult

HERMITICITY_TOL = 1e-12
TRACE_NULL_TOL = 1e-10
UNIQUENESS_RTOL = 1e-8
DENSE_SOLVE_CAP = 300  # above this dim, steady states fall back to integration
SVD_CHECK_CAP = 4096  # largest superoperator side for the dense uniqueness check


class NonHermitianError(ValueError):
    """Hamiltonian fails the Hermiticity tolerance."""


class NonUniqueSteadyStateError(RuntimeError):
    """The generator has a degenerate null space (e.g. no drive and no decay)."""


class StepSizeUnderflowError(RuntimeError):
    """The adaptive integrator could not meet its tolerance."""


@dataclass(frozen=True)
class DriveDissipationSpec:
    """Drive and dissipation rates attached to a model.

    jump_mode selects the block-loss channel: "collective" applies the loss
    to the sum of all retained modes (the waveguide output channel), "single"
    to the resonant mode only (the bipartite atom + mode-0 picture).
    """

    Omega_D: float = 0.0
    kappa: float = 0.0
    kappa_phi: float = 0.0
    gamma: float = 0.0
    jump_mode: str = "collective"

    def __post_init__(self):
        for name in ("kappa", "kappa_phi", "gamma"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")
        if self.jump_mode not in ("collective", "single"):
            raise ParameterError(f"unknown jump_mode {self.jump_mode!r}")


def space_for_model(
    model: EffectiveModel, n_max: int, max_excitations: int | None = None
) -> CompositeSpace:
    return CompositeSpace(model.n_modes, n_max, max_excitations)


def atom_op(space: CompositeSpace, local: np.ndarray) -> sp.csr_matrix:
    return space.embed(local, 0)


def mode_op(space: CompositeSpace, local: np.ndarray, mode: int) -> sp.csr_matrix:
    return space.embed(local, space.mode_factor(mode))


def collective_mode_op(space: CompositeSpace) -> sp.csr_matrix:
    """A = sum_nu a_nu, the operator coupling block A to the output channel."""
    a = destroy(space.n_max + 1)
    out = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for m in range(space.n_modes):
        out += mode_op(space, a, m)
    return out


def total_excitation_op(space: CompositeSpace) -> sp.csr_matrix:
    out = atom_op(space, np.diag([0.0, 1.0]).astype(complex))
    n = number_op(space.n_max + 1)
    for m in range(space.n_modes):
        out += mode_op(space, n, m)
    return out


def build_hamiltonian(
    model: EffectiveModel, drive: DriveDissipationSpec, space: CompositeSpace
) -> QuantumOperator:
    """System Hamiltonian: atom + retained modes + couplings + drive.

    In the rotating frame the atom term vanishes and mode nu carries the
    detuning nu*pi*v/L; the lab frame keeps the absolute frequencies.
    """
    if space.n_modes != model.n_modes:
        raise ParameterError(
            f"space has {space.n_modes} modes, model retains {model.n_modes}"
        )
    adag = destroy(space.n_max + 1).T
    sm = atom_op(space, sigma_minus())
    H = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    if model.frame == "lab":
        H += model.params.omega0 * atom_op(space, np.diag([0.0, 1.0]).astype(complex))
        freqs = model.Omega
    else:
        freqs = model.detunings()
    n_local = number_op(space.n_max + 1)
    for m, (freq, g) in enumerate(zip(freqs, model.g_nu)):
        if freq != 0.0:
            H += freq * mode_op(space, n_local, m)
        adag_sm = mode_op(space, adag, m) @ sm
        H += g * (adag_sm + adag_sm.conj().T)
    if drive.Omega_D != 0.0:
        H += 0.5 * drive.Omega_D * atom_op(space, sigma_x())
    return QuantumOperator(space, H)


def build_jump_ops(
    model: EffectiveModel, drive: DriveDissipationSpec, space: CompositeSpace
) -> list:
    """(operator, rate) pairs for the block loss and any atomic channels."""
    jumps = []
    if drive.gamma > 0 and space.n_modes > 0:
        if drive.jump_mode == "collective":
            op = collective_mode_op(space)
        else:
            op = mode_op(space, destroy(space.n_max + 1), model.mode_index(0))
        jumps.append((op, drive.gamma))
    if drive.kappa > 0:
        jumps.append((atom_op(space, sigma_minus()), drive.kappa))
    if drive.kappa_phi > 0:
        jumps.append((atom_op(space, sigma_plus() @ sigma_minus()), drive.kappa_phi))
    return jumps


def commutator_superop(V) -> sp.csr_matrix:
    """Superoperator for -i[V, .] under C-order vectorization."""
    V = as_csr(V)
    d = V.shape[0]
    eye = sp.identity(d, dtype=complex, format="csr")
    return (-1j * (sp.kron(V, eye) - sp.kron(eye, V.T))).tocsr()


def dissipator_superop(J, rate: float = 1.0) -> sp.csr_matrix:
    """Superoperator for rate * (J rho J+ - {J+J, rho}/2)."""
    J = as_csr(J)
    d = J.shape[0]
    eye = sp.identity(d, dtype=complex, format="csr")
    JdJ = (J.conj().T @ J).tocsr()
    out = sp.kron(J, J.conj()) - 0.5 * sp.kron(JdJ, eye) - 0.5 * sp.kron(eye, JdJ.T)
    return (rate * out).tocsr()


def build_liouvillian(H, jumps=()) -> sp.csr_matrix:
    """Generator L with vec(rho') = L vec(rho)."""
    Hm = as_csr(H)
    scale = max(1.0, float(abs(Hm).max()))
    if float(abs(Hm - Hm.conj().T).max()) >= HERMITICITY_TOL * scale:
        raise NonHermitianError("Hamiltonian is not Hermitian")
    L = commutator_superop(Hm)
    for op, rate in jumps:
        if rate < 0:
            raise ParameterError("jump rates must be non-negative")
        if rate > 0:
            L = L + dissipator_superop(op, rate)
    return L.tocsr()


def trace_preservation_residual(L: sp.spmatrix) -> float:
    """Max violation of vec(I)^T L = 0 (the generator-level trace check)."""
    d = int(round(math.isqrt(L.shape[0])))
    vec_id = np.zeros(d * d, dtype=complex)
    vec_id[:: d + 1] = 1.0
    return float(np.max(np.abs(vec_id @ L)))


def expectation(op, rho: np.ndarray) -> complex:
    """Tr(op rho) as the sum of op[i, j] rho[j, i] over the stored entries of op."""
    op = as_csr(op)
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    return complex(op.data @ rho[op.indices, rows])


def integrate_me(
    L,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    td_terms=(),
    e_ops=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    keep_states: bool = True,
    method: str = "rk45",
) -> EvolutionResult:
    """Integrate vec(rho)' = L vec(rho) + sum_k c_k(t) L_k vec(rho).

    td_terms are (coeff_fn, superop) pairs with complex-valued coefficients;
    a Hamiltonian drive c(t) V + h.c. contributes two such pairs.  Trace is
    never renormalized: its drift is reported as the trace_residual series.
    method "expm" is exact stepping for time-independent generators.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    L = as_csr(L)
    d = int(round(math.isqrt(L.shape[0])))
    rho0 = np.asarray(rho0, dtype=complex)
    td = [(fn, as_csr(sop)) for fn, sop in td_terms]

    if method == "expm":
        if td:
            raise ParameterError("expm stepping requires a time-independent generator")
        states = _propagate_expm(L, rho0, t_grid)
    elif method == "rk45":
        def rhs(t, y):
            out = L @ y
            for fn, sop in td:
                c = fn(t)
                if c != 0.0:
                    out = out + c * (sop @ y)
            return out

        sol = solve_ivp(
            rhs,
            (t_grid[0], t_grid[-1]),
            rho0.reshape(-1),
            t_eval=t_grid,
            method="RK45",
            rtol=rtol,
            atol=atol,
        )
        if not sol.success:
            raise StepSizeUnderflowError(sol.message)
        states = [sol.y[:, i].reshape(d, d) for i in range(sol.y.shape[1])]
    else:
        raise ParameterError(f"unknown method {method!r}")

    observables = {}
    if e_ops:
        for name, op in e_ops.items():
            if callable(op):
                observables[name] = np.array([op(t, r) for t, r in zip(t_grid, states)])
            else:
                observables[name] = np.array(
                    [np.real(expectation(op, r)) for r in states]
                )
    observables["trace_residual"] = np.array(
        [abs(np.trace(r) - 1.0) for r in states]
    )
    return EvolutionResult(
        t=t_grid,
        observables=observables,
        meta={"method": method, "rtol": rtol, "atol": atol},
        states=states if keep_states else None,
    )


def _propagate_expm(L: sp.csr_matrix, rho0: np.ndarray, t_grid: np.ndarray) -> list:
    d = rho0.shape[0]
    states = [rho0.copy()]
    y = rho0.reshape(-1)
    for h in np.diff(t_grid):
        y = expm_multiply(L * h, y)
        states.append(y.reshape(d, d))
    return states


def steady_state(
    L,
    dense_cap: int = DENSE_SOLVE_CAP,
    check_unique: bool = True,
    residual_tol: float = TRACE_NULL_TOL,
) -> np.ndarray:
    """Unit-trace null vector of the generator.

    Solved directly (trace-row replacement in the sparse LU) up to
    ``dense_cap`` Hilbert dimension; above it, by long-time integration from
    the maximally mixed state.  Uniqueness of the zero eigenvalue is verified
    by dense SVD when the superoperator is small enough to afford it.
    """
    L = as_csr(L)
    n = L.shape[0]
    d = int(round(math.isqrt(n)))
    scale = float(abs(L).max()) or 1.0

    if check_unique and n <= SVD_CHECK_CAP:
        svals = np.linalg.svd(L.toarray(), compute_uv=False)
        if svals[-2] <= UNIQUENESS_RTOL * scale:
            raise NonUniqueSteadyStateError(
                f"second-smallest singular value {svals[-2]:.3e} below "
                f"{UNIQUENESS_RTOL:.0e} x scale {scale:.3e}"
            )

    if d <= dense_cap:
        M = L.tolil(copy=True)
        trace_row = np.zeros(n, dtype=complex)
        trace_row[:: d + 1] = 1.0
        M[0] = trace_row
        rhs = np.zeros(n, dtype=complex)
        rhs[0] = 1.0
        x = sp.linalg.spsolve(M.tocsc(), rhs)
        rho = x.reshape(d, d)
    else:
        rho = _steady_by_integration(L, d, residual_tol * scale)

    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    resid = float(np.max(np.abs(L @ rho.reshape(-1))))
    if resid > residual_tol * scale:
        raise NonUniqueSteadyStateError(
            f"steady-state residual {resid:.3e} exceeds tolerance"
        )
    return rho


def _steady_by_integration(L: sp.csr_matrix, d: int, abs_tol: float) -> np.ndarray:
    y = (np.eye(d, dtype=complex) / d).reshape(-1)
    rate = float(abs(L).max()) or 1.0
    span = 10.0 / rate * d  # crude mixing-time guess, doubled until converged
    for _ in range(60):
        sol = solve_ivp(
            lambda t, v: L @ v, (0.0, span), y, method="RK45", rtol=1e-10, atol=1e-12
        )
        if not sol.success:
            raise StepSizeUnderflowError(sol.message)
        y = sol.y[:, -1]
        if float(np.max(np.abs(L @ y))) < abs_tol:
            return y.reshape(d, d)
        span *= 2.0
    raise NonUniqueSteadyStateError("long-time integration did not converge")
