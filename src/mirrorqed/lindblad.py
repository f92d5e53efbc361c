"""Master-equation workloads: generators, time evolution, steady states.

The vectorization convention is C-order (row-major) flattening, for which
``vec(A rho B) = (A kron B^T) vec(rho)``.  Liouvillians for time evolution
are assembled sparse; they stay modest for the truncations used here but
their dense form would not.  Steady states never form the Liouvillian: they
come from H and the jump operators in d x d form (see ``steady_state``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import get_lapack_funcs, schur
from scipy.sparse.linalg import LinearOperator, eigs, expm_multiply

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
from .mcwf import effective_hamiltonian
from .model import EffectiveModel, ParameterError
from .results import EvolutionResult

HERMITICITY_TOL = 1e-12
TRACE_NULL_TOL = 1e-10
UNIQUENESS_RTOL = 1e-8
SHIFT_FRACTION = 0.01  # steady-state shift mu as a fraction of the total jump rate


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


def _checked_generator(H, jumps):
    """CSR H after the Hermiticity check, and the (CSR op, rate) pairs with rate > 0."""
    Hm = as_csr(H)
    scale = max(1.0, float(abs(Hm).max()))
    if float(abs(Hm - Hm.conj().T).max()) >= HERMITICITY_TOL * scale:
        raise NonHermitianError("Hamiltonian is not Hermitian")
    if any(rate < 0 for _, rate in jumps):
        raise ParameterError("jump rates must be non-negative")
    return Hm, [(as_csr(op), rate) for op, rate in jumps if rate > 0]


def build_liouvillian(H, jumps=()) -> sp.csr_matrix:
    """Generator L with vec(rho') = L vec(rho)."""
    Hm, jumps = _checked_generator(H, jumps)
    L = commutator_superop(Hm)
    for op, rate in jumps:
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


def steady_state(H, jumps=()) -> np.ndarray:
    """Unique steady state of H with (operator, rate) jumps, from d x d arrays only.

    With S(rho) = -i(Heff rho - rho Heff+) and J(rho) = sum_k rate_k J_k rho J_k+,
    rho is steady iff K rho = rho for K = (mu - S)^-1 (J + mu), mu > 0.  K is
    completely positive and preserves Tr((mu + sum_k rate_k J_k+ J_k) rho), so
    no eigenvalue exceeds 1 in modulus; a second one at 1 means the steady
    state is not unique.  In the complex Schur basis of Heff - i mu/2, mu - S
    is one triangular Sylvester solve (Bartels-Stewart, LAPACK trsyl), and
    ARPACK finds K's two leading eigenvalues from a fixed-seed start, so
    repeated calls agree bitwise.
    """
    Hm, jumps = _checked_generator(H, jumps)
    d = Hm.shape[0]
    # mu > 0 keeps mu - S invertible when Heff has real eigenvalues
    mu = SHIFT_FRACTION * sum(rate for _, rate in jumps) if jumps else 1.0
    Heff = effective_hamiltonian(Hm, jumps)
    T, Q = schur(Heff.toarray() - 0.5j * mu * np.eye(d), output="complex")
    schur_jumps = [math.sqrt(rate) * (Q.conj().T @ (op @ Q)) for op, rate in jumps]
    (trsyl,) = get_lapack_funcs(("trsyl",), (T,))

    def apply_K(x):
        x = x.reshape(d, d)
        y = mu * x + sum(J @ x @ J.conj().T for J in schur_jumps)
        # (mu - S)(X) = i (T X - X T+) in the Schur basis
        z, scale, _ = trsyl(T, T, -1j * y, tranb="C", isgn=-1)
        return z.reshape(-1) / scale

    K = LinearOperator((d * d, d * d), matvec=apply_K, dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(2 * d * d).view(complex)
    vals, vecs = eigs(K, k=2, v0=v0)
    first, second = np.argsort(np.abs(vals - 1.0))
    if abs(vals[second] - 1.0) <= UNIQUENESS_RTOL:
        raise NonUniqueSteadyStateError(
            f"jump map has a second eigenvalue {vals[second]:.12g} at 1"
        )
    rho = Q @ vecs[:, first].reshape(d, d) @ Q.conj().T
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)

    # bounds the largest entry of the vectorized generator
    scale = 2.0 * abs(Heff).max() + sum(r * abs(op).max() ** 2 for op, r in jumps)
    B = Heff @ rho
    lrho = -1j * (B - B.conj().T)
    lrho += sum(r * (op @ (op @ rho).conj().T) for op, r in jumps)
    resid = float(np.max(np.abs(lrho)))
    if resid > TRACE_NULL_TOL * scale:
        raise NonUniqueSteadyStateError(
            f"steady-state residual {resid:.3e} exceeds tolerance"
        )
    return rho
