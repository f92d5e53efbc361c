"""Master-equation workloads: generators, time evolution, steady states.

The Lindblad generator acts on the d x d density matrix itself, through the
sparse effective Hamiltonian and jump operators (``Liouvillian``); the
d^2 x d^2 superoperator is never formed, neither for time evolution nor for
steady states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import get_lapack_funcs, schur
from scipy.sparse.linalg import LinearOperator, eigs

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


def _require_hermitian(M, what: str) -> None:
    scale = max(1.0, float(abs(M).max()))
    if float(abs(M - M.conj().T).max()) >= HERMITICITY_TOL * scale:
        raise NonHermitianError(f"{what} is not Hermitian")


@dataclass(frozen=True)
class Liouvillian:
    """Lindblad generator of H and its jumps, applied to d x d density matrices.

    Heff = H - (i/2) sum_k rate_k J_k+ J_k; jumps are the (CSR op, rate > 0)
    pairs.  For Hermitian rho, L(rho) = -i(B - B+) + sum_k rate_k J_k rho J_k+
    with B = Heff rho, since rho Heff+ = (Heff rho)+.
    """

    Heff: sp.csr_matrix
    jumps: tuple

    @property
    def nnz(self) -> int:
        """Stored entries of Heff and of the jump operators."""
        return self.Heff.nnz + sum(op.nnz for op, _ in self.jumps)

    def apply(self, rho: np.ndarray, drive: np.ndarray | None = None) -> np.ndarray:
        """L(rho) for Hermitian rho.

        drive, if given, is V rho for a Hermitian term V added to H (a
        time-dependent drive at the current time); it folds into B.
        """
        B = self.Heff @ rho
        if drive is not None:
            B += drive
        out = -1j * (B - B.conj().T)
        for op, rate in self.jumps:
            # J rho J+ = J (J rho)+ for Hermitian rho
            out += rate * (op @ (op @ rho).conj().T)
        return out


def build_liouvillian(H, jumps=()) -> Liouvillian:
    """Generator of H with (operator, rate) jumps, after the Hermiticity and rate checks."""
    Hm = as_csr(H)
    _require_hermitian(Hm, "Hamiltonian")
    if any(rate < 0 for _, rate in jumps):
        raise ParameterError("jump rates must be non-negative")
    kept = tuple((as_csr(op), rate) for op, rate in jumps if rate > 0)
    return Liouvillian(effective_hamiltonian(Hm, kept), kept)


def expectation(op, rho: np.ndarray) -> complex:
    """Tr(op rho) as the sum of op[i, j] rho[j, i] over the stored entries of op."""
    op = as_csr(op)
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    return complex(op.data @ rho[op.indices, rows])


def integrate_me(
    L: Liouvillian,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    td_terms=(),
    e_ops=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    keep_states: bool = True,
) -> EvolutionResult:
    """Integrate rho' = L(rho) with RK45 on the d x d density matrix.

    td_terms: (coeff_fn, op) pairs adding c(t) op + conj(c(t)) op+ to H, the
    convention of ``mcwf_evolve`` and the output of ``build_drive_term``.
    e_ops: name -> operator, recorded as Re Tr(op rho).  rho0 must be
    Hermitian.  Trace is never renormalized: its drift is reported as the
    trace_residual series.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    _require_hermitian(rho0, "rho0")
    d = rho0.shape[0]
    td = [(fn, as_csr(op), as_csr(op).conj().T.tocsr()) for fn, op in td_terms]

    def rhs(t, y):
        rho = y.reshape(d, d)
        drive = None
        for fn, V, Vd in td:
            c = fn(t)
            if c != 0.0:
                term = c * (V @ rho) + np.conj(c) * (Vd @ rho)
                drive = term if drive is None else drive + term
        return L.apply(rho, drive).reshape(-1)

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

    observables = {
        name: np.array([np.real(expectation(op, r)) for r in states])
        for name, op in (e_ops or {}).items()
    }
    observables["trace_residual"] = np.array(
        [abs(np.trace(r) - 1.0) for r in states]
    )
    return EvolutionResult(
        t=t_grid,
        observables=observables,
        meta={"rtol": rtol, "atol": atol},
        states=states if keep_states else None,
    )


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
    L = build_liouvillian(H, jumps)
    Heff, jumps = L.Heff, L.jumps
    d = Heff.shape[0]
    # mu > 0 keeps mu - S invertible when Heff has real eigenvalues
    mu = SHIFT_FRACTION * sum(rate for _, rate in jumps) if jumps else 1.0
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
    resid = float(np.max(np.abs(L.apply(rho))))
    if resid > TRACE_NULL_TOL * scale:
        raise NonUniqueSteadyStateError(
            f"steady-state residual {resid:.3e} exceeds tolerance"
        )
    return rho
