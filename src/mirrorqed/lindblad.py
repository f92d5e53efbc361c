"""Master-equation workloads: generators, time evolution, steady states.

The Lindblad generator acts on the d x d density matrix itself, through the
sparse effective Hamiltonian and jump operators (``Liouvillian``); the
d^2 x d^2 superoperator is never formed, neither for time evolution nor for
steady states.  A coherent drive is one ``_Drive``, which holds c(t), V and
V+ and the floor below which it is left out.  The generator applies
Heff(t) x as one sparse product per term: on Heff alone (fused), or on H,
each jump and its adjoint, with the drive riding on the loss channel it
enters by (factored).  Every sparse product on a dense operand is
``hilbert.csr_dot``, scipy's kernel without the dispatch of ``@``.

Importing this module loads only numpy and ``scipy.sparse``; each solver-only
scipy name is imported inside the function that uses it, and ``solve_ivp``
stays a module attribute so that a caller can wrap or patch it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .hilbert import CompositeSpace, as_csr, csr_dot, sigma_x
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
    """Drive and block-loss rates attached to a model.

    gamma applies the loss to the sum of all retained modes, the waveguide
    output channel.
    """

    Omega_D: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ParameterError("gamma must be non-negative")


def space_for_model(
    model: EffectiveModel, n_max: int, max_excitations: int | None = None
) -> CompositeSpace:
    return CompositeSpace(model.n_modes, n_max, max_excitations)


def atom_op(space: CompositeSpace, local: np.ndarray) -> sp.csr_matrix:
    return space.embed(local, 0)


def collective_mode_op(space: CompositeSpace) -> sp.csr_matrix:
    """A = sum_nu a_nu, the operator coupling block A to the output channel."""
    return space.lowering(np.ones(space.n_modes))


def total_excitation_op(space: CompositeSpace) -> sp.csr_matrix:
    """The excitation number as a diagonal CSR, without the vacuum's zero."""
    n = space.excitations()
    (at,) = np.nonzero(n)
    return sp.csr_matrix(
        (n[at].astype(complex), (at, at)), shape=(space.dim, space.dim)
    )


def build_hamiltonian(
    model: EffectiveModel, drive: DriveDissipationSpec, space: CompositeSpace
) -> sp.csr_matrix:
    """System Hamiltonian: the emitter Hamiltonian plus the drive.

    In the frame rotating at the atom frequency mode nu carries the detuning
    nu*pi*v/L, and the couplings are G+ sigma- + h.c. with G = sum_nu g_nu a_nu.
    """
    if space.n_modes != model.n_modes:
        raise ParameterError(
            f"space has {space.n_modes} modes, model retains {model.n_modes}"
        )
    H = space.emitter_hamiltonian(np.diag(model.detunings()), model.g_nu)
    if drive.Omega_D != 0.0:
        H += 0.5 * drive.Omega_D * atom_op(space, sigma_x())
    return H


def build_jump_ops(
    model: EffectiveModel, drive: DriveDissipationSpec, space: CompositeSpace
) -> list:
    """(operator, rate) pairs: the collective block loss, when there is any."""
    if drive.gamma > 0 and space.n_modes > 0:
        return [(collective_mode_op(space), drive.gamma)]
    return []


def _require_hermitian(M, what: str) -> None:
    """Reject M unless max|M - M+| < HERMITICITY_TOL max(1, max|M|).

    A CSR M is read from its stored entries.  M+ is transposed into CSR
    arrays by the kernel of scipy's CSR -> CSC conversion; where they store
    the keys M stores, M - M+ is M.data - conj(M+.data) entry for entry, and
    any other M is compared as a sparse difference.
    """
    if sp.issparse(M):
        data = M.data
        tp = np.empty(M.shape[1] + 1, dtype=M.indptr.dtype)
        ti, tx = np.empty_like(M.indices), np.empty_like(data)
        _sparsetools.csr_tocsc(*M.shape, M.indptr, M.indices, data, tp, ti, tx)
        same_keys = np.array_equal(tp, M.indptr) and np.array_equal(ti, M.indices)
        if M.has_canonical_format and same_keys:
            asym = data - tx.conj()
        else:
            asym = (M - sp.csr_matrix((tx.conj(), ti, tp), shape=M.shape[::-1])).data
    else:
        data, asym = M, M - M.conj().T
    scale = max(1.0, float(np.abs(data).max(initial=0.0)))
    if float(np.abs(asym).max(initial=0.0)) >= HERMITICITY_TOL * scale:
        raise NonHermitianError(f"{what} is not Hermitian")


class _Drive:
    """The coherent input c(t) V + conj(c(t)) V+ on the channel block A leaks into.

    ``at(t)`` is c(t), computed once per distinct t, so the RK4 stages that
    share a time share one call; it is None where |c| max|V| <= eps max|Heff|,
    where the drive lies below Heff's rounding and is left out.
    """

    def __init__(self, fn, V: sp.csr_matrix, Heff: sp.csr_matrix):
        self.fn, self.V, self.Vd = fn, V, V.conj().T.tocsr()
        self._v_max = float(np.abs(V.data).max(initial=0.0))
        self._floor = np.finfo(float).eps * float(np.abs(Heff.data).max(initial=0.0))
        self._t, self._c = None, None

    def at(self, t: float):
        if t != self._t:
            c = self.fn(t)
            self._t, self._c = t, None if abs(c) * self._v_max <= self._floor else c
        return self._c


class Liouvillian:
    """Lindblad generator of H, its jumps and an optional drive.

    Heff = H - (i/2) sum_k rate_k J_k+ J_k; jumps are the (CSR op, rate > 0)
    pairs; the drive, if any, adds c(t) V + conj(c(t)) V+ to H.  ``heff(t, x)``
    is Heff(t) x for a vector, a dim x B block or a d x d matrix, one
    ``csr_dot`` per term on operators that never change, added into one
    output:

        Heff(t) x = H0 x + sum_k (-i rate_k/2) J_k+ (J_k x) + c V x + conj(c) V+ x

    the sum over the jumps in ``loss``.  "fused": H0 is Heff, with no loss
    terms and no drive, one product.  "factored": H0 is H and the loss is
    applied through the jumps, so no matrix stores the coupling of every
    pair of modes that J_k+ J_k makes.  Where V+ is the loss's jump J_k, the
    channel block A leaks into, the pulse enters by it and, with u = J_k x,
    rides on that jump's two products:
    (-i rate_k/2) J_k+ u + c J_k+ x + conj(c) u = (-i rate_k/2) J_k+ (u + c' x) + conj(c) u
    with c' = c / (-i rate_k/2); any other drive takes V and V+ as two
    products of its own.  Below its floor the drive is left out.  ``Heff``
    is the drive-free Heff as one CSR (built anew on each access where the
    loss is factored), ``nnz`` the entries the operators and the jumps
    store, ``products`` the products one ``heff`` takes with the drive on.
    For Hermitian rho,
    L(rho) = -i(B - B+) + sum_k rate_k J_k rho J_k+ with B = Heff(t) rho,
    since rho Heff(t)+ = (Heff(t) rho)+.
    """

    def __init__(self, H0: sp.csr_matrix, jumps: tuple, loss: tuple, drive: _Drive | None):
        self.jumps, self._H0, self._drive = jumps, H0, drive
        # (J, -(i rate/2), -(i rate/2) J+): the adjoint stored scaled, as its own CSR
        self._loss = []
        for J, rate in loss:
            scale = -0.5j * float(rate)
            self._loss.append((J, scale, scale * J.conj().T.tocsr()))
        self._fold = _drive_channel(drive, loss)
        self._unfolded = drive is not None and self._fold is None
        self.products = 1 + 2 * len(loss) + 2 * self._unfolded
        self.form = "fused" if self.products == 1 else "factored"
        ops = [H0, *(J for J, _ in jumps), *(Jd for _, _, Jd in self._loss)]
        if self._unfolded:
            ops += [drive.V, drive.Vd]
        self.nnz = sum(op.nnz for op in ops)

    @property
    def Heff(self) -> sp.csr_matrix:
        return _effective_hamiltonian(self._H0, self.jumps) if self._loss else self._H0

    def heff(self, t: float, x: np.ndarray) -> np.ndarray:
        c = None if self._drive is None else self._drive.at(t)
        y = csr_dot(self._H0, x)
        for k, (J, scale, Jd) in enumerate(self._loss):
            u = csr_dot(J, x)
            if c is not None and k == self._fold:
                csr_dot(Jd, u + (c / scale) * x, out=y)
                y += np.conj(c) * u
            else:
                csr_dot(Jd, u, out=y)
        if c is not None and self._unfolded:
            csr_dot(self._drive.V, c * x, out=y)
            csr_dot(self._drive.Vd, np.conj(c) * x, out=y)
        return y

    def apply(self, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
        """L(rho) at time t, for Hermitian rho."""
        B = self.heff(t, rho)
        out = -1j * (B - B.conj().T)
        for op, rate in self.jumps:
            # J rho J+ = J (J rho)+ for Hermitian rho
            out += rate * csr_dot(op, csr_dot(op, rho).conj().T)
        return out


# The fixed cost of one sparse product, in stored entries, which
# ``build_liouvillian`` charges per product when it weighs a drive-free Heff
# (one product) against H and the jumps (two more per jump).  Heff x for a
# vector, best of 7, one BLAS thread, 2-vCPU Xeon, scipy 1.17:
#
#   generator                        dim   fused: entries    us   factored: entries    us
#   one excitation, N_A 7             17              255   2.3                  74   5.2
#   one excitation, N_A 15            33            1,023   3.3                 154   5.5
#   one excitation, N_A 31            65            4,095   7.5                 314   6.2
#   one excitation, N_A 63           129           16,383  23.1                 634   6.9
#   criterion-9 model, N_A 2, cap 5  343            4,801   8.7               3,182  10.9
#   criterion-9 model, N_A 3, cap 3  156            2,506   5.5               1,258   7.7
#   criterion-9 model, N_A 5, cap 3  442           12,056  17.6               4,110  11.9
#   criterion-9 model, N_A 7, cap 3  952           36,950  50.2               9,550  21.1
#
# A cost per product and per entry fitted to the table by least squares
# gives 1.8-2.2 us against 1.1-1.3 ns over three runs: a product costs what
# 1,500-2,000 entries do.  Any charge from 810 (N_A 2, cap 5) to 1,890
# (N_A 31) picks the faster form of every row.  On a d x d operand each
# entry is read for d columns and the break-even falls: at N_A 15, 30.4 us
# fused against 10.1 us factored puts it below 435 entries.
PRODUCT_CHARGE = 1500


def _effective_hamiltonian(H: sp.csr_matrix, jumps: tuple) -> sp.csr_matrix:
    """Heff = H - (i/2) sum_k rate_k J_k+ J_k as one CSR."""
    Heff = H
    for J, rate in jumps:
        Heff = Heff - 0.5j * float(rate) * (J.conj().T @ J)
    return Heff.tocsr()


def _drive_channel(drive: _Drive | None, jumps: tuple) -> int | None:
    """Index of the first jump J_k equal, entry for entry, to the drive's V+."""
    if drive is not None:
        for k, (J, _) in enumerate(jumps):
            if J.shape == drive.Vd.shape and (J != drive.Vd).nnz == 0:
                return k
    return None


def build_liouvillian(H, jumps=(), drive=None) -> Liouvillian:
    """Generator of H with (operator, rate) jumps and a (coeff_fn, op) drive.

    H must be Hermitian and the rates non-negative; jumps of rate 0 are
    dropped.  drive is the pair ``build_drive_term`` returns.  A driven
    generator is factored: the drive rides on the kept jump its V+ equals,
    or takes V and V+ as products of its own.  Without a drive, Heff is
    applied in the cheaper form, by entries read plus PRODUCT_CHARGE per
    product: fused, one product on Heff, or factored, H and J_k and J_k+
    for each jump.
    """
    H = as_csr(H)
    _require_hermitian(H, "Hamiltonian")
    if any(rate < 0 for _, rate in jumps):
        raise ParameterError("jump rates must be non-negative")
    kept = tuple((as_csr(op), rate) for op, rate in jumps if rate > 0)
    Heff = _effective_hamiltonian(H, kept)
    if drive is not None:
        drive = _Drive(drive[0], as_csr(drive[1]), Heff)
    elif Heff.nnz <= H.nnz + 2 * sum(J.nnz + PRODUCT_CHARGE for J, _ in kept):
        return Liouvillian(Heff, kept, (), None)
    return Liouvillian(H, kept, kept, drive)


def expectation(op, rho: np.ndarray) -> complex:
    """Tr(op rho) as the sum of op[i, j] rho[j, i] over the stored entries of op."""
    op = as_csr(op)
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    return complex(op.data @ rho[op.indices, rows])


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first call (see the module docstring)."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def integrate_me(
    L: Liouvillian,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    e_ops=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    keep_states: bool = True,
) -> EvolutionResult:
    """Integrate rho' = L(rho, t) with RK45 on the d x d density matrix.

    e_ops: name -> operator, recorded as Re Tr(op rho).  rho0 must be
    Hermitian.  Trace is never renormalized: its drift is reported as the
    trace_residual series.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    _require_hermitian(rho0, "rho0")
    d = rho0.shape[0]

    def rhs(t, y):
        return L.apply(y.reshape(d, d), t).reshape(-1)

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
    from scipy.linalg import get_lapack_funcs, schur
    from scipy.sparse.linalg import LinearOperator, eigs

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
    scale = 2.0 * np.abs(Heff.data).max(initial=0.0) + sum(
        r * np.abs(op.data).max(initial=0.0) ** 2 for op, r in jumps
    )
    resid = float(np.max(np.abs(L.apply(rho))))
    if resid > TRACE_NULL_TOL * scale:
        raise NonUniqueSteadyStateError(
            f"steady-state residual {resid:.3e} exceeds tolerance"
        )
    return rho
