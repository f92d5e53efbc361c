"""Monte-Carlo wave-function unraveling of a Lindblad generator.

Between jumps every trajectory follows the same deterministic non-Hermitian
flow, so the no-jump path from t0 is integrated once and shared: a trajectory
whose jump threshold is never crossed *is* the reference path, and one that
jumps only needs individual propagation from its jump time onward.  This is
an exact reformulation, not an approximation.

Each trajectory owns a counter-based Philox stream keyed by
(seed, trajectory index), so the ensemble is bitwise reproducible regardless
of scheduling.  Channel selection orders cumulative probabilities by jump
index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hilbert import as_csr
from .results import EvolutionResult

JUMP_TIME_TOL = 1e-6
LEAK_WARN_THRESHOLD = 1e-3
NORM_FLOOR = 1e-14
MAX_JUMPS_PER_SUBSTEP = 1000


class TruncationWarning(UserWarning):
    """Top-Fock (or excitation-cap) population exceeded the leakage threshold."""


@dataclass
class _Problem:
    Heff: sp.csr_matrix  # H - (i/2) sum_k rate_k Jk+ Jk
    td: list  # (coeff_fn, V, V_dagger) triples: H(t) += c V + conj(c) V+
    jump_ops: list  # sqrt(rate_k) * J_k
    e_ops: dict
    leak_diag: np.ndarray | None
    t_grid: np.ndarray
    h: float
    n_sub: int

    def deriv(self, t: float, psi: np.ndarray) -> np.ndarray:
        out = self.Heff @ psi
        for fn, V, Vd in self.td:
            c = fn(t)
            if c != 0.0:
                out = out + c * (V @ psi) + np.conj(c) * (Vd @ psi)
        return -1j * out

    def rk4_step(self, t: float, psi: np.ndarray, h: float) -> np.ndarray:
        k1 = self.deriv(t, psi)
        k2 = self.deriv(t + 0.5 * h, psi + 0.5 * h * k1)
        k3 = self.deriv(t + 0.5 * h, psi + 0.5 * h * k2)
        k4 = self.deriv(t + h, psi + h * k3)
        return psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def substep_time(self, s: int) -> float:
        m, r = divmod(s, self.n_sub)
        return float(self.t_grid[m] + r * self.h) if r else float(self.t_grid[m])

    def record(self, t: float, psi: np.ndarray, obs_row: np.ndarray) -> float:
        """Fill observable values on the normalized state; return leakage."""
        nrm = np.linalg.norm(psi)
        pn = psi / nrm if nrm > NORM_FLOOR else psi
        for i, op in enumerate(self.e_ops.values()):
            if callable(op):
                obs_row[i] = float(op(t, pn))
            else:
                obs_row[i] = float(np.real(np.vdot(pn, op @ pn)))
        if self.leak_diag is None:
            return 0.0
        return float(np.real(np.vdot(pn, self.leak_diag * pn)))


def _reference_path(prob: _Problem, psi0: np.ndarray):
    """No-jump path: norm^2 at every substep, states/records at grid points."""
    n_int = len(prob.t_grid) - 1
    norms2 = np.empty(n_int * prob.n_sub + 1)
    norms2[0] = float(np.vdot(psi0, psi0).real)
    grid_states = [psi0.copy()]
    obs = np.empty((len(prob.t_grid), len(prob.e_ops)))
    leak = np.empty(len(prob.t_grid))
    leak[0] = prob.record(float(prob.t_grid[0]), psi0, obs[0])
    psi = psi0.copy()
    s = 0
    for m in range(n_int):
        t = float(prob.t_grid[m])
        for r in range(prob.n_sub):
            psi = prob.rk4_step(t + r * prob.h, psi, prob.h)
            s += 1
            norms2[s] = float(np.vdot(psi, psi).real)
        grid_states.append(psi.copy())
        leak[m + 1] = prob.record(float(prob.t_grid[m + 1]), psi, obs[m + 1])
    return norms2, grid_states, obs, leak


def _locate_jump(prob: _Problem, psi0: np.ndarray, t0: float, h: float, r: float):
    """Bisect the norm^2 = r crossing inside (t0, t0 + h]."""
    lo, hi = 0.0, h
    psi_hi = prob.rk4_step(t0, psi0, h)
    while hi - lo > JUMP_TIME_TOL and hi > 1e-15:
        mid = 0.5 * (lo + hi)
        psi_mid = prob.rk4_step(t0, psi0, mid)
        if float(np.vdot(psi_mid, psi_mid).real) < r:
            hi, psi_hi = mid, psi_mid
        else:
            lo = mid
    return t0 + hi, psi_hi


def _apply_jump(prob: _Problem, psi: np.ndarray, rng) -> np.ndarray:
    """Select a channel by relative weight (cumulative, jump-index order)."""
    post = [J @ psi for J in prob.jump_ops]
    weights = np.array([float(np.vdot(p, p).real) for p in post])
    total = weights.sum()
    if total <= 0.0:
        return psi / np.linalg.norm(psi)
    k = int(np.searchsorted(np.cumsum(weights), rng.random() * total))
    k = min(k, len(post) - 1)
    return post[k] / np.linalg.norm(post[k])


def _advance(prob: _Problem, psi: np.ndarray, t0: float, t1: float, r: float, rng):
    """Propagate t0 -> t1 (at most one substep), taking any jumps inside."""
    jumps = 0
    while True:
        h = t1 - t0
        if h <= 1e-15:
            return psi, r, jumps
        psi_next = prob.rk4_step(t0, psi, h)
        if float(np.vdot(psi_next, psi_next).real) >= r:
            return psi_next, r, jumps
        t0, psi_at = _locate_jump(prob, psi, t0, h, r)
        psi = _apply_jump(prob, psi_at, rng)
        r = rng.random()
        jumps += 1
        if jumps > MAX_JUMPS_PER_SUBSTEP:
            raise RuntimeError("jump rate pathologically high; reduce the substep")


def _run_tail(prob, psi, t_cur, s_next, r, rng, obs_out, leak_out):
    """Finish a trajectory from mid-run: next substep boundary index s_next."""
    n_sub_total = (len(prob.t_grid) - 1) * prob.n_sub
    jumps = 0
    max_leak = 0.0
    for s in range(s_next, n_sub_total + 1):
        t_target = prob.substep_time(s)
        psi, r, j = _advance(prob, psi, t_cur, t_target, r, rng)
        jumps += j
        t_cur = t_target
        if s % prob.n_sub == 0:
            m = s // prob.n_sub
            leak_out[m] = prob.record(t_target, psi, obs_out[m])
            max_leak = max(max_leak, leak_out[m])
    return jumps, max_leak


def uniform_step(t_grid: np.ndarray) -> float:
    """Step of a strictly increasing, uniform grid of at least two points."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing with >= 2 points")
    step = float(t_grid[1] - t_grid[0])
    if not np.allclose(np.diff(t_grid), step, rtol=1e-9, atol=0):
        raise ValueError("t_grid must be uniform")
    return step


def effective_hamiltonian(H, jumps) -> sp.csr_matrix:
    """Heff = H - (i/2) sum_k rate_k J_k+ J_k for (operator, rate) pairs."""
    Heff = as_csr(H)
    for J, rate in jumps:
        J = as_csr(J)
        Heff = Heff - 0.5j * float(rate) * (J.conj().T @ J)
    return Heff.tocsr()


def mcwf_evolve(
    H,
    jumps,
    psi0: np.ndarray,
    t_grid: np.ndarray,
    n_traj: int,
    seed: int,
    td_terms=(),
    e_ops=None,
    substeps: int = 1,
    leak_projector: np.ndarray | None = None,
) -> EvolutionResult:
    """Trajectory-averaged observables with standard errors.

    jumps: (operator, rate) pairs.  td_terms: (coeff_fn, op) pairs adding
    c(t) op + conj(c(t)) op+ to the Hamiltonian.  e_ops: name -> matrix, or
    name -> callable(t, normalized_psi) for composite observables.
    leak_projector: diagonal of the boundary projector, as returned by
    ``CompositeSpace.boundary_projector``.  The integrator is fixed-step RK4
    with ``substeps`` steps per grid interval; jump times are bisected to
    JUMP_TIME_TOL and channels chosen by relative jump probability.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    t_grid = np.asarray(t_grid, dtype=float)
    dt_grid = uniform_step(t_grid)
    psi0 = np.asarray(psi0, dtype=complex)
    nrm0 = np.linalg.norm(psi0)
    if abs(nrm0 - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")

    jump_list = [(as_csr(op), float(rate)) for op, rate in jumps]
    Heff = effective_hamiltonian(H, jump_list)
    td = [(fn, as_csr(op), as_csr(op).conj().T.tocsr()) for fn, op in td_terms]
    scaled_jumps = [np.sqrt(rate) * J for J, rate in jump_list if rate > 0]

    e_ops = dict(e_ops or {})
    leak_diag = None
    if leak_projector is not None:
        leak_diag = np.asarray(leak_projector, dtype=float)
        if leak_diag.shape != psi0.shape:
            raise ValueError(
                f"leak_projector has shape {leak_diag.shape}, expected {psi0.shape}"
            )

    prob = _Problem(
        Heff=Heff,
        td=td,
        jump_ops=scaled_jumps,
        e_ops=e_ops,
        leak_diag=leak_diag,
        t_grid=t_grid,
        h=dt_grid / substeps,
        n_sub=substeps,
    )

    norms2, grid_states, ref_obs, ref_leak = _reference_path(prob, psi0)
    n_grid, n_obs = ref_obs.shape
    n_sub_total = (n_grid - 1) * prob.n_sub

    obs_sum = np.zeros((n_grid, n_obs))
    obs_sumsq = np.zeros((n_grid, n_obs))
    n_cached = 0
    total_jumps = 0
    max_leak = float(np.max(ref_leak)) if n_grid else 0.0

    for traj in range(n_traj):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, traj], dtype=np.uint64))
        )
        r = rng.random()
        # first substep boundary where the no-jump norm^2 dips below r
        idx = int(np.searchsorted(-norms2, -r, side="right"))
        if idx > n_sub_total:
            n_cached += 1
            continue
        s0 = idx - 1  # jump occurs inside substep s0
        m0 = s0 // prob.n_sub
        psi = grid_states[m0].copy()
        t = float(t_grid[m0])
        for k in range(s0 - m0 * prob.n_sub):
            psi = prob.rk4_step(t + k * prob.h, psi, prob.h)
        obs_traj = np.empty_like(ref_obs)
        leak_traj = np.zeros(n_grid)
        obs_traj[: m0 + 1] = ref_obs[: m0 + 1]
        leak_traj[: m0 + 1] = ref_leak[: m0 + 1]
        jumps_taken, tail_leak = _run_tail(
            prob, psi, prob.substep_time(s0), s0 + 1, r, rng, obs_traj, leak_traj
        )
        total_jumps += jumps_taken
        max_leak = max(max_leak, tail_leak, float(np.max(ref_leak[: m0 + 1])))
        obs_sum += obs_traj
        obs_sumsq += obs_traj**2

    obs_sum += n_cached * ref_obs
    obs_sumsq += n_cached * ref_obs**2

    mean = obs_sum / n_traj
    if n_traj > 1:
        var = np.maximum(obs_sumsq - n_traj * mean**2, 0.0) / (n_traj - 1)
        stderr = np.sqrt(var / n_traj)
    else:
        stderr = np.zeros_like(mean)

    if leak_diag is not None and max_leak > LEAK_WARN_THRESHOLD:
        warnings.warn(
            f"truncation leakage reached {max_leak:.3e} (> {LEAK_WARN_THRESHOLD:g})",
            TruncationWarning,
            stacklevel=2,
        )

    names = list(e_ops)
    observables = {n: mean[:, i] for i, n in enumerate(names)}
    errs = {n: stderr[:, i] for i, n in enumerate(names)}
    return EvolutionResult(
        t=t_grid,
        observables=observables,
        stderr=errs,
        meta={
            "n_traj": n_traj,
            "seed": seed,
            "substeps": substeps,
            "n_jumping_trajectories": n_traj - n_cached,
            "total_jumps": total_jumps,
            "max_leakage": max_leak,
        },
    )
