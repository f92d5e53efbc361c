"""Monte-Carlo wave-function unraveling of a Lindblad generator.

Between jumps every trajectory follows the same deterministic non-Hermitian
flow, so the no-jump path from t0 is integrated once and shared: a trajectory
whose jump threshold is never crossed *is* the reference path, and one that
jumps only needs individual propagation from its jump time onward.  This is
an exact reformulation, not an approximation.

The jumping trajectories then advance together, in lock-step over the
substep grid, as the columns of one dim x B block: each RK4 stage is one
sparse product per operator for the whole block, and each drive coefficient
is evaluated once per stage.  A trajectory joins the block at the substep
boundary before its first jump, in the state of the shared path.  After each
block step every column's norm^2 is tested against that column's own
threshold; a column that crosses leaves the block for the substep, takes its
jumps one vector at a time (bisection, channel choice, the rest of the
substep) and rejoins.  Observables and boundary leakage are per-column
reductions at the grid points.

Every per-column number is computed by the same scalar call on a contiguous
copy of that column (``column_vdot``, ``np.linalg.norm``), and a sparse
product acts on each column as on a lone vector, so a trajectory's jumps and
observables are bitwise independent of its block-mates.  Each trajectory owns
a counter-based Philox stream keyed by (seed, trajectory index), so the
ensemble is bitwise reproducible regardless of scheduling.  Channel selection
orders cumulative probabilities by jump index.
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
BLOCK_BYTES = 1 << 17  # one dim x B state block: with the RK4 temporaries it stays in L2


class TruncationWarning(UserWarning):
    """Top-Fock (or excitation-cap) population exceeded the leakage threshold."""


def column_vdot(a: np.ndarray, b: np.ndarray):
    """<a_j|b_j> for each column of two dim x B blocks (a scalar for vectors).

    Each value is np.vdot on contiguous copies of the two columns, so it is
    bitwise the value of the lone vectors, whatever the block holds besides.
    """
    if a.ndim == 1:
        return np.vdot(a, b)
    return np.array([np.vdot(x, y) for x, y in zip(a.T.copy(), b.T.copy())])


@dataclass
class _Problem:
    Heff: sp.csr_matrix  # H - (i/2) sum_k rate_k Jk+ Jk
    td: list  # (coeff_fn, V, V_dagger) triples: H(t) += c V + conj(c) V+
    jump_ops: list  # sqrt(rate_k) * J_k
    e_ops: dict  # name -> CSR matrix, or callable(t, dim x B block) -> B values
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

    def record(self, t: float, psi: np.ndarray):
        """(B x n_obs observables, B leakages) of the normalized columns of psi."""
        nrm = np.array([np.linalg.norm(c) for c in psi.T.copy()])
        pn = psi / np.where(nrm > NORM_FLOOR, nrm, 1.0)
        obs = np.empty((psi.shape[1], len(self.e_ops)))
        for i, op in enumerate(self.e_ops.values()):
            obs[:, i] = op(t, pn) if callable(op) else column_vdot(pn, op @ pn).real
        if self.leak_diag is None:
            return obs, np.zeros(psi.shape[1])
        return obs, column_vdot(pn, self.leak_diag[:, None] * pn).real


def _reference_path(prob: _Problem, psi0: np.ndarray):
    """No-jump path: norm^2 at every substep, states/records at grid points."""
    n_int = len(prob.t_grid) - 1
    norms2 = np.empty(n_int * prob.n_sub + 1)
    norms2[0] = float(np.vdot(psi0, psi0).real)
    grid_states = [psi0.copy()]
    obs = np.empty((len(prob.t_grid), len(prob.e_ops)))
    leak = np.empty(len(prob.t_grid))
    obs[:1], leak[:1] = prob.record(float(prob.t_grid[0]), psi0[:, None])
    psi = psi0.copy()
    s = 0
    for m in range(n_int):
        t = float(prob.t_grid[m])
        for r in range(prob.n_sub):
            psi = prob.rk4_step(t + r * prob.h, psi, prob.h)
            s += 1
            norms2[s] = float(np.vdot(psi, psi).real)
        grid_states.append(psi.copy())
        obs[m + 1 : m + 2], leak[m + 1 : m + 2] = prob.record(
            float(prob.t_grid[m + 1]), psi[:, None]
        )
    return norms2, grid_states, obs, leak


def _locate_jump(prob: _Problem, psi0: np.ndarray, t0: float, h: float, r: float, psi_hi):
    """Bisect the norm^2 = r crossing inside (t0, t0 + h]; psi_hi = rk4_step(t0, psi0, h)."""
    lo, hi = 0.0, h
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
        t0, psi_at = _locate_jump(prob, psi, t0, h, r, psi_next)
        psi = _apply_jump(prob, psi_at, rng)
        r = rng.random()
        jumps += 1
        if jumps > MAX_JUMPS_PER_SUBSTEP:
            raise RuntimeError("jump rate pathologically high; reduce the substep")


def _join_states(prob: _Problem, grid_states: dict, substeps) -> dict:
    """Shared no-jump state at each substep boundary in ``substeps``.

    Stepped from the grid state before it (grid index -> state) exactly as
    the reference path stepped, so the state is bitwise the reference path's.
    """
    states = {}
    for s in sorted(set(substeps)):
        m = s // prob.n_sub
        t = float(prob.t_grid[m])
        psi = grid_states[m].copy()
        for k in range(s - m * prob.n_sub):
            psi = prob.rk4_step(t + k * prob.h, psi, prob.h)
        states[s] = psi
    return states


def _run_block(prob: _Problem, grid_states, s0, r, rngs, ref_obs, ref_leak):
    """Advance trajectories in lock-step from their join substeps s0 to the end.

    Trajectory j follows the no-jump path up to substep boundary s0[j], its
    first jump falls inside substep s0[j], and r[j] is its norm^2 threshold.
    Returns per-trajectory observables (B x n_grid x n_obs), leakages
    (B x n_grid) and jump counts.
    """
    n_grid = len(prob.t_grid)
    obs = np.empty((len(s0),) + ref_obs.shape)
    leak = np.empty((len(s0), n_grid))
    for j, s in enumerate(s0):
        m0 = s // prob.n_sub
        obs[j, : m0 + 1] = ref_obs[: m0 + 1]
        leak[j, : m0 + 1] = ref_leak[: m0 + 1]
    r = np.array(r)
    jumps = np.zeros(len(s0), dtype=int)
    joining = _join_states(prob, grid_states, s0)
    cols = np.empty(0, dtype=int)  # trajectory of each block column
    psi = np.empty((prob.Heff.shape[0], 0), dtype=complex)
    for s in range(min(s0) + 1, (n_grid - 1) * prob.n_sub + 1):
        if s - 1 in joining:
            new = [j for j, sj in enumerate(s0) if sj == s - 1]
            cols = np.concatenate([cols, new])
            psi = np.hstack([psi, np.repeat(joining.pop(s - 1)[:, None], len(new), axis=1)])
        t0, t1 = prob.substep_time(s - 1), prob.substep_time(s)
        psi_next = prob.rk4_step(t0, psi, t1 - t0)
        crossed = np.flatnonzero(column_vdot(psi_next, psi_next).real < r[cols])
        for c in crossed:
            j = cols[c]
            psi_next[:, c], r[j], k = _advance(prob, psi[:, c].copy(), t0, t1, r[j], rngs[j])
            jumps[j] += k
        psi = psi_next
        if s % prob.n_sub == 0:
            m = s // prob.n_sub
            obs[cols, m], leak[cols, m] = prob.record(t1, psi)
    return obs, leak, jumps


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
    name -> callable(t, block) for composite observables, where block is a
    dim x B array of normalized states and the callable returns B values;
    a column's value must not depend on the other columns (``column_vdot``).
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

    e_ops = {k: op if callable(op) else as_csr(op) for k, op in (e_ops or {}).items()}
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

    jumping = []  # (rng, threshold, substep of the first jump), by trajectory
    for traj in range(n_traj):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, traj], dtype=np.uint64))
        )
        r = rng.random()
        # first substep boundary where the no-jump norm^2 dips below r
        idx = int(np.searchsorted(-norms2, -r, side="right"))
        if idx <= n_sub_total:
            jumping.append((rng, r, idx - 1))
    n_cached = n_traj - len(jumping)
    # the blocks need only the grid states that some trajectory joins from
    grid_states = {s0 // prob.n_sub: grid_states[s0 // prob.n_sub] for _, _, s0 in jumping}

    # blocks of consecutive jumping trajectories, summed in trajectory order
    obs_sum = np.zeros((n_grid, n_obs))
    obs_sumsq = np.zeros((n_grid, n_obs))
    total_jumps = 0
    peaks = [float(np.max(ref_leak))] * n_cached
    width = max(1, BLOCK_BYTES // (16 * len(psi0)))
    for b in range(0, len(jumping), width):
        rngs, rs, s0 = zip(*jumping[b : b + width])
        obs, leak, jumps = _run_block(prob, grid_states, s0, rs, rngs, ref_obs, ref_leak)
        total_jumps += int(jumps.sum())
        peaks.extend(leak.max(axis=1))
        for obs_traj in obs:
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

    max_leak = float(max(peaks))
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
            "mean_leakage": float(np.mean(peaks)),
        },
    )
