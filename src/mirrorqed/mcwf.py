"""Monte-Carlo wave-function unraveling of a Lindblad generator.

Trajectories run on the ``Liouvillian`` the master equation integrates: they
step psi' = -i Heff(t) psi with its ``heff`` and jump with its jumps.

Between jumps every trajectory follows the same deterministic non-Hermitian
flow, so the no-jump path from t0 is integrated once and shared: a trajectory
whose jump threshold is never crossed *is* the reference path, and one that
jumps only needs individual propagation from its jump time onward.  This is
an exact reformulation, not an approximation.  Every threshold is drawn
first, so the one pass of the shared path hands each jumping trajectory the
path's state at the substep boundary before its first jump.

From there the jumping trajectories advance together, in lock-step over the
substep grid, as the columns of one dim x B block.  Each RK4 stage applies
Heff(t) to the whole block at once, one sparse product per term added into
one output: Heff alone where the generator is fused (no drive), or H and
each jump and its adjoint where it is factored, with a pulse that enters by
a loss channel riding on that jump's two products.  c(t) is
evaluated once per stage time, three times per RK4 step, and every sparse
product, the jumps' and the observables' included, is ``csr_dot``, scipy's
kernel called without the dispatch of ``@``.
After each block step every column's norm^2 is tested against that column's
own threshold; a column that crosses leaves the block for the substep, takes
its jumps one vector at a time (bisection, channel choice, the rest of the
substep) from the block's own step, and rejoins.  Observables and boundary
leakage are per-column reductions at the grid points.

Every per-column number, norms included, is one einsum over the block
(``column_vdot``), and a vector is reduced as a one-column block, so the
shared path, the block and the lone-vector jump steps decide jumps with the
same arithmetic.  That reduction, every sparse product and every
elementwise step act on each column as on a lone vector, so a trajectory's
jumps and observables are bitwise independent of its block-mates.  Each
trajectory owns a counter-based Philox stream keyed by (seed, trajectory
index), so the ensemble is bitwise reproducible regardless of scheduling.
Channel selection orders cumulative probabilities by jump index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import as_csr, csr_dot
from .lindblad import Liouvillian, build_liouvillian
from .results import EvolutionResult, uniform_step

JUMP_TIME_TOL = 1e-6
LEAK_WARN_THRESHOLD = 1e-3
NORM_FLOOR = 1e-14
MAX_JUMPS_PER_SUBSTEP = 1000
BLOCK_BYTES = 1 << 17  # one dim x B state block: with the RK4 temporaries it stays in L2


class TruncationWarning(UserWarning):
    """Top-Fock (or excitation-cap) population exceeded the leakage threshold."""


def column_vdot(a: np.ndarray, b: np.ndarray):
    """<a_j|b_j> for each column of two dim x B blocks (a scalar for vectors).

    One einsum sums each column down its rows in one sequential pass, so a
    column's value does not depend on what else the block holds; a vector is
    summed as a one-column block.  (numpy sums a one-column block in buffer
    chunks of 8192 rows, so at larger dims a column can differ from its value
    in a wider block at rounding level; ``BLOCK_BYTES`` keeps blocks above
    4096 rows one column wide.)
    """
    if a.ndim == 1:
        return np.einsum("ij,ij->j", a.conj()[:, None], b[:, None])[0]
    return np.einsum("ij,ij->j", a.conj(), b)


def _norm2(psi: np.ndarray) -> float:
    return float(column_vdot(psi, psi).real)


@dataclass
class _Problem:
    L: Liouvillian  # Heff, the jumps and the drive
    jump_ops: list  # sqrt(rate_k) * J_k
    e_ops: dict  # name -> CSR matrix, or callable(t, dim x B block) -> B values
    leak_diag: np.ndarray | None
    t_grid: np.ndarray
    h: float
    n_sub: int

    def rk4_step(self, t: float, psi: np.ndarray, h: float, k1=None) -> np.ndarray:
        """psi advanced by h under psi' = -i Heff(t) psi; k1 is heff(t, psi) if given.

        -i is folded into the step hc = -i h, and the final combination
        psi + (hc/6)(k1 + 2 k2 + 2 k3 + k4) is summed in that order, in place.
        """
        heff, hc = self.L.heff, -1j * h
        if k1 is None:
            k1 = heff(t, psi)
        k2 = heff(t + 0.5 * h, psi + (0.5 * hc) * k1)
        k3 = heff(t + 0.5 * h, psi + (0.5 * hc) * k2)
        k4 = heff(t + h, psi + hc * k3)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= hc / 6.0
        k2 += psi
        return k2

    def substep_time(self, s: int) -> float:
        m, r = divmod(s, self.n_sub)
        return float(self.t_grid[m] + r * self.h) if r else float(self.t_grid[m])

    def record(self, t: float, psi: np.ndarray):
        """(B x n_obs observables, B leakages) of the normalized columns of psi."""
        nrm = np.sqrt(column_vdot(psi, psi).real)
        pn = psi / np.where(nrm > NORM_FLOOR, nrm, 1.0)
        obs = np.empty((psi.shape[1], len(self.e_ops)))
        for i, op in enumerate(self.e_ops.values()):
            obs[:, i] = op(t, pn) if callable(op) else column_vdot(pn, csr_dot(op, pn)).real
        if self.leak_diag is None:
            return obs, np.zeros(psi.shape[1])
        return obs, column_vdot(pn, self.leak_diag[:, None] * pn).real


def _reference_path(prob: _Problem, psi0: np.ndarray, r: list):
    """No-jump path: records at the grid points, and each trajectory's join.

    Trajectory j joins at the substep boundary before the first substep at
    whose end the no-jump norm^2 is below its threshold r[j], in the path's
    state there: joins[j] is (boundary, state), or None if it never jumps.
    """
    n_grid = len(prob.t_grid)
    obs = np.empty((n_grid, len(prob.e_ops)))
    leak = np.empty(n_grid)
    obs[:1], leak[:1] = prob.record(float(prob.t_grid[0]), psi0[:, None])
    joins = [None] * len(r)
    waiting = sorted(range(len(r)), key=r.__getitem__)  # the highest r crosses first
    psi = psi0.copy()
    s = 0
    for m in range(n_grid - 1):
        t = float(prob.t_grid[m])
        for k in range(prob.n_sub):
            psi_next = prob.rk4_step(t + k * prob.h, psi, prob.h)
            n2 = _norm2(psi_next)
            while waiting and n2 < r[waiting[-1]]:
                joins[waiting.pop()] = (s, psi)
            psi = psi_next
            s += 1
        obs[m + 1 : m + 2], leak[m + 1 : m + 2] = prob.record(
            float(prob.t_grid[m + 1]), psi[:, None]
        )
    return obs, leak, joins


def _locate_jump(prob: _Problem, psi0: np.ndarray, t0: float, h: float, r: float, psi_hi):
    """Bisect the norm^2 = r crossing inside (t0, t0 + h]; psi_hi = rk4_step(t0, psi0, h).

    Every trial step starts from psi0 at t0, so they share one k1.
    """
    k1 = prob.L.heff(t0, psi0)
    lo, hi = 0.0, h
    while hi - lo > JUMP_TIME_TOL and hi > 1e-15:
        mid = 0.5 * (lo + hi)
        psi_mid = prob.rk4_step(t0, psi0, mid, k1)
        if _norm2(psi_mid) < r:
            hi, psi_hi = mid, psi_mid
        else:
            lo = mid
    return t0 + hi, psi_hi


def _apply_jump(prob: _Problem, psi: np.ndarray, rng) -> np.ndarray:
    """Select a channel by relative weight (cumulative, jump-index order)."""
    post = [csr_dot(J, psi) for J in prob.jump_ops]
    weights = np.array([_norm2(p) for p in post])
    total = weights.sum()
    if total <= 0.0:
        return psi / np.sqrt(_norm2(psi))
    k = int(np.searchsorted(np.cumsum(weights), rng.random() * total))
    k = min(k, len(post) - 1)
    return post[k] / np.sqrt(weights[k])


def _advance(prob: _Problem, psi: np.ndarray, psi_next, t0: float, t1: float, r: float, rng):
    """Propagate t0 -> t1 (at most one substep), taking any jumps inside.

    psi_next is psi stepped to t1, rk4_step(t0, psi, t1 - t0).
    """
    jumps = 0
    while _norm2(psi_next) < r:
        t0, psi_at = _locate_jump(prob, psi, t0, t1 - t0, r, psi_next)
        psi = _apply_jump(prob, psi_at, rng)
        r = rng.random()
        jumps += 1
        if jumps > MAX_JUMPS_PER_SUBSTEP:
            raise RuntimeError("jump rate pathologically high; reduce the substep")
        if t1 - t0 <= 1e-15:
            return psi, r, jumps
        psi_next = prob.rk4_step(t0, psi, t1 - t0)
    return psi_next, r, jumps


def _run_block(prob: _Problem, s0, states, r, rngs, ref_obs, ref_leak):
    """Advance trajectories in lock-step from their join substeps s0 to the end.

    Trajectory j follows the no-jump path up to substep boundary s0[j], where
    that path is in states[j]; its first jump falls inside the substep after
    it, and r[j] is its norm^2 threshold.
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
    joining = dict(zip(s0, states))
    cols = np.empty(0, dtype=int)  # trajectory of each block column
    psi = np.empty((len(states[0]), 0), dtype=complex)
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
            psi_next[:, c], r[j], k = _advance(
                prob, psi[:, c].copy(), psi_next[:, c].copy(), t0, t1, r[j], rngs[j]
            )
            jumps[j] += k
        psi = psi_next
        if s % prob.n_sub == 0:
            m = s // prob.n_sub
            obs[cols, m], leak[cols, m] = prob.record(t1, psi)
    return obs, leak, jumps


def mcwf_evolve(
    H,
    jumps,
    psi0: np.ndarray,
    t_grid: np.ndarray,
    n_traj: int,
    seed: int,
    drive=None,
    e_ops=None,
    substeps: int = 1,
    leak_projector: np.ndarray | None = None,
) -> EvolutionResult:
    """Trajectory-averaged observables with standard errors.

    H, jumps and drive make the generator, as in ``build_liouvillian``:
    (operator, rate) pairs, and one (coeff_fn, op) pair adding
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
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be in [0, 2**64)")
    t_grid = np.asarray(t_grid, dtype=float)
    dt_grid = uniform_step(t_grid)
    psi0 = np.asarray(psi0, dtype=complex)
    nrm0 = np.linalg.norm(psi0)
    if abs(nrm0 - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")

    L = build_liouvillian(H, jumps, drive)

    e_ops = {k: op if callable(op) else as_csr(op) for k, op in (e_ops or {}).items()}
    leak_diag = None
    if leak_projector is not None:
        leak_diag = np.asarray(leak_projector, dtype=float)
        if leak_diag.shape != psi0.shape:
            raise ValueError(
                f"leak_projector has shape {leak_diag.shape}, expected {psi0.shape}"
            )

    prob = _Problem(
        L=L,
        jump_ops=[np.sqrt(rate) * J for J, rate in L.jumps],
        e_ops=e_ops,
        leak_diag=leak_diag,
        t_grid=t_grid,
        h=dt_grid / substeps,
        n_sub=substeps,
    )

    rngs = [
        np.random.Generator(np.random.Philox(key=np.array([seed, traj], dtype=np.uint64)))
        for traj in range(n_traj)
    ]
    thresholds = [rng.random() for rng in rngs]
    ref_obs, ref_leak, joins = _reference_path(prob, psi0, thresholds)
    n_grid, n_obs = ref_obs.shape
    # (rng, threshold, join boundary, join state) of each jumping trajectory
    jumping = [
        (rng, r, *join) for rng, r, join in zip(rngs, thresholds, joins) if join is not None
    ]
    n_cached = n_traj - len(jumping)

    # blocks of consecutive jumping trajectories, summed in trajectory order
    # as deviations from the shared path, which the others follow exactly
    dev_sum = np.zeros((n_grid, n_obs))
    dev_sumsq = np.zeros((n_grid, n_obs))
    total_jumps = 0
    peaks = [float(np.max(ref_leak))] * n_cached
    width = max(1, BLOCK_BYTES // (16 * len(psi0)))
    for b in range(0, len(jumping), width):
        block_rngs, rs, s0, states = zip(*jumping[b : b + width])
        obs, leak, jumps = _run_block(prob, s0, states, rs, block_rngs, ref_obs, ref_leak)
        total_jumps += int(jumps.sum())
        peaks.extend(leak.max(axis=1))
        for dev in obs - ref_obs:
            dev_sum += dev
            dev_sumsq += dev**2

    dev_mean = dev_sum / n_traj
    mean = ref_obs + dev_mean
    if n_traj > 1:
        var = np.maximum(dev_sumsq - n_traj * dev_mean**2, 0.0) / (n_traj - 1)
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
            "generator": {"form": L.form, "nnz": L.nnz, "products": L.products},
        },
    )
