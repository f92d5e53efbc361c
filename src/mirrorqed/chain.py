"""Discretized-waveguide ground truth: a tight-binding chain with a hard wall.

The mirror is the open boundary at site 0; the atom couples at site n0.  A
chain calibrated to a target (Gamma, tau, phi) reproduces the continuum
dynamics up to discretization (dispersion-curvature) error, and the
block-decomposition report verifies the normal-mode algebra that underlies
the effective multimode-cavity model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hilbert import CompositeSpace, csr_dot
from .results import EvolutionResult, uniform_step

K_WINDOW = (0.2 * math.pi, 0.8 * math.pi)
# Chebyshev terms of the step propagator are kept down to this modulus; past
# the last one they fall faster than geometrically.
CHEBYSHEV_CUTOFF = 1e-16


class CalibrationError(ValueError):
    """No dispersion branch lands the resonant wavevector inside the band window."""


@dataclass(frozen=True)
class ChainSpec:
    """Semi-infinite waveguide truncated to N sites, atom at site n0."""

    N: int
    omega_c: float
    J: float
    g_disc: float
    n0: int
    k0: float
    N_A_sites: int

    def __post_init__(self):
        if not (1 <= self.n0 <= self.N_A_sites < self.N):
            raise ValueError("need 1 <= n0 <= N_A_sites < N")

    @property
    def v_lattice(self) -> float:
        return 2.0 * self.J * math.sin(self.k0)

    @property
    def omega0(self) -> float:
        """Atom frequency, resonant with the wavevector k0."""
        return self.omega_c - 2.0 * self.J * math.cos(self.k0)

    @property
    def Gamma(self) -> float:
        return 2.0 * self.g_disc**2 / self.v_lattice

    @property
    def tau(self) -> float:
        return 2.0 * self.n0 / self.v_lattice

    @property
    def phi(self) -> float:
        return 2.0 * self.k0 * self.n0

    def horizon(self) -> float:
        """Lattice time below which the far boundary cannot influence the atom."""
        return (self.N - self.n0) / self.v_lattice


def calibrate_chain(
    Gamma: float,
    tau: float,
    phi: float,
    sites_per_delay: int,
    t_max: float | None = None,
    N_A_ratio: float = 2.0,
) -> ChainSpec:
    """Pick a lattice realizing (Gamma*tau, phi) with n0 = sites_per_delay.

    k0 candidates are phi/(2 n0) plus integer multiples of pi/n0 (each adds a
    full 2*pi to the round-trip phase); the branch closest to the band center
    is kept, where the dispersion is most linear.  The band center omega_c
    is set so that the atom frequency omega0 is exactly 0.0, the energy the
    sector Hamiltonian gives the excited atom.  t_max (in units of 1/Gamma,
    default 6) sizes N against boundary wrap-around.
    """
    if sites_per_delay < 2:
        raise CalibrationError("sites_per_delay must be at least 2")
    if Gamma <= 0 or tau <= 0:
        raise ValueError("Gamma and tau must be positive")
    n0 = int(sites_per_delay)
    base = phi / (2.0 * n0)
    branches = (base + j * math.pi / n0 for j in range(n0 + 1))
    candidates = [k0 for k0 in branches if K_WINDOW[0] <= k0 <= K_WINDOW[1]]
    if not candidates:
        raise CalibrationError(
            f"no admissible branch of k0 = phi/(2 n0) + j pi/n0 lies in "
            f"[{K_WINDOW[0]:.3f}, {K_WINDOW[1]:.3f}]"
        )
    k0 = min(candidates, key=lambda k: abs(k - math.pi / 2.0))
    J = 1.0
    v = 2.0 * J * math.sin(k0)
    tau_lat = 2.0 * n0 / v
    Gamma_lat = (Gamma * tau) / tau_lat  # match the dimensionless delay strength
    g_disc = math.sqrt(Gamma_lat * v / 2.0)
    if t_max is None:
        t_max = 6.0 / Gamma
    t_max_lat = (t_max * Gamma) / Gamma_lat
    N = n0 + int(math.ceil(v * t_max_lat)) + n0 + 4
    N_A_sites = max(n0, int(round(N_A_ratio * n0)))
    omega_c = 2.0 * J * math.cos(k0)  # puts the atom frequency at zero
    return ChainSpec(
        N=N, omega_c=omega_c, J=J, g_disc=g_disc, n0=n0, k0=k0, N_A_sites=N_A_sites
    )


def _site_hamiltonian(spec: ChainSpec) -> sp.dia_matrix:
    """Single-photon hopping matrix over sites 1..N (atom excluded)."""
    hop = np.full(spec.N - 1, -spec.J)
    return sp.diags([hop, np.full(spec.N, spec.omega_c), hop], [-1, 0, 1])


def sector_hamiltonian(spec: ChainSpec, max_excitations: int):
    """Sparse Hamiltonian on the sector with at most max_excitations quanta.

    Returns (H, space).  The sector is CompositeSpace(N, m, m) with m =
    max_excitations: the atom is the qubit and site n is mode n - 1.
    H = dGamma(h_site) + g_disc (sigma+ a_n0 + h.c.), the model's
    ``emitter_hamiltonian`` with a coupling on site n0 alone; energies are
    measured from the atom frequency, which ``calibrate_chain`` puts at 0.0
    exactly, so matrix norms stay moderate.
    """
    m = max_excitations
    space = CompositeSpace(spec.N, m, m)
    g = np.zeros(spec.N)
    g[spec.n0 - 1] = spec.g_disc
    return space.emitter_hamiltonian(_site_hamiltonian(spec), g), space


def chebyshev_evolve(H, psi: np.ndarray, h: float, steps: int):
    """(states, record): psi, U psi, ..., U^steps psi with U = exp(-i H h).

    H is Hermitian and sparse; its Gershgorin interval [lo, hi] = [mid - half,
    mid + half] bounds its spectrum, and U = sum_k c_k T_k((H - mid) / half)
    with c_k = (2 - delta_k0) (-i)^k J_k(half h) exp(-i mid h) (Tal-Ezer and
    Kosloff 1984), cut after the last |c_k| >= CHEBYSHEV_CUTOFF; J_k(x) is
    negligible well before k = 2x + 40.  Each step runs the three-term
    recurrence T_{k+1} = 2x T_k - T_{k-1} on sparse matvecs (``csr_dot``,
    which skips scipy's per-call dispatch of ``@``).  The record
    gives the method, the terms per step and the interval.
    """
    from scipy.special import jv

    # each eigenvalue lies within some row's off-diagonal sum of its diagonal
    diag = H.diagonal().real
    radius = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    k = np.arange(int(2.0 * half * h) + 40)
    coef = (2.0 - (k == 0)) * (-1j) ** k * jv(k, half * h) * np.exp(-1j * mid * h)
    coef = coef[: np.flatnonzero(np.abs(coef) >= CHEBYSHEV_CUTOFF)[-1] + 1]
    # 2x = 2 (H - mid) / half, so that each further term costs one matvec
    X2 = (H - mid * sp.identity(H.shape[0], format="csr")) / (0.5 * half)
    states = np.empty((steps + 1, len(psi)), dtype=complex)
    states[0] = psi
    for i in range(1, steps + 1):
        prev, cur = states[i - 1], 0.5 * csr_dot(X2, states[i - 1])
        out = coef[0] * prev + coef[1] * cur
        for c in coef[2:]:
            prev, cur = cur, csr_dot(X2, cur) - prev
            out += c * cur
        states[i] = out
    return states, {
        "method": "chebyshev",
        "terms_per_step": len(coef),
        "spectral_interval": [lo, hi],
    }


def evolve_sector(
    spec: ChainSpec,
    psi0,
    t_grid: np.ndarray,
    max_excitations: int = 1,
) -> EvolutionResult:
    """Exact propagation in the bounded-excitation sector.

    psi0 is a dict {(atom, sites): amplitude}, where sites lists the occupied
    sites (1..N, repeated for several photons on one site); it is the state
    at t = 0, where t_grid must start.  t_grid is uniform and in units of
    1/Gamma (converted to lattice time internally); ``chebyshev_evolve``
    advances the state from each grid point to the next.  Raises if the
    window exceeds the wrap-around horizon.  meta records the sector and the
    propagator: dim, steps, terms per step and the spectral interval.
    """
    H, space = sector_hamiltonian(spec, max_excitations)
    psi = np.zeros(space.dim, dtype=complex)
    for (atom, sites), amp in psi0.items():
        # photons per site 1..N; a site outside the chain raises
        counts = np.bincount(np.asarray(sites, dtype=int) - 1, minlength=spec.N)
        psi += amp * space.basis_state([atom, *counts])
    t_grid = np.asarray(t_grid, dtype=float)
    h = uniform_step(t_grid) / spec.Gamma
    if t_grid[0] != 0.0:
        raise ValueError(f"t_grid starts at {t_grid[0]}; psi0 is the state at t = 0")
    t_lat = t_grid / spec.Gamma
    if t_lat[-1] > spec.horizon():
        raise ValueError(
            f"window {t_lat[-1]:.1f} exceeds the no-wrap horizon {spec.horizon():.1f}; "
            "recalibrate with a larger t_max"
        )
    states, record = chebyshev_evolve(H, psi, h, len(t_grid) - 1)

    p = np.abs(states) ** 2
    energy = np.array([np.real(np.vdot(s, H @ s)) for s in states])
    # the atom is factor 0 and site n is factor n
    block_A = range(1, spec.N_A_sites + 1)
    block_B = range(spec.N_A_sites + 1, space.n_factors)
    return EvolutionResult(
        t=t_grid,
        observables={
            "atom_population": p @ space.excitations([0]),
            "photons_block_A": p @ space.excitations(block_A),
            "photons_block_B": p @ space.excitations(block_B),
            "norm": p.sum(axis=1),
            "energy": energy,
        },
        meta={
            "max_excitations": max_excitations,
            "dim": space.dim,
            "steps": len(t_grid) - 1,
            **record,
        },
    )


@dataclass
class BlockTransformReport:
    """Numerical verification of the two-block normal-mode decomposition."""

    g_m: np.ndarray  # atom coupling to each block-A normal mode
    xi_m: np.ndarray  # block-A side of the inter-block coupling
    chi_m: np.ndarray  # block-B side of the inter-block coupling
    m0: int  # resonant block-A mode index (1-based)
    unitarity_error: float
    reconstruction_error: float
    reassembly_error: float


def _sine_modes(n: int) -> np.ndarray:
    """Rows = normal modes of an open chain of n sites."""
    m = np.arange(1, n + 1)
    U = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(m, m) * math.pi / (n + 1))
    return U


def block_transform(spec: ChainSpec) -> BlockTransformReport:
    """Build both blocks' sine modes and verify the decomposition term by term.

    Conjugating the single-photon chain Hamiltonian by the block transforms
    must reproduce: diagonal mode energies, atom couplings
    g_m = g_disc sqrt(2/(N_A+1)) sin(k_m n0), and the separable inter-block
    coupling xi_m * chi_m'.
    """
    NA, NB = spec.N_A_sites, spec.N - spec.N_A_sites
    Hsite = _site_hamiltonian(spec).toarray()
    UA = _sine_modes(NA)
    UB = _sine_modes(NB)
    U = np.zeros((spec.N, spec.N))
    U[:NA, :NA] = UA
    U[NA:, NA:] = UB
    unit_err = float(np.max(np.abs(U @ U.T - np.eye(spec.N))))

    Ht = U @ Hsite @ U.T

    mA = np.arange(1, NA + 1)
    kA = mA * math.pi / (NA + 1)
    omA = spec.omega_c - 2.0 * spec.J * np.cos(kA)
    mB = np.arange(1, NB + 1)
    kB = mB * math.pi / (NB + 1)
    omB = spec.omega_c - 2.0 * spec.J * np.cos(kB)
    xi = spec.J * math.sqrt(2.0 / (NA + 1)) * ((-1.0) ** mA) * np.sin(kA)
    chi = np.sqrt(2.0 / (NB + 1)) * np.sin(kB)
    expected = np.zeros_like(Ht)
    expected[:NA, :NA] = np.diag(omA)
    expected[NA:, NA:] = np.diag(omB)
    expected[:NA, NA:] = np.outer(xi, chi)
    expected[NA:, :NA] = np.outer(chi, xi)
    recon_err = float(np.max(np.abs(Ht - expected)))

    back = U.T @ Ht @ U
    reass_err = float(np.max(np.abs(back - Hsite)))

    g_m = spec.g_disc * math.sqrt(2.0 / (NA + 1)) * np.sin(kA * spec.n0)
    m0 = int(round(spec.k0 * (NA + 1) / math.pi))
    return BlockTransformReport(
        g_m=g_m,
        xi_m=xi,
        chi_m=chi,
        m0=m0,
        unitarity_error=unit_err,
        reconstruction_error=recon_err,
        reassembly_error=reass_err,
    )


def continuum_couplings(spec: ChainSpec, report: BlockTransformReport, nu_range) -> tuple:
    """(chain g_m, continuum-limit g_nu) near the resonant block-A mode.

    The continuum formula is evaluated with L = N_A_sites+1, x0 = n0, and the
    calibrated phase.  The chain's sine modes are referenced to the mirror; a
    convention that references them to the block interface instead picks up a
    (-1)^nu mode phase, so this mirror-referenced form carries no alternating
    sign.  Compare errors against max|g| — per-mode relative error diverges at
    coupling nodes for any finite-size wavevector mismatch.
    """
    NA = spec.N_A_sites
    L = NA + 1.0
    out_chain, out_cont = [], []
    for nu in nu_range:
        m = report.m0 + nu
        if not (1 <= m <= NA):
            raise IndexError(f"mode m={m} outside block A")
        g_cont = (
            spec.g_disc
            * math.sqrt(2.0 / L)
            * math.sin(nu * math.pi * spec.n0 / L + spec.phi / 2.0)
        )
        out_chain.append(report.g_m[m - 1])
        out_cont.append(g_cont)
    return np.array(out_chain), np.array(out_cont)
