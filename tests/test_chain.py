"""Discretized-waveguide oracle: calibration, evolution, mode analysis."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from mirrorqed.chain import (
    CalibrationError,
    block_transform,
    calibrate_chain,
    chebyshev_evolve,
    continuum_couplings,
    evolve_sector,
    sector_hamiltonian,
)
from mirrorqed.dde import analytic_series
from mirrorqed.hilbert import sigma_plus

EXC = {(1, ()): 1.0}  # excited atom, empty lattice


def test_calibration_realizes_targets():
    spec = calibrate_chain(Gamma=1.0, tau=2.0, phi=2 * math.pi, sites_per_delay=20)
    assert spec.Gamma * spec.tau == pytest.approx(2.0, rel=1e-12)
    # phase realized modulo 2*pi
    assert math.cos(spec.phi) == pytest.approx(1.0, abs=1e-12)
    assert math.sin(spec.phi) == pytest.approx(0.0, abs=1e-12)
    assert spec.n0 == 20
    assert spec.v_lattice == pytest.approx(2 * spec.J * math.sin(spec.k0))
    # atom resonant with the k0 mode of the band
    assert spec.omega0 == pytest.approx(spec.omega_c - 2 * spec.J * math.cos(spec.k0))
    # momentum kept away from the band edges where the dispersion degrades
    assert 0.2 * math.pi <= spec.k0 <= 0.8 * math.pi


def test_calibration_rejects_degenerate_lattice():
    with pytest.raises(CalibrationError):
        calibrate_chain(Gamma=1.0, tau=2.0, phi=math.pi, sites_per_delay=1)


def test_sector_evolution_conserves_norm_and_energy():
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi / 2, sites_per_delay=10,
                           t_max=3.0)
    t = np.linspace(0.0, 3.0, 16)
    res = evolve_sector(spec, EXC, t, max_excitations=1)
    assert np.allclose(res.observables["norm"], 1.0, atol=1e-12)
    e = res.observables["energy"]
    assert np.allclose(e, e[0], atol=1e-10)


def test_single_excitation_matches_delay_equation():
    Gamma, tau, phi = 1.0, 2.0, math.pi / 2
    spec = calibrate_chain(Gamma, tau, phi, sites_per_delay=40, t_max=5.0)
    t = np.arange(0.0, 5.0 + 1e-9, tau / 40)
    res = evolve_sector(spec, EXC, t, max_excitations=1)
    ref = np.abs(analytic_series(Gamma, tau, phi, t)) ** 2
    assert np.max(np.abs(res.observables["atom_population"] - ref)) < 0.01


def test_convergence_in_lattice_resolution():
    Gamma, tau, phi = 1.0, 2.0, math.pi / 2
    errs = []
    for n0 in (10, 20):
        spec = calibrate_chain(Gamma, tau, phi, sites_per_delay=n0, t_max=4.0)
        t = np.arange(0.0, 4.0 + 1e-9, tau / n0)
        res = evolve_sector(spec, EXC, t, max_excitations=1)
        ref = np.abs(analytic_series(Gamma, tau, phi, t)) ** 2
        errs.append(np.max(np.abs(res.observables["atom_population"] - ref)))
    assert errs[1] < 0.7 * errs[0]


def test_horizon_guard():
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi, sites_per_delay=10,
                           t_max=2.0)
    with pytest.raises(ValueError):
        evolve_sector(spec, EXC, np.linspace(0.0, 50.0, 11), max_excitations=1)


def test_block_transform_diagonalizes_blocks():
    spec = calibrate_chain(Gamma=1.0, tau=2.0, phi=math.pi / 2, sites_per_delay=20,
                           t_max=2.0)
    rep = block_transform(spec)
    assert rep.unitarity_error < 1e-12
    assert rep.reconstruction_error < 1e-10
    assert rep.reassembly_error < 1e-10
    # the resonant block-A mode sits at the atom frequency
    kA = rep.m0 * math.pi / (spec.N_A_sites + 1)
    om_m0 = spec.omega_c - 2 * spec.J * math.cos(kA)
    assert abs(om_m0 - spec.omega0) < 4 * spec.J * math.pi / spec.N_A_sites


def test_block_couplings_approach_continuum():
    Gamma, tau, phi = 1.0, 2.0, math.pi / 2
    spec = calibrate_chain(Gamma, tau, phi, sites_per_delay=40, t_max=12.0,
                           N_A_ratio=10.0)
    rep = block_transform(spec)
    g_chain, g_cont = continuum_couplings(spec, rep, range(-3, 4))
    scale = np.max(np.abs(g_chain))
    assert np.max(np.abs(g_chain - g_cont)) / scale < 0.01


def test_two_excitation_sector_contains_single_sector():
    # with one initial excitation the dynamics is identical in the 2-quanta sector
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi, sites_per_delay=8,
                           t_max=2.0)
    t = np.linspace(0.0, 2.0, 9)
    r1 = evolve_sector(spec, EXC, t, max_excitations=1)
    r2 = evolve_sector(spec, EXC, t, max_excitations=2)
    assert np.allclose(
        r1.observables["atom_population"],
        r2.observables["atom_population"],
        atol=1e-10,
    )


def test_photon_blocks_partition_the_emission():
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi / 2, sites_per_delay=10,
                           t_max=3.0)
    t = np.linspace(0.0, 3.0, 7)
    res = evolve_sector(spec, EXC, t, max_excitations=1)
    total = (
        res.observables["atom_population"]
        + res.observables["photons_block_A"]
        + res.observables["photons_block_B"]
    )
    assert np.allclose(total, 1.0, atol=1e-10)


def test_single_excitation_hamiltonian_is_the_site_matrix():
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi / 2, sites_per_delay=6,
                           t_max=2.0)
    H, space = sector_hamiltonian(spec, 1)
    # assembled by hand on (vacuum, atom, site 1, ..., site N)
    N = spec.N
    ref = np.zeros((N + 2, N + 2))
    ref[1, 1] = spec.omega0
    for n in range(1, N + 1):
        ref[1 + n, 1 + n] = spec.omega_c
        if n < N:
            ref[1 + n, 2 + n] = ref[2 + n, 1 + n] = -spec.J
    ref[1, 1 + spec.n0] = ref[1 + spec.n0, 1] = spec.g_disc
    labels = [(0,) + (0,) * N, (1,) + (0,) * N]
    labels += [(0,) + tuple(np.eye(N, dtype=int)[n]) for n in range(N)]
    order = [np.flatnonzero(space.basis_state(occ))[0] for occ in labels]
    assert space.dim == N + 2
    assert np.array_equal(H.toarray()[np.ix_(order, order)], ref)


@pytest.mark.parametrize("max_excitations", [1, 2, 3])
def test_sector_hamiltonian_is_bitwise_the_embed_formula(max_excitations):
    # reference: omega0 n_atom + dGamma(h_site) + g (sigma+ a_n0 + h.c.), term by
    # term from single-factor embeds, so the calibrated omega0 = 0 drops nothing
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi / 2, sites_per_delay=4,
                           t_max=2.0)
    H, space = sector_hamiltonian(spec, max_excitations)
    m = max_excitations
    hop = np.full(spec.N - 1, -spec.J)
    h_site = sp.diags([hop, np.full(spec.N, spec.omega_c), hop], [-1, 0, 1])
    a = np.diag(np.sqrt(np.arange(1, m + 1, dtype=float)), k=1)
    absorb = space.embed(sigma_plus(), 0) @ space.embed(a, spec.n0)  # site n is factor n
    ref = (
        spec.omega0 * space.embed(np.diag([0.0, 1.0]), 0)
        + space.one_body(h_site)
        + spec.g_disc * (absorb + absorb.conj().T)
    ).tocsr()
    assert spec.omega0 == 0.0
    assert np.array_equal(H.indptr, ref.indptr)
    assert np.array_equal(H.indices, ref.indices)
    assert H.data.tobytes() == ref.data.tobytes()


def test_sector_labels_place_photons_on_sites():
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi, sites_per_delay=8,
                           t_max=2.0)
    t = np.linspace(0.0, 0.5, 3)
    # two photons on site n0: the excitation number stays 2
    res = evolve_sector(spec, {(0, (spec.n0, spec.n0)): 1.0}, t, max_excitations=2)
    total = (
        res.observables["atom_population"]
        + res.observables["photons_block_A"]
        + res.observables["photons_block_B"]
    )
    assert res.observables["photons_block_A"][0] == pytest.approx(2.0)
    assert np.allclose(total, 2.0, atol=1e-10)
    with pytest.raises(ValueError):
        evolve_sector(spec, {(0, (0,)): 1.0}, t)  # site 0 is the mirror
    with pytest.raises(ValueError):
        evolve_sector(spec, {(0, (1, 2)): 1.0}, t, max_excitations=1)


def test_sector_evolution_rejects_nonuniform_grid():
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi, sites_per_delay=8,
                           t_max=2.0)
    with pytest.raises(ValueError, match="uniform"):
        evolve_sector(spec, EXC, np.array([0.0, 0.5, 1.5]))


@pytest.mark.parametrize("max_excitations", [1, 2])
@pytest.mark.parametrize("step", [0.05, 1.5])  # the decay grid; half-width x step 15-33
def test_chebyshev_steps_match_dense_propagator(max_excitations, step):
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi / 2, sites_per_delay=4,
                           t_max=2.0)
    H, space = sector_hamiltonian(spec, max_excitations)
    rng = np.random.default_rng(max_excitations)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    h = step / spec.Gamma
    states, record = chebyshev_evolve(H, psi, h, 20)
    U = expm(-1j * h * H.toarray())
    ref = [psi]
    for _ in range(20):
        ref.append(U @ ref[-1])
    assert np.max(np.abs(states - np.array(ref))) < 1e-12
    lo, hi = record["spectral_interval"]
    eig = np.linalg.eigvalsh(H.toarray())
    assert lo <= eig[0] and eig[-1] <= hi
    assert record["method"] == "chebyshev" and record["terms_per_step"] > 1


def test_sector_evolution_records_its_propagator():
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi, sites_per_delay=8,
                           t_max=2.0)
    res = evolve_sector(spec, EXC, np.linspace(0.0, 2.0, 9), max_excitations=1)
    assert res.meta["dim"] == spec.N + 2 and res.meta["steps"] == 8
    assert res.meta["method"] == "chebyshev"


def test_sector_evolution_starts_at_zero():
    # psi0 is the state at t = 0, so a grid that starts elsewhere is refused
    spec = calibrate_chain(Gamma=1.0, tau=1.0, phi=math.pi, sites_per_delay=8,
                           t_max=2.0)
    with pytest.raises(ValueError, match="t = 0"):
        evolve_sector(spec, EXC, np.linspace(0.5, 1.5, 5))
