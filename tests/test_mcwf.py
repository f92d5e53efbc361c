"""Trajectory unraveling against exact and master-equation references."""

import numpy as np
import pytest

from mirrorqed.hilbert import CompositeSpace, sigma_minus, sigma_x
from mirrorqed.lindblad import build_liouvillian, integrate_me
from mirrorqed.mcwf import effective_hamiltonian, mcwf_evolve


def test_qubit_decay_within_stderr():
    t = np.linspace(0, 4, 41)
    psi0 = np.array([0.0, 1.0], dtype=complex)
    res = mcwf_evolve(
        np.zeros((2, 2)),
        [(sigma_minus(), 1.0)],
        psi0,
        t,
        n_traj=600,
        seed=2,
        e_ops={"p": np.diag([0.0, 1.0]).astype(complex)},
        substeps=4,
    )
    exact = np.exp(-t)
    err = res.stderr["p"]
    # within 4 standard errors everywhere, and actually stochastic
    assert np.all(np.abs(res.observables["p"] - exact) <= 4 * err + 1e-9)
    assert res.meta["total_jumps"] > 0


def test_matches_master_equation_with_drive():
    Omega, kappa = 1.5, 1.0
    H = 0.5 * Omega * sigma_x()
    t = np.linspace(0, 5, 51)
    L = build_liouvillian(H, [(sigma_minus(), kappa)])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    me = integrate_me(L, rho0, t, e_ops={"p": np.diag([0.0, 1.0])}, keep_states=False)
    res = mcwf_evolve(
        H,
        [(sigma_minus(), kappa)],
        np.array([1.0, 0.0], dtype=complex),
        t,
        n_traj=800,
        seed=5,
        e_ops={"p": np.diag([0.0, 1.0]).astype(complex)},
        substeps=8,
    )
    diff = np.abs(res.observables["p"] - me.observables["p"])
    assert np.all(diff <= 3.5 * res.stderr["p"] + 5e-4)


def test_no_jump_channels_is_deterministic_unitary():
    H = 0.5 * sigma_x()
    t = np.linspace(0, 3, 31)
    res = mcwf_evolve(
        H, [], np.array([1.0, 0.0], dtype=complex), t,
        n_traj=3, seed=0,
        e_ops={"p": np.diag([0.0, 1.0]).astype(complex)}, substeps=20,
    )
    assert np.allclose(res.observables["p"], np.sin(0.5 * t) ** 2, atol=1e-8)
    assert np.max(res.stderr["p"]) < 1e-8


def test_same_seed_reproduces_bitwise():
    t = np.linspace(0, 2, 21)
    kwargs = dict(
        n_traj=50, e_ops={"p": np.diag([0.0, 1.0]).astype(complex)}, substeps=2
    )
    psi0 = np.array([0.0, 1.0], dtype=complex)
    a = mcwf_evolve(np.zeros((2, 2)), [(sigma_minus(), 1.0)], psi0, t, seed=9, **kwargs)
    b = mcwf_evolve(np.zeros((2, 2)), [(sigma_minus(), 1.0)], psi0, t, seed=9, **kwargs)
    c = mcwf_evolve(np.zeros((2, 2)), [(sigma_minus(), 1.0)], psi0, t, seed=10, **kwargs)
    assert np.array_equal(a.observables["p"], b.observables["p"])
    assert np.array_equal(a.stderr["p"], b.stderr["p"])
    assert not np.array_equal(a.observables["p"], c.observables["p"])


def test_callable_observables_and_time_dependence():
    # drive a decaying qubit with a brief pulse; callable e_op sees normalized states
    t = np.linspace(0, 4, 81)

    def coeff(tt):
        return 0.8 * np.exp(-((tt - 1.0) ** 2))

    def norm2(_t, psi):
        return float(np.vdot(psi, psi).real)

    res = mcwf_evolve(
        np.zeros((2, 2)),
        [(sigma_minus(), 1.0)],
        np.array([1.0, 0.0], dtype=complex),
        t,
        n_traj=40,
        seed=1,
        td_terms=[(coeff, np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))],
        e_ops={"n2": norm2, "p": np.diag([0.0, 1.0]).astype(complex)},
        substeps=6,
    )
    assert np.allclose(res.observables["n2"], 1.0, atol=1e-9)
    assert np.max(res.observables["p"]) > 0.05  # the pulse excited the qubit


def test_leak_projector_reports_boundary_population():
    # one mode truncated at a single photon, driven hard: leakage must register
    space = CompositeSpace(n_modes=1, n_max=1)
    a = space.embed(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    t = np.linspace(0, 2, 21)
    with pytest.warns(UserWarning, match="leakage"):
        res = mcwf_evolve(
            np.zeros((space.dim, space.dim)),
            [],
            space.basis_state((0, 0)),
            t,
            n_traj=1,
            seed=0,
            td_terms=[(lambda _t: 1.0, a.conj().T)],
            e_ops={},
            substeps=12,
            leak_projector=space.boundary_projector(),
        )
    assert res.meta["max_leakage"] > 0.1


def test_input_validation():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        mcwf_evolve(np.zeros((2, 2)), [], 2.0 * psi0, t, n_traj=1, seed=0)
    with pytest.raises(ValueError):
        mcwf_evolve(np.zeros((2, 2)), [], psi0, t[::-1], n_traj=1, seed=0)
    with pytest.raises(ValueError):
        mcwf_evolve(np.zeros((2, 2)), [], psi0, t, n_traj=0, seed=0)
    with pytest.raises(ValueError):  # a projector matrix, not its diagonal
        mcwf_evolve(np.zeros((2, 2)), [], psi0, t, n_traj=1, seed=0, leak_projector=np.eye(2))
    with pytest.raises(ValueError):
        mcwf_evolve(np.zeros((2, 2)), [], psi0, t, n_traj=1, seed=0, substeps=0)


def test_effective_hamiltonian_adds_half_rate_loss():
    H = sigma_x().astype(complex)
    Heff = effective_hamiltonian(H, [(sigma_minus(), 0.6), (sigma_x(), 0.0)])
    assert np.allclose(Heff.toarray(), H - 0.3j * np.diag([0.0, 1.0]))
