"""Master-equation engine: the matrix-form generator, propagation, steady states."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorqed.hilbert import as_csr, sigma_minus, sigma_plus, sigma_x
from mirrorqed.lindblad import (
    DriveDissipationSpec,
    NonHermitianError,
    NonUniqueSteadyStateError,
    TRACE_NULL_TOL,
    atom_op,
    build_hamiltonian,
    build_jump_ops,
    build_liouvillian,
    collective_mode_op,
    integrate_me,
    space_for_model,
    steady_state,
    total_excitation_op,
)
from mirrorqed.model import (
    ParameterError,
    build_effective_model,
    params_from_dimensionless,
    snap_block_length,
)


def _rand_herm(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return M + M.conj().T


def _rand_rho(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


def _kron_generator(H, jumps):
    """Reference: the d^2 x d^2 generator, vec(rho') = L vec(rho) in C order,
    built from vec(A rho B) = (A kron B^T) vec(rho)."""
    H = as_csr(H)
    eye = sp.identity(H.shape[0], dtype=complex, format="csr")
    L = -1j * (sp.kron(H, eye) - sp.kron(eye, H.T))
    for J, rate in jumps:
        J = as_csr(J)
        JdJ = J.conj().T @ J
        L = L + rate * (
            sp.kron(J, J.conj()) - 0.5 * sp.kron(JdJ, eye) - 0.5 * sp.kron(eye, JdJ.T)
        )
    return L.tocsr()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_generator_applies_the_lindblad_form(seed):
    rng = np.random.default_rng(seed)
    d = 4
    H = _rand_herm(rng, d)
    J = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = _rand_rho(rng, d)
    rate = 0.7
    JdJ = J.conj().T @ J
    dense = -1j * (H @ rho - rho @ H) + rate * (
        J @ rho @ J.conj().T - 0.5 * (JdJ @ rho + rho @ JdJ)
    )
    L = build_liouvillian(H, [(J, rate)])
    assert np.allclose(L.apply(rho), dense)
    assert L.nnz == 2 * d * d  # dense Heff and one dense jump


def test_liouvillian_preserves_trace():
    rng = np.random.default_rng(3)
    H = _rand_herm(rng, 5)
    J = rng.normal(size=(5, 5))
    L = build_liouvillian(H, [(J, 0.4), (J.T, 1.1)])
    assert abs(np.trace(L.apply(_rand_rho(rng, 5)))) < 1e-12


def test_non_hermitian_hamiltonian_rejected():
    with pytest.raises(NonHermitianError):
        build_liouvillian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_hermitian_initial_state_rejected():
    L = build_liouvillian(np.zeros((2, 2)), [(sigma_minus(), 1.0)])
    with pytest.raises(NonHermitianError, match="rho0"):
        integrate_me(L, np.array([[1.0, 0.1], [0.0, 0.0]]), np.linspace(0, 1, 3))


def test_qubit_decay_analytic():
    L = build_liouvillian(np.zeros((2, 2)), [(sigma_minus(), 1.0)])
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    t = np.linspace(0, 5, 51)
    res = integrate_me(L, rho0, t, e_ops={"p": np.diag([0.0, 1.0])})
    assert np.allclose(res.observables["p"], np.exp(-t), atol=1e-7)
    assert np.max(res.observables["trace_residual"]) < 1e-8


def test_expm_and_rk45_agree():
    rng = np.random.default_rng(11)
    H = _rand_herm(rng, 3)
    J = rng.normal(size=(3, 3))
    rho0 = _rand_rho(rng, 3)
    t = np.linspace(0, 2, 21)
    a = integrate_me(build_liouvillian(H, [(J, 0.5)]), rho0, t, rtol=1e-10, atol=1e-12)
    Lk = _kron_generator(H, [(J, 0.5)]).toarray()
    b = [(expm(Lk * tk) @ rho0.reshape(-1)).reshape(3, 3) for tk in t]
    diff = max(np.max(np.abs(x - y)) for x, y in zip(a.states, b))
    assert diff < 1e-8


def _assert_steady(H, jumps, rho):
    """The residual bound of a vectorized solve: |L vec rho| <= tol * max |L_ij|."""
    L = _kron_generator(H, jumps)
    assert np.max(np.abs(L @ rho.reshape(-1))) <= TRACE_NULL_TOL * abs(L).max()


def _trace_row_steady(L):
    """Reference: sparse LU of L with its first row replaced by the trace."""
    n = L.shape[0]
    d = math.isqrt(n)
    M = L.tolil(copy=True)
    M[0] = np.where(np.arange(n) % (d + 1) == 0, 1.0, 0.0)
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    rho = sp.linalg.spsolve(M.tocsc(), rhs).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _criterion_7_problem(N_A, cap):
    """The driven model at Gamma tau = 0.25, phi = pi, ratio 1, Omega_D = 4 Gamma."""
    p = params_from_dimensionless(0.25, math.pi)
    m = build_effective_model(p, snap_block_length(p, 1.0), N_A)
    space = space_for_model(m, n_max=cap, max_excitations=cap)
    drive = DriveDissipationSpec(Omega_D=4.0 * p.Gamma, gamma=m.gamma)
    return build_hamiltonian(m, drive, space), build_jump_ops(m, drive, space)


def test_driven_qubit_steady_state_closed_form():
    # resonant Rabi drive + decay: rho_ee = s/2/(1+s), s = 2 Omega^2/kappa^2
    Omega, kappa = 1.3, 0.9
    H = 0.5 * Omega * sigma_x()
    rho = steady_state(H, [(sigma_minus(), kappa)])
    s = 2 * Omega**2 / kappa**2
    assert rho[1, 1].real == pytest.approx(0.5 * s / (1 + s), abs=1e-10)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    _assert_steady(H, [(sigma_minus(), kappa)], rho)


def test_degenerate_steady_state_detected():
    # no dynamics at all: every state is steady
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(np.zeros((2, 2)), [])


@pytest.mark.parametrize("N_A, cap", [(0, 3), (1, 3), (2, 2), (3, 2)])
def test_steady_state_matches_trace_row_lu(N_A, cap):
    H, jumps = _criterion_7_problem(N_A, cap)
    rho = steady_state(H, jumps)
    ref = _trace_row_steady(_kron_generator(H, jumps))
    assert np.max(np.abs(rho - ref)) <= 1e-12
    _assert_steady(H, jumps, rho)


def test_decoupled_level_makes_steady_state_non_unique():
    # a generic generator on 69 levels plus one level nothing touches: both
    # its steady state and the lone level are steady (d = 70, side 4900)
    rng = np.random.default_rng(5)
    H = sp.block_diag([_rand_herm(rng, 69), np.zeros((1, 1))], format="csr")
    J = rng.normal(size=(69, 69)) + 1j * rng.normal(size=(69, 69))
    J = sp.block_diag([J, np.zeros((1, 1))], format="csr")
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(H, [(J, 0.5)])
    rho = steady_state(H[:69, :69], [(J[:69, :69], 0.5)])
    _assert_steady(H[:69, :69], [(J[:69, :69], 0.5)], rho)


def test_steady_state_is_bitwise_repeatable():
    H, jumps = _criterion_7_problem(1, 3)
    a = steady_state(H, jumps)
    b = steady_state(H, jumps)
    assert a.tobytes() == b.tobytes()


def test_steady_state_checks_its_generator():
    with pytest.raises(NonHermitianError):
        steady_state(np.array([[0.0, 1.0], [0.0, 0.0]]), [(sigma_minus(), 1.0)])
    with pytest.raises(ParameterError):
        steady_state(sigma_x(), [(sigma_minus(), -1.0)])


def _small_model(N_A=1, Gamma_tau=2.0, phi=math.pi / 2):
    p = params_from_dimensionless(Gamma_tau, phi)
    L = snap_block_length(p, 2.0)
    return build_effective_model(p, L, N_A)


def test_hamiltonian_hermitian_and_excitation_conserving():
    m = _small_model(N_A=2)
    space = space_for_model(m, n_max=2, max_excitations=2)
    H = build_hamiltonian(m, DriveDissipationSpec(gamma=m.gamma), space).matrix
    assert np.max(np.abs(H - H.conj().T)) < 1e-12
    N = total_excitation_op(space)
    assert np.max(np.abs(H @ N - N @ H)) < 1e-10


def test_drive_breaks_excitation_conservation():
    m = _small_model(N_A=0)
    space = space_for_model(m, n_max=1, max_excitations=1)
    H = build_hamiltonian(m, DriveDissipationSpec(Omega_D=1.0, gamma=m.gamma), space).matrix
    N = total_excitation_op(space)
    assert np.max(np.abs(H @ N - N @ H)) > 1e-3


def test_jump_ops_channels():
    m = _small_model(N_A=1)
    space = space_for_model(m, n_max=1, max_excitations=1)
    drive = DriveDissipationSpec(gamma=m.gamma, kappa=0.2, kappa_phi=0.3)
    jumps = build_jump_ops(m, drive, space)
    assert len(jumps) == 3
    op, rate = jumps[0]
    assert rate == pytest.approx(m.gamma)
    assert np.allclose(op.toarray(), collective_mode_op(space).toarray())
    assert jumps[1][1] == pytest.approx(0.2)
    assert jumps[2][1] == pytest.approx(0.3)


def test_single_mode_jump_variant():
    m = _small_model(N_A=1)
    space = space_for_model(m, n_max=1, max_excitations=1)
    drive = DriveDissipationSpec(gamma=m.gamma, jump_mode="single")
    (op, rate), = build_jump_ops(m, drive, space)
    # acts on the resonant mode only: annihilates a photon in mode nu=0
    psi = space.basis_state((0, 0, 1, 0))
    out = op @ psi
    assert np.linalg.norm(out - space.basis_state((0, 0, 0, 0))) < 1e-12


def test_rotating_and_lab_frames_share_populations():
    p = params_from_dimensionless(0.5, math.pi, min_half_waves=2)
    Lb = snap_block_length(p, 1.0)
    t = np.linspace(0, 1.5, 16)
    pops = {}
    for frame in ("rotating", "lab"):
        m = build_effective_model(p, Lb, N_A=1, frame=frame)
        space = space_for_model(m, n_max=1, max_excitations=1)
        H = build_hamiltonian(m, DriveDissipationSpec(gamma=m.gamma), space)
        jumps = build_jump_ops(m, DriveDissipationSpec(gamma=m.gamma), space)
        psi0 = space.vacuum(excited=True)
        rho0 = np.outer(psi0, psi0.conj())
        res = integrate_me(
            build_liouvillian(H, jumps), rho0, t,
            e_ops={"p": atom_op(space, sigma_plus() @ sigma_minus())},
            rtol=1e-10, atol=1e-12, keep_states=False,
        )
        pops[frame] = res.observables["p"]
    assert np.max(np.abs(pops["rotating"] - pops["lab"])) < 1e-6


def test_time_dependent_drive_term():
    # the pair (c, sigma+) with c = i Omega/2 adds c sigma+ + conj(c) sigma-,
    # the constant drive (Omega/2) sigma_y; swapping c and conj(c) flips it
    Omega, kappa = 0.8, 1.0
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    L0 = build_liouvillian(0.5 * Omega * sigma_y, [(sigma_minus(), kappa)])
    L_free = build_liouvillian(np.zeros((2, 2)), [(sigma_minus(), kappa)])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = np.linspace(0, 3, 31)
    ref = integrate_me(L0, rho0, t, rtol=1e-10, atol=1e-12)
    td = [(lambda _t: 0.5j * Omega, sigma_plus())]
    res = integrate_me(L_free, rho0, t, td_terms=td, rtol=1e-10, atol=1e-12)
    diff = max(np.max(np.abs(a - b)) for a, b in zip(ref.states, res.states))
    assert diff < 1e-7
