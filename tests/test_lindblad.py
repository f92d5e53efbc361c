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
from mirrorqed.scattering import PulseSpec, build_drive_term


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
    H = build_hamiltonian(m, DriveDissipationSpec(gamma=m.gamma), space)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12
    N = total_excitation_op(space)
    assert np.max(np.abs(H @ N - N @ H)) < 1e-10


def test_drive_breaks_excitation_conservation():
    m = _small_model(N_A=0)
    space = space_for_model(m, n_max=1, max_excitations=1)
    H = build_hamiltonian(m, DriveDissipationSpec(Omega_D=1.0, gamma=m.gamma), space)
    N = total_excitation_op(space)
    assert np.max(np.abs(H @ N - N @ H)) > 1e-3


def test_jump_ops_channels():
    m = _small_model(N_A=1)
    space = space_for_model(m, n_max=1, max_excitations=1)
    (op, rate), = build_jump_ops(m, DriveDissipationSpec(gamma=m.gamma), space)
    assert rate == pytest.approx(m.gamma)
    assert np.allclose(op.toarray(), collective_mode_op(space).toarray())
    assert build_jump_ops(m, DriveDissipationSpec(), space) == []


def _per_mode_operators(model, drive, space):
    """The per-mode embed loops that built H, A and N before the one-shot lifts;
    mode m is factor 1 + m."""
    a = np.diag(np.sqrt(np.arange(1, space.n_max + 1, dtype=float)), k=1)
    n_local = np.diag(np.arange(space.n_max + 1, dtype=float)).astype(complex)
    sm = space.embed(sigma_minus(), 0)
    H = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    A = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    N = space.embed(np.diag([0.0, 1.0]).astype(complex), 0)
    for m, (freq, g) in enumerate(zip(model.detunings(), model.g_nu)):
        if freq != 0.0:
            H += freq * space.embed(n_local, 1 + m)
        adag_sm = space.embed(a.T, 1 + m) @ sm
        H += g * (adag_sm + adag_sm.conj().T)
        A += space.embed(a, 1 + m)
        N += space.embed(n_local, 1 + m)
    if drive.Omega_D != 0.0:
        H += 0.5 * drive.Omega_D * space.embed(sigma_x(), 0)
    return H, A, N


def _same_csr(x, y):
    return (
        np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and x.data.tobytes() == y.data.tobytes()
    )


@pytest.mark.parametrize(
    "Gamma_tau, phi, ratio, N_A, n_max, cap, Omega_D",
    # criterion 7 (its N_A ladder), criterion 8, criterion 9, then the decay ladder
    [(0.25, math.pi, 1.0, N_A, 3, 3, 4.0) for N_A in (0, 1)]
    + [(0.25, math.pi, 1.0, N_A, 2, 2, 4.0) for N_A in (2, 3)]
    + [(0.25, math.pi, 1.0, 0, 3, 3, 2.0), (4.0, math.pi / 2, 2.0, 2, 3, 5, 0.0)]
    + [(2.0, math.pi / 2, 2.0, N_A, 1, 1, 0.0) for N_A in range(1, 16)],
)
def test_model_operators_are_bitwise_the_per_mode_sums(
    Gamma_tau, phi, ratio, N_A, n_max, cap, Omega_D
):
    p = params_from_dimensionless(Gamma_tau, phi)
    m = build_effective_model(p, snap_block_length(p, ratio), N_A)
    space = space_for_model(m, n_max=n_max, max_excitations=cap)
    drive = DriveDissipationSpec(Omega_D=Omega_D * p.Gamma, gamma=m.gamma)
    H, A, N = _per_mode_operators(m, drive, space)
    assert _same_csr(build_hamiltonian(m, drive, space), H)
    assert _same_csr(collective_mode_op(space), A)
    assert _same_csr(total_excitation_op(space), N)
    # and so the generator every solver reads
    built = build_hamiltonian(m, drive, space), build_jump_ops(m, drive, space)
    assert _same_csr(
        build_liouvillian(*built).Heff, build_liouvillian(H, [(A, m.gamma)]).Heff
    )


def test_time_dependent_drive_term():
    # the pair (c, sigma+) with c = i Omega/2 adds c sigma+ + conj(c) sigma-,
    # the constant drive (Omega/2) sigma_y; swapping c and conj(c) flips it
    Omega, kappa = 0.8, 1.0
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    L0 = build_liouvillian(0.5 * Omega * sigma_y, [(sigma_minus(), kappa)])
    drive = (lambda _t: 0.5j * Omega, sigma_plus())
    L_driven = build_liouvillian(np.zeros((2, 2)), [(sigma_minus(), kappa)], drive)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = np.linspace(0, 3, 31)
    ref = integrate_me(L0, rho0, t, rtol=1e-10, atol=1e-12)
    res = integrate_me(L_driven, rho0, t, rtol=1e-10, atol=1e-12)
    diff = max(np.max(np.abs(a - b)) for a, b in zip(ref.states, res.states))
    assert diff < 1e-7


def _criterion_9_generator():
    """The criterion-9 pulse on its model (dim 343): (L, Heff, V, coeff, pulse)."""
    p = params_from_dimensionless(4.0, math.pi / 2)
    m = build_effective_model(p, snap_block_length(p, 2.0), 2)
    space = space_for_model(m, n_max=3, max_excitations=5)
    drive = DriveDissipationSpec(gamma=m.gamma)
    spec = PulseSpec(W=2.5 * p.Gamma, t0=2.0 / p.Gamma, n_ph=0.5)
    coeff, V = build_drive_term(m, spec, space)
    L = build_liouvillian(
        build_hamiltonian(m, drive, space), build_jump_ops(m, drive, space), (coeff, V)
    )
    return L, L.Heff, V, coeff, spec, space


def _heff_reference(Heff, V, c, x):
    return Heff @ x + c * (V @ x) + np.conj(c) * (V.conj().T @ x)


def test_stage_operator_is_heff_plus_the_drive_pair():
    L, Heff, V, coeff, spec, space = _criterion_9_generator()
    rng = np.random.default_rng(7)
    block = rng.normal(size=(space.dim, 5)) + 1j * rng.normal(size=(space.dim, 5))
    for t in (spec.t0, spec.t0 + 0.3 / spec.W):  # the peak, and beside it
        c = coeff(t)
        assert abs(c) > 0.1
        for x in (block[:, 0].copy(), block):
            ref = _heff_reference(Heff, V, c, x)
            assert np.max(np.abs(L.heff(t, x) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_stage_operator_follows_every_change_of_time():
    # the drive entries are rewritten only when t changes: t1, t2, t1 again
    L, Heff, V, coeff, spec, space = _criterion_9_generator()
    x = np.random.default_rng(8).normal(size=space.dim).astype(complex)
    t1, t2 = spec.t0, spec.t0 + 1.0 / spec.W
    first = L.heff(t1, x)
    for t, again in ((t1, first), (t2, None), (t1, first)):
        ref = _heff_reference(Heff, V, coeff(t), x)
        out = L.heff(t, x)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        if again is not None:
            assert out.tobytes() == again.tobytes()
    assert np.max(np.abs(L.heff(t2, x) - first)) > 0.1


def test_drive_below_the_floor_leaves_heff_alone():
    # far in the pulse's tail c is not 0, yet |c| max|V| <= eps max|Heff|:
    # Heff(t) x is Heff x bit for bit, also where Heff x is exactly 0 (the
    # vacuum, which Heff leaves alone and V would excite)
    L, Heff, V, coeff, spec, space = _criterion_9_generator()
    t = spec.t0 + 14.0 / spec.W  # 7.6 / Gamma on the 12 / Gamma grid
    c = coeff(t)
    assert c != 0.0
    assert abs(c) * np.abs(V.data).max() <= np.finfo(float).eps * np.abs(Heff.data).max()
    vac = space.vacuum().astype(complex)
    assert not np.any(Heff @ vac)
    block = np.random.default_rng(9).normal(size=(space.dim, 3)).astype(complex)
    for x in (vac, block):
        assert L.heff(t, x).tobytes() == (Heff @ x).tobytes()


def test_stage_operator_where_heff_and_the_drive_share_entries():
    # a random Hermitian H and loss whose pattern overlaps the drive's
    rng = np.random.default_rng(10)
    d = 30
    A = sp.random(d, d, density=0.2, random_state=rng) * (1 + 0.5j)
    V = sp.random(d, d, density=0.15, random_state=rng) * (1 - 2j)
    J = sp.random(d, d, density=0.1, random_state=rng)

    def coeff(t):
        return 0.7 - 0.2j * t

    L = build_liouvillian(A + A.conj().T, [(J, 0.3)], (coeff, V))
    x = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
    for t in (0.5, 1.3, 0.5):
        ref = _heff_reference(L.Heff, as_csr(V), coeff(t), x)
        assert np.max(np.abs(L.heff(t, x) - ref)) <= 1e-14 * np.max(np.abs(ref))
