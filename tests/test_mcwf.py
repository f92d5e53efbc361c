"""Trajectory unraveling against exact and master-equation references."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mirrorqed import mcwf
from mirrorqed.hilbert import CompositeSpace, as_csr, sigma_minus, sigma_plus, sigma_x
from mirrorqed.lindblad import (
    DriveDissipationSpec,
    NonHermitianError,
    atom_op,
    build_hamiltonian,
    build_jump_ops,
    build_liouvillian,
    integrate_me,
    space_for_model,
    total_excitation_op,
)
from mirrorqed.mcwf import mcwf_evolve
from mirrorqed.model import (
    ParameterError,
    build_effective_model,
    params_from_dimensionless,
    snap_block_length,
)
from mirrorqed.results import EvolutionResult
from mirrorqed.scattering import (
    PulseSpec,
    build_drive_term,
    make_output_e_ops,
    output_observables,
)


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


def test_drive_pair_adds_the_coefficient_times_op_plus_its_conjugate():
    # a jump-free trajectory is the Schroedinger evolution under
    # H + c(t) op + conj(c(t)) op+.  With c = (Omega/2) exp(i delta t) and
    # op = sigma-, the pair drives the qubit detuned by delta on resonance;
    # swapping c and conj(c) would drive it 2 delta off resonance.
    delta, Omega = 1.5, 1.2
    H = delta * np.diag([0.0, 1.0]).astype(complex)
    op = sigma_minus()

    def coeff(t):
        return 0.5 * Omega * np.exp(1j * delta * t)

    t = np.linspace(0.0, 4.0, 81)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    res = mcwf_evolve(
        H, [], psi0, t, n_traj=1, seed=0, drive=(coeff, op),
        e_ops={"p": np.diag([0.0, 1.0]).astype(complex)}, substeps=20,
    )

    def schroedinger(tt, psi):
        c = coeff(tt)
        return -1j * ((H + c * op + np.conj(c) * op.conj().T) @ psi)

    ref = solve_ivp(schroedinger, (t[0], t[-1]), psi0, t_eval=t, rtol=1e-11, atol=1e-12)
    p_ref = np.abs(ref.y[1]) ** 2
    assert p_ref.max() > 0.9  # a resonant Rabi flop
    assert np.max(np.abs(res.observables["p"] - p_ref)) < 1e-8


def test_drive_without_a_jump_takes_its_own_products():
    # a qubit driven through sigma+ with no jump: Heff(t) x is H x + c V x +
    # conj(c) V+ x, three products, and the jump-free trajectory is the
    # master equation's pure state
    H = 0.4 * np.diag([0.0, 1.0]).astype(complex)

    def coeff(t):
        return 0.6 * np.exp(-((t - 1.5) ** 2)) * (1.0 + 0.5j)

    drive = (coeff, sigma_plus())
    L = build_liouvillian(H, [], drive)
    assert (L.form, L.products) == ("factored", 3)
    t = np.linspace(0.0, 4.0, 41)
    p = {"p": np.diag([0.0, 1.0]).astype(complex)}
    psi0 = np.array([1.0, 0.0], dtype=complex)
    me = integrate_me(
        L, np.outer(psi0, psi0.conj()), t, e_ops=p, rtol=1e-10, atol=1e-12, keep_states=False
    )
    mc = mcwf_evolve(H, [], psi0, t, n_traj=2, seed=0, drive=drive, e_ops=p, substeps=20)
    assert mc.meta["generator"] == {"form": "factored", "nnz": 3, "products": 3}
    assert mc.meta["total_jumps"] == 0
    assert me.observables["p"].max() > 0.3  # the drive flips the qubit
    assert np.max(np.abs(mc.observables["p"] - me.observables["p"])) < 1e-7


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

    def norm2(_t, block):
        return np.sum(np.abs(block) ** 2, axis=0)

    res = mcwf_evolve(
        np.zeros((2, 2)),
        [(sigma_minus(), 1.0)],
        np.array([1.0, 0.0], dtype=complex),
        t,
        n_traj=40,
        seed=1,
        drive=(coeff, np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)),
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
            drive=(lambda _t: 1.0, a.conj().T),
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
    for seed in (-1, 2**64):  # a Philox key is two uint64 words
        with pytest.raises(ValueError, match="seed"):
            mcwf_evolve(np.zeros((2, 2)), [], psi0, t, n_traj=1, seed=seed)
    # the generator's own checks, shared with the master equation
    with pytest.raises(ParameterError):
        mcwf_evolve(np.zeros((2, 2)), [(sigma_minus(), -1.0)], psi0, t, n_traj=1, seed=0)
    with pytest.raises(NonHermitianError):
        mcwf_evolve(sigma_minus(), [], psi0, t, n_traj=1, seed=0)


@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 6, 7, 8])
def test_lone_decay_jumps_at_minus_log_threshold(seed, substeps):
    # with H = 0 the no-jump norm^2 of |e> is exp(-t), so the trajectory
    # jumps to |g> when it reaches its first draw r, at t = -ln r: seed 8
    # jumps inside the first substep, and seed 0 not before t = 4
    t = np.linspace(0.0, 4.0, 81)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    t_jump = -math.log(rng.random())
    res = mcwf_evolve(
        np.zeros((2, 2)), [(sigma_minus(), 1.0)], np.array([0.0, 1.0], dtype=complex), t,
        n_traj=1, seed=seed, e_ops={"p": np.diag([0.0, 1.0]).astype(complex)},
        substeps=substeps,
    )
    below = res.observables["p"] < 0.5
    first = int(np.argmax(below)) if below.any() else len(t)
    assert first == np.searchsorted(t, t_jump, side="right")
    assert res.meta["total_jumps"] == int(t_jump < t[-1])


def test_shared_path_joins_at_the_boundary_before_the_crossing():
    # |psi0|^2 just below 1: a threshold between it and 1 is crossed in the
    # first substep, so that trajectory joins at boundary 0 in state psi0
    psi0 = np.array([0.0, math.sqrt(1.0 - 5e-11)], dtype=complex)
    t = np.linspace(0.0, 1.0, 11)
    prob = mcwf._Problem(
        L=build_liouvillian(np.zeros((2, 2)), [(sigma_minus(), 1.0)]),
        jump_ops=[sigma_minus()], e_ops={}, leak_diag=None, t_grid=t, h=0.05, n_sub=2,
    )
    r = [1.0 - 1e-11, math.exp(-0.32), 1e-3]
    _, _, joins = mcwf._reference_path(prob, psi0, r)
    assert joins[0][0] == 0 and np.array_equal(joins[0][1], psi0)
    assert joins[1][0] == 6  # t = 0.30, the boundary before t = 0.32
    assert joins[2] is None


def test_effective_hamiltonian_adds_half_rate_loss():
    H = sigma_x().astype(complex)
    Heff = build_liouvillian(H, [(sigma_minus(), 0.6), (sigma_x(), 0.0)]).Heff
    assert np.allclose(Heff.toarray(), H - 0.3j * np.diag([0.0, 1.0]))


def _driven_problem(seed):
    """The criterion-8 transient (dim 7, Omega_D = 2 Gamma) with 24 trajectories."""
    params = params_from_dimensionless(0.25, math.pi)
    model = build_effective_model(params, snap_block_length(params, 1.0), 0)
    space = space_for_model(model, n_max=3, max_excitations=3)
    drive = DriveDissipationSpec(Omega_D=2.0 * params.Gamma, gamma=model.gamma)
    pe = atom_op(space, sigma_plus() @ sigma_minus())
    return dict(
        H=build_hamiltonian(model, drive, space),
        jumps=build_jump_ops(model, drive, space),
        psi0=space.vacuum(excited=True),
        t_grid=np.linspace(0.0, 6.0, 121),
        n_traj=24,
        seed=seed,
        e_ops={"p": pe.astype(complex)},
        substeps=8,
    )


def _pulse_problem(seed, N_A=1, n_max=2):
    """A Gaussian pulse on a small scattering model: a drive, callable e_ops."""
    params = params_from_dimensionless(1.0, math.pi / 2)
    model = build_effective_model(params, snap_block_length(params, 2.0), N_A)
    space = space_for_model(model, n_max=n_max, max_excitations=3)
    spec = PulseSpec(W=2.5 * params.Gamma, t0=2.0 / params.Gamma, n_ph=0.5)
    drive = DriveDissipationSpec(gamma=model.gamma)
    e_ops = make_output_e_ops(space, model, spec)
    e_ops["excitation"] = total_excitation_op(space)
    e_ops["atom"] = atom_op(space, sigma_plus() @ sigma_minus())
    return dict(
        H=build_hamiltonian(model, drive, space),
        jumps=build_jump_ops(model, drive, space),
        psi0=space.vacuum(),
        t_grid=np.linspace(0.0, 6.0, 61) / params.Gamma,
        n_traj=25,
        seed=seed,
        drive=build_drive_term(model, spec, space),
        e_ops=e_ops,
        substeps=1,
        leak_projector=space.boundary_projector(),
    )


def _wide_pulse_problem(seed):
    """The pulse problem at N_A 7, cap 3 (dim 952), whose Heff is factored.

    Heff's largest |eigenvalue| is 64.5 Gamma (three photons in the outer
    modes, 22 Gamma off the atom); RK4 is stable up to h rho = 2.8, so it
    takes 4 substeps of 0.025 / Gamma.
    """
    return {**_pulse_problem(seed, N_A=7, n_max=3), "substeps": 4}


@pytest.mark.filterwarnings("ignore::mirrorqed.mcwf.TruncationWarning")
@pytest.mark.parametrize("problem", [_driven_problem, _pulse_problem, _wide_pulse_problem])
@pytest.mark.parametrize("width", [1, 5])
def test_trajectory_is_bitwise_independent_of_its_block_mates(monkeypatch, problem, width):
    # every jumping trajectory in one block, against blocks of `width`
    # columns: the same jumps and the same observables, bit for bit, on
    # either form of Heff(t): fused without a drive, factored with the pulse
    # folded into the loss channel (three products)
    kwargs = problem(seed=3)
    whole = mcwf_evolve(**kwargs)
    driven = problem is not _driven_problem  # _driven_problem's drive is in H
    generator = whole.meta["generator"]
    assert (generator["form"], generator["products"]) == (("factored", 3) if driven else ("fused", 1))
    monkeypatch.setattr(mcwf, "BLOCK_BYTES", width * 16 * len(kwargs["psi0"]))
    split = mcwf_evolve(**kwargs)
    assert whole.meta["n_jumping_trajectories"] > 2 * width
    assert whole.meta == split.meta
    for name in whole.observables:
        assert np.array_equal(whole.observables[name], split.observables[name])
        assert np.array_equal(whole.stderr[name], split.stderr[name])


@pytest.mark.filterwarnings("ignore::mirrorqed.mcwf.TruncationWarning")
@pytest.mark.parametrize(
    "problem, seed, jumping, jumps",
    [(_driven_problem, 3, 24, 90), (_driven_problem, 17, 23, 95), (_pulse_problem, 11, 18, 37)],
)
def test_seeded_jump_counts_are_pinned(problem, seed, jumping, jumps):
    # measured with the one-trajectory-at-a-time engine this one replaced:
    # the block engine takes the same jumps on the same streams
    meta = mcwf_evolve(**problem(seed)).meta
    assert (meta["n_jumping_trajectories"], meta["total_jumps"]) == (jumping, jumps)


@pytest.mark.filterwarnings("ignore::mirrorqed.mcwf.TruncationWarning")
@pytest.mark.parametrize("problem", [_driven_problem, _pulse_problem])
def test_statistics_are_exact_where_the_trajectories_agree(problem):
    # at t0 every trajectory is psi0: each mean is psi0's value and each
    # standard error 0, exactly, without the residue of sum x^2 - n mean^2
    kwargs = problem(seed=5)
    res = mcwf_evolve(**kwargs)
    assert res.meta["n_jumping_trajectories"] > 0
    t0, psi0 = float(kwargs["t_grid"][0]), kwargs["psi0"][:, None]
    for name, op in kwargs["e_ops"].items():
        value = op(t0, psi0) if callable(op) else mcwf.column_vdot(psi0, as_csr(op) @ psi0).real
        assert res.observables[name][0] == value[0]
        assert res.stderr[name][0] == 0.0


@pytest.mark.filterwarnings("ignore::mirrorqed.mcwf.TruncationWarning")
def test_pulse_drive_matches_master_equation():
    # both engines take the identical (coeff, op) drive pair; the atomic
    # population lies in [0, 1], so a trajectory mean is within
    # z sqrt(mu (1 - mu) / n) of the exact mu, Bonferroni over the grid
    kwargs = _pulse_problem(seed=5)
    kwargs["n_traj"] = 200
    psi0 = kwargs["psi0"]
    me = integrate_me(
        build_liouvillian(kwargs["H"], kwargs["jumps"], kwargs["drive"]),
        np.outer(psi0, psi0.conj()), kwargs["t_grid"], e_ops={"atom": kwargs["e_ops"]["atom"]},
        rtol=1e-10, atol=1e-12, keep_states=False,
    )
    mc = mcwf_evolve(**kwargs)
    mu = np.clip(me.observables["atom"], 0.0, 1.0)
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(mu)))
    bound = z * np.sqrt(mu * (1.0 - mu) / kwargs["n_traj"]) + 1e-9
    assert mu.max() > 0.1  # the pulse excites the atom
    assert np.all(np.abs(mc.observables["atom"] - mu) <= bound)


def test_output_observables_on_a_block():
    params = params_from_dimensionless(1.0, math.pi / 2)
    model = build_effective_model(params, snap_block_length(params, 2.0), 1)
    space = space_for_model(model, n_max=2, max_excitations=2)
    spec = PulseSpec(W=2.0, t0=1.0, n_ph=0.2)
    e_ops = make_output_e_ops(space, model, spec)
    rng = np.random.default_rng(4)
    block = rng.normal(size=(space.dim, 6)) + 1j * rng.normal(size=(space.dim, 6))
    block /= np.linalg.norm(block, axis=0)
    t = 1.3
    rhos = [np.outer(c, c.conj()) for c in block.T]
    I_rho, G2_rho = output_observables(
        EvolutionResult(t=np.full(6, t), states=rhos), model, space, spec
    )
    I_block, G2_block = e_ops["I_out"](t, block), e_ops["G2"](t, block)
    assert I_block.shape == G2_block.shape == (6,)
    for j, col in enumerate(block.T):
        assert I_block[j] == e_ops["I_out"](t, col.copy())
        assert G2_block[j] == e_ops["G2"](t, col.copy())
    assert I_block == pytest.approx(I_rho, rel=1e-10)
    assert G2_block == pytest.approx(G2_rho, rel=1e-10)
