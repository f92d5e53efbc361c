"""Trajectory unraveling against exact and master-equation references."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from mirrorqed import mcwf
from mirrorqed.hilbert import CompositeSpace, sigma_minus, sigma_plus, sigma_x
from mirrorqed.lindblad import (
    DriveDissipationSpec,
    atom_op,
    build_hamiltonian,
    build_jump_ops,
    build_liouvillian,
    integrate_me,
    space_for_model,
    total_excitation_op,
)
from mirrorqed.mcwf import effective_hamiltonian, mcwf_evolve
from mirrorqed.model import build_effective_model, params_from_dimensionless, snap_block_length
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


def _pulse_problem(seed):
    """A Gaussian pulse on a small scattering model: td_terms, callable e_ops."""
    params = params_from_dimensionless(1.0, math.pi / 2)
    model = build_effective_model(params, snap_block_length(params, 2.0), 1, frame="rotating")
    space = space_for_model(model, n_max=2, max_excitations=3)
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
        td_terms=[build_drive_term(model, spec, space)],
        e_ops=e_ops,
        substeps=1,
        leak_projector=space.boundary_projector(),
    )


@pytest.mark.filterwarnings("ignore::mirrorqed.mcwf.TruncationWarning")
@pytest.mark.parametrize("problem", [_driven_problem, _pulse_problem])
@pytest.mark.parametrize("width", [1, 5])
def test_trajectory_is_bitwise_independent_of_its_block_mates(monkeypatch, problem, width):
    # every jumping trajectory in one block, against blocks of `width`
    # columns: the same jumps and the same observables, bit for bit
    kwargs = problem(seed=3)
    whole = mcwf_evolve(**kwargs)
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
def test_pulse_drive_matches_master_equation():
    # both engines take the identical (coeff, op) drive pair; the atomic
    # population lies in [0, 1], so a trajectory mean is within
    # z sqrt(mu (1 - mu) / n) of the exact mu, Bonferroni over the grid
    kwargs = _pulse_problem(seed=5)
    kwargs["n_traj"] = 200
    psi0 = kwargs["psi0"]
    me = integrate_me(
        build_liouvillian(kwargs["H"], kwargs["jumps"]), np.outer(psi0, psi0.conj()),
        kwargs["t_grid"], td_terms=kwargs["td_terms"], e_ops={"atom": kwargs["e_ops"]["atom"]},
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
