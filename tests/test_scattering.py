"""Pulse envelopes, drive/output conventions, flux accounting."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from mirrorqed.experiments import ExperimentConfig
from mirrorqed.lindblad import (
    DriveDissipationSpec,
    build_hamiltonian,
    build_jump_ops,
    build_liouvillian,
    integrate_me,
    space_for_model,
    total_excitation_op,
)
from mirrorqed.model import (
    ParameterError,
    build_effective_model,
    params_from_dimensionless,
    snap_block_length,
)
from mirrorqed.scattering import (
    PulseSpec,
    build_drive_term,
    flux_balance,
    gaussian_envelope,
    make_output_e_ops,
    output_observables,
    output_operator,
)


def test_envelope_normalization():
    spec = PulseSpec(W=2.5, t0=4.0, n_ph=0.5)
    t = np.linspace(-10, 20, 20001)
    E = gaussian_envelope(spec, t)
    assert np.trapezoid(np.abs(E) ** 2, t) == pytest.approx(0.5, rel=1e-6)


def test_envelope_carrier_detuning():
    spec = PulseSpec(W=1.0, t0=0.0, n_ph=1.0, delta_in=3.0)
    base = PulseSpec(W=1.0, t0=0.0, n_ph=1.0)
    E = gaussian_envelope(spec, 2.0)
    assert E == pytest.approx(gaussian_envelope(base, 2.0) * np.exp(-1j * 6.0))


def test_pulse_validation():
    with pytest.raises(ParameterError):
        PulseSpec(W=0.0, t0=0.0, n_ph=1.0)
    with pytest.raises(ParameterError):
        PulseSpec(W=1.0, t0=0.0, n_ph=-0.5)


def _scattering_setup(N_A=1, Gamma_tau=1.0, phi=math.pi / 2, n_max=2, cap=2):
    p = params_from_dimensionless(Gamma_tau, phi)
    L = snap_block_length(p, 2.0)
    model = build_effective_model(p, L, N_A)
    space = space_for_model(model, n_max=n_max, max_excitations=cap)
    return model, space


def test_drive_requires_rotating_frame():
    p = params_from_dimensionless(1.0, math.pi, min_half_waves=2)
    L = snap_block_length(p, 1.0)
    model = build_effective_model(p, L, 0, frame="lab")
    with pytest.raises(ParameterError):
        build_drive_term(model, PulseSpec(W=1.0, t0=0.0, n_ph=0.1))


def test_output_operator_structure():
    model, space = _scattering_setup()
    O = output_operator(space, model.gamma, E_in=0.3 + 0.1j)
    # vacuum expectation of O+O is the bare input intensity
    v = space.vacuum()
    assert np.vdot(O @ v, O @ v) == pytest.approx(abs(0.3 + 0.1j) ** 2)


def test_callable_and_density_matrix_observables_agree():
    model, space = _scattering_setup(N_A=1, n_max=2, cap=2)
    spec = PulseSpec(W=2.0, t0=1.0, n_ph=0.2)
    e_ops = make_output_e_ops(space, model, spec)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    for t in (0.5, 1.0, 2.3):
        E = gaussian_envelope(spec, t)
        O = output_operator(space, model.gamma, E)
        OdO = O.conj().T @ O
        assert e_ops["I_out"](t, psi) == pytest.approx(
            float(np.real(np.trace(OdO @ rho))), rel=1e-10
        )
        O2 = O @ O
        assert e_ops["G2"](t, psi) == pytest.approx(
            float(np.real(np.trace(O2.conj().T @ O2 @ rho))), rel=1e-10
        )


def test_flux_balance_bookkeeping():
    t = np.linspace(0, 10, 101)
    I = 0.05 * np.exp(-((t - 5) ** 2))
    out = flux_balance(t, I, residual_excitation=0.01, n_ph=0.5)
    emitted = np.trapezoid(I, t)
    assert out["integrated_output"] == pytest.approx(emitted)
    assert out["mismatch"] == pytest.approx(0.5 - emitted - 0.01)


def test_pulse_scattering_conserves_photon_number():
    # weak pulse on a small model, ME propagation: flux audit closes
    model, space = _scattering_setup(N_A=1, Gamma_tau=1.0, n_max=2, cap=2)
    spec = PulseSpec(W=2.5, t0=2.0, n_ph=0.05)
    H = build_hamiltonian(model, DriveDissipationSpec(gamma=model.gamma), space)
    jumps = build_jump_ops(model, DriveDissipationSpec(gamma=model.gamma), space)
    rho0 = np.outer(space.vacuum(), space.vacuum().conj())
    t = np.linspace(0, 14, 281)
    res = integrate_me(
        build_liouvillian(H, jumps), rho0, t,
        td_terms=[build_drive_term(model, spec, space)], rtol=1e-9, atol=1e-12,
    )
    I_out, G2 = output_observables(res, model, space, spec)
    residual = float(
        np.real(np.trace(total_excitation_op(space) @ res.states[-1]))
    )
    audit = flux_balance(t, I_out, residual, n_ph=spec.n_ph)
    assert abs(audit["mismatch"]) < 2e-3
    assert np.all(I_out >= -1e-10)
    assert np.all(G2 >= -1e-10)


def test_default_scattering_operators_build_in_small_memory():
    # the default `mirrorqed scattering` run: N_A = 7, and the runner's
    # effective truncation n_max 3, cap 5 (dim 19125); one dense dim x dim
    # complex matrix would take 5.85 GB
    config = ExperimentConfig(experiment="scattering")
    p = params_from_dimensionless(config.Gamma_tau, config.phi)
    model = build_effective_model(p, snap_block_length(p, config.ratio), config.N_A[0])
    spec = PulseSpec(W=2.5 * p.Gamma, t0=2.0 / p.Gamma, n_ph=0.5)
    drive = DriveDissipationSpec(gamma=model.gamma)
    tracemalloc.start()
    try:
        space = space_for_model(model, n_max=3, max_excitations=5)
        H = build_hamiltonian(model, drive, space)
        (J, _), = build_jump_ops(model, drive, space)
        _, Adag = build_drive_term(model, spec, space)
        e_ops = make_output_e_ops(space, model, spec)
        N = total_excitation_op(space)
        mask = space.boundary_projector()
        vac = space.vacuum()
        i_out = e_ops["I_out"](spec.t0, vac)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 19125
    for op in (H.matrix, J, Adag, N):
        assert isinstance(op, scipy.sparse.csr_matrix)
    assert mask.shape == (space.dim,)
    assert i_out == pytest.approx(abs(gaussian_envelope(spec, spec.t0)) ** 2)
    assert peak < 100 * 2**20
