"""Acceptance gate: ten pinned criteria, one reported line each.

Each test records a ``criterion N: PASS/FAIL`` line with the measured
numbers (echoed in the terminal summary by conftest, where pytest's output
capture does not apply) and then asserts at the pinned tolerance.
Tolerances are fixed here on purpose — a red line means the implementation
misses the target, not that the gate moved.
"""

import functools
import json
import math

import numpy as np
from scipy.signal import find_peaks

from mirrorqed.chain import block_transform, calibrate_chain, continuum_couplings, evolve_sector
from mirrorqed.dde import analytic_series, fit_decay_rate, markovian_rate, purcell_rate, solve_delay_ode
from mirrorqed.experiments import (
    ExperimentConfig,
    amplitude_decay_curve,
    markovian_overlay,
    model_steady_state,
    run_experiment,
)
from mirrorqed.lindblad import build_liouvillian, build_hamiltonian, build_jump_ops, DriveDissipationSpec, atom_op, integrate_me, space_for_model
from mirrorqed.mcwf import mcwf_evolve
from mirrorqed.model import build_effective_model, params_from_dimensionless, snap_block_length
from mirrorqed.hilbert import sigma_minus, sigma_plus


REPORT_LINES: list = []


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    REPORT_LINES.append(line)
    print(line)


def test_criterion_1_delay_solver_exactness():
    worst = 0.0
    for Gamma_tau in (0.25, 1.0, 2.0, 4.0):
        tau = Gamma_tau
        for phi in (0.0, math.pi / 2, math.pi, 2 * math.pi):
            s = solve_delay_ode(1.0, tau, phi, t_max=10.0, dt=tau / 500)
            ref = analytic_series(1.0, tau, phi, s.t)
            worst = max(worst, float(np.max(np.abs(s.eps - ref))))
    ok = worst <= 1e-8
    _report(1, ok, f"max |solver - closed form| = {worst:.3e} (tol 1e-8)")
    assert ok


def test_criterion_2_markovian_purcell_limit():
    Gamma_tau = 1e-2
    t = np.arange(0.0, 3.0 + 1e-12, 0.01)
    worst_dde = worst_model = worst_identity = 0.0
    for phi in (math.pi / 2, math.pi, 3 * math.pi / 2):
        target = markovian_rate(1.0, phi)
        s = solve_delay_ode(1.0, Gamma_tau, phi, t_max=3.0, dt=Gamma_tau / 20)
        rel_dde = abs(fit_decay_rate(s.t, s.population) - target) / target
        pop = amplitude_decay_curve(Gamma_tau, phi, ratio=1.0, N_A=0, t_grid=t)
        rel_model = abs(fit_decay_rate(t, pop) - target) / target
        params = params_from_dimensionless(Gamma_tau, phi)
        model = build_effective_model(params, snap_block_length(params, 1.0), 0)
        rel_id = abs(purcell_rate(model.g_nu[0], model.gamma) - target) / target
        worst_dde = max(worst_dde, rel_dde)
        worst_model = max(worst_model, rel_model)
        worst_identity = max(worst_identity, rel_id)
    ok = worst_dde <= 0.02 and worst_model <= 0.05 and worst_identity <= 1e-9
    _report(
        2,
        ok,
        f"rate errors: delay solver {worst_dde:.2%} (tol 2%), "
        f"resonant-mode model {worst_model:.2%} (tol 5%), "
        f"bad-cavity identity {worst_identity:.1e}",
    )
    assert ok


@functools.lru_cache(maxsize=None)
def _feedback_decay_errors(N_A: int) -> float:
    t = np.arange(0.0, 6.0 + 1e-12, 0.05)
    pop = amplitude_decay_curve(2.0, math.pi / 2, ratio=2.0, N_A=N_A, t_grid=t)
    ref = np.abs(analytic_series(1.0, 2.0, math.pi / 2, t)) ** 2
    return float(np.max(np.abs(pop - ref)))


def test_criterion_3_delayed_feedback_decay_accuracy():
    err7 = _feedback_decay_errors(7)
    err1 = _feedback_decay_errors(1)
    ok = err7 <= 0.02 and err7 < err1
    _report(
        3,
        ok,
        f"max |model - exact| at N_A=7: {err7:.4f} (tol 0.02); N_A=1: {err1:.4f}",
    )
    assert err7 < err1
    assert err7 <= 0.02


def test_criterion_4_bound_state_plateau():
    s = solve_delay_ode(1.0, 2.0, 2 * math.pi, t_max=60.0, dt=2.0 / 500)
    plat_dde = s.plateau(tol=1e-6)
    t = np.arange(0.0, 30.0 + 1e-12, 0.05)
    pop = amplitude_decay_curve(2.0, 2 * math.pi, ratio=2.0, N_A=7, t_grid=t)
    plat_model = float(np.mean(pop[t >= 28.0]))
    ok = (
        plat_dde is not None
        and abs(plat_dde - 0.25) <= 0.01
        and abs(plat_model - plat_dde) <= 0.03
    )
    _report(
        4,
        ok,
        f"trapped population: exact {plat_dde:.4f} (target 0.25 ± 0.01), "
        f"model N_A=7 {plat_model:.4f} (tol 0.03)",
    )
    assert ok


def test_criterion_5_chain_oracle_cross_validation():
    Gamma, tau, phi = 1.0, 2.0, math.pi / 2
    spec = calibrate_chain(Gamma, tau, phi, sites_per_delay=40, t_max=5.0)
    # sample where the lattice resolves the dynamics: one point per site delay
    t = np.arange(0.0, 5.0 + 1e-9, tau / 40)
    res = evolve_sector(spec, {(1, ()): 1.0}, t, max_excitations=1)
    ref = np.abs(analytic_series(Gamma, tau, phi, t)) ** 2
    err = float(np.max(np.abs(res.observables["atom_population"] - ref)))
    spec400 = calibrate_chain(Gamma, tau, phi, sites_per_delay=40, t_max=12.0,
                              N_A_ratio=10.0)
    rep = block_transform(spec400)
    g_chain, g_cont = continuum_couplings(spec400, rep, range(-3, 4))
    g_err = float(np.max(np.abs(g_chain - g_cont)) / np.max(np.abs(g_chain)))
    ok = err <= 0.01 and g_err <= 0.01
    _report(
        5,
        ok,
        f"population error {err:.4f} (tol 0.01, zeno onset floors a dense-grid "
        f"sup at ~{Gamma * tau / (4 * 40):.4f}); mode-coupling error {g_err:.3%} "
        f"(tol 1%)",
    )
    assert ok


def test_criterion_6_markovian_inversion_cap():
    cols = markovian_overlay(n=20)
    peak = float(np.max(cols["rho_ee"]))
    ok = peak <= 0.5 + 1e-8
    _report(6, ok, f"max rho_ee over 20^3 drive/decay/dephasing grid: {peak:.8f} (cap 0.5 + 1e-8)")
    assert ok


def test_criterion_7_feedback_steady_state_inversion():
    ladder = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    vals = [
        model_steady_state(0.25, math.pi, 1.0, 0, od, n_max=3, max_excitations=3)[0]
        for od in ladder
    ]
    monotone = all(b > a for a, b in zip(vals, vals[1:]))
    agree = 0.0
    for od in (0.5, 1.0, 1.5):
        v0 = model_steady_state(0.25, math.pi, 1.0, 0, od, n_max=3, max_excitations=3)[0]
        v1 = model_steady_state(0.25, math.pi, 1.0, 1, od, n_max=3, max_excitations=3)[0]
        agree = max(agree, abs(v1 - v0))
    top = vals[-1]
    inverted = top > 0.5
    ok = inverted and monotone and agree <= 0.05
    _report(
        7,
        ok,
        f"rho_ee at drive 4*Gamma: {top:.4f} (needs > 0.5); ladder monotone: "
        f"{monotone}; resonant-mode vs 3-mode agreement {agree:.4f} (tol 0.05)",
    )
    assert monotone
    assert agree <= 0.05
    assert inverted


def test_criterion_8_trajectory_master_equation_equivalence():
    params = params_from_dimensionless(0.25, math.pi)
    model = build_effective_model(params, snap_block_length(params, 1.0), 0)
    space = space_for_model(model, n_max=3, max_excitations=3)
    drive = DriveDissipationSpec(Omega_D=2.0 * params.Gamma, gamma=model.gamma)
    H = build_hamiltonian(model, drive, space)
    jumps = build_jump_ops(model, drive, space)
    t = np.linspace(0.0, 6.0, 121)
    pe = atom_op(space, sigma_plus() @ sigma_minus())
    # start from the excited atom: jumps happen from the first grid interval,
    # so the sample spread is a meaningful variance estimate everywhere
    psi0 = space.vacuum(excited=True)
    rho0 = np.outer(psi0, psi0.conj())
    me = integrate_me(
        build_liouvillian(H, jumps), rho0, t,
        e_ops={"p": pe}, rtol=1e-10, atol=1e-12, keep_states=False,
    )
    mc = mcwf_evolve(
        H, jumps, psi0, t, n_traj=1000, seed=17,
        e_ops={"p": pe.astype(complex)}, substeps=8,
    )
    diff = np.abs(mc.observables["p"] - me.observables["p"])
    bound = 3.0 * mc.stderr["p"] + 1e-9
    worst = float(np.max(diff - bound))
    ok = bool(np.all(diff <= bound))
    _report(
        8,
        ok,
        f"max (|trajectories - master equation| - 3 SE) = {worst:.2e} "
        f"(needs <= 0) over {len(t)} grid points",
    )
    assert ok


def test_criterion_9_scattering_conservation_and_echo(tmp_path):
    config = ExperimentConfig(
        experiment="scattering",
        Gamma_tau=4.0,
        phi=math.pi / 2,
        ratio=2.0,
        N_A=[2],
        n_max=3,
        max_excitations=5,
        dt=0.05,
        t_max=12.0,
        n_traj=4000,
        substeps=2,
        seed=7,
        out_dir=str(tmp_path),
    )
    run_experiment(config)
    rows = np.genfromtxt(tmp_path / "scattering.csv", delimiter=",", names=True)
    prov = json.loads((tmp_path / "provenance.json").read_text())
    mismatch = abs(prov["flux_balance"]["mismatch"])
    t, i_out, g2 = rows["t"], rows["i_out"], rows["g2"]
    peaks, props = find_peaks(i_out, prominence=0.005)
    assert len(peaks) >= 2, "expected a prompt and a delayed output peak"
    order = np.argsort(i_out[peaks])[::-1]
    t_prompt, t_echo = sorted(t[peaks[order[:2]]])
    delay = t_echo - t_prompt
    tau = 4.0
    echo_ok = abs(delay - tau) <= 0.2 * tau
    g2_peak = float(np.max(g2))
    g2_se = float(rows["g2_stderr"][np.argmax(g2)])
    g2_ok = g2_peak > max(1e-3, 3 * g2_se)
    ok = mismatch < 1e-2 and echo_ok and g2_ok
    _report(
        9,
        ok,
        f"flux mismatch {mismatch:.4f} (tol 0.01); echo delay {delay:.2f} vs "
        f"round trip {tau} (tol 20%); peak two-photon signal {g2_peak:.4f} "
        f"({g2_peak / max(g2_se, 1e-12):.0f} SE)",
    )
    assert mismatch < 1e-2
    assert echo_ok
    assert g2_ok


def test_criterion_10_byte_identical_reruns(tmp_path):
    em = dict(
        experiment="emission", Gamma_tau=2.0, phi=math.pi / 2, N_A=[1, 3],
        t_max=3.0, dt=0.05, seed=11,
    )
    sc = dict(
        experiment="scattering", Gamma_tau=1.0, phi=math.pi / 2, N_A=[1],
        n_max=2, max_excitations=3, t_max=6.0, dt=0.1, n_traj=25,
        substeps=1, seed=11, leak_abort=0.5,
    )
    identical = True
    checked = 0
    for label, kw in (("emission", em), ("scattering", sc)):
        outs = []
        for rep in ("a", "b"):
            d = tmp_path / f"{label}_{rep}"
            run_experiment(ExperimentConfig(out_dir=str(d), **kw))
            outs.append(d)
        for f in sorted(outs[0].glob("*.csv")):
            twin = outs[1] / f.name
            identical &= f.read_bytes() == twin.read_bytes()
            checked += 1
    ok = identical and checked > 0
    _report(10, ok, f"{checked} CSVs byte-compared across seeded re-runs; identical: {identical}")
    assert ok
