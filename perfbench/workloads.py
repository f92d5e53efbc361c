"""The four benchmark workloads and the checks on their outputs.

Where mirrorqed has a CLI subcommand for the work, the operation calls
``mirrorqed.cli.main`` in-process with a YAML config written before the pass;
otherwise it calls the public functions the acceptance tests use.  Calls go
through module attributes (``lindblad.integrate_me``), so a tracer that
replaces those attributes sees them.  Sizes are scaled so that several
passes fit in one run; README.md gives the reasons and the timings.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

import numpy as np
import yaml
from scipy.signal import find_peaks

from engine import Op, OpFailure, Workload
from mirrorqed import cli, dde, hilbert, lindblad, mcwf, model


def read_csv(path) -> dict:
    """Columns of a mirrorqed CSV table as float arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[1] != len(header):
        raise ValueError(f"{path}: {rows.shape[1]} columns under a {len(header)}-name header")
    return {name: rows[:, i] for i, name in enumerate(header)}


def write_config(path, **blocks) -> None:
    path.write_text(yaml.safe_dump(blocks, sort_keys=True))


def cli_op(command: str, config: str | None = None, extra=()):
    """Operation running ``mirrorqed <command>`` into the pass directory."""
    def run(ctx):
        out = ctx.dir / command
        argv = [command, "--out", str(out), *extra]
        if config is not None:
            argv += ["--config", str(ctx.config_dir / config)]
        code = cli.main(argv)
        if code != 0:
            raise OpFailure(f"mirrorqed {command} exited with code {code}")
        return out
    return run


# -- decay ------------------------------------------------------------------
# Criterion-3 physics; the ladder stops at N_A = 15, where the RK45 matvecs
# of the Liouvillian integrator are most of the pass.
DECAY_PHYS = {"Gamma_tau": 2.0, "phi": math.pi / 2, "ratio": 2.0}
DECAY_LADDER = [1, 3, 7, 15]
DECAY_GRID = {"dt": 0.05, "t_max": 6.0}


def _exact_population(t):
    return np.abs(dde.analytic_series(1.0, DECAY_PHYS["Gamma_tau"], DECAY_PHYS["phi"], t)) ** 2


def _decay_configs(config_dir) -> None:
    write_config(config_dir / "convergence.yaml", experiment="convergence",
                 physical=DECAY_PHYS, model={"N_A": DECAY_LADDER}, solver=DECAY_GRID)
    write_config(config_dir / "emission.yaml", experiment="emission",
                 physical=DECAY_PHYS, solver={**DECAY_GRID, "sites_per_delay": 40})


def check_convergence(out, ctx, v) -> None:
    table = read_csv(out / "convergence.csv")
    err = table["max_error"]
    v.require(table["N_A"].tolist() == DECAY_LADDER, f"ladder {table['N_A'].tolist()}")
    v.require(bool(np.all(np.diff(err) < 0)), f"ladder errors not strictly decreasing: {err.tolist()}")
    v.report["max_err_vs_exact"] = float(err[-1])
    # criterion 3 (gate 0.02) is not met yet: reported, not checked
    v.report["criterion3_err_NA7"] = float(err[DECAY_LADDER.index(7)])


def check_emission(out, ctx, v) -> None:
    dde_t = read_csv(out / "emission_dde.csv")
    chain_t = read_csv(out / "emission_chain.csv")
    err_dde = float(np.max(np.abs(dde_t["atom_population"] - _exact_population(dde_t["t"]))))
    err_chain = float(np.max(np.abs(chain_t["atom_population"] - _exact_population(chain_t["t"]))))
    v.require(err_dde <= 1e-8, f"DDE vs closed form {err_dde:.3e} > 1e-8")
    v.require(err_chain <= 0.01, f"chain vs closed form {err_chain:.4f} > 0.01")
    v.report["dde_err"] = err_dde
    v.report["chain_err"] = err_chain


def check_purcell(out, ctx, v) -> None:
    table = read_csv(out / "purcell.csv")
    theory = 2.0 * np.sin(table["phi"] / 2.0) ** 2
    v.require(len(theory) == 3, f"{len(theory)} phases instead of 3")
    v.require(np.allclose(table["rate_theory"], theory, rtol=1e-12, atol=0), "rate_theory is not 2 sin^2(phi/2)")
    rel_dde = float(np.max(np.abs(table["rate_dde"] - theory) / theory))
    rel_model = float(np.max(np.abs(table["rate_model"] - theory) / theory))
    # criterion-2 tolerances
    v.require(rel_dde <= 0.02, f"DDE Purcell rate off by {rel_dde:.2%} (tol 2%)")
    v.require(rel_model <= 0.05, f"model Purcell rate off by {rel_model:.2%} (tol 5%)")
    v.report["purcell_rel_err_model"] = rel_model


DECAY = Workload(
    name="decay",
    why="single-excitation emission: Liouvillian integrator plus the DDE and chain oracles; no trajectories, no steady states",
    ops=(
        Op("convergence", cli_op("convergence", "convergence.yaml"), check_convergence),
        Op("emission_chain", cli_op("emission", "emission.yaml", ("--backend", "chain")), check_emission),
        Op("purcell", cli_op("purcell"), check_purcell),
    ),
    prepare=lambda ctx: _decay_configs(ctx.config_dir),
    params={"physical": DECAY_PHYS, "N_A": DECAY_LADDER, **DECAY_GRID, "purcell": "CLI defaults"},
)


# -- driven -----------------------------------------------------------------
# Criterion-7/8 model.  The steady-sweep runner caps N_A > 1 at two quanta.
DRIVEN_PHYS = {"Gamma_tau": 0.25, "phi": math.pi, "ratio": 1.0}
DRIVEN_NA = [0, 1, 2, 3]
DRIVEN_OMEGAS = [1.0, 2.5, 4.0]
TRANSIENT_T = np.linspace(0.0, 6.0, 121)
TRANSIENT_TRAJ = 24
# Family-wise level of the trajectory-vs-master-equation comparison over the
# whole grid (Bonferroni).
MCWF_FAMILY_ALPHA = 1e-6


def _driven_configs(config_dir) -> None:
    write_config(config_dir / "steady.yaml", experiment="steady_sweep", physical=DRIVEN_PHYS,
                 model={"N_A": DRIVEN_NA, "n_max": 3, "max_excitations": 3},
                 drive={"Omega_D": DRIVEN_OMEGAS})


def check_steady(out, ctx, v) -> None:
    rho = {}
    for n in DRIVEN_NA:
        table = read_csv(out / f"steady_NA{n}.csv")
        v.require(table["Omega_D"].tolist() == DRIVEN_OMEGAS, f"N_A={n}: drive ladder {table['Omega_D'].tolist()}")
        v.require(bool(np.all(np.diff(table["rho_ee"]) > 0)), f"N_A={n}: rho_ee not rising in the drive")
        rho[n] = table["rho_ee"]
    agree = float(np.max(np.abs(rho[0] - rho[1])))
    v.require(agree <= 0.05, f"N_A=0 vs N_A=1 differ by {agree:.4f} (tol 0.05)")
    overlay = read_csv(out / "markovian_overlay.csv")
    peak = float(np.max(overlay["rho_ee"]))
    v.require(len(overlay["rho_ee"]) == 20 ** 3, f"overlay has {len(overlay['rho_ee'])} points")
    v.require(peak <= 0.5 + 1e-8, f"overlay max rho_ee {peak:.10f} > 0.5 + 1e-8")
    # criterion 7 (gate > 0.5) is not met yet: reported, not checked
    v.report["criterion7_rho_ee_at_4"] = float(rho[0][-1])


def _transient_problem():
    params = model.params_from_dimensionless(DRIVEN_PHYS["Gamma_tau"], DRIVEN_PHYS["phi"])
    m = model.build_effective_model(params, model.snap_block_length(params, DRIVEN_PHYS["ratio"]), 0)
    space = lindblad.space_for_model(m, n_max=3, max_excitations=3)
    drive = lindblad.DriveDissipationSpec(Omega_D=2.0 * params.Gamma, gamma=m.gamma)
    H = lindblad.build_hamiltonian(m, drive, space)
    jumps = lindblad.build_jump_ops(m, drive, space)
    pe = lindblad.atom_op(space, hilbert.sigma_plus() @ hilbert.sigma_minus())
    return H, jumps, pe, space.vacuum(excited=True)


def run_me_transient(ctx):
    H, jumps, pe, psi0 = ctx.shared["problem"] = _transient_problem()
    return lindblad.integrate_me(
        lindblad.build_liouvillian(H, jumps), np.outer(psi0, psi0.conj()), TRANSIENT_T,
        e_ops={"p": pe}, rtol=1e-10, atol=1e-12, keep_states=False,
    )


def run_mcwf_transient(ctx):
    H, jumps, pe, psi0 = ctx.shared["problem"]
    return mcwf.mcwf_evolve(
        H, jumps, psi0, TRANSIENT_T, n_traj=TRANSIENT_TRAJ, seed=ctx.seed,
        e_ops={"p": pe.astype(complex)}, substeps=8,
    )


def check_me_transient(res, ctx, v) -> None:
    p = np.real(res.observables["p"])
    drift = float(np.max(res.observables["trace_residual"]))
    v.require(drift <= 1e-8, f"trace drift {drift:.2e}")
    v.require(bool(np.all((p >= -1e-9) & (p <= 1 + 1e-9))), "population outside [0, 1]")


def mcwf_bound(mu, n_traj: int, n_points: int, alpha: float = MCWF_FAMILY_ALPHA):
    """Allowed |trajectory mean - exact| for a [0, 1]-valued observable.

    A trajectory's value lies in [0, 1], so its variance is at most
    mu (1 - mu) with mu the exact mean; unlike the sample standard error this
    bound does not vanish before the first jump.
    """
    z = NormalDist().inv_cdf(1.0 - alpha / (2 * n_points))
    mu = np.clip(mu, 0.0, 1.0)
    return z * np.sqrt(mu * (1.0 - mu) / n_traj) + 1e-9


def check_mcwf_transient(res, ctx, v) -> None:
    exact = np.real(ctx.outputs["me_transient"].observables["p"])
    diff = np.abs(np.real(res.observables["p"]) - exact)
    bound = mcwf_bound(exact, res.meta["n_traj"], len(exact))
    v.require(bool(np.all(diff <= bound)), f"MCWF vs ME exceeds the family-wise bound by {np.max(diff - bound):.3e}")
    v.report["mcwf_vs_me_max"] = float(np.max(diff))


DRIVEN = Workload(
    name="driven",
    why="sparse-LU steady states, 8000 tiny dense solves and small-dimension trajectories dominated by per-call overhead",
    ops=(
        Op("steady_sweep", cli_op("steady-sweep", "steady.yaml"), check_steady),
        Op("me_transient", run_me_transient, check_me_transient),
        Op("mcwf_transient", run_mcwf_transient, check_mcwf_transient, stream=True),
    ),
    prepare=lambda ctx: _driven_configs(ctx.config_dir),
    params={"physical": DRIVEN_PHYS, "N_A": DRIVEN_NA, "Omega_D": DRIVEN_OMEGAS,
            "n_max": 3, "max_excitations": 3, "transient_trajectories": TRANSIENT_TRAJ},
)


# -- scattering ---------------------------------------------------------------
SCATTER_PHYS = {"Gamma_tau": 4.0, "phi": math.pi / 2, "ratio": 2.0}
SCATTER_SOLVER = {"dt": 0.05, "t_max": 12.0, "substeps": 2}
# trapz(SE) bounds the standard error of an integral over the grid (it
# assumes perfect correlation) but leaves out that of the residual
# excitation; five of them also absorb the noise of an SE estimated from 24
# trajectories.
FLUX_SE_MULTIPLE = 5.0
G2_SE_MULTIPLE = 3.0
ECHO_PEAK_SE = 5.0


def _scatter_config(name, N_A, cap, n_traj, n_ph):
    def prepare(ctx):
        write_config(ctx.config_dir / name, experiment="scattering", physical=SCATTER_PHYS,
                     model={"N_A": [N_A], "n_max": 3, "max_excitations": cap},
                     drive={"pulse": {"n_ph": n_ph}},
                     solver={**SCATTER_SOLVER, "n_traj": n_traj, "seed": ctx.seed})
    return prepare


def _scatter_outputs(out, v, n_traj):
    table = read_csv(out / "scattering.csv")
    prov = json.loads((out / "provenance.json").read_text())
    n_pts = int(round(SCATTER_SOLVER["t_max"] / SCATTER_SOLVER["dt"])) + 1
    v.require(len(table["t"]) == n_pts, f"{len(table['t'])} time points instead of {n_pts}")
    v.require(all(np.all(np.isfinite(c)) for c in table.values()), "non-finite values in scattering.csv")
    v.require(bool(np.all(table["i_out"] >= 0) and np.all(table["g2"] >= 0)), "negative intensity or G2")
    v.require(prov["mcwf"]["n_traj"] == n_traj, f"ran {prov['mcwf']['n_traj']} trajectories")
    emitted = float(np.trapezoid(table["i_out"], table["t"]))
    flux = prov["flux_balance"]
    v.require(math.isclose(emitted, flux["integrated_output"], rel_tol=1e-9),
              f"CSV output integral {emitted} disagrees with provenance {flux['integrated_output']}")
    return table, flux


def echo_delay(t, i_out, se, tau):
    """Time from the prompt output peak to the echo peak.

    Peaks are found as in criterion 9 (prominence 0.005) but kept only above
    ECHO_PEAK_SE standard errors: with tens of trajectories a single jump can
    put a spike in the mean that outranks a true peak, and such a spike sits
    within about one standard error of the mean.  The prompt peak is the
    first one of at least half the highest; the echo is the highest peak
    between half and one and a half round trips after it.  (Criterion 9 takes
    the two highest peaks, which needs thousands of trajectories to separate
    the echo from the prompt reliably.)
    """
    peaks, _ = find_peaks(i_out, prominence=0.005)
    peaks = peaks[i_out[peaks] > ECHO_PEAK_SE * se[peaks]]
    if len(peaks) == 0:
        return None
    t_prompt = t[peaks[i_out[peaks] >= 0.5 * i_out[peaks].max()][0]]
    window = peaks[(t[peaks] > t_prompt + 0.5 * tau) & (t[peaks] < t_prompt + 1.5 * tau)]
    if len(window) == 0:
        return None
    return float(t[window[np.argmax(i_out[window])]] - t_prompt)


def check_scattering(out, ctx, v) -> None:
    table, flux = _scatter_outputs(out, v, SCATTER_TRAJ)
    t, i_out, g2 = table["t"], table["i_out"], table["g2"]
    tau = SCATTER_PHYS["Gamma_tau"]
    delay = echo_delay(t, i_out, table["i_out_stderr"], tau)
    v.require(delay is not None and abs(delay - tau) <= 0.2 * tau, f"echo delay {delay} vs round trip {tau}")
    v.report["echo_delay"] = delay
    # G2 resolved above max(1e-3, 3 SE) (criterion 9's rule) somewhere on the
    # grid; at its argmax alone the rule fails on single-trajectory spikes
    v.require(bool(np.any(g2 > np.maximum(1e-3, G2_SE_MULTIPLE * table["g2_stderr"]))),
              "G2 nowhere above max(1e-3, 3 SE)")
    # before the pulse the state is the vacuum: O psi = E_in psi, G2 = I_out^2
    v.require(math.isclose(g2[0], i_out[0] ** 2, rel_tol=1e-9, abs_tol=1e-300), "G2(0) != I_out(0)^2")
    # raw photon balance (leakage not subtracted) against trapz(i_out_stderr)
    raw = flux["n_ph"] - flux["integrated_output"] - flux["residual_excitation"]
    bound = float(np.trapezoid(table["i_out_stderr"], t))
    v.require(abs(raw) <= FLUX_SE_MULTIPLE * bound, f"raw flux balance {raw:.4g} beyond {FLUX_SE_MULTIPLE} x {bound:.4g}")
    v.report["raw_flux_balance"] = float(raw)
    # provenance mismatch (criterion 9 gate 0.01) subtracts worst-trajectory leakage
    v.report["provenance_mismatch"] = float(flux["mismatch"])


def check_scattering_wide(out, ctx, v) -> None:
    # too few trajectories for the statistical checks; physics is checked on
    # the scattering workload, here shape, finiteness and repeatability
    _scatter_outputs(out, v, WIDE_TRAJ)


SCATTER_TRAJ = 24
SCATTERING = Workload(
    name="scattering",
    why="the pinned criterion-9 pulse at dim 343: trajectory tails, jump bisection and output observables do almost all the work",
    ops=(Op("scattering", cli_op("scattering", "scattering.yaml"), check_scattering, stream=True),),
    prepare=_scatter_config("scattering.yaml", 2, 5, SCATTER_TRAJ, 0.5),
    params={"physical": SCATTER_PHYS, **SCATTER_SOLVER, "N_A": 2, "n_max": 3,
            "max_excitations": 5, "n_traj": SCATTER_TRAJ, "n_ph": 0.5},
)

# At dim 952 a trajectory that jumps costs about a quarter of the rest of the
# pass, so with the 0.5-photon pulse the pass time follows the jump count.  A
# 0.05-photon pulse leaves most passes on the shared no-jump path.
WIDE_TRAJ = 2
WIDE_N_PH = 0.05
SCATTERING_WIDE = Workload(
    name="scattering_wide",
    why="a weak pulse at N_A = 7 (dim 952), few trajectories: dense operator assembly and dense observables dominate",
    ops=(Op("scattering_wide", cli_op("scattering", "wide.yaml"), check_scattering_wide, stream=True),),
    prepare=_scatter_config("wide.yaml", 7, 3, WIDE_TRAJ, WIDE_N_PH),
    params={"physical": SCATTER_PHYS, **SCATTER_SOLVER, "N_A": 7, "n_max": 3,
            "max_excitations": 3, "n_traj": WIDE_TRAJ, "n_ph": WIDE_N_PH},
)

WORKLOADS = {w.name: w for w in (DECAY, DRIVEN, SCATTERING, SCATTERING_WIDE)}
