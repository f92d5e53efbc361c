"""Reproducible experiment harness: config ingestion, sweeps, backend dispatch.

Each runner writes figure-ready CSVs plus a JSON sidecar with the resolved
config, seed, version, and wall-clock runtime.  Identical config + seed gives
byte-identical CSVs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy.linalg import expm

from . import __version__
from .dde import fit_decay_rate, markovian_rate, solve_delay_ode
from .hilbert import CompositeSpace, sigma_minus, sigma_plus
from .lindblad import (
    DriveDissipationSpec,
    atom_op,
    build_hamiltonian,
    build_jump_ops,
    build_liouvillian,
    integrate_me,
    space_for_model,
    steady_state,
    total_excitation_op,
)
from .mcwf import effective_hamiltonian, mcwf_evolve, uniform_step
from .model import build_effective_model, params_from_dimensionless, snap_block_length
from .results import write_csv
from .scattering import PulseSpec, build_drive_term, flux_balance, make_output_e_ops

EXPERIMENTS = ("emission", "scattering", "steady_sweep", "convergence", "purcell")
BACKENDS = ("dde", "me", "mcwf", "chain")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


class TruncationAbort(RuntimeError):
    """Boundary-state leakage exceeded the configured threshold."""


# every config field, by block; None marks a leaf.  drive.pulse may be null.
SCHEMA = {
    "experiment": None,
    "physical": {"Gamma_tau": None, "phi": None, "ratio": None},
    "model": {"N_A": None, "n_max": None, "max_excitations": None, "frame": None},
    "drive": {
        "Omega_D": None,
        "pulse": {"W": None, "t0": None, "n_ph": None, "delta_in": None},
    },
    "solver": {
        "backend": None,
        "dt": None,
        "t_max": None,
        "n_traj": None,
        "seed": None,
        "substeps": None,
        "sites_per_delay": None,
        "leak_abort": None,
    },
    "output": {"directory": None},
}


def _check_fields(node: dict, schema: dict, prefix: str = "") -> None:
    """Reject keys outside the schema, naming the full field path."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ConfigError(f"unknown field '{path}'")
        if schema[key] is None or value is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"field '{path}': must be a mapping")
        _check_fields(value, schema[key], f"{path}.")


def _get(block: dict, path: str, default=None, required=False, cast=None):
    node = block
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing required field '{path}'")
            return default
        node = node[part]
    if cast is not None and node is not None:
        try:
            node = cast(node)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field '{path}': {exc}") from exc
    return node


def _write_table(path, columns: dict) -> None:
    """columns: name -> 1d array; all columns must share a length."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    write_csv(path, names, zip(*[a.tolist() for a in arrays]))


@dataclass
class ExperimentConfig:
    experiment: str
    Gamma_tau: float = 2.0
    phi: float = math.pi / 2
    ratio: float = 2.0  # block length over atom-mirror distance
    N_A: list = field(default_factory=lambda: [7])
    n_max: int = 1
    max_excitations: int | None = 1
    frame: str = "rotating"
    Omega_D: list = field(default_factory=list)
    pulse: dict | None = None
    backend: str = "me"
    dt: float = 0.01
    t_max: float = 6.0
    n_traj: int = 1000
    seed: int = 0
    substeps: int = 4
    sites_per_delay: int = 40
    leak_abort: float = 0.05
    out_dir: str = "runs"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"field 'experiment': {self.experiment!r} not in {EXPERIMENTS}"
            )
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"field 'solver.backend': {self.backend!r} not in {BACKENDS}"
            )
        if self.Gamma_tau <= 0:
            raise ConfigError("field 'physical.Gamma_tau': must be positive")
        if self.dt <= 0 or self.t_max <= 0:
            raise ConfigError("field 'solver.dt'/'solver.t_max': must be positive")
        needs_delay = self.experiment in ("emission", "convergence")
        if needs_delay and self.t_max < self.Gamma_tau:
            raise ConfigError(
                "field 'solver.t_max': the delay-equation reference needs at "
                f"least one delay, physical.Gamma_tau = {self.Gamma_tau}"
            )
        if self.n_traj < 1:
            raise ConfigError("field 'solver.n_traj': must be >= 1")
        if self.substeps < 1:
            raise ConfigError("field 'solver.substeps': must be >= 1")
        if self.sites_per_delay < 2:
            raise ConfigError("field 'solver.sites_per_delay': must be >= 2")
        if any(n < 0 for n in self.N_A):
            raise ConfigError("field 'model.N_A': entries must be non-negative")
        if self.frame not in ("rotating", "lab"):
            raise ConfigError("field 'model.frame': must be 'rotating' or 'lab'")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        _check_fields(raw, SCHEMA)
        exp = _get(raw, "experiment", required=True)
        NA = _get(raw, "model.N_A", default=[7])
        if isinstance(NA, int):
            NA = [NA]
        OD = _get(raw, "drive.Omega_D", default=[])
        if isinstance(OD, (int, float)):
            OD = [float(OD)]
        return cls(
            experiment=exp,
            Gamma_tau=_get(raw, "physical.Gamma_tau", 2.0, cast=float),
            phi=_get(raw, "physical.phi", math.pi / 2, cast=float),
            ratio=_get(raw, "physical.ratio", 2.0, cast=float),
            N_A=[int(n) for n in NA],
            n_max=_get(raw, "model.n_max", 1, cast=int),
            max_excitations=_get(raw, "model.max_excitations", 1),
            frame=_get(raw, "model.frame", "rotating"),
            Omega_D=[float(o) for o in OD],
            pulse=_get(raw, "drive.pulse"),
            backend=_get(raw, "solver.backend", "me"),
            dt=_get(raw, "solver.dt", 0.01, cast=float),
            t_max=_get(raw, "solver.t_max", 6.0, cast=float),
            n_traj=_get(raw, "solver.n_traj", 1000, cast=int),
            seed=_get(raw, "solver.seed", 0, cast=int),
            substeps=_get(raw, "solver.substeps", 4, cast=int),
            sites_per_delay=_get(raw, "solver.sites_per_delay", 40, cast=int),
            leak_abort=_get(raw, "solver.leak_abort", 0.05, cast=float),
            out_dir=_get(raw, "output.directory", "runs"),
        )

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        return cls.from_dict(raw or {})

    def resolved(self) -> dict:
        return {
            "experiment": self.experiment,
            "physical": {
                "Gamma_tau": self.Gamma_tau,
                "phi": self.phi,
                "ratio": self.ratio,
            },
            "model": {
                "N_A": self.N_A,
                "n_max": self.n_max,
                "max_excitations": self.max_excitations,
                "frame": self.frame,
            },
            "drive": {"Omega_D": self.Omega_D, "pulse": self.pulse},
            "solver": {
                "backend": self.backend,
                "dt": self.dt,
                "t_max": self.t_max,
                "n_traj": self.n_traj,
                "seed": self.seed,
                "substeps": self.substeps,
                "sites_per_delay": self.sites_per_delay,
                "leak_abort": self.leak_abort,
            },
            "output": {"directory": self.out_dir},
        }


def _write_provenance(out: Path, config: ExperimentConfig, runtime: float, extra=None):
    payload = {
        "config": config.resolved(),
        "seed": config.seed,
        "version": __version__,
        "runtime_seconds": runtime,
    }
    if extra:
        payload.update(extra)
    out.joinpath("provenance.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )


def _decay_problem(Gamma_tau, phi, ratio, N_A, frame):
    """Truncated model in its one-excitation sector, for decay from |e> vacuum.

    Returns (Gamma, space, H, jumps, n_at); the single-excitation sector
    suffices for spontaneous emission.
    """
    params = params_from_dimensionless(Gamma_tau, phi)
    L = snap_block_length(params, ratio)
    model = build_effective_model(params, L, N_A, frame=frame)
    space = space_for_model(model, n_max=1, max_excitations=1)
    drive = DriveDissipationSpec(gamma=model.gamma)
    H = build_hamiltonian(model, drive, space)
    jumps = build_jump_ops(model, drive, space)
    n_at = atom_op(space, (sigma_plus() @ sigma_minus()).astype(complex))
    return params.Gamma, space, H, jumps, n_at


def model_decay_curve(
    Gamma_tau: float,
    phi: float,
    ratio: float,
    N_A: int,
    t_grid: np.ndarray,
    frame: str = "rotating",
) -> np.ndarray:
    """Atomic population of the truncated model, starting from |e> vacuum.

    t_grid is in units of 1/Gamma.  Integrates the master equation; the
    runners use the equivalent ``amplitude_decay_curve``.
    """
    Gamma, space, H, jumps, n_at = _decay_problem(Gamma_tau, phi, ratio, N_A, frame)
    psi = space.vacuum(excited=True)
    res = integrate_me(
        build_liouvillian(H, jumps),
        np.outer(psi, psi.conj()),
        np.asarray(t_grid, dtype=float) / Gamma,
        e_ops={"atom_population": n_at},
        keep_states=False,
    )
    return np.real(res.observables["atom_population"])


def _amplitude_decay(Gamma_tau, phi, ratio, N_A, t_grid, frame="rotating"):
    """(population on t_grid, sector dim) from the amplitude equations."""
    Gamma, space, H, jumps, n_at = _decay_problem(Gamma_tau, phi, ratio, N_A, frame)
    h = uniform_step(np.asarray(t_grid, dtype=float) / Gamma)
    U = expm(-1j * h * effective_hamiltonian(H, jumps).toarray())
    amps = np.empty((len(t_grid), space.dim), dtype=complex)
    amps[0] = space.vacuum(excited=True)
    for k in range(1, len(t_grid)):
        amps[k] = U @ amps[k - 1]
    return np.abs(amps) ** 2 @ n_at.diagonal().real, space.dim


def amplitude_decay_curve(
    Gamma_tau: float,
    phi: float,
    ratio: float,
    N_A: int,
    t_grid: np.ndarray,
    frame: str = "rotating",
) -> np.ndarray:
    """``model_decay_curve`` from the single-excitation amplitude equations.

    The block loss maps the one-excitation sector to |g, vac>, which H leaves
    alone and which carries no atomic population, so the population is
    exactly that of the no-jump state exp(-i Heff t)|e, vac>.  One dense
    propagator for the grid step advances it; t_grid must be uniform.
    """
    return _amplitude_decay(Gamma_tau, phi, ratio, N_A, t_grid, frame)[0]


def _decay_solver(dims) -> dict:
    """Provenance entry for the model decay curves a runner computed."""
    if not dims:
        return {}
    return {"decay_solver": {"method": "amplitude", "dim": max(dims)}}


def _dde_on_grid(config: ExperimentConfig, t: np.ndarray) -> np.ndarray:
    dde = solve_delay_ode(
        1.0,
        config.Gamma_tau,
        config.phi,
        t_max=float(t[-1]),
        dt=config.Gamma_tau / 2000,
    )
    return np.interp(t, dde.t, dde.population)


def run_emission(config: ExperimentConfig, out_dir) -> list:
    """Decay of an initially excited atom: exact delay curve plus model curves."""
    t0 = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    extra = None
    n_pts = int(round(config.t_max / config.dt)) + 1
    t = np.linspace(0.0, config.t_max, n_pts)  # units of 1/Gamma

    path = out / "emission_dde.csv"
    _write_table(path, {"t": t, "atom_population": _dde_on_grid(config, t)})
    written.append(path)

    if config.backend == "chain":
        from .chain import calibrate_chain, evolve_sector

        spec = calibrate_chain(
            1.0,
            config.Gamma_tau,
            config.phi,
            sites_per_delay=config.sites_per_delay,
            t_max=1.05 * config.t_max,
        )
        res = evolve_sector(spec, {(1, ()): 1.0}, t, max_excitations=1)
        path = out / "emission_chain.csv"
        _write_table(
            path, {"t": t, "atom_population": res.observables["atom_population"]}
        )
        written.append(path)
    else:
        dims = []
        for N_A in config.N_A:
            pop, dim = _amplitude_decay(
                config.Gamma_tau, config.phi, config.ratio, N_A, t, config.frame
            )
            dims.append(dim)
            path = out / f"emission_me_NA{N_A}.csv"
            _write_table(path, {"t": t, "atom_population": pop})
            written.append(path)
        extra = _decay_solver(dims)
    _write_provenance(out, config, time.time() - t0, extra)
    return written


def run_convergence(config: ExperimentConfig, out_dir) -> list:
    """Max-error ladder of the truncated model against the exact decay curve."""
    t0 = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_pts = int(round(config.t_max / config.dt)) + 1
    t = np.linspace(0.0, config.t_max, n_pts)
    pop_dde = _dde_on_grid(config, t)
    errors, dims = [], []
    for N_A in config.N_A:
        pop, dim = _amplitude_decay(
            config.Gamma_tau, config.phi, config.ratio, N_A, t, config.frame
        )
        errors.append(float(np.max(np.abs(pop - pop_dde))))
        dims.append(dim)
    non_monotone = [
        int(config.N_A[i + 1])
        for i in range(len(errors) - 1)
        if errors[i + 1] > errors[i] + 1e-3
    ]
    path = out / "convergence.csv"
    _write_table(
        path,
        {"N_A": np.array(config.N_A, dtype=float), "max_error": np.array(errors)},
    )
    _write_provenance(
        out,
        config,
        time.time() - t0,
        extra={"non_monotonic_at": non_monotone, **_decay_solver(dims)},
    )
    return [path]


PURCELL_PHIS = (math.pi / 2, math.pi, 3 * math.pi / 2)


def run_purcell(config: ExperimentConfig, out_dir) -> list:
    """Short-delay decay rates: fitted vs 2*Gamma*sin^2(phi/2), per phi."""
    t0 = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    Gamma_tau = config.Gamma_tau if config.Gamma_tau < 0.1 else 1e-2
    rows = {"phi": [], "rate_theory": [], "rate_dde": [], "rate_model": []}
    dims = []
    for phi in PURCELL_PHIS:
        theory = markovian_rate(1.0, phi)
        t_fit = 2.0 / theory
        dde = solve_delay_ode(1.0, Gamma_tau, phi, t_max=t_fit, dt=Gamma_tau / 50)
        rate_dde = fit_decay_rate(dde.t, dde.population)
        tg = np.linspace(0.0, t_fit, 201)
        pop, dim = _amplitude_decay(Gamma_tau, phi, 1.0, 0, tg)
        dims.append(dim)
        rate_model = fit_decay_rate(tg, pop)
        rows["phi"].append(phi)
        rows["rate_theory"].append(theory)
        rows["rate_dde"].append(rate_dde)
        rows["rate_model"].append(rate_model)
    path = out / "purcell.csv"
    _write_table(path, {k: np.array(v) for k, v in rows.items()})
    _write_provenance(out, config, time.time() - t0, _decay_solver(dims))
    return [path]


def qubit_steady_state(Omega_D: float, kappa: float, kappa_phi: float):
    """Steady state of a resonantly driven qubit with decay and pure dephasing.

    Returns (rho_ee, |rho_eg|) from the Bloch equations' fixed point, with
    coherence decay rate gamma_2 = (kappa + kappa_phi)/2; the drive must be
    accompanied by some decay for the state to be unique.
    """
    rho_ee = Omega_D**2 / (kappa * (kappa + kappa_phi) + 2.0 * Omega_D**2)
    gamma_2 = 0.5 * (kappa + kappa_phi)
    return rho_ee, 0.5 * Omega_D * abs(1.0 - 2.0 * rho_ee) / gamma_2


def markovian_overlay(n: int = 20) -> dict:
    """Dense sweep of driven-damped-dephased qubit steady states.

    Samples the attainable (|rho_eg|, rho_ee) region; its boundary is the
    overlay curve.  Decay is kept strictly positive so every point is unique.
    """
    rows = {"Omega_D": [], "kappa": [], "kappa_phi": [], "rho_ee": [], "rho_eg_abs": []}
    for OD in np.linspace(0.0, 6.0, n):
        for ka in np.linspace(0.05, 4.0, n):
            for kp in np.linspace(0.0, 4.0, n):
                p_ee, coh = qubit_steady_state(OD, ka, kp)
                rows["Omega_D"].append(OD)
                rows["kappa"].append(ka)
                rows["kappa_phi"].append(kp)
                rows["rho_ee"].append(p_ee)
                rows["rho_eg_abs"].append(coh)
    return {k: np.array(v) for k, v in rows.items()}


def model_steady_state(
    Gamma_tau: float,
    phi: float,
    ratio: float,
    N_A: int,
    Omega_D_over_Gamma: float,
    n_max: int = 3,
    max_excitations: int | None = 3,
):
    """(rho_ee, |rho_eg|) of the driven truncated model."""
    params = params_from_dimensionless(Gamma_tau, phi)
    L = snap_block_length(params, ratio)
    model = build_effective_model(params, L, N_A, frame="rotating")
    space = space_for_model(model, n_max=n_max, max_excitations=max_excitations)
    drive = DriveDissipationSpec(
        Omega_D=Omega_D_over_Gamma * params.Gamma, gamma=model.gamma
    )
    H = build_hamiltonian(model, drive, space)
    jumps = build_jump_ops(model, drive, space)
    rho = steady_state(H, jumps)
    rho_q = space.ptrace_qubit(rho)
    return float(rho_q[1, 1].real), float(abs(rho_q[1, 0]))


def run_steady_sweep(config: ExperimentConfig, out_dir) -> list:
    """Driven steady states per truncation order, plus the Markovian overlay."""
    t0 = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    Omegas = config.Omega_D or [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    NAs = config.N_A if config.N_A != [7] else [0, 1, 2]
    n_max = config.n_max if config.n_max > 1 else 3
    base_cap = config.max_excitations
    if base_cap is not None and base_cap <= 1:
        base_cap = n_max
    truncation = []
    for N_A in NAs:
        # strong block loss keeps photon numbers low; two quanta suffice for
        # the wider truncations
        cap = base_cap if N_A <= 1 else min(base_cap or 2, 2)
        n = min(n_max, cap) if cap is not None else n_max
        # the qubit plus the 2 N_A + 1 retained modes
        dim = CompositeSpace(2 * N_A + 1, n, cap).dim
        truncation.append({"N_A": N_A, "n_max": n, "max_excitations": cap, "dim": dim})
        rows = {"Omega_D": [], "rho_ee": [], "rho_eg_abs": []}
        for OD in Omegas:
            p_ee, coh = model_steady_state(
                config.Gamma_tau, config.phi, config.ratio, N_A, OD,
                n_max=n, max_excitations=cap,
            )
            rows["Omega_D"].append(OD)
            rows["rho_ee"].append(p_ee)
            rows["rho_eg_abs"].append(coh)
        path = out / f"steady_NA{N_A}.csv"
        _write_table(path, {k: np.array(v) for k, v in rows.items()})
        written.append(path)

    path = out / "markovian_overlay.csv"
    _write_table(path, markovian_overlay())
    written.append(path)
    _write_provenance(out, config, time.time() - t0, {"truncation": truncation})
    return written


def run_scattering(config: ExperimentConfig, out_dir) -> list:
    """Gaussian-pulse scattering: output intensity, G2, and a flux audit."""
    t0 = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = params_from_dimensionless(config.Gamma_tau, config.phi)
    N_A = config.N_A[0]
    L = snap_block_length(params, config.ratio)
    model = build_effective_model(params, L, N_A, frame="rotating")
    G = params.Gamma
    pl = config.pulse or {}
    spec = PulseSpec(
        W=float(pl.get("W", 2.5)) * G,
        t0=float(pl.get("t0", 2.0)) / G,
        n_ph=float(pl.get("n_ph", 0.5)),
        delta_in=float(pl.get("delta_in", 0.0)) * G,
    )
    n_max = config.n_max if config.n_max > 1 else 3
    cap = config.max_excitations
    if cap is not None and cap <= 1:
        cap = n_max + 2
    space = space_for_model(model, n_max=n_max, max_excitations=cap)
    drive_spec = DriveDissipationSpec(gamma=model.gamma)
    H = build_hamiltonian(model, drive_spec, space)
    jumps = build_jump_ops(model, drive_spec, space)
    coeff, Adag = build_drive_term(model, spec, space)
    psi0 = space.vacuum()
    n_pts = int(round(config.t_max / config.dt)) + 1
    t = np.linspace(0.0, config.t_max, n_pts) / G
    e_ops = make_output_e_ops(space, model, spec)
    e_ops["excitation"] = total_excitation_op(space)
    res = mcwf_evolve(
        H,
        jumps,
        psi0,
        t,
        n_traj=config.n_traj,
        seed=config.seed,
        td_terms=[(coeff, Adag)],
        e_ops=e_ops,
        substeps=config.substeps,
        leak_projector=space.boundary_projector(),
    )
    max_leak = float(res.meta.get("max_leakage", 0.0))
    if max_leak > config.leak_abort:
        raise TruncationAbort(
            f"boundary-state leakage {max_leak:.3g} exceeds abort "
            f"threshold {config.leak_abort:.3g}"
        )
    audit = flux_balance(
        res.t,
        np.real(res.observables["I_out"]),
        residual_excitation=float(np.real(res.observables["excitation"][-1])),
        leakage=max_leak,
        n_ph=spec.n_ph,
    )
    path = out / "scattering.csv"
    _write_table(
        path,
        {
            "t": res.t * G,
            "i_out": np.real(res.observables["I_out"]) / G,
            "g2": np.real(res.observables["G2"]) / G**2,
            "i_out_stderr": np.real(res.stderr["I_out"]) / G,
            "g2_stderr": np.real(res.stderr["G2"]) / G**2,
        },
    )
    _write_provenance(
        out,
        config,
        time.time() - t0,
        extra={
            "flux_balance": audit,
            "mcwf": {
                k: v for k, v in res.meta.items() if isinstance(v, (int, float))
            },
        },
    )
    return [path]


RUNNERS = {
    "emission": run_emission,
    "scattering": run_scattering,
    "steady_sweep": run_steady_sweep,
    "convergence": run_convergence,
    "purcell": run_purcell,
}


def run_experiment(config: ExperimentConfig, out_dir=None) -> list:
    return RUNNERS[config.experiment](config, out_dir or config.out_dir)
