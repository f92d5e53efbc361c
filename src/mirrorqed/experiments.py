"""Reproducible experiment harness: config ingestion, sweeps, backend dispatch.

Each runner computes figure-ready tables and touches no file;
``run_experiment`` writes them as CSVs plus a JSON sidecar with the resolved
config, seed, version, and wall-clock runtime, once the runner has returned.
Identical config + seed gives byte-identical CSVs.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dde import fit_decay_rate, markovian_rate, solve_delay_ode
from .hilbert import sigma_minus, sigma_plus, sigma_x
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
from .mcwf import mcwf_evolve
from .model import build_effective_model, params_from_dimensionless, snap_block_length
from .results import uniform_step, write_csv
from .scattering import PulseSpec, build_drive_term, flux_balance, make_output_e_ops

PULSE = {"W": 2.5, "t0": 2.0, "n_ph": 0.5, "delta_in": 0.0}

# experiment -> the solver backends it runs
BACKENDS = {
    "emission": ("me", "chain"),
    "scattering": ("mcwf",),
    "steady_sweep": ("me",),
    "convergence": ("me",),
    "purcell": ("me",),
}
EXPERIMENTS = tuple(BACKENDS)


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


class TruncationAbort(RuntimeError):
    """Boundary-state leakage exceeded the configured threshold."""


def _int(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not a whole number")
    return int(value)


def _ints(value) -> list:
    return [_int(value)] if isinstance(value, int) else [_int(n) for n in value]


def _floats(value) -> list:
    return [float(value)] if isinstance(value, (int, float)) else [float(x) for x in value]


def _cap(value):
    return None if value is None else _int(value)


def _pulse(value) -> dict:
    """A pulse mapping; keys left out take their PULSE values, null takes PULSE."""
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise TypeError("must be a mapping")
    for key in value:
        if key not in PULSE:
            raise ValueError(f"unknown field 'drive.pulse.{key}'")
    return {key: float(value.get(key, default)) for key, default in PULSE.items()}


# The experiments whose runner reads a field; run_experiment reads
# output.directory for every experiment.
_MODELLED = ("emission", "steady_sweep", "convergence", "scattering")
_GRIDDED = ("emission", "convergence", "scattering")
_TRUNCATED = ("steady_sweep", "scattering")

# Every config field once: attribute -> (path, cast, shared default,
# {experiment: its own default}, the experiments that read it).  Units:
# Gamma and 1/Gamma.
FIELDS = {
    "Gamma_tau": ("physical.Gamma_tau", float, 2.0, {"purcell": 0.01}, EXPERIMENTS),
    "phi": ("physical.phi", float, math.pi / 2, {}, _MODELLED),
    # block length over atom-mirror distance
    "ratio": ("physical.ratio", float, 2.0, {}, _MODELLED),
    "N_A": ("model.N_A", _ints, [7], {"steady_sweep": [0, 1, 2]}, _MODELLED),
    "n_max": ("model.n_max", _int, 1, {"steady_sweep": 3, "scattering": 3}, _TRUNCATED),
    "max_excitations": (
        "model.max_excitations", _cap, 1, {"steady_sweep": 3, "scattering": 5}, _TRUNCATED,
    ),
    "Omega_D": (
        "drive.Omega_D", _floats, [],
        {"steady_sweep": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]}, ("steady_sweep",),
    ),
    "pulse": ("drive.pulse", _pulse, PULSE, {}, ("scattering",)),
    "backend": ("solver.backend", str, "me", {"scattering": "mcwf"}, ("emission",)),
    "dt": ("solver.dt", float, 0.01, {}, _GRIDDED),
    "t_max": ("solver.t_max", float, 6.0, {}, _GRIDDED),
    "n_traj": ("solver.n_traj", _int, 1000, {}, ("scattering",)),
    "seed": ("solver.seed", _int, 0, {}, ("scattering",)),
    "substeps": ("solver.substeps", _int, 4, {}, ("scattering",)),
    "sites_per_delay": ("solver.sites_per_delay", _int, 40, {}, ("emission",)),
    "leak_abort": ("solver.leak_abort", float, 0.05, {}, ("scattering",)),
    "out_dir": ("output.directory", os.fspath, "runs", {}, EXPERIMENTS),
}
_BY_PATH = {spec[0]: name for name, spec in FIELDS.items()}
_BLOCKS = {path.split(".")[0] for path in _BY_PATH}
_UNSET = object()


@dataclass
class ExperimentConfig:
    """One experiment's settings; a field left out takes its FIELDS default.

    Construction casts and validates every field, so a config either runs as
    written or raises ConfigError naming the field's path.  A config file or
    a CLI flag may set only the fields its experiment reads
    (``require_read``); the constructor accepts any, as ``dataclasses.replace``
    passes every field.
    """

    experiment: str
    Gamma_tau: float = _UNSET
    phi: float = _UNSET
    ratio: float = _UNSET
    N_A: list = _UNSET
    n_max: int = _UNSET
    max_excitations: int | None = _UNSET
    Omega_D: list = _UNSET
    pulse: dict = _UNSET
    backend: str = _UNSET
    dt: float = _UNSET
    t_max: float = _UNSET
    n_traj: int = _UNSET
    seed: int = _UNSET
    substeps: int = _UNSET
    sites_per_delay: int = _UNSET
    leak_abort: float = _UNSET
    out_dir: str = _UNSET

    def __post_init__(self):
        exp = self.experiment
        if exp not in EXPERIMENTS:
            raise ConfigError(f"field 'experiment': {exp!r} not in {EXPERIMENTS}")
        for name, (path, cast, default, own, _) in FIELDS.items():
            value = getattr(self, name)
            try:
                value = cast(own.get(exp, default) if value is _UNSET else value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"field '{path}': {exc}") from exc
            setattr(self, name, value)
        steps = self.t_max / self.dt if self.dt > 0 else 0.0
        checks = [
            (self.backend in BACKENDS[exp], "backend",
             f"{self.backend!r} not in {BACKENDS[exp]} for {exp}"),
            (self.Gamma_tau > 0, "Gamma_tau", "must be positive"),
            # the short-delay limit the Purcell rates are compared in
            (exp != "purcell" or self.Gamma_tau < 0.1, "Gamma_tau",
             "purcell needs Gamma_tau < 0.1"),
            (self.dt > 0, "dt", "must be positive"),
            (self.t_max > 0, "t_max", "must be positive"),
            # the output grid's step is dt itself
            (exp not in ("emission", "convergence", "scattering")
             or steps > 0.5 and min(steps % 1, -steps % 1) <= 1e-9,
             "dt", f"must divide solver.t_max = {self.t_max} into whole steps"),
            (exp not in ("emission", "convergence") or self.t_max >= self.Gamma_tau,
             "t_max", "the delay-equation reference needs at least one delay, "
             f"physical.Gamma_tau = {self.Gamma_tau}"),
            (self.n_traj >= 1, "n_traj", "must be >= 1"),
            (0 <= self.seed < 2**64, "seed", "must be in [0, 2**64)"),
            (self.substeps >= 1, "substeps", "must be >= 1"),
            (self.sites_per_delay >= 2, "sites_per_delay", "must be >= 2"),
            (all(n >= 0 for n in self.N_A), "N_A", "entries must be non-negative"),
            (len(set(self.N_A)) == len(self.N_A), "N_A", "entries must be distinct"),
            (exp != "scattering" or len(self.N_A) == 1, "N_A",
             "scattering runs one truncation order"),
            (exp != "steady_sweep" or self.Omega_D, "Omega_D",
             "steady_sweep needs at least one drive amplitude"),
        ]
        for ok, name, message in checks:
            if not ok:
                raise ConfigError(f"field '{FIELDS[name][0]}': {message}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Parse nested config blocks; unknown fields are rejected by path."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        values = {}
        for block, leaves in raw.items():
            if block == "experiment":
                continue
            if block not in _BLOCKS:
                raise ConfigError(f"unknown field '{block}'")
            if leaves is None:
                continue
            if not isinstance(leaves, dict):
                raise ConfigError(f"field '{block}': must be a mapping")
            for leaf, value in leaves.items():
                path = f"{block}.{leaf}"
                if path not in _BY_PATH:
                    raise ConfigError(f"unknown field '{path}'")
                values[_BY_PATH[path]] = value
        if "experiment" not in raw:
            raise ConfigError("missing required field 'experiment'")
        config = cls(raw["experiment"], **values)
        config.require_read(values)
        return config

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        return cls.from_dict(raw or {})

    def require_read(self, names, source: str = "") -> None:
        """Raise ConfigError on the first field of ``names`` the experiment does not read."""
        for name in names:
            path, *_, readers = FIELDS[name]
            if self.experiment not in readers:
                raise ConfigError(
                    f"field '{path}'{source}: the {self.experiment} experiment does not read it"
                )

    def resolved(self) -> dict:
        """The config as nested blocks, every field the experiment reads filled in."""
        out = {"experiment": self.experiment}
        for name, (path, *_, readers) in FIELDS.items():
            if self.experiment in readers:
                block, leaf = path.split(".")
                out.setdefault(block, {})[leaf] = getattr(self, name)
        return out


def _model_problem(Gamma_tau, phi, ratio, N_A, n_max, cap):
    """(Gamma, model, space, jumps) of the truncated model with block loss.

    The space keeps n_max photons per mode and at most cap quanta.  H is left
    to the caller, as only H depends on the drive.
    """
    params = params_from_dimensionless(Gamma_tau, phi)
    L = snap_block_length(params, ratio)
    model = build_effective_model(params, L, N_A)
    space = space_for_model(model, n_max=n_max, max_excitations=cap)
    jumps = build_jump_ops(model, DriveDissipationSpec(gamma=model.gamma), space)
    return params.Gamma, model, space, jumps


def model_decay_curve(
    Gamma_tau: float, phi: float, ratio: float, N_A: int, t_grid: np.ndarray
) -> np.ndarray:
    """Atomic population of the truncated model, starting from |e> vacuum.

    t_grid is in units of 1/Gamma.  Integrates the master equation in the
    one-excitation sector, which suffices for spontaneous emission; the
    runners and the acceptance criteria use the equivalent
    ``amplitude_decay_curve``, and this route serves as its cross-check.
    """
    Gamma, model, space, jumps = _model_problem(Gamma_tau, phi, ratio, N_A, 1, 1)
    H = build_hamiltonian(model, DriveDissipationSpec(), space)
    psi = space.vacuum(excited=True)
    res = integrate_me(
        build_liouvillian(H, jumps),
        np.outer(psi, psi.conj()),
        np.asarray(t_grid, dtype=float) / Gamma,
        e_ops={"atom_population": atom_op(space, sigma_plus() @ sigma_minus())},
        keep_states=False,
    )
    return np.real(res.observables["atom_population"])


def _amplitude_decay(Gamma_tau, phi, ratio, N_A, t_grid):
    """(population on t_grid, sector dim) from the amplitude equations."""
    from scipy.linalg import expm

    Gamma, model, space, jumps = _model_problem(Gamma_tau, phi, ratio, N_A, 1, 1)
    H = build_hamiltonian(model, DriveDissipationSpec(), space)
    h = uniform_step(np.asarray(t_grid, dtype=float) / Gamma)
    U = expm(-1j * h * build_liouvillian(H, jumps).Heff.toarray())
    amps = np.empty((len(t_grid), space.dim), dtype=complex)
    amps[0] = space.vacuum(excited=True)
    for k in range(1, len(t_grid)):
        amps[k] = U @ amps[k - 1]
    return np.abs(amps) ** 2 @ space.excitations([0]), space.dim


def amplitude_decay_curve(
    Gamma_tau: float, phi: float, ratio: float, N_A: int, t_grid: np.ndarray
) -> np.ndarray:
    """Atomic population of the truncated model from |e> vacuum, by amplitudes.

    t_grid is in units of 1/Gamma.  The block loss maps the one-excitation
    sector to |g, vac>, which H leaves alone and which carries no atomic
    population, so the population is exactly that of the no-jump state
    exp(-i Heff t)|e, vac>.  One dense propagator for the grid step advances
    it; t_grid must be uniform.
    """
    return _amplitude_decay(Gamma_tau, phi, ratio, N_A, t_grid)[0]


def _decay_solver(dims) -> dict:
    """Provenance entry for the model decay curves a runner computed."""
    if not dims:
        return {}
    return {"decay_solver": {"method": "amplitude", "dim": max(dims)}}


def _solve_dde(Gamma_tau, phi, t_max, steps_per_delay):
    """Exact delay curve at Gamma = 1, and the provenance record of its grid."""
    dt = Gamma_tau / steps_per_delay
    dde = solve_delay_ode(1.0, Gamma_tau, phi, t_max=t_max, dt=dt)
    grid = {"dt": dt, "steps": len(dde.t) - 1, "steps_per_delay": steps_per_delay}
    return dde, grid


def _output_grid(config: ExperimentConfig) -> np.ndarray:
    """0, dt, ..., t_max in units of 1/Gamma; the config check makes dt divide t_max."""
    return np.linspace(0.0, config.t_max, int(round(config.t_max / config.dt)) + 1)


def _dde_on_grid(config: ExperimentConfig):
    """(output grid, exact population on it, provenance entry of the solve)."""
    t = _output_grid(config)
    dde, grid = _solve_dde(config.Gamma_tau, config.phi, float(t[-1]), 2000)
    return t, np.interp(t, dde.t, dde.population), {"dde_solver": [grid]}


def run_emission(config: ExperimentConfig) -> tuple:
    """Decay of an initially excited atom: exact delay curve plus model curves."""
    t, pop_dde, extra = _dde_on_grid(config)
    tables = {"emission_dde.csv": {"t": t, "atom_population": pop_dde}}

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
        extra["chain_solver"] = {
            k: res.meta[k]
            for k in ("method", "dim", "steps", "terms_per_step", "spectral_interval")
        }
        tables["emission_chain.csv"] = {
            "t": t, "atom_population": res.observables["atom_population"],
        }
    else:
        dims = []
        for N_A in config.N_A:
            pop, dim = _amplitude_decay(config.Gamma_tau, config.phi, config.ratio, N_A, t)
            dims.append(dim)
            tables[f"emission_me_NA{N_A}.csv"] = {"t": t, "atom_population": pop}
        extra.update(_decay_solver(dims))
    return tables, extra


def run_convergence(config: ExperimentConfig) -> tuple:
    """Max-error ladder of the truncated model against the exact decay curve."""
    t, pop_dde, extra = _dde_on_grid(config)
    errors, dims = [], []
    for N_A in config.N_A:
        pop, dim = _amplitude_decay(config.Gamma_tau, config.phi, config.ratio, N_A, t)
        errors.append(float(np.max(np.abs(pop - pop_dde))))
        dims.append(dim)
    non_monotone = [
        int(config.N_A[i + 1])
        for i in range(len(errors) - 1)
        if errors[i + 1] > errors[i] + 1e-3
    ]
    extra.update(non_monotonic_at=non_monotone, **_decay_solver(dims))
    table = {"N_A": np.array(config.N_A, dtype=float), "max_error": errors}
    return {"convergence.csv": table}, extra


PURCELL_PHIS = (math.pi / 2, math.pi, 3 * math.pi / 2)


def run_purcell(config: ExperimentConfig) -> tuple:
    """Short-delay decay rates: fitted vs 2*Gamma*sin^2(phi/2), per phi.

    The limit needs Gamma_tau < 0.1, which the config check enforces.  The
    model runs N_A = 0 at ratio 1 on its own phases and grids, so Gamma_tau is
    the one field read; provenance records what ran.
    """
    Gamma_tau = config.Gamma_tau
    N_A, ratio = 0, 1.0
    rows, dims, grids = [], [], []
    for phi in PURCELL_PHIS:
        theory = markovian_rate(1.0, phi)
        t_fit = 2.0 / theory
        dde, grid = _solve_dde(Gamma_tau, phi, t_fit, 50)
        tg = np.linspace(0.0, t_fit, 201)
        pop, dim = _amplitude_decay(Gamma_tau, phi, ratio, N_A, tg)
        rate_dde = fit_decay_rate(dde.t, dde.population)
        rows.append((phi, theory, rate_dde, fit_decay_rate(tg, pop)))
        dims.append(dim)
        grids.append(grid)
    names = ("phi", "rate_theory", "rate_dde", "rate_model")
    extra = {
        "purcell_run": {"phi": PURCELL_PHIS, "N_A": N_A, "ratio": ratio},
        "dde_solver": grids,
        **_decay_solver(dims),
    }
    return {"purcell.csv": dict(zip(names, np.array(rows).T))}, extra


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
    axes = np.linspace(0.0, 6.0, n), np.linspace(0.05, 4.0, n), np.linspace(0.0, 4.0, n)
    OD, ka, kp = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
    rho_ee, rho_eg = qubit_steady_state(OD, ka, kp)
    return dict(Omega_D=OD, kappa=ka, kappa_phi=kp, rho_ee=rho_ee, rho_eg_abs=rho_eg)


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
    problem = _model_problem(Gamma_tau, phi, ratio, N_A, n_max, max_excitations)
    return _driven_qubits(problem, [Omega_D_over_Gamma])[0]


def _driven_qubits(problem, Omega_Ds):
    """(rho_ee, |rho_eg|) of a ``_model_problem`` at each drive Omega_D (units of Gamma).

    The emitter Hamiltonian and the atom's sigma_x are built once; each drive
    adds 0.5 Omega sigma_x to H as ``build_hamiltonian`` does.
    """
    Gamma, model, space, jumps = problem
    H0 = build_hamiltonian(model, DriveDissipationSpec(), space)
    sx = atom_op(space, sigma_x())
    out = []
    for Omega_D in Omega_Ds:
        Omega = Omega_D * Gamma
        H = H0 + 0.5 * Omega * sx if Omega != 0.0 else H0
        rho_q = space.ptrace_qubit(steady_state(H, jumps))
        out.append((float(rho_q[1, 1].real), float(abs(rho_q[1, 0]))))
    return out


def run_steady_sweep(config: ExperimentConfig) -> tuple:
    """Driven steady states per truncation order, plus the Markovian overlay.

    A truncation order N_A > 1 runs at no more than two quanta: strong block
    loss keeps photon numbers low, and the wider spaces stay small.  The
    provenance's ``truncation`` list records what each N_A ran with.
    """
    tables, truncation = {}, []
    for N_A in config.N_A:
        cap = config.max_excitations
        if N_A > 1:
            cap = min(cap or 2, 2)
        n = config.n_max if cap is None else min(config.n_max, cap)
        problem = _model_problem(config.Gamma_tau, config.phi, config.ratio, N_A, n, cap)
        dim = problem[2].dim  # of the space the steady states are solved in
        truncation.append({"N_A": N_A, "n_max": n, "max_excitations": cap, "dim": dim})
        rho_ee, rho_eg = zip(*_driven_qubits(problem, config.Omega_D))
        tables[f"steady_NA{N_A}.csv"] = {
            "Omega_D": config.Omega_D, "rho_ee": rho_ee, "rho_eg_abs": rho_eg,
        }
    tables["markovian_overlay.csv"] = markovian_overlay()
    return tables, {"truncation": truncation}


def run_scattering(config: ExperimentConfig) -> tuple:
    """Gaussian-pulse scattering: output intensity, G2, and a flux audit."""
    (N_A,) = config.N_A
    n_max, cap = config.n_max, config.max_excitations
    G, model, space, jumps = _model_problem(
        config.Gamma_tau, config.phi, config.ratio, N_A, n_max, cap
    )
    H = build_hamiltonian(model, DriveDissipationSpec(), space)
    pl = config.pulse
    spec = PulseSpec(
        W=pl["W"] * G, t0=pl["t0"] / G, n_ph=pl["n_ph"], delta_in=pl["delta_in"] * G
    )
    coeff, Adag = build_drive_term(model, spec, space)
    psi0 = space.vacuum()
    t = _output_grid(config) / G
    e_ops = make_output_e_ops(space, model, spec)
    e_ops["excitation"] = total_excitation_op(space)
    res = mcwf_evolve(
        H,
        jumps,
        psi0,
        t,
        n_traj=config.n_traj,
        seed=config.seed,
        drive=(coeff, Adag),
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
        n_ph=spec.n_ph,
    )
    # reported beside the balance, not subtracted from it: the mean and the
    # worst over trajectories of each one's peak boundary population
    audit["mean_leakage"] = float(res.meta["mean_leakage"])
    audit["max_leakage"] = max_leak
    table = {
        "t": res.t * G,
        "i_out": np.real(res.observables["I_out"]) / G,
        "g2": np.real(res.observables["G2"]) / G**2,
        "i_out_stderr": np.real(res.stderr["I_out"]) / G,
        "g2_stderr": np.real(res.stderr["G2"]) / G**2,
    }
    extra = {
        "flux_balance": audit,
        "truncation": {
            "N_A": N_A, "n_max": n_max, "max_excitations": cap, "dim": space.dim,
        },
        "mcwf": {k: v for k, v in res.meta.items() if isinstance(v, (int, float))},
        "generator": res.meta["generator"],
    }
    return {"scattering.csv": table}, extra


RUNNERS = {
    "emission": run_emission,
    "scattering": run_scattering,
    "steady_sweep": run_steady_sweep,
    "convergence": run_convergence,
    "purcell": run_purcell,
}


def run_experiment(config: ExperimentConfig, out_dir=None) -> list:
    """Run the config's experiment, then write its CSVs and provenance.json.

    The only writer: a runner returns (tables, extra), where tables maps each
    CSV name to its columns in write order and extra holds the runner's
    provenance entries.  A runner that raises leaves no file behind.  Returns
    the written CSV paths.
    """
    t0 = time.time()
    tables, extra = RUNNERS[config.experiment](config)
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / name for name in tables]
    for path, columns in zip(written, tables.values()):
        write_csv(path, columns)
    payload = {
        "config": config.resolved(),
        "version": __version__,
        "runtime_seconds": time.time() - t0,
        **extra,
    }
    out.joinpath("provenance.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )
    return written
