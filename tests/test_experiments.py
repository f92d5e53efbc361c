"""Experiment runners: configs, outputs, determinism."""

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from mirrorqed import cli, experiments
from mirrorqed.experiments import (
    ConfigError,
    ExperimentConfig,
    amplitude_decay_curve,
    markovian_overlay,
    model_decay_curve,
    model_steady_state,
    qubit_steady_state,
    run_experiment,
)
from mirrorqed.hilbert import sigma_minus, sigma_plus, sigma_x
from mirrorqed.lindblad import steady_state


def test_config_defaults_and_rejections():
    c = ExperimentConfig(experiment="emission")
    assert c.Gamma_tau == 2.0 and c.seed == 0
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="emission", Gamma_tau=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="emission", backend="magic")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="emission", N_A=[-1])
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="emission", n_traj=0)


def test_config_nested_round_trip(tmp_path):
    raw = {
        "experiment": "emission",
        "physical": {"Gamma_tau": 0.5, "phi": 3.14},
        "model": {"N_A": 3, "n_max": 1},
        "solver": {"dt": 0.02, "t_max": 4.0, "seed": 7},
        "output": {"directory": str(tmp_path)},
    }
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(raw))
    c = ExperimentConfig.from_yaml(p)
    assert c.Gamma_tau == 0.5 and c.N_A == [3] and c.seed == 7
    r = c.resolved()
    assert r["physical"]["Gamma_tau"] == 0.5
    assert ExperimentConfig.from_dict(r).resolved() == r


def test_config_range_checks():
    with pytest.raises(ConfigError, match="solver.substeps"):
        ExperimentConfig(experiment="scattering", substeps=0)
    with pytest.raises(ConfigError, match="solver.sites_per_delay"):
        ExperimentConfig(experiment="emission", sites_per_delay=1)


@pytest.mark.parametrize(
    "raw, path",
    [
        ({"experiment": "emission", "solvers": {}}, "solvers"),
        ({"experiment": "emission", "solver": {"n_trajs": 5}}, "solver.n_trajs"),
        ({"experiment": "scattering", "drive": {"pulse": {"width": 2}}}, "drive.pulse.width"),
        ({"experiment": "emission", "output": {"formats": ["csv"]}}, "output.formats"),
    ],
)
def test_config_unknown_field_rejected(raw, path):
    with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
        ExperimentConfig.from_dict(raw)


def test_config_block_must_be_mapping():
    with pytest.raises(ConfigError, match="'physical'"):
        ExperimentConfig.from_dict({"experiment": "emission", "physical": 2.0})


@pytest.mark.parametrize(
    "solver",
    [{"n_trajs": 5}, {"substeps": 0}, {"sites_per_delay": 1}],
)
def test_cli_rejects_bad_solver_fields(tmp_path, solver):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({"experiment": "emission", "solver": solver}))
    assert cli.main(["emission", "--config", str(p), "--out", str(tmp_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["emission", "convergence"])
def test_cli_rejects_t_max_shorter_than_the_delay(tmp_path, capsys, command):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({
        "experiment": command,
        "physical": {"Gamma_tau": 2.0},
        "solver": {"t_max": 1.0},
    }))
    assert cli.main([command, "--config", str(p), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "solver.t_max" in capsys.readouterr().err


def test_cli_refuses_an_oversized_chain_as_config_error(tmp_path, capsys):
    # 3000 sites per delay: a one-excitation chain of about 25000 sites
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({
        "experiment": "emission",
        "solver": {"dt": 0.1, "t_max": 6.0, "sites_per_delay": 3000},
    }))
    argv = ["emission", "--backend", "chain", "--config", str(p), "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "occupation table would exceed" in capsys.readouterr().err


@pytest.mark.parametrize("pulse", [None, {"W": 1.0, "t0": 3.0, "n_ph": 0.2, "delta_in": 0.1}])
def test_config_round_trip_with_pulse(pulse):
    c = ExperimentConfig(experiment="scattering", pulse=pulse)
    assert ExperimentConfig.from_dict(c.resolved()).resolved() == c.resolved()


def test_readme_schema_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config schema.*?```yaml\n(.*?)```", readme, re.S).group(1)
    c = ExperimentConfig.from_dict(yaml.safe_load(block))
    assert c.experiment == "emission" and c.pulse["W"] == 2.5


def test_config_bad_yaml_rejected(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("experiment: [unclosed")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(p)
    p2 = tmp_path / "list.yaml"
    p2.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(p2)


def test_model_decay_curve_limits():
    t = np.linspace(0.0, 3.0, 31)
    pop = model_decay_curve(
        Gamma_tau=1e-2, phi=math.pi, ratio=1.0, N_A=0, t_grid=t, frame="rotating"
    )
    assert pop[0] == pytest.approx(1.0, abs=1e-9)
    # short delay, phi=pi: Markovian decay at 2*Gamma
    assert np.max(np.abs(pop - np.exp(-2.0 * t))) < 0.05


T_DECAY = np.linspace(0.0, 6.0, 121)


@pytest.mark.parametrize(
    "args",
    [(2.0, math.pi / 2, 2.0, n, T_DECAY) for n in (0, 1, 7, 15)]
    + [
        (2.0, math.pi / 2, 2.0, 3, T_DECAY, "lab"),
        # run_purcell's grid at phi = pi/2
        (1e-2, math.pi / 2, 1.0, 0, np.linspace(0.0, 2.0, 201)),
    ],
    ids=["NA0", "NA1", "NA7", "NA15", "NA3-lab", "purcell"],
)
def test_amplitude_decay_matches_master_equation(args):
    assert np.max(np.abs(amplitude_decay_curve(*args) - model_decay_curve(*args))) < 1e-8


def test_amplitude_decay_rejects_nonuniform_grid():
    with pytest.raises(ValueError, match="uniform"):
        amplitude_decay_curve(2.0, math.pi / 2, 2.0, 1, np.array([0.0, 0.1, 0.3]))


def test_decay_runners_do_not_integrate_the_master_equation(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("master-equation path reached")

    monkeypatch.setattr(experiments, "integrate_me", boom)
    _run(tmp_path / "c", experiment="convergence", N_A=[0, 2], t_max=3.0, dt=0.1)
    _run(tmp_path / "p", experiment="purcell", Gamma_tau=1e-2)
    with pytest.raises(AssertionError):
        model_decay_curve(2.0, math.pi / 2, 2.0, 0, np.linspace(0.0, 1.0, 5))


def test_qubit_steady_state_closed_form():
    Omega, kappa = 1.1, 0.7
    p_ee, coh = qubit_steady_state(Omega, kappa, 0.0)
    assert p_ee == pytest.approx(Omega**2 / (2 * Omega**2 + kappa**2), abs=1e-12)
    p_deph, _ = qubit_steady_state(Omega, kappa, 2.0)
    assert p_deph < p_ee  # dephasing only lowers the resonant excitation


def test_qubit_steady_state_matches_liouvillian_solve():
    grid = itertools.product([0.0, 0.3, 1.1, 4.0], [0.05, 0.7, 3.0], [0.0, 0.4, 2.5])
    for Omega, kappa, kappa_phi in grid:
        H = 0.5 * Omega * sigma_x()
        jumps = [(sigma_minus(), kappa), (sigma_plus() @ sigma_minus(), kappa_phi)]
        rho = steady_state(H, jumps)
        p_ee, coh = qubit_steady_state(Omega, kappa, kappa_phi)
        assert p_ee == pytest.approx(rho[1, 1].real, abs=1e-12)
        assert coh == pytest.approx(abs(rho[0, 1]), abs=1e-12)


def test_markovian_overlay_is_capped():
    cols = markovian_overlay(n=6)
    assert np.max(cols["rho_ee"]) <= 0.5 + 1e-8
    assert np.all(cols["rho_ee"] >= 0.0)


def test_model_steady_state_matches_qubit_limit():
    # vanishing feedback coupling: weak-drive steady state approaches a
    # dressed two-level value; here just require containment and hermiticity
    p_ee, coh = model_steady_state(
        Gamma_tau=0.25, phi=math.pi, ratio=1.0, N_A=0, Omega_D_over_Gamma=0.5,
        n_max=2, max_excitations=2,
    )
    assert 0.0 <= p_ee <= 0.5
    assert coh >= 0.0


def _run(tmp_path, **kw):
    c = ExperimentConfig(out_dir=str(tmp_path), **kw)
    return c, run_experiment(c)


def test_run_emission_outputs(tmp_path):
    c, written = _run(
        tmp_path, experiment="emission", Gamma_tau=2.0, phi=math.pi / 2,
        N_A=[1, 3], t_max=2.0, dt=0.05,
    )
    names = {Path(p).name for p in written}
    assert "emission_dde.csv" in names
    assert "emission_me_NA1.csv" in names and "emission_me_NA3.csv" in names
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov["seed"] == 0
    assert prov["config"]["physical"]["Gamma_tau"] == 2.0
    # largest sector: qubit excited or one photon in one of 2*3 + 1 modes, or ground
    assert prov["decay_solver"] == {"method": "amplitude", "dim": 9}
    header = (tmp_path / "emission_dde.csv").read_text().splitlines()[0]
    assert header.startswith("t,")


def test_run_emission_chain_backend(tmp_path):
    c, written = _run(
        tmp_path, experiment="emission", backend="chain", Gamma_tau=2.0,
        phi=math.pi / 2, t_max=2.0, dt=0.1, sites_per_delay=10,
    )
    assert any(Path(p).name == "emission_chain.csv" for p in written)
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert "decay_solver" not in prov  # no model curve ran


def test_run_convergence_errors_shrink(tmp_path):
    c, written = _run(
        tmp_path, experiment="convergence", Gamma_tau=2.0, phi=math.pi / 2,
        N_A=[1, 3, 5], t_max=3.0, dt=0.05,
    )
    path = next(p for p in written if Path(p).name == "convergence.csv")
    rows = np.genfromtxt(path, delimiter=",", names=True)
    errs = np.atleast_1d(rows["max_error"])
    assert errs[-1] < errs[0]
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov["decay_solver"] == {"method": "amplitude", "dim": 13}


def test_run_purcell_rates(tmp_path):
    c, written = _run(tmp_path, experiment="purcell", Gamma_tau=1e-2, t_max=3.0)
    path = next(p for p in written if Path(p).name == "purcell.csv")
    rows = np.genfromtxt(path, delimiter=",", names=True)
    assert np.all(
        np.abs(rows["rate_dde"] - rows["rate_theory"]) <= 0.02 * rows["rate_theory"]
    )
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov["decay_solver"] == {"method": "amplitude", "dim": 3}
    assert prov["Gamma_tau_used"] == 1e-2


def test_run_purcell_records_the_delay_it_ran(tmp_path):
    # the short-delay limit replaces the default Gamma_tau = 2 by 0.01
    _run(tmp_path / "a", experiment="purcell")
    _run(tmp_path / "b", experiment="purcell", Gamma_tau=1e-2)
    prov = json.loads((tmp_path / "a" / "provenance.json").read_text())
    assert prov["config"]["physical"]["Gamma_tau"] == 2.0
    assert prov["Gamma_tau_used"] == 1e-2
    csv = [(tmp_path / d / "purcell.csv").read_bytes() for d in "ab"]
    assert csv[0] == csv[1]


def test_run_steady_sweep_outputs(tmp_path):
    c, written = _run(
        tmp_path, experiment="steady_sweep", Gamma_tau=0.25, phi=math.pi,
        ratio=1.0, N_A=[0, 2], Omega_D=[1.0, 2.0], n_max=3, max_excitations=3,
    )
    names = {Path(p).name for p in written}
    assert "steady_NA0.csv" in names and "markovian_overlay.csv" in names
    rows = np.genfromtxt(tmp_path / "steady_NA0.csv", delimiter=",", names=True)
    assert np.all(np.diff(np.atleast_1d(rows["rho_ee"])) > 0)
    # the runner caps N_A > 1 at two quanta; provenance says so
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov["truncation"] == [
        {"N_A": 0, "n_max": 3, "max_excitations": 3, "dim": 7},
        {"N_A": 2, "n_max": 2, "max_excitations": 2, "dim": 27},
    ]


def test_emission_rerun_is_byte_identical(tmp_path):
    kw = dict(
        experiment="emission", Gamma_tau=2.0, phi=math.pi / 2, N_A=[1],
        t_max=2.0, dt=0.05,
    )
    _run(tmp_path / "a", **kw)
    _run(tmp_path / "b", **kw)
    for name in ("emission_dde.csv", "emission_me_NA1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
