"""Experiment runners: configs, outputs, determinism."""

import fnmatch
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from mirrorqed import cli, experiments, lindblad
from mirrorqed.chain import calibrate_chain
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
from mirrorqed.lindblad import (
    DriveDissipationSpec,
    atom_op,
    build_hamiltonian,
    build_jump_ops,
    build_liouvillian,
    integrate_me,
    space_for_model,
    steady_state,
)
from mirrorqed.model import build_effective_model, params_from_dimensionless, snap_block_length


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
        "experiment": "scattering",
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


def test_config_file_and_constructor_share_defaults():
    # each experiment's defaults are pinned by README's table
    # (test_readme_schema_example_parses)
    for exp in experiments.EXPERIMENTS:
        assert ExperimentConfig.from_dict({"experiment": exp}) == ExperimentConfig(experiment=exp)
    # a partial pulse keeps the shared values of the keys it leaves out
    c = ExperimentConfig.from_dict({"experiment": "scattering", "drive": {"pulse": {"n_ph": 0.05}}})
    assert c.pulse == {"W": 2.5, "t0": 2.0, "n_ph": 0.05, "delta_in": 0.0}


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


@pytest.mark.parametrize(
    "raw, path",
    [
        ({"experiment": "scattering", "model": {"N_A": [2, 3]}}, "model.N_A"),
        ({"experiment": "steady_sweep", "drive": {"Omega_D": []}}, "drive.Omega_D"),
        ({"experiment": "purcell", "physical": {"Gamma_tau": 2.0}}, "physical.Gamma_tau"),
        ({"experiment": "emission", "solver": {"backend": "dde"}}, "solver.backend"),
        ({"experiment": "scattering", "solver": {"backend": "me"}}, "solver.backend"),
        ({"experiment": "emission", "model": {"N_A": [1.5]}}, "model.N_A"),
        ({"experiment": "scattering", "model": {"n_max": 2.7}}, "model.n_max"),
        # the same rung twice would run twice and write one file
        ({"experiment": "emission", "model": {"N_A": [1, 1]}}, "model.N_A"),
        # a Philox key word is a uint64
        ({"experiment": "scattering", "model": {"N_A": [0]},
          "solver": {"n_traj": 2, "seed": -1}}, "solver.seed"),
        ({"experiment": "scattering", "solver": {"seed": 2**64}}, "solver.seed"),
        # the output grid steps by dt: 6/0.07 would run at 6/86, 7 > t_max
        ({"experiment": "emission", "solver": {"dt": 0.07}}, "solver.dt"),
        ({"experiment": "convergence", "solver": {"dt": 2.5}}, "solver.dt"),
        ({"experiment": "scattering", "solver": {"dt": 7.0}}, "solver.dt"),
        ({"experiment": "scattering", "solver": {"dt": 0.07}}, "solver.dt"),
    ],
)
def test_cli_rejects_a_config_the_run_cannot_follow(tmp_path, capsys, raw, path):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(raw))
    command = raw["experiment"].replace("_", "-")
    assert cli.main([command, "--config", str(p), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert f"'{path}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "raw, path",
    [
        # purcell runs its own phases at N_A = 0, ratio 1
        ({"experiment": "purcell", "physical": {"phi": math.pi}}, "physical.phi"),
        ({"experiment": "purcell", "physical": {"ratio": 1.0}}, "physical.ratio"),
        ({"experiment": "purcell", "model": {"N_A": [3]}}, "model.N_A"),
        ({"experiment": "purcell", "solver": {"t_max": 3.0}}, "solver.t_max"),
        # steady states have no time grid
        ({"experiment": "steady_sweep", "solver": {"dt": 0.1}}, "solver.dt"),
        ({"experiment": "steady_sweep", "solver": {"t_max": 3.0}}, "solver.t_max"),
        ({"experiment": "steady_sweep", "solver": {"seed": 1}}, "solver.seed"),
        # only scattering sends a pulse and runs trajectories
        ({"experiment": "emission", "drive": {"pulse": {"n_ph": 0.1}}}, "drive.pulse"),
        ({"experiment": "steady_sweep", "drive": {"pulse": None}}, "drive.pulse"),
        ({"experiment": "convergence", "solver": {"n_traj": 10}}, "solver.n_traj"),
        ({"experiment": "emission", "solver": {"substeps": 2}}, "solver.substeps"),
        ({"experiment": "convergence", "solver": {"leak_abort": 0.1}}, "solver.leak_abort"),
        # the amplitude equations run one excitation, one photon per mode
        ({"experiment": "emission", "model": {"n_max": 2}}, "model.n_max"),
        ({"experiment": "convergence", "model": {"max_excitations": None}},
         "model.max_excitations"),
        ({"experiment": "scattering", "drive": {"Omega_D": [1.0]}}, "drive.Omega_D"),
        ({"experiment": "scattering", "solver": {"sites_per_delay": 10}},
         "solver.sites_per_delay"),
        ({"experiment": "convergence", "solver": {"backend": "me"}}, "solver.backend"),
    ],
)
def test_cli_rejects_a_field_the_experiment_does_not_read(tmp_path, capsys, raw, path):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(raw))
    command = raw["experiment"].replace("_", "-")
    assert cli.main([command, "--config", str(p), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{path}'" in err and f"the {raw['experiment']} experiment" in err
    assert sorted(tmp_path.iterdir()) == [p]


class _ReadLog:
    """A config that records which of its fields a runner reads."""

    def __init__(self, config):
        self.config, self.read = config, set()

    def __getattr__(self, name):
        if name in experiments.FIELDS:
            self.read.add(name)
        return getattr(self.config, name)


# small settings for each experiment, one per backend
RUNNER_SETTINGS = {
    "emission": [dict(N_A=[1], t_max=2.0, dt=0.05),
                 dict(backend="chain", t_max=2.0, dt=0.05, sites_per_delay=10)],
    "convergence": [dict(N_A=[0, 1], t_max=2.0, dt=0.05)],
    "purcell": [{}],
    "steady_sweep": [dict(N_A=[0], Omega_D=[1.0], n_max=3, max_excitations=3)],
    "scattering": [dict(N_A=[1], max_excitations=2, n_traj=2, t_max=1.0, dt=0.05)],
}


@pytest.mark.parametrize("exp", experiments.EXPERIMENTS)
def test_fields_name_the_experiments_whose_runner_reads_them(exp):
    read = {"out_dir"}  # run_experiment writes every experiment's output there
    for kw in RUNNER_SETTINGS[exp]:
        log = _ReadLog(ExperimentConfig(experiment=exp, **kw))
        experiments.RUNNERS[exp](log)
        read |= log.read
    declared = {name for name, spec in experiments.FIELDS.items() if exp in spec[-1]}
    assert read == declared


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


def test_cli_rejects_a_seed_flag_out_of_range(tmp_path, capsys):
    # checked before the default scattering model (dim 19125) is built
    assert cli.main(["scattering", "--seed", "-1", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "'solver.seed'" in capsys.readouterr().err
    assert ExperimentConfig(experiment="scattering", seed=2**64 - 1).seed == 2**64 - 1


def test_cli_refuses_an_oversized_chain_as_config_error(tmp_path, capsys):
    # 1.6 million sites per delay: a one-excitation chain of about 13 million
    # sites, whose rank-offset table is refused before it is allocated
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({
        "experiment": "emission",
        "solver": {"dt": 0.1, "t_max": 6.0, "sites_per_delay": 1_600_000},
    }))
    argv = ["emission", "--backend", "chain", "--config", str(p), "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "would exceed" in capsys.readouterr().err


@pytest.mark.parametrize("pulse", [None, {"W": 1.0, "t0": 3.0, "n_ph": 0.2, "delta_in": 0.1}])
def test_config_round_trip_with_pulse(pulse):
    c = ExperimentConfig(experiment="scattering", pulse=pulse)
    assert ExperimentConfig.from_dict(c.resolved()).resolved() == c.resolved()


def test_readme_schema_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = re.search(r"### Config schema.*?```yaml\n(.*?)```(.*?)\n\n(\|.*?)\n\n", readme, re.S)
    shared = yaml.safe_load(schema.group(1))
    assert shared["experiment"] == "emission" and shared["drive"]["pulse"]["W"] == 2.5
    # each experiment's row: its backends, its own defaults as `path: value`,
    # then the fields it reads (`block.*` for a whole block)
    rows = {}
    for line in schema.group(3).splitlines()[2:]:
        name, backends, own, reads = (
            re.findall(r"`([^`]*)`", cell) for cell in line.split("|")[1:5]
        )
        rows[name[0]] = (tuple(backends), own, reads)
    assert rows.keys() == set(experiments.EXPERIMENTS)
    paths = [spec[0] for spec in experiments.FIELDS.values()]
    for exp, (backends, own, reads) in rows.items():
        assert backends == experiments.BACKENDS[exp]
        read = {p for p in paths if any(fnmatch.fnmatch(p, r) for r in reads + ["output.*"])}
        assert read == {s[0] for s in experiments.FIELDS.values() if exp in s[-1]}, exp
        expected = {"experiment": exp}
        for path in read:
            block, leaf = path.split(".")
            expected.setdefault(block, {})[leaf] = shared[block][leaf]
        for item in own:
            ((path, value),) = yaml.safe_load(item).items()
            assert path in read, (exp, path)
            block, leaf = path.split(".")
            expected[block][leaf] = value
        # the row's fields, at the shared values, parse to the experiment's defaults
        c = ExperimentConfig.from_dict(expected)
        assert c == ExperimentConfig(experiment=exp), exp
        assert c.resolved() == expected, exp


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
    pop = model_decay_curve(Gamma_tau=1e-2, phi=math.pi, ratio=1.0, N_A=0, t_grid=t)
    assert pop[0] == pytest.approx(1.0, abs=1e-9)
    # short delay, phi=pi: Markovian decay at 2*Gamma
    assert np.max(np.abs(pop - np.exp(-2.0 * t))) < 0.05
    # the master-equation route and the runners' amplitude route agree
    assert np.max(np.abs(pop - amplitude_decay_curve(1e-2, math.pi, 1.0, 0, t))) < 1e-8


T_DECAY = np.linspace(0.0, 6.0, 121)


@pytest.mark.parametrize(
    "args",
    [(2.0, math.pi / 2, 2.0, n, T_DECAY) for n in (0, 1, 7, 15)]
    # run_purcell's grid at phi = pi/2
    + [(1e-2, math.pi / 2, 1.0, 0, np.linspace(0.0, 2.0, 201))],
    ids=["NA0", "NA1", "NA7", "NA15", "purcell"],
)
def test_amplitude_decay_matches_master_equation(args):
    Gamma_tau, phi, ratio, N_A, t = args
    # the reference: the one-excitation master equation, from the public API
    p = params_from_dimensionless(Gamma_tau, phi)
    m = build_effective_model(p, snap_block_length(p, ratio), N_A)
    space = space_for_model(m, n_max=1, max_excitations=1)
    drive = DriveDissipationSpec(gamma=m.gamma)
    L = build_liouvillian(
        build_hamiltonian(m, drive, space), build_jump_ops(m, drive, space)
    )
    psi0 = space.vacuum(excited=True)
    me = integrate_me(
        L, np.outer(psi0, psi0.conj()), t / p.Gamma,
        e_ops={"p": atom_op(space, sigma_plus() @ sigma_minus())}, keep_states=False,
    )
    assert np.max(np.abs(amplitude_decay_curve(*args) - me.observables["p"])) < 1e-8


def test_amplitude_decay_rejects_nonuniform_grid():
    with pytest.raises(ValueError, match="uniform"):
        amplitude_decay_curve(2.0, math.pi / 2, 2.0, 1, np.array([0.0, 0.1, 0.3]))


def test_decay_runners_do_not_integrate_the_master_equation(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("master-equation path reached")

    monkeypatch.setattr(lindblad, "solve_ivp", boom)
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


def test_markovian_overlay_is_the_pointwise_steady_state():
    # one vectorized call, bitwise the per-point closed form, Omega_D outermost
    cols = markovian_overlay(n=5)
    grid = itertools.product(
        np.linspace(0.0, 6.0, 5), np.linspace(0.05, 4.0, 5), np.linspace(0.0, 4.0, 5)
    )
    rows = [(OD, ka, kp, *qubit_steady_state(OD, ka, kp)) for OD, ka, kp in grid]
    names = ("Omega_D", "kappa", "kappa_phi", "rho_ee", "rho_eg_abs")
    for name, ref in zip(names, np.array(rows).T):
        assert np.array_equal(cols[name], ref), name


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
    assert "seed" not in prov  # emission reads no seed
    assert prov["config"]["physical"]["Gamma_tau"] == 2.0
    # largest sector: qubit excited or one photon in one of 2*3 + 1 modes, or ground
    assert prov["decay_solver"] == {"method": "amplitude", "dim": 9}
    header = (tmp_path / "emission_dde.csv").read_text().splitlines()[0]
    assert header.startswith("t,")


def test_failed_run_writes_nothing(tmp_path, monkeypatch):
    # the second rung of the ladder fails after the delay curve is computed
    rungs = []
    amplitude_decay = experiments._amplitude_decay

    def fail_on_second_rung(*args, **kwargs):
        rungs.append(args)
        if len(rungs) == 2:
            raise ArithmeticError("second rung fails")
        return amplitude_decay(*args, **kwargs)

    monkeypatch.setattr(experiments, "_amplitude_decay", fail_on_second_rung)
    out = tmp_path / "run"
    with pytest.raises(ArithmeticError):
        run_experiment(ExperimentConfig("emission", N_A=[1, 3], out_dir=str(out)))
    assert len(rungs) == 2
    assert not (out / "emission_dde.csv").exists()
    assert not (out / "provenance.json").exists()


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
    assert prov["config"]["physical"]["Gamma_tau"] == 1e-2
    assert "Gamma_tau_used" not in prov


def test_run_purcell_records_the_delay_it_ran(tmp_path):
    # purcell's own default is the short-delay Gamma_tau = 0.01, and the
    # config records it
    _run(tmp_path / "a", experiment="purcell")
    _run(tmp_path / "b", experiment="purcell", Gamma_tau=1e-2)
    prov = json.loads((tmp_path / "a" / "provenance.json").read_text())
    assert prov["config"]["physical"]["Gamma_tau"] == 1e-2
    csv = [(tmp_path / d / "purcell.csv").read_bytes() for d in "ab"]
    assert csv[0] == csv[1]


def test_decay_runs_record_their_delay_grids(tmp_path):
    # each exact delay solve is recorded with its grid; purcell also records
    # the phases and the model rung it ran, not the config's N_A, ratio, phi
    common = dict(Gamma_tau=2.0, phi=math.pi / 2, N_A=[1], t_max=2.0, dt=0.05)
    emission_grid = {"dt": 1e-3, "steps": 2000, "steps_per_delay": 2000}
    for experiment in ("emission", "convergence"):
        _run(tmp_path / experiment, experiment=experiment, **common)
        prov = json.loads((tmp_path / experiment / "provenance.json").read_text())
        assert prov["dde_solver"] == [emission_grid]
    _run(tmp_path / "purcell", experiment="purcell", N_A=[7], ratio=2.0)
    prov = json.loads((tmp_path / "purcell" / "provenance.json").read_text())
    assert prov["dde_solver"] == [
        {"dt": 2e-4, "steps": steps, "steps_per_delay": 50}
        for steps in (10000, 5000, 10000)
    ]
    assert prov["purcell_run"] == {
        "phi": [math.pi / 2, math.pi, 3 * math.pi / 2], "N_A": 0, "ratio": 1.0,
    }
    # the config records only what purcell reads
    assert prov["config"]["physical"] == {"Gamma_tau": 0.01}
    assert "model" not in prov["config"]


@pytest.mark.parametrize(
    "N_A, cap, form, nnz, products",
    [(2, 5, "factored", 3182, 3), (7, 3, "factored", 9550, 3)],
)
def test_scattering_records_its_generator(tmp_path, N_A, cap, form, nnz, products):
    # the pulse is driven, so the loss is factored, and the pulse rides on
    # the products of A and A+: H 1472 + A and A+ 855 each at the criterion-9
    # truncation, H 4990 + 2280 each at N_A 7, cap 3
    _run(tmp_path, experiment="scattering", Gamma_tau=4.0, N_A=[N_A], n_max=3,
         max_excitations=cap, t_max=1.0, dt=0.05, n_traj=2, substeps=2)
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov["generator"] == {"form": form, "nnz": nnz, "products": products}
    assert prov["truncation"]["dim"] == {2: 343, 7: 952}[N_A]


def test_chain_emission_records_its_propagator(tmp_path):
    _run(tmp_path, experiment="emission", backend="chain", Gamma_tau=2.0,
         phi=math.pi / 2, t_max=2.0, dt=0.05, sites_per_delay=10)
    prov = json.loads((tmp_path / "provenance.json").read_text())
    record = prov["chain_solver"]
    assert record["method"] == "chebyshev"
    assert record["steps"] == 40
    # the runner calibrates for 5 % beyond t_max; vacuum + atom + one photon per site
    assert record["dim"] == 2 + calibrate_chain(
        1.0, 2.0, math.pi / 2, sites_per_delay=10, t_max=1.05 * 2.0
    ).N
    assert record["terms_per_step"] > 1
    lo, hi = record["spectral_interval"]
    assert lo < 0.0 < hi  # the atom sits at zero energy, inside the band


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
