"""Command-line interface: flags, exit codes, file outputs."""

import json
import math
from pathlib import Path

import pytest
import yaml

from mirrorqed import cli
from mirrorqed.experiments import TruncationAbort


def _write_config(tmp_path, **extra):
    raw = {
        "experiment": "emission",
        "physical": {"Gamma_tau": 2.0, "phi": math.pi / 2},
        "model": {"N_A": [1]},
        "solver": {"dt": 0.1, "t_max": 3.0},
        "output": {"directory": str(tmp_path / "out")},
    }
    raw.update(extra)
    p = tmp_path / "config.yaml"
    p.write_text(yaml.safe_dump(raw))
    return p


def test_emission_subcommand_runs(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = cli.main(["emission", "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed, "written files are echoed"
    for line in printed:
        assert Path(line).exists()


def test_out_and_seed_overrides(tmp_path):
    # scattering is the experiment that reads a seed
    cfg = _write_config(
        tmp_path, experiment="scattering", model={"N_A": [1], "max_excitations": 2},
        solver={"dt": 0.1, "t_max": 1.0, "n_traj": 2},
    )
    out = tmp_path / "elsewhere"
    rc = cli.main(["scattering", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert rc == cli.EXIT_OK
    assert (out / "scattering.csv").exists()
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["config"]["solver"]["seed"] == 3


@pytest.mark.parametrize(
    "command, flag, path",
    [
        ("emission", ["--seed", "3"], "solver.seed"),
        ("steady-sweep", ["--seed", "3"], "solver.seed"),
        ("purcell", ["--seed", "3"], "solver.seed"),
        ("convergence", ["--backend", "me"], "solver.backend"),
        ("purcell", ["--backend", "me"], "solver.backend"),
        ("scattering", ["--backend", "mcwf"], "solver.backend"),
    ],
)
def test_flag_the_experiment_does_not_read_is_config_error(tmp_path, capsys, command, flag, path):
    rc = cli.main([command, *flag, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{path}'" in err and command.replace("-", "_") in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, backend", [("purcell", "chain"), ("scattering", "me"), ("emission", "mcwf")],
)
def test_backend_flag_is_validated(tmp_path, capsys, command, backend):
    rc = cli.main([command, "--backend", backend, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "'solver.backend'" in capsys.readouterr().err
    assert not (tmp_path / "provenance.json").exists()


@pytest.mark.parametrize(
    "command, offered",
    [("purcell", set()), ("steady-sweep", set()), ("emission", {"--backend"}),
     ("scattering", {"--seed"})],
)
def test_help_offers_only_the_flags_the_experiment_reads(capsys, command, offered):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    out = capsys.readouterr().out
    assert {flag for flag in ("--seed", "--backend") if flag in out} == offered


def test_missing_config_file_is_config_error(tmp_path):
    rc = cli.main(["emission", "--config", str(tmp_path / "absent.yaml")])
    assert rc == cli.EXIT_CONFIG


def test_invalid_field_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, physical={"Gamma_tau": -2.0})
    rc = cli.main(["emission", "--config", str(cfg)])
    assert rc == cli.EXIT_CONFIG


def test_subcommand_config_mismatch_is_config_error(tmp_path):
    cfg = _write_config(tmp_path)
    rc = cli.main(["purcell", "--config", str(cfg)])
    assert rc == cli.EXIT_CONFIG


def test_truncation_abort_exit_code(tmp_path, monkeypatch):
    def boom(config, out_dir=None):
        raise TruncationAbort("leakage over threshold")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = _write_config(tmp_path)
    rc = cli.main(["emission", "--config", str(cfg)])
    assert rc == cli.EXIT_TRUNCATION


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(config, out_dir=None):
        raise FloatingPointError("overflow in propagator")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = _write_config(tmp_path)
    rc = cli.main(["emission", "--config", str(cfg)])
    assert rc == cli.EXIT_NUMERICAL


def test_threads_flag_rejected(tmp_path):
    # BLAS reads its thread variables when numpy loads, before any flag is
    # parsed, so the CLI offers no thread flag
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit):
        cli.main(["emission", "--config", str(cfg), "--threads", "1"])


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
