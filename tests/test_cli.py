import argparse

import numpy as np
import pytest
from conftest import read_csv

from mzdmd import ConfigError, NumericalError, config, ensemble, harness, linalg, plots
from mzdmd.cli import build_parser, main, resolve_config
from mzdmd.ensemble import run_ensemble
from mzdmd.harness import (
    METHODS, csv_rows, dmd_spectral_model, simulate_measurement, write_rows,
)
from mzdmd.selfcheck import CHECKS

SMALL = (
    "t_max = 6\n"
    "n_points = 61\n"
    "n_mc = 8\n"
    "n_u = 2\n"
)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestExitCodes:
    def test_unknown_config_key_is_config_failure(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "frobnicate = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_constraint_violation_is_config_failure(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "dt = -0.1\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "dt" in capsys.readouterr().err

    def test_negative_seed_is_config_failure(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        cfg = write_cfg(tmp_path, "seed = -1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key", ["beta1", "beta2", "epsilon"])
    def test_fixed_adam_constant_is_config_failure(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, f"{key} = 0.9\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_output_dir_is_config_failure(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL + "output_dir =\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("MZDMD_OUTPUT_DIR", raising=False)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_empty_out_flag_is_config_failure(self, tmp_path, capsys, monkeypatch):
        # argparse's Path type would read "" as ".", the current directory;
        # an empty flag is refused, not replaced by MZDMD_OUTPUT_DIR
        cfg = write_cfg(tmp_path, SMALL)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MZDMD_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert main(["simulate", "--config", str(cfg), "--out", ""]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_dot_out_flag_writes_into_cwd(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", "."]) == 0
        assert (tmp_path / "measurement.csv").is_file()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe seed = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_method_failure_names_method_and_stage(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "sigma = 0\nresolved_init = 0 0\nmethod = dmd\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "dmd" in err and "fit" in err

    def test_non_finite_value_is_config_failure(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "t_max = nan\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "t_max" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("argv, code, stream", [
        (["bogus"], 2, "err"), (["--help"], 0, "out"),
    ], ids=["unknown command", "help"])
    def test_argument_parser_exit_is_returned(self, capsys, argv, code, stream):
        assert main(argv) == code
        assert "usage: " in getattr(capsys.readouterr(), stream)

    def test_successful_run_is_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "method = dmd\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_fit_rejects_all_method(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2



# an overflowing state, an overflowing matrix exponential, an overflowing
# Adam step, a zero operator, diverging hidden states, and a file where the
# output directory should go
OVERFLOW = "resolved_init = 1e200 0\nmethod = dmd\n"
HUGE_STEP = "lr = 1e200\nmethod = t-model\n"
HUGER_STEP = "lr = 1e307\nmethod = t-model\n"
ZERO = "sigma = 0\nresolved_init = 0 0\nmethod = dmd\n"
DIVERGING = "sigma = 200\nseed = 1\nmethod = projection\n"
NON_FINITE = "state became non-finite at grid step "


@pytest.mark.parametrize("command, text, stage, cause", [
    pytest.param("simulate", OVERFLOW, "simulate", NON_FINITE, id="simulate-simulate"),
    pytest.param("run", OVERFLOW, "simulate", NON_FINITE, id="run-simulate"),
    pytest.param("fit", HUGE_STEP, "fit", "matrix exponential overflowed", id="fit-fit"),
    pytest.param("reconstruct", HUGE_STEP, "fit", "matrix exponential overflowed", id="reconstruct-fit-ensemble"),
    pytest.param("reconstruct", ZERO, "fit", "zero eigenvalue has no logarithm", id="reconstruct-fit-dmd"),
    pytest.param("run", HUGER_STEP, "fit", "Adam's step overflowed the parameters", id="run-fit-adam"),
    pytest.param("run", DIVERGING, "fit", NON_FINITE, id="run-fit-projection"),
    *(pytest.param(command, "method = dmd\n", "write", "File exists", id=f"{command}-write")
      for command in ("simulate", "fit", "reconstruct", "run")),
])
def test_method_failure_names_its_stage(tmp_path, capsys, command, text, stage, cause):
    # a failure is typed: a numpy warning is an error here, and would name
    # itself as the cause instead
    cfg = write_cfg(tmp_path, SMALL + text)
    out = tmp_path / "out"
    if stage == "write":
        out.write_text("")  # a file where the output directory should go
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    method = config.read_config(cfg)["method"]
    err = capsys.readouterr().err
    assert f"method '{method}' failed during {stage}: " in err and cause in err, err

class TestSubcommands:
    def test_simulate_writes_measurement(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "measurement.csv")
        assert header == ["t", "y1", "y2"]
        assert data.shape == (61, 3)

    def test_fit_writes_spectrum(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "method = dmd\n")
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "dmd_spectrum.csv")
        assert header == ["re", "im"]
        assert data.shape == (2, 2)
        # measured oscillation fits a near-unit-modulus conjugate pair
        mods = np.hypot(data[:, 0], data[:, 1])
        np.testing.assert_allclose(mods, 1.0, atol=0.05)

    def test_reconstruct_writes_trajectory(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "method = t-model\n")
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_csv(out / "tmodel.csv")
        assert header == ["t", "y1", "y2", "var1", "var2"]
        assert data[0, 1] == 1.0  # starts at the resolved initial value

    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(CHECKS)
        assert all(line.startswith("PASS") and "(deviation " in line for line in lines)

    def test_check_fails_on_a_perturbed_pinv(self, capsys, monkeypatch):
        pinv = linalg.pinv
        monkeypatch.setattr(linalg, "pinv", lambda m: pinv(m) * (1 + 1e-6))
        assert main(["check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL pinv satisfies the Penrose identity (deviation ")
        assert lines[0].endswith(", bound 1e-10)")
        assert all(line.startswith("PASS") for line in lines[1:]) and len(lines) == len(CHECKS)

    def test_check_that_raises_fails_and_the_rest_run(self, capsys, monkeypatch):
        def broken(a):
            raise NumericalError("eigenvalue iteration did not converge")

        monkeypatch.setattr(linalg, "eig", broken)
        assert main(["check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            "FAIL eig residual relative to ||A||_F "
            "(raised NumericalError: eigenvalue iteration did not converge)"
        )
        assert sum(line.startswith("PASS") for line in lines) == len(CHECKS) - 1

    def test_check_runs_every_row_on_the_seed(self, capsys):
        printed = {}
        for seed in (3, 4):
            assert main(["check", "--seed", str(seed)]) == 0
            printed[seed] = capsys.readouterr().out.splitlines()
            assert len(printed[seed]) == len(CHECKS)
            for check, line in zip(CHECKS, printed[seed]):
                dev = check.deviation(np.random.default_rng(seed))
                assert line == f"PASS {check.label} (deviation {dev:.1e}, bound {check.bound:g})"
        assert printed[3] != printed[4]

    def test_check_validates_the_common_flags(self, capsys):
        assert main(["check", "--seed", "-1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_seed_and_method_overrides(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", "--config", str(cfg), "--method", "dmd",
                     "--seed", "3", "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--method", "dmd",
                     "--seed", "4", "--out", str(out2)]) == 0
        assert (out1 / "dmd.csv").read_bytes() != (out2 / "dmd.csv").read_bytes()

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL + "method = dmd\n")
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("MZDMD_OUTPUT_DIR", str(env_out))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (env_out / "dmd.csv").exists()

    def test_out_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL + "method = dmd\n")
        monkeypatch.setenv("MZDMD_OUTPUT_DIR", str(tmp_path / "ignored"))
        flag_out = tmp_path / "flag_out"
        assert main(["run", "--config", str(cfg), "--out", str(flag_out)]) == 0
        assert (flag_out / "dmd.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestFlagsAreConfigKeys:
    def test_flags_equal_file_keys(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MZDMD_OUTPUT_DIR", raising=False)
        out = str(tmp_path / "x")
        from_flags = resolve_config(build_parser().parse_args(
            ["run", "--seed", "3", "--method", "dmd", "--out", out]))
        cfg = write_cfg(tmp_path, f"seed = 3\nmethod = dmd\noutput_dir = {out}\n")
        from_file = resolve_config(build_parser().parse_args(["run", "--config", str(cfg)]))
        assert from_flags == from_file == config.build_config(config.read_config(cfg))

    def test_refused_flag_is_config_error(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(build_parser().parse_args(["run", "--seed", "-1"]))

    def test_flag_replaces_file_value_before_validation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "seed = -1\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        assert (out / "measurement.csv").exists()


def _spectrum(cfg, name):
    """The spectrum ``fit`` should write, computed without the method table."""
    _, snaps = simulate_measurement(cfg)
    if name == "dmd":
        return dmd_spectral_model(snaps).values
    result = run_ensemble(
        name, snaps, cfg.sim.sigma, cfg.n_u, cfg.adam, cfg.sim.seed,
        np.array(cfg.resolved_init), cfg.sim.times(),
    )
    return result.averaged.values


@pytest.mark.parametrize("name", list(METHODS))
def test_subcommands_agree_with_run(tmp_path, capsys, monkeypatch, name):
    method = METHODS[name]
    cfg_path = write_cfg(tmp_path, SMALL)
    run_out, rec_out, fit_out = tmp_path / "run", tmp_path / "rec", tmp_path / "fit"
    assert main(["run", "--config", str(cfg_path), "--method", name,
                 "--seed", "5", "--out", str(run_out)]) == 0

    calls = []

    def counted(cfg):
        calls.append(cfg.method)
        return simulate_measurement(cfg)

    monkeypatch.setattr("mzdmd.cli.simulate_measurement", counted)
    assert main(["reconstruct", "--config", str(cfg_path), "--method", name,
                 "--seed", "5", "--out", str(rec_out)]) == 0
    csv = f"{method.stem}.csv"
    assert (rec_out / csv).read_bytes() == (run_out / csv).read_bytes()
    # only the methods fitted to the measurement simulate one
    assert calls == ([name] if method.spectral else [])

    code = main(["fit", "--config", str(cfg_path), "--method", name,
                 "--seed", "5", "--out", str(fit_out)])
    if not method.spectral:
        assert code == 2
        return
    assert code == 0
    cfg = resolve_config(build_parser().parse_args(
        ["fit", "--config", str(cfg_path), "--method", name, "--seed", "5"]))
    header, data = read_csv(fit_out / f"{method.stem}_spectrum.csv")
    expected = _spectrum(cfg, name)
    assert header == ["re", "im"]
    assert np.array_equal(data[:, 0], expected.real)
    assert np.array_equal(data[:, 1], expected.imag)


@pytest.mark.parametrize("name", ["mz-dmd", "t-model"])
def test_fit_stops_at_the_averaged_spectrum(tmp_path, capsys, monkeypatch, name):
    real, calls = ensemble.reconstruct, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ensemble, "reconstruct", counted)
    monkeypatch.setattr(harness, "reconstruct", counted)
    cfg_path = write_cfg(tmp_path, SMALL)
    argv = ["fit", "--config", str(cfg_path), "--method", name, "--seed", "5"]
    assert main([*argv, "--out", str(tmp_path / "fit")]) == 0
    assert calls == []
    # the bytes of the full pipeline's averaged spectrum, which fit wrote
    # when it ran every reconstruction too
    values = _spectrum(resolve_config(build_parser().parse_args(argv)), name)
    write_rows(tmp_path / "want.csv", ["re", "im"], csv_rows([values.real, values.imag]))
    got = tmp_path / "fit" / f"{METHODS[name].stem}_spectrum.csv"
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_method_table_drives_every_name_list(tmp_path, capsys):
    stems = [m.stem for m in METHODS.values()]
    assert len(set(stems)) == len(stems)
    assert set(METHODS) <= set(plots.COLORS)
    assert config.METHODS == (*harness.METHODS, "all")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        method = next(a for a in parser._actions if a.dest == "method")
        assert tuple(method.choices) == config.METHODS, command
    # fit refuses the methods not fitted to the measurement; the parity test
    # above runs it on the others
    for name, method in METHODS.items():
        if not method.spectral:
            assert main(["fit", "--method", name, "--out", str(tmp_path / name)]) == 2
            assert not (tmp_path / name).exists()
