"""CLI tests: exit codes, file formats, round-trips, determinism."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from combcool.cli import (
    _ROW_CHUNK,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RATES,
    _write_rows,
    config_lines,
    main,
    parse_axis,
    parse_config_text,
    resolve_scenario,
    summary_lines,
    write_spectrum_csv,
)

from helpers import (
    DESK_OMEGA_L,
    DESK_OMEGA_MOD,
    desk_spectrum,
    desk_train,
    write_csv_reference,
)


def run_cli(*argv) -> int:
    return main(list(argv))


# --- scenario resolution and configuration files -----------------------------


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == EXIT_OK
    out = capsys.readouterr().out
    for name in ("fig3", "fig4", "fig5", "fig5sp", "fig6sin", "fig6cos", "fig6std"):
        assert name in out


def test_dump_config_round_trip_is_byte_identical(tmp_path):
    first = tmp_path / "a.cfg"
    second = tmp_path / "b.cfg"
    assert run_cli("run", "--scenario", "fig4", "--dump-config", str(first)) == EXIT_OK
    assert (
        run_cli("run", "--scenario", str(first), "--dump-config", str(second))
        == EXIT_OK
    )
    assert first.read_bytes() == second.read_bytes()


def test_dump_config_floats_survive_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    run_cli("run", "--scenario", "fig4", "--dump-config", str(path))
    flat = parse_config_text(path.read_text(encoding="utf-8"))
    assert float(flat["train.T"]) == 14005.253930
    assert float(flat["train.tau"]) == 0.198
    assert flat["train.modulation.kind"] == "sine"
    assert flat["integrator.interpulse_phases"] == "true"


def test_config_text_supports_comments_and_blank_lines():
    flat = parse_config_text("# heading\n\ntrain.N = 7  # trailing comment\n")
    assert flat == {"train.N": "7"}
    with pytest.raises(ValueError):
        parse_config_text("not a key value line\n")


def test_unknown_override_key_is_a_config_error(tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", "fig4", "--set", "integrator.bogus=1",
        "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    assert "unknown configuration key" in capsys.readouterr().err


def test_malformed_override_is_a_config_error(tmp_path):
    assert (
        run_cli("run", "--scenario", "fig4", "--set", "trainT", "--out", str(tmp_path))
        == EXIT_CONFIG
    )


def test_unknown_scenario_is_a_config_error(tmp_path):
    assert (
        run_cli("run", "--scenario", "fig9", "--out", str(tmp_path)) == EXIT_CONFIG
    )


def test_incomplete_config_file_is_rejected(tmp_path):
    partial = tmp_path / "partial.cfg"
    partial.write_text("train.N = 4\n", encoding="utf-8")
    assert run_cli("run", "--scenario", str(partial), "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize(
    "override",
    [
        "rates.gamma21=nan",
        "rates.gamma21=inf",
        "train.rabi_peak=nan",
        "train.omega_L=inf",
        "train.T=-inf",
    ],
)
def test_non_finite_override_is_a_config_error(tmp_path, capsys, override):
    code = run_cli(
        "run", "--scenario", "fig4", "--set", override,
        "--emit", "summary", "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(override.partition("=")[0]) in err and "finite" in err
    assert not (tmp_path / "summary.txt").exists()


def test_non_finite_config_file_value_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "fig4.cfg"
    run_cli("run", "--scenario", "fig4", "--dump-config", str(path))
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("rates.Gamma21 = 0\n", "rates.Gamma21 = NaN\n"), encoding="utf-8")
    assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path)) == EXIT_CONFIG
    assert "'rates.Gamma21'" in capsys.readouterr().err


def test_overrides_change_resolved_values():
    resolved = resolve_scenario("fig4", ("train.N=7", "rates.gamma21=0.002"), "angular")
    assert resolved.tree["train"]["N"] == 7
    assert resolved.tree["rates"]["gamma21"] == 0.002
    lines = config_lines(resolved.tree)
    assert "train.N = 7" in lines


# --- run verb ------------------------------------------------------------------


def test_run_writes_timeseries_and_summary(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--scenario", "fig4", "--set", "train.N=10",
        "--emit", "timeseries,summary", "--out", str(out),
    )
    assert code == EXIT_OK

    header, *rows = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()
    assert header == "t,rho11,rho22,rho33,re12,im12,re13,im13,re23,im23,trace"
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert table.shape[1] == 11
    np.testing.assert_allclose(table[:, -1], 1.0, atol=1e-6)  # trace column
    assert np.all(np.diff(table[:, 0]) > 0)  # strictly increasing time

    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "scenario = fig4" in summary
    assert "yield = " in summary
    assert "max_rho22 = " in summary
    assert "transfer_pulse = " in summary
    assert "trace_max_drift = " in summary
    assert "# resolved configuration" in summary
    assert "train.N = 10" in summary


def test_noop_override_keeps_summary_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli("run", "--scenario", "fig4", "--emit", "summary", "--out", str(out_a))
    run_cli(
        "run", "--scenario", "fig4", "--set", "rates.gamma21=0",
        "--emit", "summary", "--out", str(out_b),
    )
    assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()


def test_run_emits_plotdata(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--scenario", "fig4", "--set", "train.N=5",
        "--emit", "plotdata", "--out", str(out),
    )
    assert code == EXIT_OK
    for name in ("rho11", "rho22", "rho33"):
        lines = (out / "plotdata" / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"t,{name}"
        assert len(lines) > 10
    stub = (out / "plotdata" / "plot.py").read_text(encoding="utf-8")
    assert "matplotlib" in stub


def test_run_rejects_unknown_emit_target(tmp_path):
    assert (
        run_cli("run", "--scenario", "fig4", "--emit", "movies", "--out", str(tmp_path))
        == EXIT_CONFIG
    )


def test_enforced_rate_violation_exits_with_code_4(tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", "fig5", "--set", "rates.Gamma31=0.001",
        "--emit", "summary", "--out", str(tmp_path),
    )
    assert code == EXIT_RATES
    assert "rate relation" in capsys.readouterr().err


def test_warn_mode_runs_despite_violation(tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", "fig4", "--set", "rates.Gamma31=0.001",
        "--set", "train.N=5", "--rates-mode", "warn",
        "--emit", "summary", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    assert "warning" in capsys.readouterr().err
    assert (tmp_path / "summary.txt").exists()


def test_float_17g_round_trip(tmp_path):
    out = tmp_path / "out"
    run_cli(
        "run", "--scenario", "fig4", "--set", "train.N=5",
        "--emit", "timeseries", "--out", str(out),
    )
    rows = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()[1:]
    for row in rows[:50]:
        for token in row.split(","):
            value = float(token)
            assert format(value, ".17g") == token


# --- streaming CSV writer against the per-value oracle ---------------------------


SPECIAL_VALUES = (0.0, -0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan, 1.0 / 3.0)


@pytest.mark.parametrize(
    "n_rows",
    [0, 1, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 2 * _ROW_CHUNK + 1],
)
def test_write_rows_matches_per_value_writer(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    scale = 10.0 ** rng.integers(-300, 300, size=(n_rows, 3))
    block = rng.normal(size=(n_rows, 3)) * scale
    flat = block.reshape(-1)
    flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: flat.size]
    _write_rows(tmp_path / "rows.csv", "a,b,c", block)
    write_csv_reference(tmp_path / "ref.csv", "a,b,c", block.T)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_rows_renders_special_values(tmp_path):
    _write_rows(tmp_path / "row.csv", "x", np.array([SPECIAL_VALUES]))
    assert (tmp_path / "row.csv").read_text(encoding="utf-8") == (
        "x\n0,-0,4.9406564584124654e-324,10000000000000000,inf,-inf,nan,0.33333333333333331\n"
    )


def test_run_files_match_per_value_writers(tmp_path, preset_runs):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--scenario", "fig4", "--emit", "timeseries,plotdata,summary",
        "--out", str(out),
    )
    assert code == EXIT_OK
    traj = preset_runs("fig4")
    assert traj.n_samples > 2 * _ROW_CHUNK
    ref = tmp_path / "ref"
    write_csv_reference(
        ref / "timeseries.csv",
        "t,rho11,rho22,rho33,re12,im12,re13,im13,re23,im23,trace",
        (traj.times, *traj.data.T, traj.trace_series),
    )
    for column, name in enumerate(("rho11", "rho22", "rho33")):
        write_csv_reference(
            ref / "plotdata" / f"{name}.csv", f"t,{name}", (traj.times, traj.data[:, column])
        )
    for name in ("timeseries.csv", "plotdata/rho11.csv", "plotdata/rho22.csv", "plotdata/rho33.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    resolved = resolve_scenario("fig4", (), "angular")
    summary = "\n".join(summary_lines(resolved, traj)) + "\n"
    assert (out / "summary.txt").read_text(encoding="utf-8") == summary


def test_spectrum_csv_matches_per_value_writer(tmp_path):
    spec = desk_spectrum(desk_train("sine", n_pulses=4))
    write_spectrum_csv(tmp_path / "spectrum.csv", spec)
    write_csv_reference(
        tmp_path / "ref.csv", "omega,intensity", (spec.frequencies, spec.intensities)
    )
    assert (tmp_path / "spectrum.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- sweep verb ------------------------------------------------------------------


def test_axis_parsing():
    axis = parse_axis("train.N=2,4,8")
    assert axis.keys == ("train.N",)
    assert axis.values == ("2", "4", "8")

    joint = parse_axis("rates.gamma21+rates.gamma23=linspace(0,0.002,3)")
    assert joint.keys == ("rates.gamma21", "rates.gamma23")
    assert len(joint.values) == 3
    assert float(joint.values[1]) == pytest.approx(0.001)

    with pytest.raises(ValueError):
        parse_axis("no-equals-sign")
    with pytest.raises(ValueError):
        parse_axis("train.N=linspace(1,2)")


def test_single_point_sweep_matches_run(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--scenario", "fig4", "--axis1", "train.modulation.amplitude=4",
        "--out", str(out),
    )
    assert code == EXIT_OK
    header, row = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert header == "train.modulation.amplitude,final_yield,trace_max_drift,error"
    cells = row.split(",")
    assert cells[0] == "4"
    assert float(cells[1]) == pytest.approx(0.973591, abs=1e-4)
    assert cells[3] == ""


def test_sweep_orders_grid_and_reports_errors_per_row(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--scenario", "fig6sin",
        "--axis1", "train.modulation.amplitude=0,4",
        "--axis2", "rates.Gamma31=0,0.001",
        "--objective", "steady_yield",
        "--out", str(out),
    )
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    grid = [line.split(",")[:2] for line in lines[1:]]
    assert grid == [["0", "0"], ["0", "0.001"], ["4", "0"], ["4", "0.001"]]
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "0.001":  # violated relation -> error recorded, not fatal
            assert cells[2] == "nan"
            assert "RateRelationViolation" in cells[4]
        else:
            assert math.isfinite(float(cells[2]))
            assert cells[4] == ""


def test_sweep_records_non_finite_value_as_an_error_row(tmp_path, monkeypatch):
    monkeypatch.setenv("COMB_LAMBDA_THREADS", "1")
    # the bad value is recorded per row wherever it falls, first point included
    for name, values in (("last", "0,nan"), ("first", "nan,0")):
        out = tmp_path / name
        code = run_cli(
            "sweep", "--scenario", "fig4", "--set", "train.N=3",
            "--axis1", f"rates.gamma21={values}", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == values.split(",")
        good, bad = sorted(rows, key=lambda row: row.startswith("nan"))
        assert good.split(",")[0] == "0" and good.endswith(",")
        cells = bad.split(",")
        assert cells[:3] == ["nan", "nan", "nan"]
        assert cells[3].startswith("ConfigError: key 'rates.gamma21'") and "finite" in cells[3]


def test_sweep_is_deterministic_across_worker_counts(tmp_path, monkeypatch):
    out_serial = tmp_path / "serial"
    out_pool = tmp_path / "pool"
    monkeypatch.setenv("COMB_LAMBDA_THREADS", "1")
    run_cli(
        "sweep", "--scenario", "fig4",
        "--axis1", "train.modulation.amplitude=0,2,4", "--out", str(out_serial),
    )
    monkeypatch.setenv("COMB_LAMBDA_THREADS", "3")
    run_cli(
        "sweep", "--scenario", "fig4",
        "--axis1", "train.modulation.amplitude=0,2,4", "--out", str(out_pool),
    )
    assert (out_serial / "sweep.csv").read_bytes() == (out_pool / "sweep.csv").read_bytes()


def test_chirp_outperforms_plain_comb_in_sweep(tmp_path):
    out = tmp_path / "out"
    run_cli(
        "sweep", "--scenario", "fig4",
        "--axis1", "train.modulation.amplitude=0,4", "--out", str(out),
    )
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    yields = {line.split(",")[0]: float(line.split(",")[1]) for line in lines}
    assert yields["4"] > 0.95
    assert yields["0"] < 0.5


def test_sweep_grid_cap(tmp_path):
    code = run_cli(
        "sweep", "--scenario", "fig4",
        "--axis1", "train.N=linspace(1,100,101)",
        "--axis2", "train.phi=linspace(0,6,101)",
        "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("axis", ["--axis1", "--axis2"])
def test_sweep_unknown_axis_key_is_a_config_error(tmp_path, capsys, axis):
    axes = {"--axis1": "train.modulation.amplitude=0,4", "--axis2": "rates.Gamma31=0"}
    axes[axis] = "rates.bogus=nan,1"
    code = run_cli(
        "sweep", "--scenario", "fig4", *(x for kv in axes.items() for x in kv),
        "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    assert "unknown configuration key 'rates.bogus'" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_invalid_threads_env_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("COMB_LAMBDA_THREADS", "many")
    code = run_cli(
        "sweep", "--scenario", "fig4",
        "--axis1", "train.modulation.amplitude=0,4", "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG


# --- spectrum verb ----------------------------------------------------------------


DESK_SETTINGS = (
    "--set", "train.T=40",
    "--set", f"train.omega_L={DESK_OMEGA_L!r}",
    "--set", f"train.modulation.frequency={DESK_OMEGA_MOD!r}",
    "--set", "train.tau=0.7",
    "--set", "train.modulation.amplitude=2",
)


def test_spectrum_verb_verifies_desk_scale_comb(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "spectrum", "--scenario", "fig4", *DESK_SETTINGS,
        "--threshold", "0.02", "--out", str(out),
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "passed = true" in printed
    structure = (out / "structure.txt").read_text(encoding="utf-8")
    assert "mode_spacing" in structure and "set_spacing" in structure

    header, *rows = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()
    assert header == "omega,intensity"
    assert len(rows) > 1000


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--pulses", "0"),
        ("--pad", "0"),
        ("--pad", "nan"),
        ("--pad", "inf"),
        ("--margin", "0"),
        ("--margin", "nan"),
        ("--threshold", "nan"),
        ("--threshold", "1"),
    ],
)
def test_spectrum_flag_out_of_range_is_a_config_error(tmp_path, capsys, flag, value):
    code = run_cli(
        "spectrum", "--scenario", "fig4", *DESK_SETTINGS, flag, value, "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    assert f"configuration error: {flag}: expected" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_verb_refuses_oversized_synthesis(tmp_path, capsys):
    code = run_cli("spectrum", "--scenario", "fig4", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "desk-scale" in capsys.readouterr().err


# --- validate-rates verb ------------------------------------------------------------


def test_validate_rates_verb(capsys):
    assert run_cli("validate-rates", "--Gamma21", "0.001", "--Gamma23", "0.001") == EXIT_OK
    assert (
        run_cli(
            "validate-rates", "--Gamma21", "0.001", "--Gamma31", "0.001",
            "--Gamma23", "0.002",
        )
        == EXIT_OK
    )
    code = run_cli(
        "validate-rates", "--Gamma21", "0.001", "--Gamma31", "0.001",
        "--Gamma23", "0.001",
    )
    assert code == EXIT_RATES
    out = capsys.readouterr().out
    assert "deviation" in out


def test_validate_rates_verb_scenario_and_modes(capsys):
    assert run_cli("validate-rates", "--scenario", "fig6cos") == EXIT_OK
    code = run_cli(
        "validate-rates", "--Gamma21", "0.001", "--Gamma31", "0.001",
        "--Gamma23", "0.001", "--mode", "warn",
    )
    assert code == EXIT_OK
    assert "warning" in capsys.readouterr().err
    assert (
        run_cli("validate-rates", "--scenario", "fig5", "--set", "rates.Gamma31=0.5")
        == EXIT_RATES
    )


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--gamma21", "nan"),
        ("--gamma23", "inf"),
        ("--gamma21", "-inf"),
        ("--Gamma21", "nan"),
        ("--Gamma23", "inf"),
        ("--Gamma31", "-inf"),
    ],
)
def test_validate_rates_rejects_non_finite_flag(capsys, flag, value):
    assert run_cli("validate-rates", f"{flag}={value}") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert f"{flag}: expected a finite number" in captured.err


# --- calibrate verb ------------------------------------------------------------------


def test_calibrate_quick_verb(tmp_path, capsys):
    code = run_cli("calibrate-fig4", "--quick", "--out", str(tmp_path))
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    values = dict(
        line.split(" = ") for line in printed.strip().splitlines() if " = " in line
    )
    assert abs(float(values["period"]) - 14005.253930) < 0.005
    assert float(values["final_yield"]) > 0.95
    header = (tmp_path / "calibration.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "tau,period,peak_yield,peak_pulse,transfer_pulse"


# --- module execution ------------------------------------------------------------------


def test_python_dash_m_entry_point(tmp_path, subprocess_pythonpath):
    proc = subprocess.run(
        [sys.executable, "-m", "combcool", "list-scenarios"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "fig6cos" in proc.stdout


def test_run_outputs_are_identical_across_blas_thread_counts(tmp_path, subprocess_pythonpath):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "combcool", "run", "--scenario", "fig4",
                "--set", "train.N=12", "--emit", "timeseries,summary", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["summary.txt", "timeseries.csv"]
    assert outputs[0] == outputs[1]
