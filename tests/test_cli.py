"""CLI tests: exit codes, file formats, round-trips, determinism."""

import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from combcool import cli, dynamics
from combcool.cli import (
    _ROW_CHUNK,
    EXIT_CONFIG,
    EXIT_INTEGRATION,
    EXIT_OK,
    EXIT_RATES,
    _render_rows,
    _write_rows,
    build_parser,
    config_lines,
    main,
    parse_axis,
    parse_config_text,
    resolve_scenario,
    summary_lines,
    write_plotdata,
    write_spectrum_csv,
    write_timeseries,
)
from combcool.core import Trajectory
from combcool.scenarios import get_preset

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


@pytest.mark.parametrize(
    "override, key, message",
    [
        ("rho0.rho11=0.5", "rho0", "unit trace"),
        ("integrator.step_in_pulse=10", "integrator.step_in_pulse", "stability cap"),
    ],
)
def test_input_rejected_by_propagate_is_a_config_error(tmp_path, capsys, override, key, message):
    code = run_cli(
        "run", "--scenario", "fig3", "--set", override,
        "--emit", "summary", "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(key) in err and message in err
    assert not (tmp_path / "summary.txt").exists()


def test_gap_below_time_resolution_runs(tmp_path):
    # T - 2w = 4.4e-16 with w = 6 tau: the gap samples would round onto the window ends
    with pytest.warns(UserWarning, match="below 50"):
        code = run_cli(
            "run", "--scenario", "fig4", "--set", "train.T=2.376000000000001",
            "--set", "train.N=3", "--emit", "timeseries", "--out", str(tmp_path),
        )
    assert code == EXIT_OK
    times = np.loadtxt(tmp_path / "timeseries.csv", delimiter=",", skiprows=1)[:, 0]
    assert np.all(np.diff(times) > 0.0)


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


# --- the vectorized '%.17g' kernel against format(x, '.17g') ---------------------


def _assert_renders_as_format(block):
    """_render_rows(block) equals format(x, '.17g') cell by cell, in CSV lines."""
    lines = _render_rows(block).split("\n")
    assert lines.pop() == ""
    expected = [",".join(format(float(x), ".17g") for x in row) for row in block]
    assert len(lines) == len(expected)
    wrong = [(got, want) for got, want in zip(lines, expected) if got != want]
    assert not wrong, f"{len(wrong)} lines differ, first: {wrong[:2]}"


def _neighbours(x: float, steps: int) -> list[float]:
    """x and the `steps` doubles on either side of it."""
    out = [x]
    below = above = x
    for _ in range(steps):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _edge_table() -> np.ndarray:
    values = []
    for k in range(-300, 301):
        values += _neighbours(float(f"1e{k}"), steps=1)
    # the switches between the fixed and scientific forms
    for switch in (1e-5, 1e-4, 1e16, 1e17):
        values += _neighbours(switch, steps=3)
    # the guard of the vectorized range
    for bound in (1e-200, 1e200):
        values += _neighbours(bound, steps=3)
    # exact 18-digit ties m/2**17 (m odd) in [1, 10), which round half to
    # even, and the 19-digit quarter points m/2**18 beside them
    values += [m / 2**17 for m in range(2**17 + 1, 10 * 2**17, 2 * 37)]
    values += [m / 2**18 for m in range(2**18 + 1, 10 * 2**18, 2 * 73)]
    values += [0.0, 5e-324, sys.float_info.min, math.inf, math.nan, 100.0, 1200.5]
    values += [-v for v in values]
    values += [0.0] * (-len(values) % 6)
    return np.array(values).reshape(-1, 6)


def test_render_rows_matches_format_on_the_edge_table():
    _assert_renders_as_format(_edge_table())


@pytest.mark.parametrize(
    "value, text",
    [
        # the double nearest 1e-28 lies below it, so its exponent is -29;
        # a range check after rounding would print 1e-28
        (1e-28, "9.9999999999999997e-29"),
        (100.0, "100"),
        (1200.5, "1200.5"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
        (1e-5, "1.0000000000000001e-05"),
        (0.0001, "0.0001"),
        (-1.5e-120, "-1.5000000000000001e-120"),
        (1 + 2**-17, "1.0000076293945312"),
        (1 + 3 * 2**-17, "1.0000228881835938"),
    ],
)
def test_render_rows_known_texts(value, text):
    assert format(value, ".17g") == text
    assert _render_rows(np.array([[value, value]])) == f"{text},{text}\n"


_BLOCK_SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(arrays(np.uint64, _BLOCK_SHAPES, elements=st.integers(0, 2**64 - 1)))
def test_render_rows_matches_format_on_bit_patterns(bits):
    _assert_renders_as_format(bits.view(np.float64))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(arrays(np.float64, _BLOCK_SHAPES, elements=st.floats()))
def test_render_rows_matches_format_on_floats(block):
    _assert_renders_as_format(block)


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


def _plot_references(ref, traj):
    for column, name in enumerate(("rho11", "rho22", "rho33")):
        write_csv_reference(
            ref / f"{name}.csv", f"t,{name}", (traj.times, traj.data[:, column])
        )


def test_run_plotdata_alone_matches_per_value_writers(tmp_path, preset_runs):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "fig4", "--emit", "plotdata", "--out", str(out)) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["plotdata"]
    _plot_references(tmp_path / "ref", preset_runs("fig4"))
    for name in ("rho11.csv", "rho22.csv", "rho33.csv"):
        assert (out / "plotdata" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def _odd_trajectory(n_rows: int) -> Trajectory:
    """Samples with signed zeros, subnormals, infinities and NaNs among the values."""
    rng = np.random.default_rng(n_rows)
    data = rng.normal(size=(n_rows, 9)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 9))
    step = min(997, data.size // (4 * len(SPECIAL_VALUES)))
    data.reshape(-1)[::step][: 4 * len(SPECIAL_VALUES)] = SPECIAL_VALUES * 4
    times = 5e-324 + 0.37 * np.arange(n_rows)
    return Trajectory(times=times, data=data, pulse_end_indices=[n_rows - 1])


def test_projected_plotdata_matches_per_value_writer(tmp_path):
    traj = _odd_trajectory(2 * _ROW_CHUNK + 17)
    assert not np.all(np.isfinite(traj.data[:, :3]))
    write_timeseries(tmp_path / "timeseries.csv", traj)
    write_plotdata(tmp_path / "plotdata", traj, tmp_path / "timeseries.csv")
    _plot_references(tmp_path / "ref", traj)
    for name in ("rho11.csv", "rho22.csv", "rho33.csv"):
        assert (tmp_path / "plotdata" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    rendered = tmp_path / "rendered"
    write_plotdata(rendered, traj)
    assert {p.name: p.read_bytes() for p in rendered.iterdir()} == {
        p.name: p.read_bytes() for p in (tmp_path / "plotdata").iterdir()
    }


_DAMAGES = {
    "last rows dropped": lambda lines: lines[:-3],
    "middle row dropped": lambda lines: lines[:100] + lines[101:],
    "first time changed": lambda lines: [lines[0], "1" + lines[1], *lines[2:]],
    "last time changed": lambda lines: [*lines[:-1], "1" + lines[-1]],
    "last line cut": lambda lines: [*lines[:-1], lines[-1][:-20]],
    "header changed": lambda lines: ["t,rho11,rho22,rho33\n", *lines[1:]],
}


@pytest.mark.parametrize("damage", list(_DAMAGES))
def test_projection_rejects_a_timeseries_that_does_not_match(tmp_path, damage):
    traj = _odd_trajectory(_ROW_CHUNK + 5)
    timeseries = tmp_path / "timeseries.csv"
    write_timeseries(timeseries, traj)
    lines = timeseries.read_text(encoding="utf-8").splitlines(keepends=True)
    timeseries.write_text("".join(_DAMAGES[damage](lines)), encoding="utf-8")
    with pytest.raises(ValueError, match="does not hold the trajectory"):
        write_plotdata(tmp_path / "plotdata", traj, timeseries)
    assert not list((tmp_path / "plotdata").glob("*.csv"))


def test_write_rows_stacks_mixed_columns(tmp_path):
    n_rows = 2 * _ROW_CHUNK + 3
    traj = _odd_trajectory(n_rows)
    columns = (traj.times, traj.data[:, :4], traj.data[:, 4], traj.data[:, 5:], -traj.times)
    header = ",".join(f"c{j}" for j in range(12))
    _write_rows(tmp_path / "rows.csv", header, *columns)
    write_csv_reference(
        tmp_path / "ref.csv",
        header,
        (traj.times, *traj.data[:, :4].T, traj.data[:, 4], *traj.data[:, 5:].T, -traj.times),
    )
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    with pytest.raises(ValueError, match="differ in length"):
        _write_rows(tmp_path / "short.csv", "a,b", traj.times, traj.times[:-1])


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
    code = run_cli(
        "run", "--scenario", "fig4", "--set", "train.modulation.amplitude=4",
        "--emit", "summary", "--out", str(tmp_path / "run"),
    )
    assert code == EXIT_OK
    summary = (tmp_path / "run" / "summary.txt").read_text(encoding="utf-8").splitlines()
    summary = dict(line.split(" = ", 1) for line in summary if " = " in line)
    assert float(summary["yield"]) == pytest.approx(0.973591, abs=1e-4)
    for objective, summary_key in (
        ("final_yield", "yield"),
        ("steady_yield", "steady_yield"),
        ("max_rho22", "max_rho22"),
    ):
        out = tmp_path / objective
        code = run_cli(
            "sweep", "--scenario", "fig4", "--axis1", "train.modulation.amplitude=4",
            "--objective", objective, "--out", str(out),
        )
        assert code == EXIT_OK
        header, row = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert header == f"train.modulation.amplitude,{objective},trace_max_drift,error"
        assert row.split(",") == ["4", summary[summary_key], summary["trace_max_drift"], ""]


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


def test_run_checks_the_spectrum_size_before_propagating(tmp_path, capsys, monkeypatch):
    def no_propagate(*args, **kwargs):
        raise AssertionError("propagate ran before the spectrum size was checked")

    monkeypatch.setattr(cli, "propagate", no_propagate)
    out = tmp_path / "out"
    code = run_cli(
        "run", "--scenario", "fig4", "--emit", "timeseries,summary,spectrum", "--out", str(out),
    )
    assert code == EXIT_CONFIG
    assert "spectrum would need 12983008 samples (cap 4000000)" in capsys.readouterr().err
    assert not out.exists()


def test_run_emits_the_spectrum_of_the_spectrum_verb(tmp_path):
    assert run_cli(
        "run", "--scenario", "fig6sin", "--emit", "spectrum", "--out", str(tmp_path / "run")
    ) == EXIT_OK
    assert run_cli("spectrum", "--scenario", "fig6sin", "--out", str(tmp_path / "spec")) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["spectrum.csv"]
    spectrum_csv = (tmp_path / "run" / "spectrum.csv").read_bytes()
    assert spectrum_csv == (tmp_path / "spec" / "spectrum.csv").read_bytes()


# --- integration failure --------------------------------------------------------------


def test_integration_failure_exits_with_code_3(tmp_path, capsys, monkeypatch):
    generator = dynamics._generator_matrices

    def leaky_generator(*args):
        L = generator(*args)
        L[:, 0, 0] -= 1e-6  # rho11 leaks out of the trace at a known rate
        return L

    monkeypatch.setattr(dynamics, "_generator_matrices", leaky_generator)
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", "fig3", "--set", "train.N=2", "--out", str(out))
    assert code == EXIT_INTEGRATION
    assert "integration failed: |trace - 1|" in capsys.readouterr().err
    assert not out.exists()



def test_guard_failure_on_a_long_train_stops_the_carry_at_its_block(tmp_path, capsys, monkeypatch):
    # fig3 at N = 200,000 fails its trace guard at pulse 21 (t = 21 T); the
    # carry crosses one gap per carried pulse, so counting them bounds the carry
    carried = []
    apply_free = dynamics._apply_free

    def counting_apply_free(v, *args):
        if v.ndim == 1:
            carried.append(1)
        return apply_free(v, *args)

    monkeypatch.setattr(dynamics, "_apply_free", counting_apply_free)
    out = tmp_path / "out"
    code = run_cli(
        "run", "--scenario", "fig3", "--set", "train.N=200000",
        "--set", "integrator.trace_tol=1e-13", "--emit", "summary", "--out", str(out),
    )
    assert code == EXIT_INTEGRATION
    assert capsys.readouterr().err == (
        "integration failed: |trace - 1| = 1.010e-13 > 1e-13 at t = 527102; "
        "integration step or tolerances are inadequate\n"
    )
    preset = get_preset("fig3")
    w = preset.icfg.window_sigmas * preset.cfg.tau
    steps = math.ceil(2.0 * w / dynamics.resolve_step(preset.icfg, preset.cfg, preset.sys))
    block = dynamics._BLOCK_BYTES // (72 * (steps + 1))
    assert len(carried) <= 21 + 1 + block
    assert not out.exists()

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
    header, *rows = (tmp_path / "calibration.csv").read_text(encoding="utf-8").splitlines()
    assert header == "tau,period,peak_yield,peak_pulse,transfer_pulse"
    # --quick scans the frozen pulse duration around the one base period
    assert len(rows) == 1
    cells = [row.split(",") for row in rows]
    assert all(c[3].isdigit() and c[4].isdigit() for c in cells)
    assert values["period"] in [c[1] for c in cells]


def test_calibrate_quick_text_is_pinned(tmp_path, capsys):
    """The quick scan's printout and calibration.csv, byte for byte.

    The other calibration tests hold within tolerances, so a last-bit change
    in a staircase or in the final propagation would pass them.  Recorded
    with numpy 2.4 and OpenBLAS 0.3 on x86-64; another BLAS build may round
    the final propagation differently.
    """
    assert run_cli("calibrate-fig4", "--quick", "--out", str(tmp_path)) == EXIT_OK
    assert capsys.readouterr().out == (
        "tau = 0.19800000000000001\n"
        "period = 14005.2539\n"
        "n_pulses = 118\n"
        "final_yield = 0.97349130292458363\n"
        "transfer_pulse = 109\n"
        "max_rho22 = 0.1212099068378298\n"
    )
    assert (tmp_path / "calibration.csv").read_bytes() == (
        b"tau,period,peak_yield,peak_pulse,transfer_pulse\n"
        b"0.19800000000000001,14005.2539,0.97349130292458053,118,109\n"
    )


# --- README examples ---------------------------------------------------------------


def _readme_commands() -> list[str]:
    """Every `combcool ...` command of README's sh blocks, continuations joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands, in_sh = [], False
    for line in readme.read_text(encoding="utf-8").replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
        elif in_sh and line.startswith("combcool "):
            commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    verbs = {shlex.split(command, comments=True)[1] for command in commands}
    assert verbs == {"run", "sweep", "spectrum", "validate-rates", "calibrate-fig4"}
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


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


def test_importing_the_cli_leaves_out_the_worker_pool(subprocess_pythonpath):
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, combcool.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rendering_tables_are_built_without_fractions_or_decimal(subprocess_pythonpath):
    """The kernel's power-of-ten table is built on first use, from Python ints."""
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, numpy as np, combcool.cli as cli; "
            "built_at_import = cli._render_tables.cache_info().currsize; "
            "cli._render_rows(np.eye(2)); "
            "print(built_at_import, sorted(m for m in ('fractions', 'decimal') if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
