"""CLI tests: exit codes, file formats, round-trips, determinism."""

import math
import os
import shlex
import subprocess
import sys
import tracemalloc
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
)
from combcool.core import Trajectory
from combcool.scenarios import get_preset, run_preset

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
    # the short period of fig6sin is chosen, not calibrated
    assert (
        "fig6sin  sine chirp, decoherent, chosen short period T = 41.308; "
        "mod=sine, N=130, T=41.308, tau=0.198, rabi=1, decoherent\n"
    ) in out


def test_dump_config_round_trip_is_byte_identical(tmp_path):
    first = tmp_path / "a.cfg"
    second = tmp_path / "b.cfg"
    assert run_cli("run", "--scenario", "fig4", "--dump-config", str(first)) == EXIT_OK
    assert (
        run_cli("run", "--scenario", str(first), "--dump-config", str(second))
        == EXIT_OK
    )
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig5sp", "fig6sin", "fig6cos", "fig6std"])
def test_dumped_config_reproduces_its_run(tmp_path, name):
    """Every physics input of a preset is a configuration key: the file that
    --dump-config writes runs to the same bytes as the preset itself."""
    cfg = tmp_path / f"{name}.cfg"
    common = ("--set", "train.N=12", "--emit", "timeseries,plotdata")
    assert run_cli("run", "--scenario", name, *common, "--out", str(tmp_path / "preset")) == EXIT_OK
    assert run_cli("run", "--scenario", name, *common[:2], "--dump-config", str(cfg)) == EXIT_OK
    assert run_cli("run", "--scenario", str(cfg), *common[2:], "--out", str(tmp_path / "file")) == EXIT_OK
    for f in ("timeseries.csv", "plotdata/rho11.csv", "plotdata/rho22.csv", "plotdata/rho33.csv"):
        assert (tmp_path / "preset" / f).read_bytes() == (tmp_path / "file" / f).read_bytes(), f


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


def test_repeated_config_file_key_is_a_config_error(tmp_path, capsys):
    """A key set twice in a config file exits 2 naming it and both lines, instead
    of the last line winning."""
    cfg = tmp_path / "fig4.cfg"
    assert run_cli("run", "--scenario", "fig4", "--dump-config", str(cfg)) == EXIT_OK
    lines = cfg.read_text(encoding="utf-8").splitlines()
    first = lines.index("train.N = 118") + 1
    cfg.write_text("\n".join([*lines, "train.N = 2", "train.N = 3"]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", str(cfg), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"configuration error: config line {len(lines) + 1}: key 'train.N' is already set on line {first}\n"
    )
    assert not out.exists()


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


def test_config_with_the_removed_keys_exits_2_naming_the_first(tmp_path, capsys):
    """A fig5sp config as earlier releases dumped it, with system.omega31,
    train.E0 and train.envelope_prefactor, exits 2 naming system.omega31.
    Without those lines it is today's dump, which test_dumped_config_reproduces_its_run
    runs to the preset's bytes."""
    cfg = tmp_path / "fig5sp.cfg"
    assert run_cli("run", "--scenario", "fig5sp", "--dump-config", str(cfg)) == EXIT_OK
    omega31 = cli._g(get_preset("fig5sp").sys.omega31)
    removed = f"system.omega31 = {omega31}\ntrain.E0 = 1\ntrain.envelope_prefactor = 1\n"
    cfg.write_text(cfg.read_text(encoding="utf-8") + removed, encoding="utf-8")
    assert run_cli("run", "--scenario", str(cfg), "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: unknown configuration key 'system.omega31'\n"
    assert not (tmp_path / "out").exists()


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    """An --out below a regular file exits 2 with one line, not a traceback."""
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    code = run_cli("run", "--scenario", "fig4", "--set", "train.N=2", "--out", str(blocker / "x"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(blocker) in err
    assert err.count("\n") == 1


def test_incomplete_config_file_is_rejected(tmp_path):
    partial = tmp_path / "partial.cfg"
    partial.write_text("train.N = 4\n", encoding="utf-8")
    assert run_cli("run", "--scenario", str(partial), "--out", str(tmp_path)) == EXIT_CONFIG


def test_config_file_with_a_byte_order_mark_runs_as_without_it(tmp_path):
    """A config file saved with a UTF-8 byte-order mark reads as the same file
    without one, instead of missing its first key."""
    plain, marked = tmp_path / "plain" / "run.cfg", tmp_path / "marked" / "run.cfg"
    plain.parent.mkdir()
    marked.parent.mkdir()
    assert run_cli("run", "--scenario", "fig5sp", "--set", "train.N=12", "--dump-config", str(plain)) == EXIT_OK
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path in (plain, marked):
        code = run_cli("run", "--scenario", str(path), "--emit", "timeseries,summary", "--out", str(path.parent / "out"))
        assert code == EXIT_OK
    for f in ("timeseries.csv", "summary.txt"):
        assert (plain.parent / "out" / f).read_bytes() == (marked.parent / "out" / f).read_bytes(), f


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
        # unit trace but an eigenvalue of -0.4, which integrating would blame on the step
        ("rho0.rho11=0.5 rho0.rho33=0.5 rho0.re13=0.9", "rho0", "positive semidefinite"),
        # finite periods whose interpulse rotation overflows: math.cos has no value at inf
        ("integrator.interpulse_phases=true train.N=3 train.T=1e155", "train.T", "T = 1e+155 overflows"),
        ("integrator.interpulse_phases=true train.N=3 train.T=1e308", "train.T", "T = 1e+308 overflows"),
    ],
)
def test_input_rejected_by_propagate_is_a_config_error(tmp_path, capsys, override, key, message):
    settings = [arg for setting in override.split() for arg in ("--set", setting)]
    code = run_cli(
        "run", "--scenario", "fig3", *settings,
        "--emit", "summary", "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(key) in err and message in err
    assert not (tmp_path / "summary.txt").exists()


def test_gap_below_time_resolution_runs(tmp_path, capsys):
    # T - 2w = 4.4e-16 with w = 6 tau: the gap samples would round onto the window ends
    code = run_cli(
        "run", "--scenario", "fig4", "--set", "train.T=2.376000000000001",
        "--set", "train.N=3", "--emit", "timeseries", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: pulse period T = 2.376 is below 50*tau = 9.9; window truncation tails start to matter\n"
    )
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
    resolved = resolve_scenario("fig4", ("train.N=7", "rates.gamma21=0.002"))
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


def test_transfer_pulse_expectation_fails_a_run_that_transferred_nothing(tmp_path):
    """fig4 at this amplitude and period ends with rho33 = -1.2e-11: the
    pulse-count fallback still reads transfer_pulse = 118, but the expectation
    has nothing to measure and fails instead of passing on [98, 120]."""
    out = tmp_path / "out"
    code = run_cli(
        "run", "--scenario", "fig4", "--set", "train.modulation.amplitude=5.957787847109637",
        "--set", "train.T=14006.132900177161", "--emit", "summary", "--out", str(out),
    )
    assert code == EXIT_OK
    summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert "yield = -1.1678280784591467e-11" in summary
    assert "transfer_pulse = 118" in summary
    assert "expect.transfer_pulse = FAIL (measured nan, expected in [98, 120], reference)" in summary


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
        (traj.times, *traj.data.T, traj.data[:, :3].sum(axis=1)),
    )
    for column, name in enumerate(("rho11", "rho22", "rho33")):
        write_csv_reference(
            ref / "plotdata" / f"{name}.csv", f"t,{name}", (traj.times, traj.data[:, column])
        )
    for name in ("timeseries.csv", "plotdata/rho11.csv", "plotdata/rho22.csv", "plotdata/rho33.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    resolved = resolve_scenario("fig4", ())
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
    return Trajectory.from_arrays(times, data, [n_rows - 1])


@pytest.mark.parametrize("n_rows", [_ROW_CHUNK, _ROW_CHUNK + 1, 2 * _ROW_CHUNK + 17])
def test_projected_plotdata_matches_per_value_writer(tmp_path, n_rows):
    traj = _odd_trajectory(n_rows)
    assert not np.all(np.isfinite(traj.data[:, :3]))
    write_plotdata(tmp_path / "plotdata", traj)
    _plot_references(tmp_path / "ref", traj)
    for name in ("rho11.csv", "rho22.csv", "rho33.csv"):
        assert (tmp_path / "plotdata" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


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


def test_sweep_rates_mode_applies_per_point(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMB_LAMBDA_THREADS", "1")
    violation = "Gamma23 - (Gamma21 + Gamma31) = {}; the additive dephasing relation is violated"
    rows, warned = {}, {}
    for mode in ("warn", "off", "enforce"):
        out = tmp_path / mode
        code = run_cli(
            "sweep", "--scenario", "fig4", "--set", "train.N=3",
            "--axis1", "train.modulation.amplitude=4,6",
            "--axis2", "rates.Gamma23=0,0.001,0.002", "--rates-mode", mode, "--out", str(out),
        )
        assert code == EXIT_OK
        rows[mode] = (out / "sweep.csv").read_bytes()
        err = capsys.readouterr().err.splitlines()
        warned[mode] = [line for line in err if line.startswith("warning:")]
    # warn runs every point like off and prints one line per violating point,
    # naming the point: both amplitudes repeat each deviation
    assert warned == {
        "warn": [
            f"warning: train.modulation.amplitude={a} rates.Gamma23={d}: {violation.format(d)}"
            for a in ("4", "6")
            for d in ("0.001", "0.002")
        ],
        "off": [],
        "enforce": [],
    }
    assert rows["warn"] == rows["off"]
    assert all(row.endswith(",") for row in rows["off"].decode().splitlines()[1:])  # all ran
    errors = [line.split(",")[4] for line in rows["enforce"].decode().splitlines()[1:]]
    assert errors == 2 * [
        "", *(f"RateRelationViolation: {violation.format(d)}" for d in ("0.001", "0.002"))
    ]


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


def test_sweep_records_an_overflowing_period_as_an_error_row(tmp_path, monkeypatch):
    monkeypatch.setenv("COMB_LAMBDA_THREADS", "1")
    code = run_cli(
        "sweep", "--scenario", "fig4", "--set", "train.N=3",
        "--axis1", "train.T=1e150,1e155", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    good, bad = (row.split(",") for row in (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:])
    assert good[0] == "1e150" and good[3] == ""
    assert bad[:3] == ["1e155", "nan", "nan"]
    assert bad[3] == "ConfigError: key 'train.T': the period T = 1e+155 overflows the interpulse rotation angles"


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


def test_sweep_warnings_are_in_grid_order_for_any_worker_count(tmp_path, monkeypatch, capsys):
    """Each point's warning travels with its row, so the stderr of two workers is
    that of one, byte for byte."""
    deviations = ("0.001", "0.002", "0.003", "0.004")
    argv = (
        "sweep", "--scenario", "fig4", "--set", "train.N=3",
        "--axis1", f"rates.Gamma23={','.join(deviations)}", "--rates-mode", "warn",
    )
    err = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("COMB_LAMBDA_THREADS", workers)
        assert run_cli(*argv, "--out", str(tmp_path / workers)) == EXIT_OK
        err[workers] = capsys.readouterr().err
    assert err["2"] == err["1"] == "".join(
        f"warning: rates.Gamma23={d}: Gamma23 - (Gamma21 + Gamma31) = {d}; "
        "the additive dephasing relation is violated\n"
        for d in deviations
    )


def test_sweep_shows_each_point_library_warning_for_any_worker_count(tmp_path, monkeypatch, capsys):
    """Every point shows its own short-period warning as one line prefixed with
    its assignments, whatever its worker process has shown before, so the
    stderr of two workers is that of one, byte for byte."""
    pulses = ("2", "3", "4", "5", "6", "7")
    argv = ("sweep", "--scenario", "fig6sin", "--set", "train.T=5", "--axis1", f"train.N={','.join(pulses)}")
    err = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("COMB_LAMBDA_THREADS", workers)
        assert run_cli(*argv, "--out", str(tmp_path / workers)) == EXIT_OK
        err[workers] = capsys.readouterr().err
    assert err["2"] == err["1"] == "".join(
        f"warning: train.N={n}: pulse period T = 5 is below 50*tau = 9.9; "
        "window truncation tails start to matter\n"
        for n in pulses
    )


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


@pytest.mark.parametrize("count", [10**12, 10_001])
def test_sweep_axis_count_is_capped_before_the_axis_is_built(tmp_path, capsys, count):
    code = run_cli(
        "sweep", "--scenario", "fig4",
        "--axis1", f"train.N=linspace(1,2,{count})", "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    assert f"count {count} is outside 1..10000" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


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


def test_spectrum_builds_one_train_and_warns_once(tmp_path, capsys):
    """The surrogate is the configured train cut in the tree, not a second build."""
    code = run_cli(
        "spectrum", "--scenario", "fig6sin", "--set", "train.T=2.2", "--set", "train.N=40",
        "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: pulse period T = 2.2 is below 50*tau = 9.9; window truncation tails start to matter\n"
    )


def test_spectrum_synthesizes_the_configured_window(tmp_path):
    spectra = []
    for sigmas in ("3", "6"):
        out = tmp_path / sigmas
        code = run_cli(
            "spectrum", "--scenario", "fig4", *DESK_SETTINGS,
            "--set", f"integrator.window_sigmas={sigmas}", "--threshold", "0.02", "--out", str(out),
        )
        assert code == EXIT_OK
        spectra.append((out / "spectrum.csv").read_bytes())
    assert spectra[0] != spectra[1]


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
    # carry maps each carried pulse end by one matrix-vector product, the only
    # np.dot in dynamics with a vector operand, so counting them bounds the carry
    carried = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def dot(self, a, b, *args, **kwargs):
            if np.ndim(b) == 1:
                carried.append(1)
            return np.dot(a, b, *args, **kwargs)

    monkeypatch.setattr(dynamics, "np", CountingNumpy())
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
    assert 21 + 1 <= len(carried) <= 21 + 1 + block
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--scenario", "fig3", "--set", "train.N=6400"),
        ("sweep", "--scenario", "fig4", "--axis1", "train.N=2,3"),
        ("spectrum", "--scenario", "fig6sin"),
        ("calibrate-fig4", "--quick"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv):
    """An --out below a regular file exits 2 before the verb propagates, scans
    or synthesizes anything, and nothing is written."""
    monkeypatch.setenv("COMB_LAMBDA_THREADS", "1")  # sweep points run in this process
    work = []
    for name in ("propagate", "calibrate_fig4", "_surrogate_spectrum"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: work.append(name))
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    assert run_cli(*argv, "--out", str(blocker / "x")) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: --out {blocker / 'x'}: {blocker} is not a writable directory\n"
    )
    assert work == []
    assert [path.name for path in tmp_path.iterdir()] == ["file"] and blocker.read_bytes() == b""


# --- validate-rates verb ------------------------------------------------------------


def _argparse_exit(capsys, *argv) -> str:
    """Run argv, which argparse must refuse with exit 2; its stderr."""
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_validate_rates_verb(capsys):
    """The verdict of a scenario's rates, overridden with --set."""
    for gamma31, code, out in (
        ("0", EXIT_OK, "deviation = 0\nverdict = valid\n"),
        ("0.001", EXIT_RATES, "deviation = -0.001\nverdict = violation\n"),
    ):
        assert run_cli("validate-rates", "--scenario", "fig5", "--set", f"rates.Gamma31={gamma31}") == code
        assert capsys.readouterr().out == out


def test_validate_rates_verb_scenario_and_modes(capsys):
    """--rates-mode is applied after the verdict: the same stdout in every mode."""
    assert run_cli("validate-rates", "--scenario", "fig6cos") == EXIT_OK
    violation = "Gamma23 - (Gamma21 + Gamma31) = -0.001; the additive dephasing relation is violated"
    expected = {
        "enforce": (EXIT_RATES, f"rate relation violated: {violation}\n"),
        "warn": (EXIT_OK, f"warning: {violation}\n"),
        "off": (EXIT_OK, ""),
    }
    capsys.readouterr()
    for mode, (code, err) in expected.items():
        argv = ("validate-rates", "--scenario", "fig5", "--set", "rates.Gamma31=0.001", "--rates-mode", mode)
        assert run_cli(*argv) == code
        assert capsys.readouterr() == ("deviation = -0.001\nverdict = violation\n", err)


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
    """A removed rate flag exits 2 as an unrecognized argument; the same value
    given as --set rates.NAME exits 2 naming the key.  Neither prints a verdict."""
    err = _argparse_exit(capsys, "validate-rates", "--scenario", "fig5", f"{flag}={value}")
    assert f"unrecognized arguments: {flag}={value}" in err
    key = f"rates.{flag[2:]}"
    assert run_cli("validate-rates", "--scenario", "fig5", "--set", f"{key}={value}") == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"configuration error: key {key!r}: expected a finite number, got {value!r}\n"
    )


@pytest.mark.parametrize("flags", [("--Gamma31", "0.001"), ("--gamma21=0", "--Gamma23", "0")])
def test_validate_rates_rejects_rate_flags_with_a_scenario(capsys, flags):
    """The rate flags are gone: given with --scenario they exit 2, not dropped."""
    err = _argparse_exit(capsys, "validate-rates", "--scenario", "fig5", *flags)
    assert f"unrecognized arguments: {' '.join(flags)}" in err


def test_validate_rates_rejects_set_without_a_scenario(capsys):
    """--scenario is required, so --set alone exits 2 and is not dropped."""
    err = _argparse_exit(capsys, "validate-rates", "--set", "rates.Gamma31=0.5")
    assert "the following arguments are required: --scenario" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param((), "the following arguments are required: --scenario", id="no_scenario"),
        pytest.param(("--scenario", "fig5", "--mode", "warn"), "unrecognized arguments: --mode warn", id="mode"),
        pytest.param(("--Gamma31", "0.001"), "the following arguments are required: --scenario", id="rate_flag"),
    ],
)
def test_validate_rates_old_spellings_exit_2(capsys, argv, message):
    """validate-rates reads rates only through --scenario/--set and its
    policy only from --rates-mode, like run and sweep."""
    assert message in _argparse_exit(capsys, "validate-rates", *argv)


# Each case exits 2 before any propagation, and its stderr names the input.
@pytest.mark.parametrize(
    "argv, env, message",
    [
        pytest.param(
            ("run", "--scenario", "fig4", "--set", "integrator.interpulse_phases=maybe"), {},
            "key 'integrator.interpulse_phases': expected true/false, got 'maybe'", id="bool",
        ),
        pytest.param(
            ("run", "--scenario", "fig4", "--set", "train.N=1.5"), {},
            "key 'train.N': expected an integer, got '1.5'", id="int",
        ),
        pytest.param(
            ("run", "--scenario", "fig4", "--set", "nosuch.T=1"), {},
            "unknown configuration key 'nosuch.T'", id="unknown_section",
        ),
        pytest.param(
            ("run", "--scenario", "fig4", "--set", "train.tau=-1"), {},
            "tau must be positive, got -1.0", id="domain_value",
        ),
        # omega31 is derived from omega21 and omega32; the field has no amplitude of its own
        *(
            pytest.param(
                ("run", "--scenario", "fig4", "--set", f"{key}=1"), {},
                f"unknown configuration key {key!r}", id=f"removed_key_{key}",
            )
            for key in ("system.omega31", "train.E0", "train.envelope_prefactor")
        ),
        # spectrum.csv is written by the spectrum verb alone
        pytest.param(
            ("run", "--scenario", "fig6sin", "--emit", "timeseries,spectrum"), {},
            "unknown emit target 'spectrum', expected one of ('timeseries', 'summary', 'plotdata')",
            id="emit_spectrum",
        ),
        pytest.param(
            ("sweep", "--scenario", "fig4", "--axis1", "train.T=linspace(a,2,3)"), {},
            "axis 'train.T=linspace(a,2,3)': could not convert string to float: 'a'", id="linspace",
        ),
        pytest.param(
            ("sweep", "--scenario", "fig4", "--axis1", "train.T=,"), {},
            "axis 'train.T=,' lists no values", id="empty_axis",
        ),
        # earlier releases ran the unmodified scenario at every value, under an empty label
        pytest.param(
            ("sweep", "--scenario", "fig4", "--set", "train.N=2", "--axis1", "+=1,2"), {},
            "axis '+=1,2' is not of the form key=values", id="axis_without_key",
        ),
        # a key swept twice would run every point at its last value under its first value's label
        pytest.param(
            ("sweep", "--scenario", "fig4", "--axis1", "train.T=14005,14006", "--axis2", "train.T=14007"), {},
            "sweep key 'train.T' is given more than once", id="sweep_key_across_axes",
        ),
        pytest.param(
            ("sweep", "--scenario", "fig4", "--axis1", "train.T+train.T=14005,14006"), {},
            "sweep key 'train.T' is given more than once", id="sweep_key_within_an_axis",
        ),
        pytest.param(
            ("sweep", "--scenario", "fig4", "--axis1", "train.tau=0.2", "--axis2", "train.T+train.tau=14005"), {},
            "sweep key 'train.tau' is given more than once", id="sweep_key_joined",
        ),
        pytest.param(
            ("sweep", "--scenario", "fig4", "--axis1", "train.T=14005,14006"), {"COMB_LAMBDA_THREADS": "0"},
            "COMB_LAMBDA_THREADS must be at least 1, got 0", id="threads",
        ),
        pytest.param(
            ("spectrum", "--scenario", "fig6sin", "--set", "train.N=1"), {},
            "need at least 3 peaks to measure spacings, got 2; "
            "the analyzed train has no comb structure to verify", id="spectrum_peaks",
        ),
    ],
)
def test_configuration_errors_exit_2_naming_the_input(tmp_path, monkeypatch, capsys, argv, env, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


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
        "final_yield = 0.97349130292458408\n"
        "transfer_pulse = 109\n"
        "max_rho22 = 0.12120990683782989\n"
    )
    assert (tmp_path / "calibration.csv").read_bytes() == (
        b"tau,period,peak_yield,peak_pulse,transfer_pulse\n"
        b"0.19800000000000001,14005.2539,0.9734913029245833,118,109\n"
    )


def test_calibrate_full_text_is_pinned(tmp_path, capsys):
    """The full scan's printout and its 14-row calibration.csv, byte for byte.

    Pins every scanned point, so the polish grid of durations and each
    period refinement; the tie rule has its own test in test_scenarios.py.
    Same BLAS caveat as the quick pin.
    """
    assert run_cli("calibrate-fig4", "--out", str(tmp_path)) == EXIT_OK
    assert capsys.readouterr().out == (
        "tau = 0.19800000000000001\n"
        "period = 14005.2539\n"
        "n_pulses = 118\n"
        "final_yield = 0.97349130292458408\n"
        "transfer_pulse = 109\n"
        "max_rho22 = 0.12120990683782989\n"
    )
    assert (tmp_path / "calibration.csv").read_bytes() == (
        b"tau,period,peak_yield,peak_pulse,transfer_pulse\n"
        b"0.14000000000000001,14005.371599999999,0.064277744967908682,74,70\n"
        b"0.20999999999999999,14005.2613,0.90442522478117593,78,76\n"
        b"0.34999999999999998,14005.3989,0.60309806983754288,9,9\n"
        b"0.69999999999999996,14005.63565,0.44085349170988408,12,11\n"
        b"0.17999999999999999,14005.24295,0.998798620538488,226,200\n"
        b"0.186,14005.24605,0.9990907774906963,188,163\n"
        b"0.192,14005.249449999999,0.99277445068305692,149,139\n"
        b"0.19800000000000001,14005.2539,0.9734913029245833,118,109\n"
        b"0.20399999999999999,14005.2583,0.94014897149169696,95,93\n"
        b"0.216,14005.268700000001,0.87163040534904801,63,61\n"
        b"0.222,14005.271299999999,0.83984442493295575,54,53\n"
        b"0.22800000000000001,14005.33915,0.8709597927104259,27,26\n"
        b"0.23400000000000001,14005.3372,0.88873498517176108,26,25\n"
        b"0.23999999999999999,14005.335149999999,0.89391704427963581,25,24\n"
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


def test_readme_python_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


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


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_without_a_message(monkeypatch, subprocess_pythonpath, unbuffered):
    """A reader that closed stdout first is not a configuration error."""
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "combcool", "list-scenarios"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


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


# --- memory follows pulses, not samples -------------------------------------------


def test_run_with_every_emitter_never_forms_the_full_arrays(tmp_path, monkeypatch):
    """The writers and readouts read row blocks, pulse ends and the last rows."""
    with monkeypatch.context() as patch:
        patch.setattr(Trajectory, "_form_arrays", lambda self: pytest.fail("arrays formed"))
        emit = "timeseries,summary,plotdata"
        assert run_cli("run", "--scenario", "fig6sin", "--emit", emit, "--out", str(tmp_path)) == EXIT_OK
    traj = run_preset(get_preset("fig6sin"))
    columns = (traj.times, *traj.data.T, traj.data[:, :3].sum(axis=1))
    write_csv_reference(tmp_path / "ref.csv", cli.TIMESERIES_HEADER, columns)
    assert (tmp_path / "timeseries.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _run_peak_bytes(out: Path, n_pulses: int) -> int:
    """tracemalloc peak of a fig3 run with every file emitter, its window map built in the run."""
    dynamics._window_memo.clear()
    tracemalloc.start()
    try:
        emit = "timeseries,summary,plotdata"
        argv = ("--scenario", "fig3", "--set", f"train.N={n_pulses}", "--emit", emit, "--out", str(out))
        assert run_cli("run", *argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_follows_pulses_not_samples(tmp_path):
    """fig3 at 6400 pulses records 224,000 rows (18 MB as arrays) in under 10 MB;
    twice the pulses add under 2 MB."""
    peak = _run_peak_bytes(tmp_path / "a", 6400)
    doubled = _run_peak_bytes(tmp_path / "b", 12800)
    assert peak < 10e6
    assert doubled - peak < 2e6
