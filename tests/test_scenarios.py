"""Scenario tests: preset constants, expectations, preset runs, calibration."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import combcool.scenarios as sc
from combcool import dynamics
from combcool import (
    DecoherenceRates,
    IntegratorConfig,
    RateRelationViolation,
    Trajectory,
    steady_state_yield,
)

from helpers import staircase_stats_loop


# --- preset catalogue ---------------------------------------------------------


def test_preset_names_catalogue():
    assert sc.PRESET_NAMES == (
        "fig3",
        "fig4",
        "fig5",
        "fig5sp",
        "fig6sin",
        "fig6cos",
        "fig6std",
    )
    with pytest.raises(ValueError):
        sc.get_preset("fig7")


def test_weak_drive_geometry():
    p = sc.get_preset("fig3")
    assert p.sys.omega21 == pytest.approx(309.3 / 125.5)
    assert p.sys.omega32 == pytest.approx(434.8 / 125.5)
    assert p.sys.omega31 == pytest.approx(1.0)
    assert p.cfg.omega_L == pytest.approx(p.sys.omega32)  # resonant carrier
    assert p.cfg.tau == pytest.approx(0.3765)
    assert p.cfg.T == pytest.approx(25100.0)
    assert p.cfg.N == 3200
    assert p.cfg.rabi_peak == pytest.approx(1.26 / 125.5)
    assert p.cfg.modulation.kind == "none"
    assert not p.rates.any_nonzero
    assert not p.icfg.interpulse_phases


def test_strong_drive_geometry():
    p = sc.get_preset("fig4")
    assert p.sys.omega21 == pytest.approx(340.7 / 70.0)
    assert p.sys.omega32 == pytest.approx(410.7 / 70.0)
    assert p.cfg.tau == pytest.approx(0.198)
    assert p.cfg.T == pytest.approx(14005.253930)
    assert p.cfg.N == 118
    assert p.cfg.rabi_peak == pytest.approx(1.0)
    assert p.cfg.modulation.kind == "sine"
    assert p.cfg.modulation.amplitude == pytest.approx(4.0)
    assert p.cfg.modulation.frequency == pytest.approx(p.sys.omega21)
    assert not p.rates.any_nonzero
    assert p.icfg.interpulse_phases  # period acts as a physical detuning knob


def test_dephasing_presets_rates():
    p5 = sc.get_preset("fig5")
    assert p5.cfg.rabi_peak == pytest.approx(12.6 / 125.5)
    # fig5 carries collisional dephasing only
    assert p5.rates.gamma21 == 0.0
    assert p5.rates.gamma23 == 0.0
    assert p5.rates.Gamma21 == pytest.approx(0.001)
    assert p5.rates.Gamma31 == 0.0
    assert p5.rates.Gamma23 == pytest.approx(0.001)

    # fig5sp adds spontaneous emission on top of the same dephasing
    p5sp = sc.get_preset("fig5sp")
    assert p5sp.rates.gamma21 == pytest.approx(0.001)
    assert p5sp.rates.gamma23 == pytest.approx(0.001)
    assert p5sp.rates.Gamma21 == p5.rates.Gamma21
    assert p5sp.rates.Gamma23 == p5.rates.Gamma23
    assert p5sp.rho0 == p5.rho0
    assert p5sp.cfg == p5.cfg


def test_chirped_comparison_presets_share_rates_and_differ_in_shape():
    sin_p = sc.get_preset("fig6sin")
    cos_p = sc.get_preset("fig6cos")
    std_p = sc.get_preset("fig6std")
    rate = 0.001 * 125.5 / 70.0
    for p in (sin_p, cos_p, std_p):
        assert p.rates.gamma21 == pytest.approx(rate)
        assert p.rates.gamma23 == pytest.approx(rate)
        assert p.rates.Gamma21 == pytest.approx(rate)
        assert p.rates.Gamma23 == pytest.approx(rate)
        assert p.rates.Gamma31 == 0.0
        assert p.sys.omega21 == pytest.approx(340.7 / 70.0)
    assert sin_p.cfg.modulation.kind == "sine"
    assert cos_p.cfg.modulation.kind == "cosine"
    assert std_p.cfg.modulation.kind == "none"
    assert sin_p.cfg.T == pytest.approx(41.308)
    assert sin_p.cfg.N == 130
    assert cos_p.cfg.T == pytest.approx(14005.253930)
    assert std_p.cfg.T == pytest.approx(14005.253930)


def test_all_preset_rate_sets_satisfy_the_relation():
    for name in sc.PRESET_NAMES:
        report = sc.validate_rates(sc.get_preset(name).rates, sc.RateCheckMode.OFF)
        assert report.within_tolerance, name


# --- expectations ---------------------------------------------------------------


def test_expectation_band_and_bound_checks():
    band = sc.Expectation(
        quantity="final_yield", target=0.38, tolerance=0.05, provenance="reference"
    )
    lo, hi = band.bounds
    assert (lo, hi) == (pytest.approx(0.33), pytest.approx(0.43))
    assert band.check(0.38) and band.check(0.33) and band.check(0.43)
    assert not band.check(0.44)

    floor = sc.Expectation(quantity="final_yield", lo=0.95, provenance="reference")
    assert floor.check(0.951) and not floor.check(0.949)

    ceiling = sc.Expectation(quantity="max_rho22", hi=0.15, provenance="reference")
    assert ceiling.check(0.15) and not ceiling.check(0.1501)


def test_expectation_result_lines(preset_runs):
    results = sc.evaluate_expectations(sc.get_preset("fig4"), preset_runs("fig4"))
    assert len(results) == 3
    for result in results:
        assert result.passed
        line = result.line()
        assert line.startswith("expect.")
        assert "PASS" in line and "measured" in line


def test_measure_quantity_covers_all_quantities(preset_runs):
    traj = preset_runs("fig4")
    for quantity in sc.EXPECTATION_QUANTITIES:
        value = sc.measure_quantity(traj, quantity)
        assert np.isfinite(value)
    with pytest.raises(ValueError):
        sc.measure_quantity(traj, "nonsense")


# --- rate validation -------------------------------------------------------------


def test_validate_rates_worked_examples():
    ok1 = DecoherenceRates(Gamma21=0.001, Gamma31=0.0, Gamma23=0.001)
    ok2 = DecoherenceRates(Gamma21=0.001, Gamma31=0.001, Gamma23=0.002)
    bad = DecoherenceRates(Gamma21=0.001, Gamma31=0.001, Gamma23=0.001)

    assert sc.validate_rates(ok1, sc.RateCheckMode.ENFORCE).within_tolerance
    assert sc.validate_rates(ok2, sc.RateCheckMode.ENFORCE).within_tolerance

    with pytest.raises(RateRelationViolation):
        sc.validate_rates(bad, sc.RateCheckMode.ENFORCE)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        off = sc.validate_rates(bad, sc.RateCheckMode.OFF)
    assert not off.within_tolerance
    assert off.deviation == pytest.approx(-0.001)
    assert "violated" in off.message


# --- trajectory summaries -----------------------------------------------------------


def test_transfer_pulse_on_synthetic_staircase():
    times = np.linspace(0.0, 10.0, 11)
    data = np.zeros((11, 9))
    data[:, 2] = np.array([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.96, 0.97, 0.975, 0.98])
    data[:, 0] = 1.0 - data[:, 2]
    ends = np.arange(1, 11)  # ten pulses ending at samples 1..10
    traj = Trajectory.from_arrays(times, data, ends, metadata={})
    # final = 0.98, threshold 0.95*0.98 = 0.931: first pulse end at/above is
    # sample 7 -> pulse number 7 (1-based)
    assert sc.transfer_pulse(traj) == 7


def test_transfer_pulse_zero_yield_fallback():
    times = np.linspace(0.0, 3.0, 4)
    data = np.zeros((4, 9))
    data[:, 0] = 1.0
    traj = Trajectory.from_arrays(times, data, np.array([1, 2, 3]), metadata={})
    assert sc.transfer_pulse(traj) == 3


def test_transfer_pulse_negative_final_yield_falls_back_to_the_pulse_count():
    """A final target population below zero, as rounding leaves on an untransferred
    train, counts as nothing transferred: every earlier end exceeds 95% of it."""
    data = np.zeros((4, 9))
    data[:, 2] = [0.0, 0.1, 0.0, -1e-11]
    data[:, 0] = 1.0 - data[:, 2]
    traj = Trajectory.from_arrays(np.arange(4.0), data, np.arange(4), metadata={})
    assert sc.transfer_pulse(traj) == 4


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).view(np.uint64).tobytes()


def _readouts(traj) -> list[float]:
    """Every yield readout and expectation quantity of a trajectory."""
    values = [
        dynamics.quantum_yield(traj),
        steady_state_yield(traj),
        steady_state_yield(traj, trailing_fraction=0.5),
        steady_state_yield(traj, trailing_fraction=1.0),
        sc.transfer_pulse(traj),
    ]
    return values + [sc.measure_quantity(traj, q) for q in sc.EXPECTATION_QUANTITIES]


def _array_readouts(traj) -> list[float]:
    """The same readouts as plain expressions on the formed arrays."""
    def trailing(fraction):
        m = max(1, int(np.ceil(fraction * traj.n_samples)))
        return traj.rho33[-m:].mean()

    ends = traj.rho33[traj.pulse_end_indices]
    hits = np.nonzero(ends > 0.95 * ends[-1])[0]
    transfer = int(hits[0]) + 1 if ends[-1] > 0.0 else ends.size
    by_quantity = {
        "final_yield": traj.rho33[-1],
        "steady_yield": trailing(0.05),
        "max_rho22": traj.metadata["diagnostics"]["max_rho22"],
        "transfer_pulse": transfer,
        "final_rho11": traj.data[-1, 0],
        "final_coherence13": abs(complex(*traj.data[-1, 5:7])),
    }
    values = [traj.rho33[-1], trailing(0.05), trailing(0.5), trailing(1.0), transfer]
    return values + [by_quantity[q] for q in sc.EXPECTATION_QUANTITIES]


@pytest.mark.parametrize("name", sc.PRESET_NAMES)
def test_readouts_from_pulse_states_equal_array_readouts(monkeypatch, name):
    """A propagated trajectory reads its rows block by block and its pulse
    ends from the carry, bit for bit what the formed arrays hold."""
    traj = sc.run_preset(sc.get_preset(name))
    with monkeypatch.context() as patch:
        patch.setattr(Trajectory, "_form_arrays", lambda self: pytest.fail("arrays formed"))
        blocks = list(traj.row_blocks())
        pulse_ends = traj.pulse_ends
        readouts = _readouts(traj)
    times, data = traj.times, traj.data
    assert _bits(np.concatenate([t for t, _ in blocks])) == _bits(times)
    assert _bits(np.concatenate([d for _, d in blocks])) == _bits(data)
    assert _bits(pulse_ends) == _bits(data[traj.pulse_end_indices])
    diag = traj.metadata["diagnostics"]
    assert _bits([diag["t_begin"], diag["t_end"]]) == _bits(times[[0, -1]])
    arrays = Trajectory.from_arrays(times, data, traj.pulse_end_indices, traj.metadata)
    assert _bits(_readouts(arrays)) == _bits(readouts)
    assert _bits(_array_readouts(arrays)) == _bits(readouts)


# --- preset runs ---------------------------------------------------------------------


def test_preset_runs_are_deterministic():
    a = sc.run_preset(sc.get_preset("fig6sin"))
    b = sc.run_preset(sc.get_preset("fig6sin"))
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.times, b.times)


def test_fig4_hits_quality_gates(preset_runs):
    traj = preset_runs("fig4")
    assert traj.rho33[-1] == pytest.approx(0.973591, abs=1e-4)
    assert sc.transfer_pulse(traj) == 109
    assert traj.metadata["diagnostics"]["max_rho22"] == pytest.approx(0.1212, abs=1e-3)


def test_fig3_weak_ladder_excitation(preset_runs):
    traj = preset_runs("fig3")
    assert traj.metadata["diagnostics"]["max_rho22"] == pytest.approx(0.4911, abs=5e-3)
    # resonant coherent accumulation without decoherence leaves |3> empty
    assert traj.rho33[-1] < 1e-3


def test_dephasing_locks_in_transfer(preset_runs):
    """Collisional dephasing converts reversible Raman oscillation into
    irreversible accumulation: the decohered run settles (steady ~= final)
    at a much higher final yield, while the closed twin keeps oscillating
    and retains almost nothing at the end of the same train."""
    p5 = sc.get_preset("fig5")
    decohered = preset_runs("fig5")
    closed = sc.run_preset(replace(p5, rates=DecoherenceRates.none(), expected=()))

    assert abs(steady_state_yield(decohered) - decohered.rho33[-1]) < 0.01
    assert abs(steady_state_yield(closed) - closed.rho33[-1]) > 0.1
    assert decohered.rho33[-1] > closed.rho33[-1] + 0.2


def test_fig6sin_yield_needs_its_rates(preset_runs):
    """Without its rates the fig6sin train transfers almost nothing: pulse-end
    rho33 stays below 0.01 at every one of its 130 pulses, against the
    preset's 0.924."""
    closed = sc.run_preset(replace(sc.get_preset("fig6sin"), rates=DecoherenceRates.none()))
    ends = closed.rho33[closed.pulse_end_indices]
    assert ends.size == 130
    assert ends.max() < 0.01
    assert preset_runs("fig6sin").rho33[-1] > 0.9


def test_spontaneous_emission_adds_yield(preset_runs):
    y5 = preset_runs("fig5").rho33[-1]
    y5sp = preset_runs("fig5sp").rho33[-1]
    assert y5 == pytest.approx(0.3417, abs=0.01)
    assert y5sp == pytest.approx(0.4709, abs=0.01)
    assert y5sp > y5


def test_cosine_chirp_produces_coherent_superposition(preset_runs):
    traj = preset_runs("fig6cos")
    final = traj.final_state
    assert final.rho11 == pytest.approx(0.4639, abs=0.01)
    assert final.rho33 == pytest.approx(0.4651, abs=0.01)
    assert abs(final.rho13) == pytest.approx(0.3771, abs=0.01)


@pytest.mark.parametrize(
    "gamma31, coherence13", [(0.0, 0.377), (1e-5, 0.267), (1e-4, 0.100)]
)
def test_fig6cos_large_coherence13_needs_gamma31_zero(gamma31, coherence13):
    """The end-of-run abs(rho13) of fig6cos is largest at Gamma31 = 0 and
    fails its 0.25 expectation at 1e-4; Gamma23 = Gamma21 + Gamma31 keeps
    the rate relation."""
    preset = sc.get_preset("fig6cos")
    rates = replace(preset.rates, Gamma31=gamma31, Gamma23=preset.rates.Gamma21 + gamma31)
    traj = sc.run_preset(replace(preset, rates=rates))
    value = sc.measure_quantity(traj, "final_coherence13")
    assert value == pytest.approx(coherence13, abs=0.005)
    (expectation,) = [e for e in preset.expected if e.quantity == "final_coherence13"]
    assert (value >= expectation.lo) == (gamma31 < 1e-4)


# --- calibration ----------------------------------------------------------------------


def test_calibration_smoke_reproduces_the_frozen_period(monkeypatch):
    builds = []
    build = dynamics._integrate_window

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    # every window build goes through the dynamics module, where the counter sits
    assert not hasattr(sc, "_integrate_window")
    monkeypatch.setattr(dynamics, "_integrate_window", counting_build)
    end_maps = []
    end_map = sc._window_end_map
    monkeypatch.setattr(sc, "_window_end_map", lambda *args: end_maps.append(args) or end_map(*args))
    # a fig4 run leaves the same window key in the memo (T and N are not in it)
    dynamics._window_memo.clear()
    result = sc.calibrate_fig4(quick=True)
    # the scan integrates its one pulse as an end map, without history; the
    # final propagate builds that pulse's full window map, the one build
    assert len(builds) == 1
    assert len(end_maps) == 1
    assert result.tau == pytest.approx(0.198)
    assert abs(result.period - sc.FIG4_PERIOD) < 0.005
    assert result.n_pulses == 118
    assert result.final_yield > 0.95
    assert 98 <= result.transfer_pulse <= 120
    assert result.max_rho22 < 0.15
    assert len(result.scanned) >= 1


@pytest.fixture(scope="module")
def strong_pulse_maps():
    """Single-pulse maps of the calibration, keyed by pulse duration."""
    sys_ = sc._strong_system()
    icfg = IntegratorConfig(interpulse_phases=True)
    return sys_, {tau: sc._single_pulse_map(tau, sys_, icfg) for tau in (0.198, 0.21)}


@pytest.mark.parametrize(
    "tau, period",
    [
        (0.198, sc.FIG4_PERIOD),
        (0.198, sc.FIG4_PERIOD + 0.5),
        (0.198, 14000.0),
        (0.21, sc.FIG4_PERIOD),
    ],
)
def test_staircase_stats_match_the_per_pulse_loop(strong_pulse_maps, tau, period):
    sys_, maps = strong_pulse_maps
    peak, peak_pulse, transfer = sc._staircase_stats(maps[tau], period, sys_, 260)
    ref_peak, ref_peak_pulse, ref_transfer = staircase_stats_loop(maps[tau], period, sys_, 260)
    assert abs(peak - ref_peak) < 1e-12
    assert peak_pulse == ref_peak_pulse
    assert transfer == ref_transfer


def test_calibration_full_scan_selects_the_frozen_point(monkeypatch):
    builds, end_maps = [], []
    build, end_map = dynamics._integrate_window, sc._window_end_map
    monkeypatch.setattr(dynamics, "_integrate_window", lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(sc, "_window_end_map", lambda *args: end_maps.append(args) or end_map(*args))
    dynamics._window_memo.clear()
    result = sc.calibrate_fig4()
    # 14 durations, each integrated as an end map only, then the final
    # propagate, the one full window build
    assert len(end_maps) == 14
    assert len(builds) == 1
    assert result.tau == pytest.approx(sc.FIG4_TAU, abs=1e-12)
    assert abs(result.period - sc.FIG4_PERIOD) < 0.005
    assert result.final_yield > 0.95
    assert 98 <= result.transfer_pulse <= 120


def test_calibration_ties_keep_the_first_scanned(monkeypatch):
    """With every candidate ranked equal, the first scanned period of the full
    phase wrap and the first duration of the grid win."""
    periods = []
    monkeypatch.setattr(sc, "_staircase_stats", lambda *args: periods.append(args[1]) or (0.99, 110, 105))
    monkeypatch.setattr(sc, "_single_pulse_map", lambda *args: np.eye(9))
    point = sc._refine_period(np.eye(9), 0.2, 14000.0, sc._strong_system(), 260)
    assert point == sc.CalibrationPoint(0.2, 14000.0, 0.99, 110, 105)
    # the full wrap, then the two refinements centred on the first period
    assert len(periods) == 126 + 101 + 41
    assert periods[126] == 14000.0 - 0.05 and periods[-1] == 14000.0 + 0.001
    result = sc.calibrate_fig4()
    assert (result.tau, result.period, result.n_pulses) == (0.14, 14000.0, 110)
    # the polish grid (+/- 0.03 in steps of 0.006) centred on the first duration
    assert [p.tau for p in result.scanned] == [
        0.14, 0.21, 0.35, 0.70, 0.11, 0.116, 0.122, 0.128, 0.134, 0.146, 0.152, 0.158, 0.164, 0.17
    ]


# --- input checks ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: sc.Expectation(quantity="final_yeld", lo=0.5),
            f"unknown quantity 'final_yeld', expected one of {sc.EXPECTATION_QUANTITIES}",
            id="quantity",
        ),
        pytest.param(
            lambda: sc.Expectation(quantity="final_yield", target=0.5),
            "target and tolerance must be given together",
            id="target_without_tolerance",
        ),
        pytest.param(
            lambda: sc.Expectation(quantity="final_yield", target=0.5, tolerance=0.1, hi=0.9),
            "give either a target band or explicit bounds, not both",
            id="band_and_bound",
        ),
        pytest.param(
            lambda: sc.Expectation(quantity="final_yield"),
            "expectation constrains nothing",
            id="no_constraint",
        ),
        pytest.param(
            lambda: sc.Expectation(quantity="final_yield", lo=0.5, provenance="guessed"),
            "unknown provenance 'guessed'",
            id="provenance",
        ),
        pytest.param(
            lambda: sc.transfer_pulse(Trajectory.from_arrays(np.arange(3.0), np.zeros((3, 9)), [])),
            "trajectory contains no completed pulses",
            id="transfer_pulse_without_pulses",
        ),
    ],
)
def test_scenario_input_checks_raise_their_message(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert type(raised.value) is ValueError and str(raised.value) == message
