"""Integrator tests: analytic oracles, invariants, convergence, guards."""

import itertools
import math
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcool import (
    DecoherenceRates,
    DensityMatrix,
    IntegratorConfig,
    LevelSystem,
    Modulation,
    PulseTrainConfig,
    TraceDrift,
    Trajectory,
    free_evolution,
    propagate,
    quantum_yield,
    steady_state_yield,
)
from combcool import dynamics
from combcool.dynamics import (
    _STEP_MAP_CHUNK,
    IntegrationError,
    NegativePopulation,
    _apply_free,
    _gap_map,
    _integrate_window,
    _interpulse_angles,
    _map_powers,
    _scan_states,
    _window_end_map,
    omega_max,
    resolve_step,
)
from combcool.scenarios import (
    CALIBRATION_PERIOD_BASE,
    _single_pulse_map,
    _strong_system,
    _strong_train,
    get_preset,
    run_preset,
)

from helpers import (
    DESK_OMEGA_L,
    DESK_OMEGA_MOD,
    apply_free_reference,
    desk_train,
    integrate_window_nested_reference,
    integrate_window_reference,
    lvn_rhs,
    map_powers_reference,
    propagate_direct_reference,
    propagate_reference,
    quiet_propagate,
    random_density_matrix,
    random_setup,
    scan_states_reference,
)

MIXED_RHO0 = DensityMatrix.from_matrix(
    np.array(
        [
            [0.6, 0.2 + 0.1j, -0.05j],
            [0.2 - 0.1j, 0.3, 0.1],
            [0.05j, 0.1, 0.1],
        ]
    )
)


# --- zero field reduces to free evolution ------------------------------------


def test_zero_field_matches_free_evolution_pointwise():
    sys_ = LevelSystem.from_transitions(3.0, 4.5)
    cfg = PulseTrainConfig(rabi_peak=0.0, omega_L=4.5, tau=0.3, T=20.0, N=2)
    rates = DecoherenceRates(gamma21=0.004, gamma23=0.002, Gamma21=0.003, Gamma31=0.001, Gamma23=0.004)
    traj = propagate(MIXED_RHO0, cfg, sys_, rates, IntegratorConfig())
    t0 = traj.times[0]
    picks = np.linspace(0, traj.n_samples - 1, 20).astype(int)
    for i in picks:
        expected = free_evolution(MIXED_RHO0, traj.times[i] - t0, rates)
        np.testing.assert_allclose(
            traj.data[i], expected.to_vector(), atol=1e-9, rtol=0.0
        )


# --- free evolution map -------------------------------------------------------


def test_free_evolution_composition_is_exact():
    rates = DecoherenceRates(gamma21=0.03, gamma23=0.01, Gamma21=0.02, Gamma31=0.005, Gamma23=0.025)
    one = free_evolution(free_evolution(MIXED_RHO0, 1.3, rates), 2.4, rates)
    two = free_evolution(MIXED_RHO0, 3.7, rates)
    np.testing.assert_allclose(one.to_vector(), two.to_vector(), atol=1e-14)


def test_free_evolution_population_bookkeeping():
    rates = DecoherenceRates(gamma21=0.03, gamma23=0.01)
    dt = 5.0
    out = free_evolution(MIXED_RHO0, dt, rates)
    total = rates.gamma2_total
    # excited state empties exponentially at the total rate
    assert out.rho22 == pytest.approx(MIXED_RHO0.rho22 * math.exp(-total * dt))
    # and the loss lands in 1 and 3 with branching gamma21 : gamma23
    gain1 = out.rho11 - MIXED_RHO0.rho11
    gain3 = out.rho33 - MIXED_RHO0.rho33
    assert gain1 / gain3 == pytest.approx(rates.gamma21 / rates.gamma23, rel=1e-12)
    assert gain1 + gain3 == pytest.approx(
        MIXED_RHO0.rho22 * (1.0 - math.exp(-total * dt)), rel=1e-12
    )
    # trace preserved exactly
    assert sum(out.populations) == pytest.approx(1.0, abs=1e-15)


def test_free_evolution_decays_coherences_monotonically():
    rates = DecoherenceRates(gamma21=0.02, gamma23=0.02, Gamma21=0.01, Gamma31=0.01, Gamma23=0.02)
    mags = []
    for dt in (0.0, 1.0, 2.0, 4.0):
        out = free_evolution(MIXED_RHO0, dt, rates)
        mags.append((abs(out.rho12), abs(out.rho13), abs(out.rho23)))
    for a, b in zip(mags, mags[1:]):
        assert all(x >= y for x, y in zip(a, b))
    with pytest.raises(ValueError):
        free_evolution(MIXED_RHO0, -1.0, rates)


def test_free_evolution_identity_without_rates():
    out = free_evolution(MIXED_RHO0, 7.0, DecoherenceRates.none())
    np.testing.assert_allclose(out.to_vector(), MIXED_RHO0.to_vector(), atol=0.0)


_GAP_ZERO = st.sampled_from([0.0, -0.0])
_GAP_ANGLES = st.one_of(st.none(), st.tuples(*[_GAP_ZERO | st.floats(-1e3, 1e3) for _ in range(3)]))
_GAP_RATES = st.sampled_from(
    [
        DecoherenceRates.none(),
        DecoherenceRates(gamma21=0.03, gamma23=0.01, Gamma21=0.02, Gamma31=0.005, Gamma23=0.025),
        DecoherenceRates(gamma21=0.0, gamma23=-0.0, Gamma21=0.02, Gamma31=-0.0, Gamma23=0.02),
        DecoherenceRates(gamma21=-0.0, gamma23=0.0, Gamma21=-0.0, Gamma31=0.0, Gamma23=-0.0),
    ]
)
_GAP_ENTRIES = _GAP_ZERO | st.sampled_from([5e-324, -5e-324, 1.1e-308, -2.2e-309]) | st.floats(-1e300, 1e300)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    dt=_GAP_ZERO | st.floats(0.0, 50.0),
    rates=_GAP_RATES,
    angles=_GAP_ANGLES,
    states=st.integers(0, 5).flatmap(
        lambda m: st.lists(_GAP_ENTRIES, min_size=9 * m, max_size=9 * m).map(lambda x: np.reshape(x, (m, 9)))
    ),
)
def test_gap_map_is_bitwise_the_per_row_map(dt, rates, angles, states):
    """G is the per-row map of the identity, bit for bit once -0.0 reads as
    0.0.  One product with it maps a state or a stack of them to within
    8 ulp of the state's largest entry (plus two of the smallest subnormal)
    of the per-row map, since each entry of G v sums at most two nonzero
    terms, each with factors of magnitude at most 1; without rates it gives
    the per-row map's bits, and a stack's rows get the bits of each state."""
    gap_map = _gap_map(dt, rates, angles)
    expected = apply_free_reference(np.eye(9), dt, rates, angles)
    assert gap_map.shape == (9, 9)
    assert np.array_equal((gap_map + 0.0).view(np.uint64), (expected + 0.0).view(np.uint64))
    for v in (*states, states):
        bound = 8 * np.finfo(float).eps * np.abs(v).max(axis=-1, initial=0.0, keepdims=True) + 1e-323
        before = v.copy()
        out = _apply_free(v, gap_map)
        expected = apply_free_reference(v.T, dt, rates, angles).T
        assert out.shape == v.shape and not np.shares_memory(out, v)
        assert v.tobytes() == before.tobytes()
        assert np.all(np.abs(out - expected) <= bound)
        if rates == DecoherenceRates.none():
            assert np.array_equal((out + 0.0).view(np.uint64), (expected + 0.0).view(np.uint64))
    stacked = _apply_free(states, gap_map)
    assert stacked.tobytes() == b"".join(_apply_free(v, gap_map).tobytes() for v in states)


# --- one-period map powers ------------------------------------------------------


def _unitary_map(rng: np.random.Generator) -> np.ndarray:
    """9x9 map of rho -> U rho U^dagger for a random 3x3 unitary U."""
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return np.column_stack(
        [
            DensityMatrix.from_matrix(u @ DensityMatrix.from_vector(e).matrix @ u.conj().T).to_vector()
            for e in np.eye(9)
        ]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 255, 256, 257, 260])
def test_map_powers_are_bitwise_the_concatenating_doubling(n):
    rng = np.random.default_rng(7)
    rates = DecoherenceRates(gamma21=0.002, gamma23=0.001, Gamma21=0.001, Gamma31=0.0005, Gamma23=0.0015)
    period_map = _gap_map(3.0, rates, (0.4, -2.2, 1.1)) @ _unitary_map(rng)
    v = random_density_matrix(rng).to_vector()
    rows = _map_powers(period_map, v, n)
    expected = map_powers_reference(period_map, v, n)
    assert rows.shape == (n, 9)
    assert rows.tobytes() == expected.tobytes()
    assert rows.flags.writeable
    assert not np.shares_memory(rows, _map_powers(period_map, v, n))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 260])
def test_map_powers_match_repeated_application(n):
    rng = np.random.default_rng(5)
    rates = DecoherenceRates(gamma21=0.002, gamma23=0.001, Gamma21=0.001, Gamma31=0.0005, Gamma23=0.0015)
    period_map = _gap_map(3.0, rates, (0.4, -2.2, 1.1)) @ _unitary_map(rng)
    v = random_density_matrix(rng).to_vector()
    rows = _map_powers(period_map, v, n)
    assert rows.shape == (n, 9)
    expected = v
    for k in range(n):
        np.testing.assert_allclose(rows[k], expected, atol=1e-12, rtol=0.0)
        expected = period_map @ expected


# --- resonant two-level transfer against the pulse-area law -------------------


def test_resonant_pulse_area_law():
    """A weak resonant pulse on 1<->2 transfers sin^2(area) of the population.

    Level 3 is detuned by 5 frequency units, far outside the pulse bandwidth,
    so the system is effectively two-level and the rotating-wave area law
    sin^2(rabi_peak * tau * sqrt(2*pi)) holds to much better than 2%.
    """
    sys_ = LevelSystem.from_transitions(30.0, 35.0)
    for rabi, tau in ((0.1, 2.0), (0.2, 2.0)):
        cfg = PulseTrainConfig(rabi_peak=rabi, omega_L=30.0, tau=tau, T=20.0 * tau, N=1)
        traj = propagate(
            DensityMatrix.pure(1), cfg, sys_, DecoherenceRates.none(), IntegratorConfig()
        )
        area = rabi * tau * math.sqrt(2.0 * math.pi)
        oracle = math.sin(area) ** 2
        assert traj.rho22[-1] == pytest.approx(oracle, rel=0.02)
        assert abs(traj.rho33[-1]) < 1e-6  # detuned level stays empty


# --- invariants over random configurations ------------------------------------


def test_trace_preserved_for_random_configurations():
    rng = np.random.default_rng(20260815)
    for _ in range(25):
        sys_, cfg, rates, rho0, icfg = random_setup(rng)
        traj = quiet_propagate(rho0, cfg, sys_, rates, icfg)
        assert traj.metadata["diagnostics"]["trace_max_drift"] <= 1e-6
        assert np.all(traj.data[:, :3] >= -1e-9)


def test_populations_stay_in_unit_interval():
    rng = np.random.default_rng(99)
    for _ in range(5):
        sys_, cfg, rates, rho0, icfg = random_setup(rng)
        traj = quiet_propagate(rho0, cfg, sys_, rates, icfg)
        assert np.all(traj.data[:, :3] <= 1.0 + 1e-9)


# --- interpulse phase handling -------------------------------------------------


def test_time_reference_modes_agree_when_period_is_commensurate():
    """If omega21*T, omega31*T, omega32*T are all multiples of 2*pi, the
    per-period coherence rotation is the identity and both time references
    give the same dynamics."""
    sys_ = LevelSystem.from_transitions(1.0, 2.0)
    cfg = PulseTrainConfig(rabi_peak=0.7, omega_L=2.0, tau=0.4, T=8.0 * math.pi, N=3)
    a = propagate(MIXED_RHO0, cfg, sys_, DecoherenceRates.none(), IntegratorConfig())
    b = propagate(
        MIXED_RHO0,
        cfg,
        sys_,
        DecoherenceRates.none(),
        IntegratorConfig(interpulse_phases=True),
    )
    np.testing.assert_allclose(a.data[-1], b.data[-1], atol=1e-12)


def test_time_reference_changes_offresonant_accumulation():
    """With an incommensurate period the two references must differ: the
    global-time reference rotates coherences between pulses, changing how
    amplitude accumulates over the train."""
    sys_ = LevelSystem.from_transitions(1.3, 2.3)
    cfg = PulseTrainConfig(rabi_peak=0.5, omega_L=2.3, tau=0.4, T=21.7, N=6)
    a = propagate(DensityMatrix.pure(1), cfg, sys_, DecoherenceRates.none(), IntegratorConfig())
    b = propagate(
        DensityMatrix.pure(1),
        cfg,
        sys_,
        DecoherenceRates.none(),
        IntegratorConfig(interpulse_phases=True),
    )
    assert np.max(np.abs(a.data[-1] - b.data[-1])) > 1e-3


# --- integrator bookkeeping -----------------------------------------------------


def test_pulse_map_reuse_matches_direct_integration():
    sys_ = LevelSystem.from_transitions(3.0, 4.0)
    rates = DecoherenceRates(gamma21=0.001, gamma23=0.001, Gamma21=0.001, Gamma31=0.0, Gamma23=0.001)
    cases = [
        (25.0, IntegratorConfig()),
        # T - 2w = 4.4e-16 with w = 6 tau: a gap the time grid cannot resolve
        (3.6, IntegratorConfig(gap_samples=0)),
        (3.6, IntegratorConfig()),
        (3.6, IntegratorConfig(interpulse_phases=True)),
    ]
    for (period, icfg), n_pulses in itertools.product(cases, (1, 2, 4)):
        # n_pulses: one window, first plus interior, and blocks of interiors
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the short period of 3.6
            cfg = PulseTrainConfig(rabi_peak=0.8, omega_L=4.0, tau=0.3, T=period, N=n_pulses)
            traj = propagate(MIXED_RHO0, cfg, sys_, rates, icfg)
        direct = propagate_direct_reference(MIXED_RHO0, cfg, sys_, rates, icfg)
        assert np.all(np.diff(traj.times) > 0.0)
        np.testing.assert_allclose(traj.data[-1], direct, atol=1e-10)


def test_early_stop_halts_converged_runs():
    sys_ = LevelSystem.from_transitions(3.0, 4.0)
    # no drive, strong decay: the state converges almost immediately
    cfg = PulseTrainConfig(rabi_peak=0.0, omega_L=4.0, tau=0.3, T=20.0, N=60)
    rates = DecoherenceRates(gamma21=0.5, gamma23=0.5, Gamma21=0.5, Gamma31=0.5, Gamma23=1.0)
    traj = propagate(
        DensityMatrix.pure(2),
        cfg,
        sys_,
        rates,
        IntegratorConfig(early_stop_pulses=5, early_stop_tol=1e-9),
    )
    diag = traj.metadata["diagnostics"]
    assert diag["early_stopped"]
    assert diag["pulses_run"] < 60


def test_trace_drift_guard_raises():
    sys_ = LevelSystem.from_transitions(4.0, 5.0)
    cfg = PulseTrainConfig(rabi_peak=1.0, omega_L=5.0, tau=0.3, T=16.0, N=2)
    with pytest.warns(UserWarning):
        cfg = PulseTrainConfig(rabi_peak=1.0, omega_L=5.0, tau=0.3, T=12.0, N=2)
    with pytest.raises(TraceDrift):
        propagate(
            DensityMatrix.pure(1),
            cfg,
            sys_,
            DecoherenceRates.none(),
            IntegratorConfig(trace_tol=1e-16),
        )


# --- per-pulse guards against the row-reduction oracle ------------------------


def _scan_outcome(scan, states, times, trace_tol=1e-6, pop_tol=1e-6):
    """Result bits of one scan, or the class and message of its guard error."""
    try:
        result = scan(states, times, trace_tol, pop_tol)
    except IntegrationError as exc:
        return type(exc), str(exc)
    return np.array(result).view(np.int64).tolist()


def _fig3_window_states():
    preset = get_preset("fig3")
    w = preset.icfg.window_sigmas * preset.cfg.tau
    step = resolve_step(preset.icfg, preset.cfg, preset.sys)
    s_grid, m_fine = _integrate_window(
        -w, w, step, preset.cfg, preset.sys, preset.rates, np.eye(9)
    )
    return m_fine @ MIXED_RHO0.to_vector(), 3.0 * preset.cfg.T + s_grid


@pytest.mark.parametrize("seed", range(6))
def test_scan_states_matches_row_reduction_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    states = rng.normal(size=(n, 9))
    states[:, :3] = rng.uniform(-1e-7, 1.0, size=(n, 3))
    states[:, :3] /= states[:, :3].sum(axis=1, keepdims=True)
    times = np.cumsum(rng.uniform(0.01, 1.0, size=n))
    expected = _scan_outcome(scan_states_reference, states, times)
    assert isinstance(expected, list)
    assert _scan_outcome(_scan_states, states, times) == expected


def test_scan_states_matches_row_reduction_on_a_fig3_window():
    states, times = _fig3_window_states()
    expected = _scan_outcome(scan_states_reference, states, times)
    assert isinstance(expected, list)
    assert _scan_outcome(_scan_states, states, times) == expected


@pytest.mark.parametrize(
    "row, pops, error",
    [
        (17, (0.7, 0.3 + 2e-6, 0.0), TraceDrift),
        (0, (1.0, 0.0, -1e-9), TraceDrift),  # drift of 1e-9 against trace_tol 1e-10
        (40, (0.6, 0.41, -0.01), NegativePopulation),
        (63, (1.02, -0.015, -0.005), NegativePopulation),
    ],
)
def test_scan_states_raises_like_row_reduction(row, pops, error):
    states, times = _fig3_window_states()
    states = states[:64].copy()
    states[row, :3] = pops
    trace_tol = 1e-10 if row == 0 else 1e-6
    expected = _scan_outcome(scan_states_reference, states, times, trace_tol)
    assert expected[0] is error
    assert f"t = {times[row]:g}" in expected[1]
    assert _scan_outcome(_scan_states, states, times, trace_tol) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scan_states_treats_non_finite_populations_as_trace_drift(bad):
    states = np.tile(DensityMatrix.pure(1).to_vector(), (8, 1))
    states[5, 1] = bad
    with pytest.raises(TraceDrift, match="at t = 5;"):
        _scan_states(states, np.arange(8.0), 1e-6, 1e-6)


def test_scan_states_without_times_names_no_time():
    states = np.tile(DensityMatrix.pure(1).to_vector(), (8, 1))
    states[5, 1] = -0.5
    with pytest.raises(TraceDrift, match=r"^\|trace - 1\| = 5\.000e-01 > 1e-06; "):
        _scan_states(states, None, 1e-6, 1e-6)


def test_nan_rate_stops_propagation_with_trace_drift():
    sys_ = LevelSystem.from_transitions(3.0, 4.0)
    cfg = PulseTrainConfig(rabi_peak=0.8, omega_L=4.0, tau=0.3, T=25.0, N=4)
    with pytest.raises(TraceDrift, match="nan"):
        propagate(
            DensityMatrix.pure(1), cfg, sys_, DecoherenceRates(gamma21=math.nan)
        )


# --- batched RK4 step maps against the per-step loop ---------------------------


def _preset_window(name):
    """Leading arguments of _integrate_window for a preset's first window."""
    preset = get_preset(name)
    w = preset.icfg.window_sigmas * preset.cfg.tau
    step = resolve_step(preset.icfg, preset.cfg, preset.sys)
    return (-w, w, step, preset.cfg, preset.sys, preset.rates)


def _assert_window_matches_reference(args, x0, atol=1e-13):
    s_grid, x_fine = _integrate_window(*args, x0)
    ref_grid, ref_fine = integrate_window_reference(*args, x0)
    assert s_grid.tobytes() == ref_grid.tobytes()
    assert x_fine.shape == ref_fine.shape
    np.testing.assert_allclose(x_fine, ref_fine, rtol=0.0, atol=atol)
    return s_grid


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_window_map_matches_per_step_rk4(name):
    _assert_window_matches_reference(_preset_window(name), np.eye(9))


def test_window_state_matches_per_step_rk4():
    _assert_window_matches_reference(_preset_window("fig4"), MIXED_RHO0.to_vector())


def test_desk_window_map_matches_per_step_rk4():
    _, cfg, sys_, rates, icfg = _desk_run(4)
    w = icfg.window_sigmas * cfg.tau
    args = (-w, w, resolve_step(icfg, cfg, sys_), cfg, sys_, rates)
    _assert_window_matches_reference(args, np.eye(9))


def test_desk_comb_window_map_matches_per_step_rk4():
    cfg = desk_train("sine")
    sys_ = LevelSystem.from_transitions(DESK_OMEGA_MOD, DESK_OMEGA_L)
    rates = DecoherenceRates(0.01, 0.02, 0.01, 0.005, 0.015)
    icfg = IntegratorConfig()
    w = icfg.window_sigmas * cfg.tau
    step = resolve_step(icfg, cfg, sys_)
    n = math.ceil(2.0 * w / step)
    assert n > 80 * _STEP_MAP_CHUNK  # many slices
    # Both orders round once per step, so over n steps they may part by n * eps.
    _assert_window_matches_reference(
        (-w, w, step, cfg, sys_, rates), np.eye(9), atol=n * np.finfo(float).eps
    )


@pytest.mark.parametrize(
    "n",
    [1, _STEP_MAP_CHUNK - 1, _STEP_MAP_CHUNK, _STEP_MAP_CHUNK + 1,
     8 * _STEP_MAP_CHUNK - 1, 8 * _STEP_MAP_CHUNK, 8 * _STEP_MAP_CHUNK + 1],
)
def test_window_map_chunk_boundaries(n):
    s_lo, _, step, *rest = _preset_window("fig4")
    args = (s_lo, s_lo + (n - 0.5) * step, step, *rest)
    s_grid = _assert_window_matches_reference(args, np.eye(9))
    assert s_grid.size == n + 1


def _calibration_window(tau):
    """Leading arguments of _integrate_window for one calibration pulse map."""
    cfg = _strong_train(CALIBRATION_PERIOD_BASE, 1, tau)
    sys_, icfg = _strong_system(), IntegratorConfig(interpulse_phases=True)
    w = icfg.window_sigmas * tau
    return (-w, w, resolve_step(icfg, cfg, sys_), cfg, sys_, DecoherenceRates.none())


def _window_with_steps(n):
    if n == "tau070":
        return _calibration_window(0.70)
    s_lo, _, step, *rest = _preset_window("fig4")
    return (s_lo, s_lo + (n - 0.5) * step, step, *rest)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 2047, 2048, 2049, "tau070"])
@pytest.mark.parametrize("x0", [np.eye(9), MIXED_RHO0.to_vector()], ids=["matrix", "vector"])
def test_sliced_window_build_is_bitwise_the_nested_chunk_loop(n, x0):
    args = _window_with_steps(n)
    s_grid, x_fine = _integrate_window(*args, x0)
    ref_grid, ref_fine = integrate_window_nested_reference(*args, x0)
    assert s_grid.tobytes() == ref_grid.tobytes()
    assert x_fine.shape == ref_fine.shape
    assert x_fine.tobytes() == ref_fine.tobytes()
    if n == "tau070":
        assert s_grid.size - 1 > 16 * _STEP_MAP_CHUNK


@pytest.mark.parametrize("n", [1, 255, 256, 257, 2047, 2048, 2049, "tau070"])
def test_window_end_map_is_bitwise_the_last_fine_state(n):
    args = _window_with_steps(n)
    end = _window_end_map(*args)
    assert end.shape == (9, 9)
    assert end.tobytes() == _integrate_window(*args, np.eye(9))[1][-1].tobytes()


def test_calibration_pulse_map_holds_no_window_history():
    """The tau = 0.70 pulse map peaks under 2 MB (a full window build with its
    4930 fine states peaks at 4.6 MB) and leaves propagate's memo alone."""
    sys_, icfg = _strong_system(), IntegratorConfig(interpulse_phases=True)
    _single_pulse_map(0.21, sys_, icfg)  # first call pays for any lazy set-up
    dynamics._window_memo.clear()
    tracemalloc.start()
    try:
        pulse_map = _single_pulse_map(0.70, sys_, icfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pulse_map.shape == (9, 9)
    assert peak <= 2_000_000
    assert not dynamics._window_memo


@pytest.mark.parametrize("window", ["fig4", "tau070"])
def test_window_build_holds_under_2_mb_beyond_its_outputs(window):
    args = _preset_window("fig4") if window == "fig4" else _calibration_window(0.70)
    _integrate_window(*args, np.eye(9))  # first call pays for any lazy set-up
    tracemalloc.start()
    try:
        s_grid, m_fine = _integrate_window(*args, np.eye(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - s_grid.nbytes - m_fine.nbytes <= 2_000_000


# --- pulse blocks against the per-pulse map loop --------------------------------


def _desk_run(n_pulses, period=25.0, **icfg_fields):
    sys_ = LevelSystem.from_transitions(3.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = PulseTrainConfig(rabi_peak=0.8, omega_L=4.0, tau=0.3, T=period, N=n_pulses)
    rates = DecoherenceRates(gamma21=0.001, gamma23=0.001, Gamma21=0.001, Gamma31=0.0, Gamma23=0.001)
    return MIXED_RHO0, cfg, sys_, rates, IntegratorConfig(**icfg_fields)


def _set_block_pulses(monkeypatch, cfg, sys_, icfg, pulses):
    """Shrink the byte budget so interior pulses run `pulses` to a block."""
    w = icfg.window_sigmas * cfg.tau
    steps = math.ceil((w - max(-w, w - cfg.T)) / resolve_step(icfg, cfg, sys_))
    monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 72 * (steps + 1) * pulses)


def _assert_matches_pulse_loop(rho0, cfg, sys_, rates, icfg):
    traj = quiet_propagate(rho0, cfg, sys_, rates, icfg)
    times, data, ends, pulses_run, stopped = propagate_reference(rho0, cfg, sys_, rates, icfg)
    assert traj.times.tobytes() == times.tobytes()
    np.testing.assert_array_equal(traj.pulse_end_indices, ends)
    diag = traj.metadata["diagnostics"]
    assert (diag["pulses_run"], diag["early_stopped"]) == (pulses_run, stopped)
    np.testing.assert_allclose(traj.data, data, rtol=0.0, atol=1e-10)
    return traj


# "N" sets the pulse count (15 by default); the other keys are IntegratorConfig
# fields.  With N = 1 the first block is also the last, and with N = 2 the
# only later pulse is the last: the one cut drops the gap samples of both.
@pytest.mark.parametrize(
    "period, icfg_fields",
    [
        (25.0, {}),
        (25.0, {"gap_samples": 0}),
        (25.0, {"gap_samples": 3, "interpulse_phases": True}),
        (3.3, {}),  # windows overlap: no gap, later windows start where the last ended
        (3.3, {"interpulse_phases": True}),
        (25.0, {"N": 1, "gap_samples": 0}),
        (25.0, {"N": 1, "gap_samples": 2}),
        (3.3, {"N": 1}),
        (25.0, {"N": 2, "gap_samples": 0}),
        (25.0, {"N": 2, "gap_samples": 2}),
        (3.3, {"N": 2}),
    ],
)
def test_pulse_blocks_match_per_pulse_loop(monkeypatch, period, icfg_fields):
    fields = dict(icfg_fields)
    n_pulses = fields.pop("N", 15)
    run = _desk_run(n_pulses, period, **fields)
    _set_block_pulses(monkeypatch, run[1], run[2], run[4], 4)  # blocks 1+4+4+4+2 at N = 15
    traj = _assert_matches_pulse_loop(*run)
    assert traj.metadata["diagnostics"]["pulses_run"] == n_pulses


def test_early_stop_fires_mid_block_like_per_pulse_loop(monkeypatch):
    sys_ = LevelSystem.from_transitions(3.0, 4.0)
    cfg = PulseTrainConfig(rabi_peak=0.0, omega_L=4.0, tau=0.3, T=20.0, N=60)
    rates = DecoherenceRates(gamma21=0.5, gamma23=0.5, Gamma21=0.5, Gamma31=0.5, Gamma23=1.0)
    icfg = IntegratorConfig(early_stop_pulses=5, early_stop_tol=1e-9)
    _set_block_pulses(monkeypatch, cfg, sys_, icfg, 4)
    stop = propagate_reference(DensityMatrix.pure(2), cfg, sys_, rates, icfg)[3]
    assert 5 <= stop - 1 < 8  # the stopping pulse is inside the block 5..8, not its end
    traj = _assert_matches_pulse_loop(DensityMatrix.pure(2), cfg, sys_, rates, icfg)
    assert traj.metadata["diagnostics"]["early_stopped"]
    assert traj.pulse_end_indices[-1] == traj.n_samples - 1


@pytest.mark.parametrize("name", ["fig4", "fig6cos"])
def test_preset_pulse_blocks_match_per_pulse_loop(name):
    preset = get_preset(name)
    _assert_matches_pulse_loop(preset.rho0, preset.cfg, preset.sys, preset.rates, preset.icfg)


@pytest.mark.parametrize("phases", [False, True])
def test_pulse_end_row_is_the_state_the_gap_map_acts_on(monkeypatch, phases):
    """Each later pulse's first row (its start, the window map's first row
    being the identity) is the gap map of the pulse end before it, formed
    as one product over the ends, as the carry's blocks form them."""
    rho0, cfg, sys_, rates, icfg = _desk_run(15, interpulse_phases=phases)
    _set_block_pulses(monkeypatch, cfg, sys_, icfg, 4)
    traj = quiet_propagate(rho0, cfg, sys_, rates, icfg)
    gap = cfg.T - 2.0 * icfg.window_sigmas * cfg.tau
    angles = _interpulse_angles(cfg.T, sys_) if phases else None
    ends = traj.pulse_end_indices[:-1]
    carried = _apply_free(traj.data[ends], _gap_map(gap, rates, angles))
    assert carried.tobytes() == traj.data[ends + icfg.gap_samples + 1].tobytes()


@pytest.mark.parametrize("period, phases", [(25.0, False), (25.0, True), (3.3, True)])
def test_carry_crosses_every_gap_on_the_period_map(monkeypatch, period, phases):
    """The carry maps each pulse end by P = M G, with G formed once as a 9x9
    matrix, and each block's scan forms its pulse starts by one product of
    the ends before them with G.  A 15-pulse train in blocks of 4 (1 + 4 +
    4 + 4 + 2) applies the gap map four times, once per later block, not
    once per crossing (14); with 3.3 the windows leave no gap, but the
    coherences still turn."""
    run = _desk_run(15, period, interpulse_phases=phases)
    _set_block_pulses(monkeypatch, run[1], run[2], run[4], 4)
    shapes = []
    apply_free = dynamics._apply_free
    monkeypatch.setattr(dynamics, "_apply_free", lambda v, g: shapes.append(v.shape) or apply_free(v, g))
    quiet_propagate(*run)
    assert shapes == [(4, 9), (4, 9), (4, 9), (2, 9)]


def test_scan_and_rows_form_pulse_starts_in_one_place(monkeypatch):
    run = _desk_run(15, gap_samples=3, interpulse_phases=True)
    _set_block_pulses(monkeypatch, run[1], run[2], run[4], 4)
    blocks = []
    pulse_starts = dynamics._pulse_starts
    monkeypatch.setattr(dynamics, "_pulse_starts", lambda *args: blocks.append(1) or pulse_starts(*args))
    traj = quiet_propagate(*run)
    assert len(blocks) == 5  # the scan of each block
    traj.data
    assert len(blocks) == 10  # and the row former of each block


def test_guard_names_the_first_failing_pulse_of_a_block(monkeypatch):
    rho0, cfg, sys_, rates, icfg = _desk_run(15)
    _set_block_pulses(monkeypatch, cfg, sys_, icfg, 4)
    generator = dynamics._generator_matrices

    def leaky_generator(*args):
        L = generator(*args)
        L[:, 1, 1] -= 1e-7  # rho22 leaks out of the trace at a known rate
        return L

    monkeypatch.setattr(dynamics, "_generator_matrices", leaky_generator)
    loose = replace(icfg, trace_tol=1.0)
    data, ends = propagate_reference(rho0, cfg, sys_, rates, loose)[1:3]
    drifts = np.abs(data[ends, :3].sum(axis=1) - 1.0)
    assert np.all(np.diff(drifts) > 0)
    # pulse 6 is the second pulse of the block 5..8
    tight = replace(icfg, trace_tol=math.sqrt(drifts[5] * drifts[6]))
    with pytest.raises(TraceDrift) as expected:
        propagate_reference(rho0, cfg, sys_, rates, tight)
    with pytest.raises(TraceDrift) as raised:
        propagate(rho0, cfg, sys_, rates, tight)
    assert str(raised.value) == str(expected.value)
    assert f"t = {6 * cfg.T + icfg.window_sigmas * cfg.tau:g};" in str(raised.value)


@pytest.mark.parametrize("pulses", [1, 2, 3, 5, 8])
def test_early_stop_carries_the_stable_run_across_blocks(monkeypatch, pulses):
    # with blocks shorter than the five stable pulses the run crosses a block edge
    sys_ = LevelSystem.from_transitions(3.0, 4.0)
    cfg = PulseTrainConfig(rabi_peak=0.0, omega_L=4.0, tau=0.3, T=20.0, N=60)
    rates = DecoherenceRates(gamma21=0.5, gamma23=0.5, Gamma21=0.5, Gamma31=0.5, Gamma23=1.0)
    icfg = IntegratorConfig(early_stop_pulses=5, early_stop_tol=1e-9)
    _set_block_pulses(monkeypatch, cfg, sys_, icfg, pulses)
    traj = _assert_matches_pulse_loop(DensityMatrix.pure(2), cfg, sys_, rates, icfg)
    assert traj.metadata["diagnostics"]["early_stopped"]


@pytest.mark.parametrize("pulses", [1, 4])
def test_early_stop_run_starts_after_pulse_0(monkeypatch, pulses):
    # rho0 is stationary, so every pulse end equals the one before it; pulse 0's
    # end has none before it, and the run of three stable ends closes at pulse 3
    sys_ = LevelSystem.from_transitions(3.0, 4.0)
    cfg = PulseTrainConfig(rabi_peak=0.0, omega_L=4.0, tau=0.3, T=20.0, N=60)
    icfg = IntegratorConfig(early_stop_pulses=3)
    _set_block_pulses(monkeypatch, cfg, sys_, icfg, pulses)
    traj = _assert_matches_pulse_loop(DensityMatrix.pure(1), cfg, sys_, DecoherenceRates.none(), icfg)
    diag = traj.metadata["diagnostics"]
    assert (diag["pulses_run"], diag["early_stopped"]) == (4, True)


def test_fig5sp_stops_at_pulse_703(preset_runs):
    diag = preset_runs("fig5sp").metadata["diagnostics"]
    assert (diag["pulses_run"], diag["early_stopped"]) == (703, True)


def test_guard_failure_after_the_full_carry_warns_nothing():
    # fig5 fails at its 66th pulse of 3200; the scan inside the carry raises there
    preset = get_preset("fig5")
    icfg = replace(preset.icfg, trace_tol=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceDrift, match=r"at t = 1\.6315e\+06;"):
            propagate(preset.rho0, preset.cfg, preset.sys, preset.rates, icfg)


def test_propagate_holds_one_copy_of_its_trajectory():
    """A fig3 run, its window map built, peaks at 232 B per pulse (the
    blocks' pulse ends, their joined copy and the pulse-end index) plus one
    block's budget and 256 kB: 2.05 MB at 3200 pulses against a measured
    1.14 MB, where the sample rows alone would take 9 MB."""
    fig3 = get_preset("fig3")
    for n_pulses in (3200, 6400):
        preset = replace(fig3, cfg=replace(fig3.cfg, N=n_pulses))
        run_preset(preset)
        tracemalloc.start()
        try:
            traj = run_preset(preset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.metadata["diagnostics"]["pulses_run"] == n_pulses
        assert peak <= 232 * n_pulses + dynamics._BLOCK_BYTES + 256 * 1024, n_pulses


@pytest.mark.parametrize("period", [25.0, 3.3])
def test_last_rows_are_the_trailing_rows_of_data(monkeypatch, period):
    """Every tail, from inside pulse 0's gap samples to the last row alone,
    forms from the block that holds its first row; with 3.3 the windows
    leave no gap, so the interior window differs from the first.  A count
    of no rows or past the first row raises instead of forming rows."""
    run = _desk_run(7, period, gap_samples=3)
    _set_block_pulses(monkeypatch, run[1], run[2], run[4], 2)
    traj = quiet_propagate(*run)
    data = traj.data
    for m in range(1, traj.n_samples + 1):
        assert traj.last_rows(m).tobytes() == data[-m:].tobytes(), m
    for m in (0, traj.n_samples + 1, traj.n_samples + 3):
        with pytest.raises(ValueError, match=f"1 <= m <= {traj.n_samples}, got {m}"):
            traj.last_rows(m)


def test_trajectory_holds_its_pulse_ends_and_no_block_bookkeeping():
    """A second fig3 run's trajectory holds its (K, 9) pulse ends and their
    row indices, 80 B per pulse, beside one row former: at most 100 B per
    pulse added from 16,000 to 32,000 pulses (per-block records took 220)."""
    fig3 = get_preset("fig3")
    run_preset(replace(fig3, cfg=replace(fig3.cfg, N=1)))  # builds the window map both runs reuse
    held = []
    for n_pulses in (16_000, 32_000):
        preset = replace(fig3, cfg=replace(fig3.cfg, N=n_pulses))
        tracemalloc.start()
        try:
            traj = run_preset(preset)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert traj.metadata["diagnostics"]["pulses_run"] == n_pulses
    assert held[1] - held[0] <= 100 * 16_000


@pytest.mark.parametrize("form", ["propagated", "from_arrays"])
def test_trajectory_round_trips_through_pickle(form):
    """A trajectory pickles natively: a propagated one with its pulse ends and
    row former, before its rows are formed, and one from arrays with them."""
    traj = quiet_propagate(*_desk_run(15, gap_samples=3))
    if form == "from_arrays":
        traj = Trajectory.from_arrays(traj.times, traj.data, traj.pulse_end_indices, traj.metadata)
    again = pickle.loads(pickle.dumps(traj))
    assert again.metadata == traj.metadata and again.n_samples == traj.n_samples
    for name in ("times", "data", "pulse_end_indices", "pulse_ends"):
        assert getattr(again, name).tobytes() == getattr(traj, name).tobytes()


@pytest.mark.parametrize(
    "period, phases, gap_maps",
    [(25.0, False, 4), (25.0, True, 4), (3.3, False, 0), (3.3, True, 1)],
)
def test_gap_maps_are_formed_once_per_distinct_gap_of_a_call(monkeypatch, period, phases, gap_maps):
    # 4 = the carried gap and three sample offsets; with 3.3 the windows leave no gap
    run = _desk_run(15, period, gap_samples=3, interpulse_phases=phases)
    _set_block_pulses(monkeypatch, run[1], run[2], run[4], 4)
    calls = []
    gap_map = dynamics._gap_map
    monkeypatch.setattr(dynamics, "_gap_map", lambda *args: calls.append(args) or gap_map(*args))
    traj = quiet_propagate(*run)
    traj.data
    assert len(calls) == gap_maps <= 1 + run[4].gap_samples


# --- window-map memo -----------------------------------------------------------------


def _trajectory_bytes(traj):
    diag = traj.metadata["diagnostics"]
    return (traj.times.tobytes(), traj.data.tobytes(), traj.pulse_end_indices.tobytes(),
            [np.float64(value).tobytes() for value in diag.values()])


# with overlapping windows (3.3) the first and interior maps take turns in the slot
@pytest.mark.parametrize("period", [25.0, 3.3])
def test_memo_hit_gives_the_bytes_of_a_fresh_build(period):
    run = _desk_run(15, period, gap_samples=3, interpulse_phases=True)
    fresh = _trajectory_bytes(quiet_propagate(*run))
    again = _trajectory_bytes(quiet_propagate(*run))
    dynamics._window_memo.clear()
    rebuilt = _trajectory_bytes(quiet_propagate(*run))
    assert again == fresh and rebuilt == fresh


# with overlapping windows the first pulse's recorded rows are taken before the
# interior map takes the first one's slot
@pytest.mark.parametrize("period, builds", [(25.0, 1), (3.3, 2)])
def test_each_window_map_is_built_once_per_call(monkeypatch, period, builds):
    spans = []
    build = dynamics._integrate_window
    monkeypatch.setattr(dynamics, "_integrate_window", lambda *args: spans.append(args[:2]) or build(*args))
    quiet_propagate(*_desk_run(15, period))
    assert len(spans) == len(set(spans)) == builds


def _memo_run(section=None, **fields):
    """A sine-chirped desk run with `fields` replaced in one section of it."""
    rho0, cfg, sys_, rates, icfg = _desk_run(15)
    run = {
        "train": replace(cfg, modulation=Modulation.sine(1.0, 3.0)),
        "system": sys_,
        "rates": rates,
        "integrator": icfg,
    }
    if section == "modulation":
        run["train"] = replace(run["train"], modulation=replace(run["train"].modulation, **fields))
    elif section is not None:
        run[section] = replace(run[section], **fields)
    return (rho0, *run.values())


def _builds_for_second_run(monkeypatch, section, fields):
    builds = []
    build = dynamics._integrate_window

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(dynamics, "_integrate_window", counting_build)
    quiet_propagate(*_memo_run())
    assert len(builds) == 1
    quiet_propagate(*_memo_run(section, **fields))
    return len(builds) - 1


@pytest.mark.parametrize("fields", [{"T": 40.0}, {"N": 7}, {"T": 30.0, "N": 3}])
def test_memo_reuses_the_map_across_period_and_pulse_count(monkeypatch, fields):
    assert _builds_for_second_run(monkeypatch, "train", fields) == 0


@pytest.mark.parametrize(
    "section, fields",
    [
        ("train", {"rabi_peak": 0.9}),
        ("train", {"omega_L": 4.5}),
        ("train", {"tau": 0.25}),
        ("train", {"phi": 0.3}),
        ("train", {"phi": -0.0}),  # equal to 0.0 as a float, but a different bit pattern
        ("modulation", {"amplitude": 1.5}),
        ("rates", {"gamma21": 0.002}),
        ("system", {"omega32": 4.5}),
        ("integrator", {"step_in_pulse": 0.002}),
        ("integrator", {"window_sigmas": 5.0}),
    ],
)
def test_memo_rebuilds_when_the_map_inputs_change(monkeypatch, section, fields):
    assert _builds_for_second_run(monkeypatch, section, fields) == 1


def test_memo_arrays_are_read_only():
    quiet_propagate(*_desk_run(3))
    ((s_grid, m_fine),) = dynamics._window_memo.values()
    with pytest.raises(ValueError):
        s_grid[0] = 0.0
    with pytest.raises(ValueError):
        m_fine[0, 0, 0] = 0.0


def test_resolve_step_tracks_fastest_frequency():
    sys_ = LevelSystem.from_transitions(3.0, 7.0)
    cfg = PulseTrainConfig(rabi_peak=1.0, omega_L=9.0, tau=0.3, T=20.0, N=1)
    assert omega_max(cfg, sys_) == pytest.approx(16.0)
    assert resolve_step(IntegratorConfig(), cfg, sys_) == pytest.approx(0.02 / 16.0)
    explicit = IntegratorConfig(step_in_pulse=1e-3)
    assert resolve_step(explicit, cfg, sys_) == pytest.approx(1e-3)


def test_rate_relation_gate_on_propagate():
    from combcool import RateRelationViolation

    sys_ = LevelSystem.from_transitions(3.0, 4.0)
    cfg = PulseTrainConfig(rabi_peak=0.1, omega_L=4.0, tau=0.3, T=20.0, N=1)
    bad = DecoherenceRates(Gamma21=0.001, Gamma31=0.001, Gamma23=0.001)
    with pytest.raises(RateRelationViolation):
        propagate(DensityMatrix.pure(1), cfg, sys_, bad, IntegratorConfig())
    # explicit waiver lets the run proceed
    traj = propagate(
        DensityMatrix.pure(1), cfg, sys_, bad, IntegratorConfig(), allow_unconstrained_rates=True
    )
    assert traj.n_samples > 0


# --- equation of motion sanity ---------------------------------------------------


def test_lvn_rhs_conserves_total_population():
    rng = np.random.default_rng(3)
    sys_ = LevelSystem.from_transitions(2.0, 3.1)
    cfg = PulseTrainConfig(
        rabi_peak=1.2, omega_L=3.1, tau=0.4, T=20.0, N=1, modulation=Modulation.sine(2.0, 1.0)
    )
    rates = DecoherenceRates(gamma21=0.01, gamma23=0.02, Gamma21=0.005, Gamma31=0.0, Gamma23=0.005)
    for _ in range(10):
        rho = random_density_matrix(rng)
        t = rng.uniform(-1.0, 1.0)
        drho = lvn_rhs(rho, t, 0, cfg, sys_, rates)
        assert abs(drho.rho11 + drho.rho22 + drho.rho33) < 1e-13


def test_lvn_rhs_agrees_with_vectorized_generator():
    """The scalar reference equations and the 9x9 generator the integrator
    actually uses must produce the same derivative."""
    rng = np.random.default_rng(11)
    sys_ = LevelSystem.from_transitions(2.0, 3.1)
    cfg = PulseTrainConfig(
        rabi_peak=1.2, omega_L=3.1, tau=0.4, T=20.0, N=1, modulation=Modulation.cosine(1.5, 0.8)
    )
    rates = DecoherenceRates(gamma21=0.01, gamma23=0.02, Gamma21=0.005, Gamma31=0.0, Gamma23=0.005)
    # pulse-local time equals absolute time for pulse k = 0
    ts = rng.uniform(-1.0, 1.0, size=6)
    gens = dynamics._generator_matrices(ts, cfg, sys_, rates)
    for t, L in zip(ts, gens):
        rho = random_density_matrix(rng)
        reference = lvn_rhs(rho, float(t), 0, cfg, sys_, rates)
        np.testing.assert_allclose(
            L @ rho.to_vector(), reference.to_vector(), atol=1e-13
        )


# --- convergence -------------------------------------------------------------------


def _short_strong_train():
    sys_ = LevelSystem.from_transitions(340.7 / 70.0, 410.7 / 70.0)
    cfg = PulseTrainConfig(
        rabi_peak=1.0,
        omega_L=410.7 / 70.0,
        tau=0.198,
        T=14005.253930,
        N=5,
        modulation=Modulation.sine(4.0, 340.7 / 70.0),
    )
    return sys_, cfg


def test_step_halving_is_converged():
    sys_, cfg = _short_strong_train()
    icfg = IntegratorConfig(interpulse_phases=True)
    base_step = resolve_step(icfg, cfg, sys_)
    a = propagate(DensityMatrix.pure(1), cfg, sys_, DecoherenceRates.none(), icfg)
    b = propagate(
        DensityMatrix.pure(1),
        cfg,
        sys_,
        DecoherenceRates.none(),
        replace(icfg, step_in_pulse=base_step / 2.0),
    )
    assert np.max(np.abs(a.data[-1] - b.data[-1])) < 1e-6


def test_window_extension_is_converged():
    sys_, cfg = _short_strong_train()
    icfg = IntegratorConfig(interpulse_phases=True)
    a = propagate(DensityMatrix.pure(1), cfg, sys_, DecoherenceRates.none(), icfg)
    b = propagate(
        DensityMatrix.pure(1),
        cfg,
        sys_,
        DecoherenceRates.none(),
        replace(icfg, window_sigmas=8.0),
    )
    assert np.max(np.abs(a.data[-1] - b.data[-1])) < 1e-6


# --- yield helpers -----------------------------------------------------------------


def test_yield_functions():
    times = np.linspace(0.0, 9.0, 10)
    data = np.zeros((10, 9))
    data[:, 2] = np.linspace(0.0, 0.9, 10)
    data[:, 0] = 1.0 - data[:, 2]
    traj = Trajectory.from_arrays(times, data, np.array([9]), metadata={})
    assert quantum_yield(traj) == pytest.approx(0.9)
    # trailing mean over the last 5% of samples (here: the last sample)
    assert steady_state_yield(traj) == pytest.approx(0.9)
    assert steady_state_yield(traj, trailing_fraction=0.5) == pytest.approx(
        np.mean(data[5:, 2])
    )


# --- input checks ------------------------------------------------------------------


def _ramp_trajectory():
    return Trajectory.from_arrays(np.arange(4.0), np.zeros((4, 9)), [3])


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: IntegratorConfig(step_in_pulse=0.0),
                     "step_in_pulse must be positive when given", id="step_in_pulse"),
        pytest.param(lambda: IntegratorConfig(sampler_stride=0),
                     "sampler_stride must be a positive integer", id="sampler_stride"),
        pytest.param(lambda: IntegratorConfig(sampler_stride=2.0),
                     "sampler_stride must be a positive integer", id="sampler_stride_float"),
        pytest.param(lambda: IntegratorConfig(window_sigmas=0.0),
                     "window_sigmas must be positive", id="window_sigmas"),
        pytest.param(lambda: IntegratorConfig(gap_samples=-1),
                     "gap_samples must be a non-negative integer", id="gap_samples"),
        pytest.param(lambda: IntegratorConfig(trace_tol=0.0), "trace_tol must be positive", id="trace_tol"),
        pytest.param(lambda: IntegratorConfig(pop_tol=-1e-6), "pop_tol must be positive", id="pop_tol"),
        pytest.param(lambda: IntegratorConfig(early_stop_tol=math.nan),
                     "early_stop_tol must be positive", id="early_stop_tol"),
        pytest.param(lambda: IntegratorConfig(early_stop_pulses=-1),
                     "early_stop_pulses must be a non-negative integer", id="early_stop_pulses"),
        pytest.param(lambda: IntegratorConfig(interpulse_phases=1),
                     "interpulse_phases must be a bool", id="interpulse_phases"),
        pytest.param(lambda: dynamics._window_steps(1.5, 1.5, 0.1),
                     "window must have positive length", id="empty_window"),
        pytest.param(lambda: steady_state_yield(_ramp_trajectory(), 0.0),
                     "trailing_fraction must be in (0, 1]", id="trailing_fraction_zero"),
        pytest.param(lambda: steady_state_yield(_ramp_trajectory(), 1.5),
                     "trailing_fraction must be in (0, 1]", id="trailing_fraction_above_one"),
    ],
)
def test_dynamics_input_checks_raise_their_message(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert type(raised.value) is ValueError and str(raised.value) == message


def test_initial_state_check_agrees_with_the_lowest_eigenvalue():
    """check_initial_state's pivot test rejects exactly the unit-trace states
    whose lowest eigvalsh eigenvalue is below -1e-12, pure states included."""
    rng = np.random.default_rng(28)
    for _ in range(200):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi[rng.integers(3)] *= 10.0 ** rng.integers(-8, 1)  # some near-zero amplitudes
        psi /= np.linalg.norm(psi)
        dynamics.check_initial_state(DensityMatrix.from_matrix(np.outer(psi, psi.conj())))
    checked = {True: 0, False: 0}
    for _ in range(400):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        shift = rng.uniform(-0.3, 0.1)
        rho = (rho + shift * np.eye(3)) / (1.0 + 3.0 * shift)
        lowest = np.linalg.eigvalsh(rho)[0]
        if abs(lowest) < 1e-9:
            continue
        state = DensityMatrix.from_matrix(rho)
        if lowest < 0.0:
            with pytest.raises(ValueError, match="positive semidefinite, lowest eigenvalue"):
                dynamics.check_initial_state(state)
        else:
            dynamics.check_initial_state(state)
        checked[lowest < 0.0] += 1
    assert min(checked.values()) > 100
