"""Integrator tests: analytic oracles, invariants, convergence, guards."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

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
    lvn_rhs,
    propagate,
    quantum_yield,
    steady_state_yield,
)
from combcool import dynamics
from combcool.dynamics import (
    _RK4_CHUNK,
    _STEP_MAP_CHUNK,
    IntegrationError,
    NegativePopulation,
    _apply_free,
    _integrate_window,
    _interpulse_angles,
    _map_powers,
    _scan_states,
    omega_max,
    resolve_step,
)
from combcool.scenarios import get_preset

from helpers import (
    DESK_OMEGA_L,
    DESK_OMEGA_MOD,
    desk_train,
    integrate_window_reference,
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


@pytest.mark.parametrize("phases", [None, (0.7, -1.3, 2.1)])
def test_gap_map_on_a_stack_matches_column_by_column(phases):
    rates = DecoherenceRates(gamma21=0.03, gamma23=0.01, Gamma21=0.02, Gamma31=0.005, Gamma23=0.025)
    stack = np.random.default_rng(11).normal(size=(9, 6))
    out = _apply_free(stack, 2.5, rates, phases)
    for j in range(stack.shape[1]):
        np.testing.assert_allclose(
            out[:, j], _apply_free(stack[:, j], 2.5, rates, phases), atol=1e-15, rtol=0.0
        )


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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 260])
def test_map_powers_match_repeated_application(n):
    rng = np.random.default_rng(5)
    rates = DecoherenceRates(gamma21=0.002, gamma23=0.001, Gamma21=0.001, Gamma31=0.0005, Gamma23=0.0015)
    period_map = _apply_free(_unitary_map(rng), 3.0, rates, (0.4, -2.2, 1.1))
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
        assert np.all(traj.populations >= -1e-9)


def test_populations_stay_in_unit_interval():
    rng = np.random.default_rng(99)
    for _ in range(5):
        sys_, cfg, rates, rho0, icfg = random_setup(rng)
        traj = quiet_propagate(rho0, cfg, sys_, rates, icfg)
        assert np.all(traj.populations <= 1.0 + 1e-9)


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
    icfg = IntegratorConfig()
    for n_pulses in (1, 2, 4):  # one window, first plus interior, and blocks of interiors
        cfg = PulseTrainConfig(rabi_peak=0.8, omega_L=4.0, tau=0.3, T=25.0, N=n_pulses)
        traj = propagate(MIXED_RHO0, cfg, sys_, rates, icfg)
        direct = propagate_direct_reference(MIXED_RHO0, cfg, sys_, rates, icfg)
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
    assert n > 10 * _RK4_CHUNK  # many generator chunks
    # Both orders round once per step, so over n steps they may part by n * eps.
    _assert_window_matches_reference(
        (-w, w, step, cfg, sys_, rates), np.eye(9), atol=n * np.finfo(float).eps
    )


@pytest.mark.parametrize(
    "n",
    [1, _STEP_MAP_CHUNK - 1, _STEP_MAP_CHUNK, _STEP_MAP_CHUNK + 1,
     _RK4_CHUNK - 1, _RK4_CHUNK, _RK4_CHUNK + 1],
)
def test_window_map_chunk_boundaries(n):
    s_lo, _, step, *rest = _preset_window("fig4")
    args = (s_lo, s_lo + (n - 0.5) * step, step, *rest)
    s_grid = _assert_window_matches_reference(args, np.eye(9))
    assert s_grid.size == n + 1


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


@pytest.mark.parametrize(
    "period, icfg_fields",
    [
        (25.0, {}),
        (25.0, {"gap_samples": 0}),
        (25.0, {"gap_samples": 3, "interpulse_phases": True}),
        (3.3, {}),  # windows overlap: no gap, later windows start where the last ended
        (3.3, {"interpulse_phases": True}),
    ],
)
def test_pulse_blocks_match_per_pulse_loop(monkeypatch, period, icfg_fields):
    run = _desk_run(15, period, **icfg_fields)
    _set_block_pulses(monkeypatch, run[1], run[2], run[4], 4)  # blocks 1+4+4+4+2
    traj = _assert_matches_pulse_loop(*run)
    assert traj.metadata["diagnostics"]["pulses_run"] == 15


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
    rho0, cfg, sys_, rates, icfg = _desk_run(15, interpulse_phases=phases)
    _set_block_pulses(monkeypatch, cfg, sys_, icfg, 4)
    traj = quiet_propagate(rho0, cfg, sys_, rates, icfg)
    gap = cfg.T - 2.0 * icfg.window_sigmas * cfg.tau
    angles = _interpulse_angles(cfg.T, sys_) if phases else None
    for end in traj.pulse_end_indices[:-1]:
        carried = _apply_free(traj.data[end], gap, rates, angles)
        assert carried.tobytes() == traj.data[end + icfg.gap_samples + 1].tobytes()


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
    from combcool.dynamics import _generator_matrices

    rng = np.random.default_rng(11)
    sys_ = LevelSystem.from_transitions(2.0, 3.1)
    cfg = PulseTrainConfig(
        rabi_peak=1.2, omega_L=3.1, tau=0.4, T=20.0, N=1, modulation=Modulation.cosine(1.5, 0.8)
    )
    rates = DecoherenceRates(gamma21=0.01, gamma23=0.02, Gamma21=0.005, Gamma31=0.0, Gamma23=0.005)
    # pulse-local time equals absolute time for pulse k = 0
    ts = rng.uniform(-1.0, 1.0, size=6)
    gens = _generator_matrices(ts, cfg, sys_, rates)
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
    traj = Trajectory(times=times, data=data, pulse_end_indices=np.array([9]), metadata={})
    assert quantum_yield(traj) == pytest.approx(0.9)
    # trailing mean over the last 5% of samples (here: the last sample)
    assert steady_state_yield(traj) == pytest.approx(0.9)
    assert steady_state_yield(traj, trailing_fraction=0.5) == pytest.approx(
        np.mean(data[5:, 2])
    )
