"""Shared fixtures-by-function: desk-scale surrogates and random generators.

The surrogate train below is small enough to FFT in milliseconds yet keeps
every structural feature of the physical trains: carrier far above the
repetition rate, modulation frequency an integer number of comb teeth
(38 ticks), and pulses short against the period.  tau = 0.7 keeps adjacent
sideband sets separated (Omega * tau ~= 4), which matters when measuring
set spacing from brightest teeth.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from combcool import (
    DecoherenceRates,
    DensityMatrix,
    IntegratorConfig,
    LevelSystem,
    Modulation,
    PulseTrainConfig,
    propagate,
)
from combcool import spectrum as sp
from combcool.dynamics import (
    NegativePopulation,
    TraceDrift,
    _free_factors,
    _generator_matrices,
    _integrate_window,
    _interpulse_angles,
    resolve_step,
)
from combcool.field import _transition_drives

# --- desk-scale comb surrogate (dimensionless units) -----------------------
TICK = 2.0 * math.pi / 40.0          # comb tooth spacing for T = 40
DESK_T = 40.0
DESK_OMEGA_L = 160.0 * TICK          # carrier on tooth 160
DESK_OMEGA_MOD = 38.0 * TICK         # modulation on tooth 38
DESK_TAU = 0.7
DESK_PHI0 = 2.0
DESK_PULSES = 32


def desk_train(
    kind: str = "none",
    n_pulses: int = DESK_PULSES,
    tau: float = DESK_TAU,
    phi0: float = DESK_PHI0,
    omega_mod: float = DESK_OMEGA_MOD,
) -> PulseTrainConfig:
    if kind == "none":
        modulation = Modulation.none()
    elif kind == "sine":
        modulation = Modulation.sine(phi0, omega_mod)
    else:
        modulation = Modulation.cosine(phi0, omega_mod)
    return PulseTrainConfig(
        rabi_peak=1.0,
        omega_L=DESK_OMEGA_L,
        tau=tau,
        T=DESK_T,
        N=n_pulses,
        modulation=modulation,
    )


def safe_rate(cfg: PulseTrainConfig, margin: float = 1.2) -> float:
    """Admissible sample rate rounded up to an integer count per period.

    Integer samples per period make the sampled train exactly periodic, so
    every comb tooth falls exactly on an FFT bin.
    """
    rate = margin * sp.nyquist_limit(cfg)
    return math.ceil(rate * cfg.T) / cfg.T


def desk_spectrum(cfg: PulseTrainConfig, pad: float = 1.0):
    rate = safe_rate(cfg)
    series = sp.sample_field(cfg, rate, pad * cfg.N * cfg.T)
    return sp.compute_spectrum(series, rate)


# --- random-but-valid physical configurations ------------------------------

def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state: G G^dagger normalized to unit trace."""
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix.from_matrix(m)


def random_rates(rng: np.random.Generator) -> DecoherenceRates:
    """Random rate set honoring the additive dephasing relation."""
    gamma21 = rng.uniform(0.0, 0.01)
    gamma23 = rng.uniform(0.0, 0.01)
    big21 = rng.uniform(0.0, 0.01)
    big31 = rng.uniform(0.0, 0.01)
    return DecoherenceRates(gamma21, gamma23, big21, big31, big21 + big31)


def random_setup(rng: np.random.Generator):
    """One random desk-scale scenario: (system, train, rates, rho0, icfg)."""
    omega21 = rng.uniform(1.0, 5.0)
    omega32 = omega21 + rng.uniform(0.5, 5.0)
    sys_ = LevelSystem.from_transitions(omega21, omega32)
    tau = rng.uniform(0.1, 0.5)
    period = rng.uniform(max(10.0 * tau, 6.0), 30.0)
    kind = rng.choice(["none", "sine", "cosine"])
    if kind == "none":
        modulation = Modulation.none()
    elif kind == "sine":
        modulation = Modulation.sine(rng.uniform(0.0, 4.0), rng.uniform(0.5, 3.0))
    else:
        modulation = Modulation.cosine(rng.uniform(0.0, 4.0), rng.uniform(0.5, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = PulseTrainConfig(
            rabi_peak=rng.uniform(0.0, 2.0),
            omega_L=rng.uniform(0.8, 1.2) * omega32,
            tau=tau,
            T=period,
            N=int(rng.integers(1, 7)),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            modulation=modulation,
        )
    icfg = IntegratorConfig(interpulse_phases=bool(rng.integers(0, 2)))
    return sys_, cfg, random_rates(rng), random_density_matrix(rng), icfg


def quiet_propagate(rho0, cfg, sys_, rates, icfg):
    """Propagate while silencing the short-period design warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return propagate(rho0, cfg, sys_, rates, icfg)


# --- reference implementations ---------------------------------------------

def hamiltonian_element(j, i, t, k, cfg, sys_):
    """Scalar oracle for field._transition_drives: H_ji of pulse k at time t.

    Only the (2,1) and (3,2) legs are driven; their transposes follow by
    conjugation and every other pair (including the undriven 1-3 leg and the
    diagonal) is exactly zero.
    """
    if j not in (1, 2, 3) or i not in (1, 2, 3):
        raise ValueError(f"level indices must be in 1..3, got ({j}, {i})")
    if not 0 <= k < cfg.N:
        raise ValueError(f"pulse index {k} outside 0..{cfg.N - 1}")
    pair = (j, i)
    if pair not in ((2, 1), (3, 2), (1, 2), (2, 3)):
        return 0j
    h21, h32 = _transition_drives(t - k * cfg.T, cfg, sys_)
    value = complex(h21) if pair in ((2, 1), (1, 2)) else complex(h32)
    if pair in ((1, 2), (2, 3)):
        value = value.conjugate()
    return value


def lvn_rhs(rho, t, k, cfg, sys_, rates):
    """Per-element oracle for dynamics._generator_matrices: d rho / dt.

    The equations of the dynamics module docstring, evaluated with complex
    arithmetic straight from hamiltonian_element, under pulse k at absolute
    time t.
    """
    H21 = hamiltonian_element(2, 1, t, k, cfg, sys_)
    H32 = hamiltonian_element(3, 2, t, k, cfg, sys_)
    H31 = hamiltonian_element(3, 1, t, k, cfg, sys_)
    H12, H23, H13 = H21.conjugate(), H32.conjugate(), H31.conjugate()

    p1, p2, p3 = rho.populations
    r12, r13, r23 = rho.rho12, rho.rho13, rho.rho23
    r21, r31, r32 = r12.conjugate(), r13.conjugate(), r23.conjugate()

    g21, g23 = rates.gamma21, rates.gamma23
    gd12 = 0.5 * (g21 + g23) + rates.Gamma21
    gd13 = rates.Gamma31
    gd23 = 0.5 * (g21 + g23) + rates.Gamma23

    d11 = 2.0 * (H12 * r21 + H13 * r31).imag + g21 * p2
    d22 = 2.0 * (H21 * r12 + H23 * r32).imag - (g21 + g23) * p2
    d33 = 2.0 * (H31 * r13 + H32 * r23).imag + g23 * p2
    d12 = -1j * H12 * (p2 - p1) - 1j * H13 * r32 + 1j * H32 * r13 - gd12 * r12
    d13 = -1j * H13 * (p3 - p1) - 1j * H12 * r23 + 1j * H23 * r12 - gd13 * r13
    d23 = -1j * H23 * (p3 - p2) - 1j * H21 * r13 + 1j * H13 * r21 - gd23 * r23

    return DensityMatrix(d11, d22, d33, d12, d13, d23)


def apply_free_reference(v, dt, rates, phases=None):
    """Per-row oracle for the gap map dynamics._gap_map(dt, rates, phases).

    Of the identity it gives that matrix, bit for bit up to the sign of
    zeros; of a (9,) state or each column of a (9, m) stack, what one product
    with it (dynamics._apply_free) gives to rounding.

    Copies v, then writes the gap map one row at a time: rows 0-2 from the
    decayed excited population, each coherence row scaled by its decay
    factor, and each coherence pair turned by its angle.
    """
    E2, r21, r23, f12, f13, f23 = _free_factors(dt, rates)
    out = v.copy()
    lost = v[1] * (1.0 - E2)
    out[0] = v[0] + r21 * lost
    out[1] = v[1] * E2
    out[2] = v[2] + r23 * lost
    out[3] *= f12
    out[4] *= f12
    out[5] *= f13
    out[6] *= f13
    out[7] *= f23
    out[8] *= f23
    if phases is not None:
        for i0, a in zip((3, 5, 7), phases):
            c, s = math.cos(a), math.sin(a)
            x, y = out[i0], out[i0 + 1]
            out[i0], out[i0 + 1] = c * x - s * y, s * x + c * y
    return out


def map_powers_reference(period_map, v, n):
    """Concatenating oracle for dynamics._map_powers, bitwise.

    Each round appends period_map**m applied to the m rows so far and
    squares the power.
    """
    rows, power = v[None, :], period_map
    while len(rows) < n:
        rows = np.concatenate((rows, rows @ power.T))
        power = power @ power
    return rows[:n]


def staircase_stats_loop(pulse_map, period, sys_, n_max):
    """Per-pulse oracle for scenarios._staircase_stats.

    Steps the pure initial state through pulse map and inter-pulse rotation
    one pulse at a time, then applies the same first-peak bookkeeping.
    """
    angles = _interpulse_angles(period, sys_)
    rates = DecoherenceRates.none()
    v = DensityMatrix.pure(1).to_vector()
    p33 = np.empty(n_max)
    for k in range(n_max):
        v = pulse_map @ v
        p33[k] = v[2]
        v = apply_free_reference(v, 0.0, rates, angles)
    run_max = np.maximum.accumulate(p33)
    falls = np.nonzero(run_max - p33 > 0.05)[0]
    upto = int(falls[0]) if falls.size else n_max
    peak_pulse = int(p33[:upto].argmax()) + 1
    peak = float(p33[peak_pulse - 1])
    hits = np.nonzero(p33[:peak_pulse] > 0.95 * peak)[0]
    transfer = int(hits[0]) + 1 if hits.size else peak_pulse
    return peak, peak_pulse, transfer


def scan_states_reference(states, times, trace_tol, pop_tol):
    """Row-reduction oracle for dynamics._scan_states.

    Reduces the (n, 3) population block along its rows; NaN-blind, so only
    finite stacks are compared against it.
    """
    traces = states[:, :3].sum(axis=1)
    drift = np.abs(traces - 1.0)
    worst = int(drift.argmax())
    if drift[worst] > trace_tol:
        raise TraceDrift(
            f"|trace - 1| = {drift[worst]:.3e} > {trace_tol:.0e} at t = {times[worst]:g}; "
            "integration step or tolerances are inadequate"
        )
    pops = states[:, :3]
    low = int(pops.min(axis=1).argmin())
    pmin = float(pops[low].min())
    if pmin < -pop_tol:
        raise NegativePopulation(
            f"population {pmin:.3e} < -{pop_tol:.0e} at t = {times[low]:g}; "
            "integration step or tolerances are inadequate"
        )
    return float(drift[worst]), pmin, float(states[:, 1].max())


def write_csv_reference(path, header, columns):
    """Per-value oracle for cli._write_rows: format(x, '.17g') for every cell."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(format(float(x), ".17g") for x in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def integrate_window_reference(s_lo, s_hi, step, cfg, sys_, rates, x0):
    """Per-step oracle for dynamics._integrate_window.

    Classic RK4 on v' = L(s) v (or M' = L M), one step at a time with four
    generator products, on the same grid.
    """
    length = s_hi - s_lo
    n = max(1, int(math.ceil(length / step)))
    h = length / n
    s_grid = s_lo + h * np.arange(n + 1)
    L_grid = _generator_matrices(s_grid, cfg, sys_, rates)
    L_mid = _generator_matrices(s_lo + h * (np.arange(n) + 0.5), cfg, sys_, rates)
    x_fine = np.empty((n + 1,) + x0.shape)
    x_fine[0] = x = x0
    for i in range(n):
        k1 = L_grid[i] @ x
        k2 = L_mid[i] @ (x + 0.5 * h * k1)
        k3 = L_mid[i] @ (x + 0.5 * h * k2)
        k4 = L_grid[i + 1] @ (x + h * k3)
        x = x_fine[i + 1] = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return s_grid, x_fine


def integrate_window_nested_reference(s_lo, s_hi, step, cfg, sys_, rates, x0):
    """Nested-chunk oracle for dynamics._integrate_window, bitwise.

    Forms the generators 2048 steps at a time, then the RK4 step maps of
    each 256 steps of those, and applies each step map with np.matmul.
    """
    length = s_hi - s_lo
    n = max(1, int(math.ceil(length / step)))
    h = length / n
    s_grid = s_lo + h * np.arange(n + 1)
    x_fine = np.empty((n + 1,) + x0.shape)
    x_fine[0] = x0
    eye = np.eye(9)
    for start in range(0, n, 2048):
        stop = min(start + 2048, n)
        L_grid = _generator_matrices(s_lo + h * np.arange(start, stop + 1), cfg, sys_, rates)
        L_mid = _generator_matrices(s_lo + h * (np.arange(start, stop) + 0.5), cfg, sys_, rates)
        for lo in range(0, stop - start, 256):
            hi = min(lo + 256, stop - start)
            k1 = L_grid[lo:hi]
            k2 = L_mid[lo:hi] @ (eye + (0.5 * h) * k1)
            k3 = L_mid[lo:hi] @ (eye + (0.5 * h) * k2)
            k4 = L_grid[lo + 1:hi + 1] @ (eye + h * k3)
            step_maps = eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            done = x_fine[start + lo:start + hi + 1]
            for s_map, x, x_next in zip(step_maps, done, done[1:]):
                np.matmul(s_map, x, out=x_next)
    return s_grid, x_fine


def propagate_direct_reference(rho0, cfg, sys_, rates, icfg):
    """Direct-integration oracle for the final state of dynamics.propagate.

    Integrates every pulse on the state vector itself with
    integrate_window_reference, with no window map, and crosses each gap
    with apply_free_reference.  Returns the state at the end of the last
    pulse.
    """
    step = resolve_step(icfg, cfg, sys_)
    w = icfg.window_sigmas * cfg.tau
    T, N = cfg.T, cfg.N
    gap = max(T - 2.0 * w, 0.0)
    angles = _interpulse_angles(T, sys_) if icfg.interpulse_phases else None
    v = rho0.to_vector()
    for k in range(N):
        span = (-w, w) if k == 0 else (max(-w, w - T), w)
        v = integrate_window_reference(*span, step, cfg, sys_, rates, v)[1][-1]
        if k < N - 1 and (gap > 0.0 or angles is not None):
            v = apply_free_reference(v, gap, rates, angles)
    return v


def propagate_reference(rho0, cfg, sys_, rates, icfg):
    """Per-pulse oracle for dynamics.propagate.

    Applies the stacked window map (m_fine @ v) one pulse at a time: scan
    the pulse with scan_states_reference, record it, check the early-stop
    rule, then record the gap samples and cross the gap.  Returns (times,
    data, pulse_end_indices, pulses_run, early_stopped).
    """
    step = resolve_step(icfg, cfg, sys_)
    w = icfg.window_sigmas * cfg.tau
    T, N = cfg.T, cfg.N
    gap = max(T - 2.0 * w, 0.0)
    angles = _interpulse_angles(T, sys_) if icfg.interpulse_phases else None
    interior = (max(-w, w - T), w)
    maps = {
        span: _integrate_window(*span, step, cfg, sys_, rates, np.eye(9))
        for span in {(-w, w), interior}
    }
    v = rho0.to_vector()
    times, data, ends = [], [], []
    n_recorded, prev_pops, stable_run, stopped = 0, None, 0, False
    for k in range(N):
        s_grid, m_fine = maps[(-w, w) if k == 0 else interior]
        states = m_fine @ v
        abs_times = k * T + s_grid
        scan_states_reference(states, abs_times, icfg.trace_tol, icfg.pop_tol)
        v = states[-1].copy()
        n_fine = s_grid.size - 1
        sel = np.arange(0, n_fine + 1, icfg.sampler_stride)
        if sel[-1] != n_fine:
            sel = np.append(sel, n_fine)
        if k > 0 and gap == 0.0:
            sel = sel[sel > 0]
        times.append(abs_times[sel])
        data.append(states[sel])
        n_recorded += sel.size
        ends.append(n_recorded - 1)

        pops = v[:3].copy()
        if prev_pops is not None and np.abs(pops - prev_pops).max() < icfg.early_stop_tol:
            stable_run += 1
        else:
            stable_run = 0
        prev_pops = pops
        if icfg.early_stop_pulses and stable_run >= icfg.early_stop_pulses:
            stopped = True
            break

        if k < N - 1:
            if gap > 0.0:
                for j in range(1, icfg.gap_samples + 1):
                    dt = j * gap / (icfg.gap_samples + 1)
                    part = None if angles is None else tuple(a * dt / gap for a in angles)
                    times.append(np.array([k * T + w + dt]))
                    data.append(apply_free_reference(v, dt, rates, part)[None])
                    n_recorded += 1
            if gap > 0.0 or angles is not None:
                v = apply_free_reference(v, gap, rates, angles)
    return np.concatenate(times), np.concatenate(data), np.asarray(ends), k + 1, stopped
