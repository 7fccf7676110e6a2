"""Density-matrix propagation through the pulse train.

The equations of motion are the Liouville-von Neumann equations
rho_dot = -i [H(t), rho] with the beyond-rotating-wave interaction-picture
Hamiltonian from the field module, plus spontaneous emission of the excited
state (gamma21, gamma23) and pure collisional dephasing of each coherence
(Gamma21, Gamma31, Gamma23).  Written out per element (H13 = 0 is kept
symbolically so a driven 1-3 leg could be switched on later):

    rho11' =  2 Im[H12 rho21 + H13 rho31] + gamma21 rho22
    rho22' =  2 Im[H21 rho12 + H23 rho32] - (gamma21 + gamma23) rho22
    rho33' =  2 Im[H31 rho13 + H32 rho23] + gamma23 rho22
    rho12' = -i H12 (rho22 - rho11) - i H13 rho32 + i H32 rho13
             - (gamma21/2 + gamma23/2 + Gamma21) rho12
    rho13' = -i H13 (rho33 - rho11) - i H12 rho23 + i H23 rho12 - Gamma31 rho13
    rho23' = -i H23 (rho33 - rho22) - i H21 rho13 + i H13 rho21
             - (gamma21/2 + gamma23/2 + Gamma23) rho23

Between pulse windows the Hamiltonian is truncated to zero and the
decoherence part has the closed form used by free_evolution, so propagation
is piecewise: fixed-step RK4 inside each pulse window, one analytic map
across each gap.

Inside a window the equations are linear, so each RK4 step is a 9x9 step
map, formed in stacked products and applied in order.

Because the train is phase locked, every pulse generates the identical
superoperator in pulse-local time.  The propagator therefore integrates the
9x9 real generator once per distinct window shape (the first window, and
the interior window when there is more than one pulse) and applies the
resulting linear maps to every pulse, in blocks of pulses within a fixed
byte budget of fine states.  The equations are linear in rho, so this is
algebraically identical to integrating each pulse separately; the tests
pin it against that per-pulse integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import field as field_mod
from .core import (
    DecoherenceRates,
    DensityMatrix,
    LevelSystem,
    RateCheckMode,
    Trajectory,
    config_tree,
    trace,
    validate_rates,
)
from .field import PulseTrainConfig, hamiltonian_element

__all__ = [
    "IntegrationError",
    "IntegratorConfig",
    "NegativePopulation",
    "TraceDrift",
    "free_evolution",
    "lvn_rhs",
    "propagate",
    "quantum_yield",
    "steady_state_yield",
]

#: Default in-pulse step is STEP_SAFETY / omega_max (far below the stability cap).
STEP_SAFETY = 0.02

#: Hard upper bound: at least 20 steps per fastest oscillation period.
STEP_CAP_FRACTION = 1.0 / 20.0

_RK4_CHUNK = 2048

#: RK4 step maps formed per batched product; bounds the 9x9 stacks in memory.
_STEP_MAP_CHUNK = 256

#: Byte budget of the fine states formed per block of pulses.
_BLOCK_BYTES = 1 << 20


class IntegrationError(RuntimeError):
    """Base class for propagation failures (CLI maps these to exit code 3)."""


class TraceDrift(IntegrationError):
    """The trace left 1 by more than the tolerance; the integration is unreliable."""


class NegativePopulation(IntegrationError):
    """A diagonal element fell below -pop_tol; the integration is unreliable."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Knobs of the piecewise propagation.

    step_in_pulse = None resolves to STEP_SAFETY / omega_max with
    omega_max = omega_L + max(omega21, omega32), the fastest phase appearing
    in the counter-rotating terms.  An explicit step may not exceed one
    twentieth of that fastest period.  sampler_stride thins the recorded
    in-window samples (diagnostics still scan every internal step);
    gap_samples places that many analytic samples inside each inter-pulse
    gap.  early_stop_pulses > 0 stops the train once all populations move
    less than early_stop_tol per pulse for that many consecutive pulses.

    interpulse_phases selects the time reference of the interaction
    picture.  False (default) references every pulse to its own center, so
    the coherent map is identical pulse to pulse and each transition is
    effectively locked to a comb tooth.  True references the picture to
    global time: the k-th pulse Hamiltonian picks up the constant phases
    omega_ji * kT, applied here as an equivalent rotation of the coherences
    between pulses.  Only the second form resolves individual comb teeth,
    making the repetition period a physical detuning knob (a two-photon
    tooth can be steered onto the Raman resonance while the one-photon
    legs stay stroboscopically detuned).
    """

    step_in_pulse: float | None = None
    sampler_stride: int = 10
    window_sigmas: float = field_mod.DEFAULT_WINDOW_SIGMAS
    gap_samples: int = 2
    trace_tol: float = 1e-6
    pop_tol: float = 1e-6
    early_stop_pulses: int = 0
    early_stop_tol: float = 1e-6
    interpulse_phases: bool = False

    def __post_init__(self) -> None:
        if self.step_in_pulse is not None and not self.step_in_pulse > 0.0:
            raise ValueError("step_in_pulse must be positive when given")
        if not (isinstance(self.sampler_stride, int) and self.sampler_stride >= 1):
            raise ValueError("sampler_stride must be a positive integer")
        if not self.window_sigmas > 0.0:
            raise ValueError("window_sigmas must be positive")
        if not (isinstance(self.gap_samples, int) and self.gap_samples >= 0):
            raise ValueError("gap_samples must be a non-negative integer")
        for name in ("trace_tol", "pop_tol", "early_stop_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not (isinstance(self.early_stop_pulses, int) and self.early_stop_pulses >= 0):
            raise ValueError("early_stop_pulses must be a non-negative integer")
        if not isinstance(self.interpulse_phases, bool):
            raise ValueError("interpulse_phases must be a bool")


def omega_max(cfg: PulseTrainConfig, sys: LevelSystem) -> float:
    """Fastest oscillation frequency in the interaction-picture Hamiltonian."""
    return cfg.omega_L + max(sys.omega21, sys.omega32)


def resolve_step(icfg: IntegratorConfig, cfg: PulseTrainConfig, sys: LevelSystem) -> float:
    """In-pulse step after applying the default rule and the stability cap."""
    w_max = omega_max(cfg, sys)
    cap = (2.0 * math.pi / w_max) * STEP_CAP_FRACTION
    step = icfg.step_in_pulse if icfg.step_in_pulse is not None else STEP_SAFETY / w_max
    if step > cap:
        raise ValueError(
            f"step_in_pulse = {step:g} exceeds the stability cap {cap:g} "
            f"(one twentieth of the fastest period 2*pi/{w_max:g})"
        )
    return step


# ---------------------------------------------------------------------------
# Right-hand side
# ---------------------------------------------------------------------------

def lvn_rhs(
    rho: DensityMatrix,
    t: float,
    k: int,
    cfg: PulseTrainConfig,
    sys: LevelSystem,
    rates: DecoherenceRates,
) -> DensityMatrix:
    """Time derivative of rho under pulse k at absolute time t.

    Reference implementation of the per-element equations in the module
    docstring, evaluated with complex arithmetic straight from
    hamiltonian_element.  The propagator uses an equivalent vectorized
    generator; their agreement is pinned by tests.
    """
    H21 = hamiltonian_element(2, 1, t, k, cfg, sys)
    H32 = hamiltonian_element(3, 2, t, k, cfg, sys)
    H31 = hamiltonian_element(3, 1, t, k, cfg, sys)
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


def _generator_matrices(
    s_values: np.ndarray,
    cfg: PulseTrainConfig,
    sys: LevelSystem,
    rates: DecoherenceRates,
) -> np.ndarray:
    """Stack of real 9x9 generators L(s) in pulse-local time.

    Acting on v = [p1, p2, p3, Re12, Im12, Re13, Im13, Re23, Im23], so that
    v' = L(s) v reproduces lvn_rhs.  The undriven 1-3 leg is hardcoded to
    zero here; extend the x13/y13 population couplings if it is ever driven.
    """
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    h21, h32 = field_mod._transition_drives(s_values, cfg, sys)
    a, b = h21.real, h21.imag
    c, d = h32.real, h32.imag

    g21, g23 = rates.gamma21, rates.gamma23
    G2 = g21 + g23
    gd12 = 0.5 * G2 + rates.Gamma21
    gd13 = rates.Gamma31
    gd23 = 0.5 * G2 + rates.Gamma23

    L = np.zeros((s_values.size, 9, 9))
    # populations
    L[:, 0, 3] = -2.0 * b
    L[:, 0, 4] = -2.0 * a
    L[:, 0, 1] = g21
    L[:, 1, 3] = 2.0 * b
    L[:, 1, 4] = 2.0 * a
    L[:, 1, 7] = -2.0 * d
    L[:, 1, 8] = -2.0 * c
    L[:, 1, 1] = -G2
    L[:, 2, 7] = 2.0 * d
    L[:, 2, 8] = 2.0 * c
    L[:, 2, 1] = g23
    # rho12
    L[:, 3, 0] = b
    L[:, 3, 1] = -b
    L[:, 3, 5] = -d
    L[:, 3, 6] = -c
    L[:, 3, 3] = -gd12
    L[:, 4, 0] = a
    L[:, 4, 1] = -a
    L[:, 4, 5] = c
    L[:, 4, 6] = -d
    L[:, 4, 4] = -gd12
    # rho13
    L[:, 5, 3] = d
    L[:, 5, 4] = -c
    L[:, 5, 7] = -b
    L[:, 5, 8] = a
    L[:, 5, 5] = -gd13
    L[:, 6, 3] = c
    L[:, 6, 4] = d
    L[:, 6, 7] = -a
    L[:, 6, 8] = -b
    L[:, 6, 6] = -gd13
    # rho23
    L[:, 7, 1] = d
    L[:, 7, 2] = -d
    L[:, 7, 5] = b
    L[:, 7, 6] = a
    L[:, 7, 7] = -gd23
    L[:, 8, 1] = c
    L[:, 8, 2] = -c
    L[:, 8, 5] = -a
    L[:, 8, 6] = b
    L[:, 8, 8] = -gd23
    return L


# ---------------------------------------------------------------------------
# Analytic free evolution
# ---------------------------------------------------------------------------

def _free_factors(dt: float, rates: DecoherenceRates):
    G2 = rates.gamma2_total
    E2 = math.exp(-G2 * dt)
    if G2 > 0.0:
        r21 = rates.gamma21 / G2
        r23 = rates.gamma23 / G2
    else:
        r21 = r23 = 0.0
    f12 = math.exp(-(0.5 * G2 + rates.Gamma21) * dt)
    f13 = math.exp(-rates.Gamma31 * dt)
    f23 = math.exp(-(0.5 * G2 + rates.Gamma23) * dt)
    return E2, r21, r23, f12, f13, f23


def _apply_free(
    v: np.ndarray,
    dt: float,
    rates: DecoherenceRates,
    phases: tuple[float, float, float] | None = None,
) -> np.ndarray:
    """Gap map applied to a (9,) state vector or to each column of a (9, m) stack."""
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


def _map_powers(period_map: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Rows period_map**k @ v for k = 0..n-1, by repeated doubling.

    Each round appends P**m applied to the m rows so far and squares P**m,
    so n rows cost about log2(n) matrix products instead of n steps.
    """
    rows, power = v[None, :], period_map
    while len(rows) < n:
        rows = np.concatenate((rows, rows @ power.T))
        power = power @ power
    return rows[:n]


def _interpulse_angles(T: float, sys: LevelSystem) -> tuple[float, float, float]:
    """Coherence rotation angles (rho12, rho13, rho23) per repetition period.

    Equivalent to carrying the constant per-pulse Hamiltonian phase
    omega_ji * kT of the globally referenced interaction picture over to the
    state between pulses.
    """
    return (sys.omega21 * T, -sys.omega31 * T, -sys.omega32 * T)


def free_evolution(rho: DensityMatrix, dt: float, rates: DecoherenceRates) -> DensityMatrix:
    """Exact field-free decoherence map over a gap of length dt.

    Populations follow the excited-state decay with branching gamma21:gamma23
    (identity when the total decay rate is zero); each coherence decays with
    its own dephasing-plus-lifetime rate.  Composes exactly:
    free_evolution(free_evolution(rho, s), t) == free_evolution(rho, s + t).
    """
    if dt < 0.0:
        raise ValueError(f"dt must be non-negative, got {dt!r}")
    return DensityMatrix.from_vector(_apply_free(rho.to_vector(), dt, rates))


# ---------------------------------------------------------------------------
# Window integration
# ---------------------------------------------------------------------------

def _integrate_window(
    s_lo: float,
    s_hi: float,
    step: float,
    cfg: PulseTrainConfig,
    sys: LevelSystem,
    rates: DecoherenceRates,
    x0: np.ndarray,
):
    """Integrate v' = L(s) v (or M' = L M for matrix x0) over one window.

    Returns (s_grid, x_fine) with x_fine[i] the solution at s_grid[i].  The
    integrator is classic fixed-step RK4 as step maps S_i = I + h/6 (K1 +
    2 K2 + 2 K3 + K4), with K1 = L(s_i), K2 = L_mid (I + h/2 K1), K3 = L_mid
    (I + h/2 K2) and K4 = L(s_i+1) (I + h K3), formed as stacked 9x9 products
    _STEP_MAP_CHUNK steps at a time and applied in order, x_i+1 = S_i x_i.
    """
    length = s_hi - s_lo
    if not length > 0.0:
        raise ValueError("window must have positive length")
    n = max(1, int(math.ceil(length / step)))
    h = length / n
    s_grid = s_lo + h * np.arange(n + 1)

    x_fine = np.empty((n + 1,) + x0.shape)
    x_fine[0] = x0
    eye = np.eye(9)
    for start in range(0, n, _RK4_CHUNK):
        stop = min(start + _RK4_CHUNK, n)
        L_grid = _generator_matrices(s_lo + h * np.arange(start, stop + 1), cfg, sys, rates)
        L_mid = _generator_matrices(s_lo + h * (np.arange(start, stop) + 0.5), cfg, sys, rates)
        for lo in range(0, stop - start, _STEP_MAP_CHUNK):
            hi = min(lo + _STEP_MAP_CHUNK, stop - start)
            k1 = L_grid[lo:hi]
            k2 = L_mid[lo:hi] @ (eye + (0.5 * h) * k1)
            k3 = L_mid[lo:hi] @ (eye + (0.5 * h) * k2)
            k4 = L_grid[lo + 1:hi + 1] @ (eye + h * k3)
            step_maps = eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            done = x_fine[start + lo:start + hi + 1]
            for s_map, x, x_next in zip(step_maps, done, done[1:]):
                np.matmul(s_map, x, out=x_next)
    return s_grid, x_fine


def _scan_states(states: np.ndarray, times: np.ndarray, trace_tol: float, pop_tol: float):
    """Trace and positivity guards over a block of fine states.

    Returns (max |trace - 1|, min population, max rho22) for the block.  A
    non-finite trace (NaN or infinite populations) counts as trace drift.
    """
    p1, p2, p3 = states[:, 0], states[:, 1], states[:, 2]
    drift = np.abs(p1 + p2 + p3 - 1.0)
    worst = int(drift.argmax())
    if not drift[worst] <= trace_tol:
        raise TraceDrift(
            f"|trace - 1| = {drift[worst]:.3e} > {trace_tol:.0e} at t = {times[worst]:g}; "
            "integration step or tolerances are inadequate"
        )
    lowest = np.minimum(np.minimum(p1, p2), p3)
    low = int(lowest.argmin())
    pmin = float(lowest[low])
    if pmin < -pop_tol:
        raise NegativePopulation(
            f"population {pmin:.3e} < -{pop_tol:.0e} at t = {times[low]:g}; "
            "integration step or tolerances are inadequate"
        )
    return float(drift[worst]), pmin, float(p2.max())


def propagate(
    rho0: DensityMatrix,
    cfg: PulseTrainConfig,
    sys: LevelSystem,
    rates: DecoherenceRates,
    icfg: IntegratorConfig | None = None,
    *,
    allow_unconstrained_rates: bool = False,
) -> Trajectory:
    """Propagate rho0 through the full pulse train.

    Pulse k is integrated densely over [kT - w, kT + w] in pulse-local time
    (w = window_sigmas * tau, windows clipped so they never overlap) and each
    gap is crossed with the analytic decoherence map, composed with the
    per-period coherence rotation when icfg.interpulse_phases is set.  The
    trajectory starts at -w and ends at (N-1) T + w, the end of the last
    integrated window (or earlier if the early-stop criterion fires).

    The first pulse runs alone; later pulses run in blocks whose fine states
    fit _BLOCK_BYTES (72 bytes per fine step and pulse).  Pulse-start states
    are carried along the block with the pulse-end map and the gap map, and
    the early-stop rule reads the carried pulse ends.  One matrix product
    with the flattened window map then gives every fine state of the block;
    each pulse's last row is its carried end, the state the next gap map
    acts on.

    Every internal integration step is scanned for trace drift and negative
    populations, a block at a time and pulse by pulse on a failure, so the
    error names the first failing pulse; the trace is never renormalized.

    Unless allow_unconstrained_rates is set, the rates must satisfy the
    additive dephasing relation (validate_rates in ENFORCE mode).
    """
    icfg = icfg if icfg is not None else IntegratorConfig()
    if not allow_unconstrained_rates:
        validate_rates(rates, RateCheckMode.ENFORCE)
    if abs(trace(rho0) - 1.0) > 1e-12:
        raise ValueError(f"initial state must have unit trace, got {trace(rho0)!r}")
    step = resolve_step(icfg, cfg, sys)

    w = icfg.window_sigmas * cfg.tau
    T, N = cfg.T, cfg.N
    gap = max(T - 2.0 * w, 0.0)
    angles = _interpulse_angles(T, sys) if icfg.interpulse_phases else None
    # Pulse-local window bounds.  The first window is always [-w, w]; interior
    # windows lose their leading edge to the previous window when 2w > T.
    interior_span = (max(-w, w - T), w)

    window_cache = {
        span: _integrate_window(*span, step, cfg, sys, rates, np.eye(9))
        for span in ({(-w, w), interior_span} if N > 1 else {(-w, w)})
    }

    n_gap_samples = icfg.gap_samples if gap > 0.0 else 0
    gap_dts = [j * gap / (n_gap_samples + 1) for j in range(1, n_gap_samples + 1)]
    gap_parts = [None if angles is None else tuple(a * dt / gap for a in angles) for dt in gap_dts]
    tols = (icfg.trace_tol, icfg.pop_tol)
    v = rho0.to_vector()
    times_chunks: list[np.ndarray] = []
    data_chunks: list[np.ndarray] = []
    end_chunks: list[np.ndarray] = []
    n_recorded = 0
    max_drift = 0.0
    min_pop = float(v[:3].min())
    max_rho22 = float(v[1])
    prev_pops: np.ndarray | None = None
    stable_run = 0
    stopped_early = False
    k = 0

    while k < N and not stopped_early:
        s_grid, m_fine = window_cache[(-w, w) if k == 0 else interior_span]
        # pulse 0 runs alone: its window and its recorded rows may differ
        block = 1 if k == 0 else min(N - k, max(1, _BLOCK_BYTES // (72 * s_grid.size)))
        starts, ends = np.empty((2, block, 9))
        for b in range(block):
            starts[b] = v
            v = ends[b] = m_fine[-1] @ v
            if icfg.early_stop_pulses:
                moved = np.inf if prev_pops is None else np.abs(v[:3] - prev_pops).max()
                stable_run = stable_run + 1 if moved < icfg.early_stop_tol else 0
                prev_pops = v[:3]
                if stable_run >= icfg.early_stop_pulses:
                    stopped_early = True
                    break
            if k + b < N - 1 and (gap > 0.0 or angles is not None):
                v = _apply_free(v, gap, rates, angles)
        n_block = b + 1
        states = (starts[:n_block] @ m_fine.reshape(-1, 9).T).reshape(n_block, -1, 9)
        # the recorded pulse end is exactly the state the next gap map acts on
        states[:, -1] = ends[:n_block]
        starts_t = (k + np.arange(n_block))[:, None] * T
        abs_times = starts_t + s_grid
        try:
            drift, pmin, p2max = _scan_states(states.reshape(-1, 9), abs_times.ravel(), *tols)
        except IntegrationError:
            # name the first failing pulse, as a pulse-by-pulse scan would
            for pulse_states, pulse_times in zip(states, abs_times):
                _scan_states(pulse_states, pulse_times, *tols)
            raise
        max_drift = max(max_drift, drift)
        min_pop = min(min_pop, pmin)
        max_rho22 = max(max_rho22, p2max)

        sel = np.append(np.arange(0, s_grid.size - 1, icfg.sampler_stride), s_grid.size - 1)
        if k > 0 and gap == 0.0:
            # a later window with no gap starts exactly where the previous one ended
            sel = sel[1:]
        rows, row_times = states[:, sel], abs_times[:, sel]
        # the last pulse of the train, or the one that stopped it, has no gap
        n_gapped = n_block if k + n_block < N and not stopped_early else n_block - 1
        gap_states = np.empty((n_block, n_gap_samples, 9))
        for b in range(n_gapped):
            for j, (dt, part) in enumerate(zip(gap_dts, gap_parts)):
                gap_states[b, j] = _apply_free(states[b, -1], dt, rates, part)
        rows = np.concatenate((rows, gap_states), axis=1)
        row_times = np.concatenate((row_times, starts_t + w + gap_dts), axis=1)
        n_rows = n_block * rows.shape[1] - (n_block - n_gapped) * n_gap_samples
        data_chunks.append(rows.reshape(-1, 9)[:n_rows])
        times_chunks.append(row_times.ravel()[:n_rows])
        end_chunks.append(n_recorded + sel.size - 1 + rows.shape[1] * np.arange(n_block))
        n_recorded += n_rows
        k += n_block

    times = np.concatenate(times_chunks)
    data = np.concatenate(data_chunks)
    metadata = config_tree(sys, cfg, rates, icfg, rho0)
    metadata["resolved_step"] = step
    metadata["diagnostics"] = {
        "trace_max_drift": max_drift,
        "min_population": min_pop,
        "max_rho22": max_rho22,
        "pulses_run": k,
        "early_stopped": stopped_early,
        "t_begin": float(times[0]),
        "t_end": float(times[-1]),
    }
    return Trajectory(
        times=times,
        data=data,
        pulse_end_indices=np.concatenate(end_chunks),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Yield readouts
# ---------------------------------------------------------------------------

def quantum_yield(traj: Trajectory) -> float:
    """Target-state population of the final sample."""
    return float(traj.rho33[-1])


def steady_state_yield(traj: Trajectory, trailing_fraction: float = 0.05) -> float:
    """Mean target-state population over the trailing fraction of samples."""
    if not 0.0 < trailing_fraction <= 1.0:
        raise ValueError("trailing_fraction must be in (0, 1]")
    m = max(1, int(math.ceil(trailing_fraction * traj.n_samples)))
    return float(traj.rho33[-m:].mean())
