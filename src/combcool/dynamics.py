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
byte budget of fine states.  The train is one stroboscopic map: each gap
applies the gap map G and each pulse the window's end map M, all three
9x9 matrices, so pulse ends follow the period map P = M G, formed once per
window map.  One loop carries and scans every block, the first of them
pulse 0 alone on the first window, and keeps only the pulse ends, one
product with P each.  A block's pulse starts are one product of its ends
before them with G (_pulse_starts), for the scan and again wherever the
returned trajectory forms its rows, block by block; the ends determine
every sample.  The equations are linear in rho, so this is algebraically
identical to integrating each pulse separately; the tests pin it against
that per-pulse integration, to rounding.

The window map does not depend on the pulse count, and depends on the
period only through the clipped window span, so the last map built stays in
a one-slot memo keyed on everything the build reads: a sweep over T or N
builds it once.  Inside a block only the population rows of the map are
applied to every fine state (the guards read nothing else); all nine
components are formed only for the recorded samples, the window's rows
and each in-gap sample's G_dt M, in one product with the block's starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, astuple, dataclass

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
from .field import PulseTrainConfig

__all__ = [
    "IntegrationError",
    "IntegratorConfig",
    "NegativePopulation",
    "TraceDrift",
    "free_evolution",
    "propagate",
    "quantum_yield",
    "steady_state_yield",
]

#: Default in-pulse step is STEP_SAFETY / omega_max (far below the stability cap).
STEP_SAFETY = 0.02

#: Hard upper bound: at least 20 steps per fastest oscillation period.
STEP_CAP_FRACTION = 1.0 / 20.0

#: RK4 steps per slice of a window build; bounds every 9x9 stack in memory.
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


def check_initial_state(rho0: DensityMatrix) -> None:
    """Reject an initial state that is no density matrix: its trace must be 1
    within 1e-12 and its smallest eigenvalue above -1e-12.

    The eigenvalue test eliminates rho0 + 1e-12 * I as a Cholesky
    factorization does: that matrix is positive definite exactly when every
    pivot is positive.  It calls no LAPACK routine, whose first call pages
    in about 0.5 MB; eigvalsh runs only to word the error.
    """
    if abs(trace(rho0) - 1.0) > 1e-12:
        raise ValueError(f"initial state must have unit trace, got {trace(rho0)!r}")
    m = rho0.matrix + 1e-12 * np.eye(3)
    for j in range(3):
        if not m[j, j].real > 0.0:
            lowest = np.linalg.eigvalsh(rho0.matrix)[0]
            raise ValueError(f"initial state must be positive semidefinite, lowest eigenvalue {lowest:.3e}")
        m[j + 1:, j + 1:] -= np.outer(m[j + 1:, j], m[j, j + 1:]) / m[j, j]


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def _generator_matrices(
    s_values: np.ndarray,
    cfg: PulseTrainConfig,
    sys: LevelSystem,
    rates: DecoherenceRates,
) -> np.ndarray:
    """Stack of real 9x9 generators L(s) in pulse-local time.

    Acting on v = [p1, p2, p3, Re12, Im12, Re13, Im13, Re23, Im23], so that
    v' = L(s) v gives the per-element equations of the module docstring (the
    tests pin it against a complex-arithmetic reference).  The undriven 1-3
    leg is hardcoded to zero here; extend the x13/y13 population couplings
    if it is ever driven.
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


def _gap_map(dt: float, rates: DecoherenceRates, angles=None) -> np.ndarray:
    """The gap map G over a gap of length dt, as a 9x9 matrix.

    The excited population keeps E2 of itself, and the ground populations
    gain r21 and r23 of what it loses; each coherence pair (x, y) decays by
    its factor f (f12, f13, f23) and, when angles (rho12, rho13, rho23) are
    given, turns by its angle to f (c x - s y, s x + c y), with c and s the
    math.cos and math.sin of the angle.  Each entry is what the per-row map
    gives for the identity, up to the sign of zero entries.
    """
    E2, r21, r23, f12, f13, f23 = _free_factors(dt, rates)
    gap_map = np.diag([1.0, E2, 1.0, f12, f12, f13, f13, f23, f23])
    gap_map[0, 1] = r21 * (1.0 - E2)
    gap_map[2, 1] = r23 * (1.0 - E2)
    if angles is not None:
        for i, a, f in zip((3, 5, 7), angles, (f12, f13, f23)):
            c, s = math.cos(a) * f, math.sin(a) * f
            gap_map[i:i + 2, i:i + 2] = ((c, -s), (s, c))
    return gap_map


def _apply_free(states: np.ndarray, gap_map: np.ndarray) -> np.ndarray:
    """The gap map applied to a (9,) state or to each row of an (m, 9) stack.

    No row of G has more than two nonzero entries, so each entry of the
    product is one rounded sum of two rounded products in any unfused
    order: a state and a stack get the same bits, and without rates those
    of the per-row map.  einsum sums so; a BLAS kernel fuses the
    multiply-add and rounds otherwise.
    """
    return np.einsum("...j,ij->...i", states, gap_map)


def _map_powers(period_map: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Rows period_map**k @ v for k = 0..n-1, by repeated doubling.

    Each round writes P**m applied to the first rows into the rows after the
    m so far, then squares P**m if another round follows, so n rows cost
    about 2 log2(n) matrix products.  The last round maps only the n - m
    rows that are read, but at least two once m >= 2: a single row goes
    through a matrix-vector product, which rounds differently from the
    matrix products of the earlier rounds.  So the buffer holds n + 1 rows.
    """
    rows = np.empty((n + 1, 9))
    rows[0] = v
    power, m = period_map, 1
    while m < n:
        new = min(m, max(n - m, 2))
        np.dot(rows[:new], power.T, out=rows[m:m + new])
        m += new
        if m < n:
            power = np.dot(power, power)
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
    its own dephasing-plus-lifetime rate.  It is one product with the gap
    map _gap_map(dt, rates) and composes to rounding:
    free_evolution(free_evolution(rho, s), t) matches free_evolution(rho, s + t).
    """
    if dt < 0.0:
        raise ValueError(f"dt must be non-negative, got {dt!r}")
    return DensityMatrix.from_vector(_apply_free(rho.to_vector(), _gap_map(dt, rates)))


# ---------------------------------------------------------------------------
# Window integration
# ---------------------------------------------------------------------------

def _window_steps(s_lo: float, s_hi: float, step: float) -> tuple[int, float]:
    """(n, h): the RK4 step count and the equal step that span [s_lo, s_hi]."""
    length = s_hi - s_lo
    if not length > 0.0:
        raise ValueError("window must have positive length")
    n = max(1, int(math.ceil(length / step)))
    return n, length / n


def _step_map_slices(
    s_lo: float,
    n: int,
    h: float,
    cfg: PulseTrainConfig,
    sys: LevelSystem,
    rates: DecoherenceRates,
):
    """Yield (lo, step_maps) for each _STEP_MAP_CHUNK slice of an n-step window.

    step_maps[j] is the RK4 step map S_lo+j = I + h/6 (K1 + 2 K2 + 2 K3 +
    K4), with K1 = L(s_i), K2 = L_mid (I + h/2 K1), K3 = L_mid (I + h/2 K2)
    and K4 = L(s_i+1) (I + h K3).  Each slice forms the generators at its own
    grid nodes (both ends, so adjacent slices share one node) and midpoints,
    so every stack is bounded by the slice whatever the window length, and
    each node is the same expression s_lo + h * i as in the window's s_grid.
    """
    eye = np.eye(9)
    for lo in range(0, n, _STEP_MAP_CHUNK):
        hi = min(lo + _STEP_MAP_CHUNK, n)
        L_grid = _generator_matrices(s_lo + h * np.arange(lo, hi + 1), cfg, sys, rates)
        L_mid = _generator_matrices(s_lo + h * (np.arange(lo, hi) + 0.5), cfg, sys, rates)
        k1 = L_grid[:-1]
        k2 = L_mid @ (eye + (0.5 * h) * k1)
        k3 = L_mid @ (eye + (0.5 * h) * k2)
        k4 = L_grid[1:] @ (eye + h * k3)
        yield lo, eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


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

    Returns (s_grid, x_fine) with x_fine[i] the solution at s_grid[i], every
    fine state kept.  The integrator is classic fixed-step RK4: the step maps
    of each slice come from _step_map_slices and are applied in order,
    x_i+1 = S_i x_i.  A caller that reads only the window's end map uses
    _window_end_map, which applies the same maps without the history.
    """
    n, h = _window_steps(s_lo, s_hi, step)
    s_grid = s_lo + h * np.arange(n + 1)

    x_fine = np.empty((n + 1,) + x0.shape)
    x_fine[0] = x0
    for lo, step_maps in _step_map_slices(s_lo, n, h, cfg, sys, rates):
        done = x_fine[lo:lo + len(step_maps) + 1]
        for s_map, x, x_next in zip(step_maps, done, done[1:]):
            np.dot(s_map, x, out=x_next)
    return s_grid, x_fine


def _window_end_map(
    s_lo: float,
    s_hi: float,
    step: float,
    cfg: PulseTrainConfig,
    sys: LevelSystem,
    rates: DecoherenceRates,
) -> np.ndarray:
    """The 9x9 map of one whole window: _integrate_window(..., eye)[1][-1].

    The same step maps go through the same np.dot calls, so the result is
    bitwise the last fine state of the full build, but the product alternates
    between two 9x9 buffers instead of filling the window's history.
    """
    n, h = _window_steps(s_lo, s_hi, step)
    x, y = np.eye(9), np.empty((9, 9))
    for _, step_maps in _step_map_slices(s_lo, n, h, cfg, sys, rates):
        for s_map in step_maps:
            np.dot(s_map, x, out=y)
            x, y = y, x
    return x


#: One-slot memo of window maps: {key: (s_grid, m_fine)}, never more than one entry.
_window_memo: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _window_key(span, step, cfg: PulseTrainConfig, sys: LevelSystem, rates: DecoherenceRates) -> tuple:
    """Everything _integrate_window reads, with each float by its bit pattern.

    T and N are left out: the map never sees N, and sees T only through the
    span.  Comparing bit patterns keeps -0.0 and 0.0 apart.
    """
    train = asdict(cfg)
    modulation = train.pop("modulation")
    del train["T"], train["N"]
    values = (*span, step, *train.values(), *modulation.values(), *astuple(sys), *astuple(rates))
    return tuple(x if isinstance(x, str) else float(x).hex() for x in values)


def _window_map(span, step, cfg: PulseTrainConfig, sys: LevelSystem, rates: DecoherenceRates):
    """Read-only (s_grid, m_fine) of one window, reused while its key repeats.

    A sweep over the period or the pulse count keeps the key, so its points
    share one build.  The slot is emptied before a build, so at most one map
    is held between calls.
    """
    key = _window_key(span, step, cfg, sys, rates)
    maps = _window_memo.get(key)
    if maps is None:
        _window_memo.clear()
        maps = _integrate_window(*span, step, cfg, sys, rates, np.eye(9))
        for array in maps:
            array.flags.writeable = False
        _window_memo[key] = maps
    return maps


def _at(times, row: int) -> str:
    """' at t = ...' of one row for a guard's error text, or nothing without times."""
    return "" if times is None else f" at t = {times[row]:g}"


def _scan_states(states: np.ndarray, times, trace_tol: float, pop_tol: float):
    """Trace and positivity guards over a block of fine states.

    Reads only the populations, columns 0-2 of each row, so states may be
    the (m, 3) population rows alone.  Returns (max |trace - 1|, min
    population, max rho22) for the block.  A non-finite trace (NaN or
    infinite populations) counts as trace drift.  times gives the time of
    each row for the error text; a caller that rescans a failing block with
    the times passes None, and the first error names no time.
    """
    p1, p2, p3 = states[:, 0], states[:, 1], states[:, 2]
    # one buffer holds |trace - 1| of each state, then its lowest population
    drift = p1 + p2
    drift += p3
    drift -= 1.0
    np.abs(drift, out=drift)
    worst = int(drift.argmax())
    max_drift = float(drift[worst])
    if not max_drift <= trace_tol:
        raise TraceDrift(
            f"|trace - 1| = {max_drift:.3e} > {trace_tol:.0e}{_at(times, worst)}; "
            "integration step or tolerances are inadequate"
        )
    lowest = np.minimum(np.minimum(p1, p2, out=drift), p3, out=drift)
    low = int(lowest.argmin())
    pmin = float(lowest[low])
    if pmin < -pop_tol:
        raise NegativePopulation(
            f"population {pmin:.3e} < -{pop_tol:.0e}{_at(times, low)}; "
            "integration step or tolerances are inadequate"
        )
    return max_drift, pmin, float(p2.max())


def _pulse_starts(v0, before, gap_map):
    """The start states of a block of pulses, one per row.

    before holds the ends of the pulses before them, or is None for pulse
    0's block, which starts from v0.  Each later start is the carried gap
    map G (None if the train crosses no gap) of the end before it, one
    product for the block.  The scan of propagate and the row former
    _pulse_rows both take their starts from here.
    """
    if before is None:
        return v0[None]
    return before if gap_map is None else _apply_free(before, gap_map)


def _pulse_rows(v0, windows, gap_map, n_gap_samples, T, block, ends, first):
    """Yield (times, rows) of a propagated train's row blocks from row first
    to the train's last row.

    The train's pulse ends are ends; propagate binds the rest: the initial
    vector v0, the (local, offset, rows) records of the recorded samples of
    the first and the interior window, the carried gap map G (None if the
    train crosses no gap), the gap samples per pulse, the period T and the
    block size.  A record holds each sample's map, stacked into rows, and
    its pulse-local time local + offset: the window's samples at their grid
    times with offset 0, then the in-gap samples G_dt M at w + dt.  Pulse 0
    is one block on the first window; later pulses run in blocks of block
    pulses on the interior window, as in the carry.  A block's starts come
    from _pulse_starts, as in the scan, and one matrix product of the starts
    with the recorded rows gives every recorded sample of the block.  Each
    pulse's end row is then set to its carried end, the state the next gap
    map acts on.  Pulse k's sample falls at (k T + local) + offset, the sum
    of the per-pulse loop.  The train's last pulse records no gap samples,
    and the first block formed leaves out its rows before row first.
    """
    n_pulses = len(ends)
    # the rows of pulse 0, and of each later pulse
    lead, row_len = (window[0].size for window in (windows[0], windows[-1]))
    k = 0 if first < lead else 1 + (first - lead) // row_len // block * block
    skip = first - (0 if k == 0 else lead + (k - 1) * row_len)
    while k < n_pulses:
        hi = min(k + block, n_pulses) if k else 1
        local, offset, rec_rows = windows[-1] if k else windows[0]
        starts = _pulse_starts(v0, ends[k - 1:hi - 1] if k else None, gap_map)
        pulse_times = np.arange(k, hi)[:, None] * T + local
        pulse_times += offset
        pulse_rows = (starts @ rec_rows.T).reshape(hi - k, -1, 9)
        pulse_rows[:, -1 - n_gap_samples] = ends[k:hi]
        n_rows = pulse_times.size - (n_gap_samples if hi == n_pulses else 0)
        yield pulse_times.ravel()[skip:n_rows], pulse_rows.reshape(-1, 9)[skip:n_rows]
        k, skip = hi, 0


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
    integrated window (or earlier if the early-stop criterion fires).  A gap
    of at most 1e-12 (gap_samples + 1) N T is crossed as no gap, like T = 2w:
    at times up to N T the grid cannot place its samples between the window
    ends (with T = 2.376000000000001 and w = 1.188 they would coincide).

    Window maps come from a one-slot memo (_window_map), so a call that
    repeats the previous call's map inputs, for example one with another T
    or N, reuses its read-only map instead of integrating again.

    Pulse 0 is the first block, alone on the first window; later pulses
    run in blocks whose fine states fit _BLOCK_BYTES (72 bytes per fine
    step and pulse).  The carried gap's map G, a 9x9 matrix, is formed once
    per call, only if the train crosses a gap or rotates, and each window
    map fetched gives the period map P = M G with M its end map (P = M with
    no gap map).  One loop runs over the blocks, and each pass does four
    things in turn:

    - The carry.  Only pulse ends are carried: pulse 0's end is M rho0, and
      each later end is one product of P with the end before it.
    - The early stop.  The rule reads the block's carried ends against the
      end before each; pulse 0's end has none, so it never counts toward
      the stable run.  The block is cut after the stopping pulse, and the
      loop ends with it, so the call keeps only the pulses that run.
    - The scan.  The kept pulses' starts come from _pulse_starts, one
      product of the ends before them with G (rho0 for pulse 0).  One
      matrix product with the population rows of the window map gives the
      populations of every fine state, each pulse's last one taken from its
      carried end; the guard extremes are three running values.
    - The record.  The kept pulse ends are appended to the carried ends;
      the block's starts are dropped once scanned.

    Each window fetched records its samples: the window map's rows at every
    sampler_stride-th fine step and at its end, then, with a gap, the maps
    G_dt M of the in-gap samples, dt the sample offsets into the gap (the
    rotation, if any, turned in proportion to dt).  The returned Trajectory
    holds the pulse ends joined into one (K, 9) array and one row former,
    _pulse_rows bound to rho0, the records of each window, G, the gap
    samples per pulse, T and the block size.  It forms the rows wherever
    they are read, block by block on the same partition as the carry, each
    block's starts formed again from the pulse ends before them by
    _pulse_starts, as in the scan; the train's last pulse, the last of the
    train or the one that stopped it, records no gap samples.

    With a gap every pulse shares the first window and its recorded rows;
    without one, later windows start where the one before ended, and the
    interior map is fetched at pulse 1, once the first map is dropped, so
    overlapping windows (2w > T), whose spans differ, build each map once
    and a call holds one.  Pulse k ends row_len k rows after pulse 0, with
    row_len the interior window's recorded rows plus the gap samples.  A
    call holds the window map and one block's temporaries, about
    _BLOCK_BYTES, beside the carried ends; the trajectory it returns holds
    the pulse ends and their row indices (80 bytes per pulse) and the
    records of each window, and no sample rows.

    Every internal integration step is scanned for trace drift and negative
    populations, a block at a time and pulse by pulse on a failure, so the
    error names the first failing pulse; the trace is never renormalized.
    Each block is scanned before the next is carried, so a run that fails
    a guard stops at the block of its first failing pulse.

    Unless allow_unconstrained_rates is set, the rates must satisfy the
    additive dephasing relation (validate_rates in ENFORCE mode).
    """
    icfg = icfg if icfg is not None else IntegratorConfig()
    if not allow_unconstrained_rates:
        validate_rates(rates, RateCheckMode.ENFORCE)
    check_initial_state(rho0)
    step = resolve_step(icfg, cfg, sys)

    w = icfg.window_sigmas * cfg.tau
    T, N = cfg.T, cfg.N
    gap = T - 2.0 * w
    if gap <= 1e-12 * (icfg.gap_samples + 1) * N * T:
        gap = 0.0
    angles = _interpulse_angles(T, sys) if icfg.interpulse_phases else None

    n_gap_samples = icfg.gap_samples if gap > 0.0 else 0
    gap_dts = [j * gap / (n_gap_samples + 1) for j in range(1, n_gap_samples + 1)]
    gap_map = _gap_map(gap, rates, angles) if N > 1 and (gap > 0.0 or angles is not None) else None
    tols = (icfg.trace_tol, icfg.pop_tol)

    v = v0 = rho0.to_vector()
    drift, pmin, p2max = 0.0, float(v[:3].min()), float(v[1])
    stable_run, stopped_early = 0, False
    windows, carried, k = [], [], 0
    while k < N and not stopped_early:
        if k == 0 or (k == 1 and gap == 0.0):
            # Pulse 0 runs alone on the first window, [-w, w], which every later
            # pulse shares when there is a gap.  Without one, later windows start
            # at the end node of the window before (losing their leading edge
            # when 2w > T) and do not record that node again: sel[k:] drops it.
            # The first map is dropped before the interior one is fetched, so
            # each map is built once and one is held.
            m_fine = m_end = period = pop_rows = None
            s_grid, m_fine = _window_map((max(-w, w - T), w) if k else (-w, w), step, cfg, sys, rates)
            m_end = m_fine[-1]
            # the pulse-end period map P = M G: one gap, then one pulse
            period = m_end if gap_map is None else np.dot(m_end, gap_map)
            pop_rows = np.ascontiguousarray(m_fine[:, :3]).reshape(-1, 9)
            sel = np.append(np.arange(0, s_grid.size - 1, icfg.sampler_stride), s_grid.size - 1)[k:]
            # the recorded samples' maps: the window's, then G_dt M at w + dt in the gap
            gap_rows = [
                _gap_map(dt, rates, None if angles is None else tuple(a * dt / gap for a in angles)) @ m_end
                for dt in gap_dts
            ]
            local = np.concatenate((s_grid[sel], np.full(n_gap_samples, w)))
            offset = np.concatenate((np.zeros(sel.size), gap_dts))
            windows.append((local, offset, np.concatenate((m_fine[sel].reshape(-1, 9), *gap_rows))))
            block = max(1, _BLOCK_BYTES // (72 * s_grid.size))
        # carry the pulse ends along the block: pulse 0 maps rho0 by M, each
        # later pulse the end before it by P.  Row 0 holds the end before the
        # block, NaN before pulse 0, so pulse 0 never counts toward the stable run.
        n_block = 1 if k == 0 else min(N - k, block)
        ends = np.empty((n_block + 1, 9))
        ends[0] = v if k else np.nan
        for b in range(1, n_block + 1):
            v = ends[b] = np.dot(period if k else m_end, v)
        if icfg.early_stop_pulses:
            # how far each pulse end's populations moved from the end before it
            moved = np.abs(np.diff(ends[:, :3], axis=0)).max(axis=1)
            for b, moved_b in enumerate(moved.tolist()):
                stable_run = stable_run + 1 if moved_b < icfg.early_stop_tol else 0
                if stable_run >= icfg.early_stop_pulses:
                    n_block, stopped_early = b + 1, True
                    break
        # scan every fine state of the kept pulses; the recorded pulse end is
        # exactly the state the next gap map acts on
        starts = _pulse_starts(v0, ends[:n_block] if k else None, gap_map)
        pops = (starts @ pop_rows.T).reshape(n_block, -1, 3)
        pops[:, -1] = ends[1:n_block + 1, :3]
        try:
            d, p, q = _scan_states(pops.reshape(-1, 3), None, *tols)
        except IntegrationError:
            # name the first failing pulse and its time, as a pulse-by-pulse scan would
            abs_times = (k + np.arange(n_block))[:, None] * T + s_grid
            for pulse_pops, pulse_times in zip(pops, abs_times):
                _scan_states(pulse_pops, pulse_times, *tols)
            raise
        drift, pmin, p2max = max(drift, d), min(pmin, p), max(p2max, q)
        del pops  # before the next block's populations are formed
        carried.append(ends[1:n_block + 1])
        k += n_block
    # pulse 0's end row; each later pulse ends row_len rows after the one before
    first_end, row_len = windows[0][0].size - 1 - n_gap_samples, windows[-1][0].size
    pulse_end_indices = np.arange(first_end, first_end + k * row_len, row_len)
    rows = functools.partial(_pulse_rows, v0, windows, gap_map, n_gap_samples, T, block)

    metadata = config_tree(sys, cfg, rates, icfg, rho0)
    metadata["resolved_step"] = step
    metadata["diagnostics"] = {
        "trace_max_drift": drift,
        "min_population": pmin,
        "max_rho22": p2max,
        "pulses_run": k,
        "early_stopped": stopped_early,
        # the first row opens pulse 0's window; the last closes pulse k - 1's
        "t_begin": float(-w),
        "t_end": float((k - 1) * T + s_grid[-1]),
    }
    return Trajectory(np.concatenate(carried), pulse_end_indices, metadata, rows, int(pulse_end_indices[-1]) + 1)


# ---------------------------------------------------------------------------
# Yield readouts
# ---------------------------------------------------------------------------

def quantum_yield(traj: Trajectory) -> float:
    """Target-state population of the final sample."""
    return float(traj.last_rows(1)[0, 2])


def steady_state_yield(traj: Trajectory, trailing_fraction: float = 0.05) -> float:
    """Mean target-state population over the trailing fraction of samples."""
    if not 0.0 < trailing_fraction <= 1.0:
        raise ValueError("trailing_fraction must be in (0, 1]")
    m = max(1, int(math.ceil(trailing_fraction * traj.n_samples)))
    return float(traj.last_rows(m)[:, 2].mean())
