"""Named experiment presets, expectation checks, and the fig4 calibration scan.

The dephasing-rate validator (validate_rates, RateCheckMode, RateReport)
lives in core and is re-exported here.

Seven presets cover the regimes the simulator demonstrates, addressable by
the short names used throughout the command-line interface:

===========  ================================================================
name         configuration and headline behaviour
===========  ================================================================
``fig3``     resonant weak-drive standard comb, closed system; the excited
             state is transiently populated up to about one half.
``fig4``     sine-chirped strong-drive comb, closed system; stepwise,
             near-complete 1->3 transfer completing in about 109 pulses.
``fig5``     weak standard comb with collisional dephasing; incoherent
             accumulation towards the pulse-end fixed point I/3, a 1/3 yield
             (0.342 after 3200 pulses).
``fig5sp``   fig5 plus spontaneous emission; the extra 2->3 decay channel
             raises the pulse-end fixed point to a 0.4708 yield.
``fig6sin``  sine-chirped strong comb with decoherence, short period; yield
             0.924 after 130 pulses.  Without the rates the same train keeps
             pulse-end rho33 below 0.0035 for 2000 pulses.
``fig6cos``  cosine-chirped strong comb with decoherence, long period; the
             populations lock into an equal 1-3 mixture with a large 1-3
             coherence instead of transferring.
``fig6std``  unmodulated strong comb with the same decoherence; degraded
             mid-range yield.
===========  ================================================================

Two reference ladders are used.  The weak-drive presets (fig3/fig5 family)
express every frequency in units of their own 1-3 splitting, quoted as
125.5 THz; the strong-drive presets (fig4/fig6 family) use their 70 THz
splitting.  Laboratory times (a 3 fs pulse, a 5 GHz repetition rate) convert
through :class:`~combcool.core.FrequencyUnit`, which reads a THz value as an
angular frequency.

The strong-drive pulse duration and repetition period are not externally
given; they are fixed by :func:`calibrate_fig4`, a scripted scan that selects
the (tau, period) pair producing stepwise transfer completing in 109 +/- 10
pulses.  The scan integrates one pulse-end map M per duration
(dynamics._window_end_map, no fine-state history) and scores each candidate
period from the pulse ends that propagate carries, by the period map
P = M G with G the inter-pulse rotation: M rho0, then its images under the
powers of P, formed by repeated doubling.  The chosen values are
frozen into module constants and marked with ``derived`` provenance on
the corresponding expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DecoherenceRates,
    DensityMatrix,
    FrequencyUnit,
    LevelSystem,
    RateCheckMode,
    RateReport,
    Trajectory,
    validate_rates,
)
from .dynamics import (
    IntegratorConfig,
    _apply_free,
    _gap_factors,
    _interpulse_angles,
    _map_powers,
    _window_end_map,
    propagate,
    quantum_yield,
    resolve_step,
    steady_state_yield,
)
from .field import Modulation, PulseTrainConfig

__all__ = [
    "CalibrationPoint",
    "CalibrationResult",
    "Expectation",
    "ExpectationResult",
    "PRESET_NAMES",
    "RateCheckMode",
    "RateReport",
    "ScenarioPreset",
    "calibrate_fig4",
    "evaluate_expectations",
    "get_preset",
    "run_preset",
    "transfer_pulse",
    "validate_rates",
]


# ---------------------------------------------------------------------------
# Reference ladders and frozen preset constants
# ---------------------------------------------------------------------------

#: Weak-drive ladder: transitions 309.3 and 434.8 THz, 1-3 splitting 125.5 THz
#: (the unit).  Drives are weak enough that the excited state is only
#: transiently populated.
WEAK_UNIT_THZ = 125.5
WEAK_OMEGA21 = 309.3 / WEAK_UNIT_THZ
WEAK_OMEGA32 = 434.8 / WEAK_UNIT_THZ

#: Strong-drive ladder: transitions 340.7 and 410.7 THz, 1-3 splitting 70 THz
#: (the unit).  The peak Rabi frequency equals the unit, deep in the
#: non-perturbative regime.
STRONG_UNIT_THZ = 70.0
STRONG_OMEGA21 = 340.7 / STRONG_UNIT_THZ
STRONG_OMEGA32 = 410.7 / STRONG_UNIT_THZ

#: Weak-drive laboratory parameters: 3 fs pulses at a 5 GHz repetition rate.
WEAK_TAU_SECONDS = 3e-15
WEAK_REP_RATE_HZ = 5e9
FIG3_RABI = 1.26 / WEAK_UNIT_THZ
FIG5_RABI = 12.6 / WEAK_UNIT_THZ
#: Collisional dephasing (and, for fig5sp, spontaneous emission) rate of the
#: weak-drive decoherent presets, in the weak unit.
WEAK_RATE = 0.001

#: Strong-drive constants frozen by calibrate_fig4 (derived, not quoted):
#: pulse duration, repetition period, and the pulse count at which the
#: stepwise yield first peaks.
FIG4_TAU = 0.198
FIG4_PERIOD = 14005.253930
FIG4_PULSES = 118
FIG4_RABI = 1.0
FIG4_PHI0 = 4.0

#: Decoherence rate of the chirped-comb comparison presets: 0.001 in the weak
#: ladder unit, re-expressed in the strong unit shared by their drive
#: geometry so the absolute physical rates match.
FIG6_RATE = 0.001 * WEAK_UNIT_THZ / STRONG_UNIT_THZ
#: Short repetition period of the decoherent sine preset.  It is a chosen
#: value: no code in the package derives it (calibrate_fig4 derives only
#: fig4's pair).  With FIG6_RATE the 130-pulse train reaches a 0.924 yield;
#: with all rates zero it keeps pulse-end rho33 below 0.0035 for 2000 pulses.
FIG6_SINE_PERIOD = 41.308
FIG6_SINE_PULSES = 130

#: Default scheduled length and early-stop patience of the steady-state runs.
LONG_RUN_PULSES = 3200
EARLY_STOP_PULSES = 50

#: Provenance tags carried by expectations: values quoted from the reference
#: results a preset reproduces, versus values fixed by this package's own
#: calibration or analysis.
PROVENANCE_REFERENCE = "reference"
PROVENANCE_DERIVED = "derived"


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

def _measured_transfer_pulse(traj: Trajectory) -> float:
    # NaN, which fails every band, when nothing was transferred: then
    # transfer_pulse falls back to the pulse count, which measures nothing
    pulse = transfer_pulse(traj)
    return float(pulse) if traj.pulse_ends[-1, 2] > 0.0 else math.nan


#: The reader of each quantity an Expectation may target (measure_quantity).
_READOUTS = {
    "final_yield": lambda traj: float(quantum_yield(traj)),
    "steady_yield": lambda traj: float(steady_state_yield(traj)),
    "max_rho22": lambda traj: float(traj.metadata["diagnostics"]["max_rho22"]),
    "transfer_pulse": _measured_transfer_pulse,
    "final_rho11": lambda traj: traj.final_state.rho11,
    "final_coherence13": lambda traj: float(abs(traj.final_state.rho13)),
}

#: Quantities an Expectation may target; measured by measure_quantity().
EXPECTATION_QUANTITIES = tuple(_READOUTS)


@dataclass(frozen=True)
class Expectation:
    """A single checkable prediction attached to a preset.

    Either a two-sided band (``target`` +/- ``tolerance``) or explicit
    one-sided bounds (``lo``/``hi``).  ``provenance`` records whether the
    number is quoted from the reference results ("reference") or fixed by
    this package's own calibration ("derived").
    """

    quantity: str
    target: float | None = None
    tolerance: float | None = None
    lo: float | None = None
    hi: float | None = None
    provenance: str = PROVENANCE_REFERENCE
    note: str = ""

    def __post_init__(self) -> None:
        if self.quantity not in EXPECTATION_QUANTITIES:
            raise ValueError(
                f"unknown quantity {self.quantity!r}, expected one of {EXPECTATION_QUANTITIES}"
            )
        if (self.target is None) != (self.tolerance is None):
            raise ValueError("target and tolerance must be given together")
        if self.target is not None and (self.lo is not None or self.hi is not None):
            raise ValueError("give either a target band or explicit bounds, not both")
        if self.target is None and self.lo is None and self.hi is None:
            raise ValueError("expectation constrains nothing")
        if self.provenance not in (PROVENANCE_REFERENCE, PROVENANCE_DERIVED):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def bounds(self) -> tuple[float | None, float | None]:
        """Effective (lo, hi) bounds of the expectation."""
        if self.target is not None:
            return (self.target - self.tolerance, self.target + self.tolerance)
        return (self.lo, self.hi)

    def check(self, measured: float) -> bool:
        lo, hi = self.bounds
        return (lo is None or measured >= lo) and (hi is None or measured <= hi)

    def describe(self) -> str:
        if self.target is not None:
            return f"{self.target:g} +/- {self.tolerance:g}"
        lo, hi = self.lo, self.hi
        if lo is not None and hi is not None:
            return f"in [{lo:g}, {hi:g}]"
        if lo is not None:
            return f">= {lo:g}"
        return f"<= {hi:g}"


@dataclass(frozen=True)
class ExpectationResult:
    expectation: Expectation
    measured: float
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        e = self.expectation
        return (
            f"expect.{e.quantity} = {verdict} (measured {self.measured:.6g}, "
            f"expected {e.describe()}, {e.provenance})"
        )


def measure_quantity(traj: Trajectory, quantity: str) -> float:
    """Read one expectation quantity off a finished trajectory."""
    if quantity not in _READOUTS:
        raise ValueError(f"unknown quantity {quantity!r}")
    return _READOUTS[quantity](traj)


def evaluate_expectations(
    preset: "ScenarioPreset", traj: Trajectory
) -> tuple[ExpectationResult, ...]:
    """Check every expectation of a preset against one of its trajectories."""
    results = []
    for e in preset.expected:
        measured = measure_quantity(traj, e.quantity)
        results.append(ExpectationResult(e, measured, e.check(measured)))
    return tuple(results)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioPreset:
    """A fully specified, immutable simulation setup with its predictions."""

    name: str
    sys: LevelSystem
    cfg: PulseTrainConfig
    rates: DecoherenceRates
    rho0: DensityMatrix
    icfg: IntegratorConfig
    expected: tuple[Expectation, ...] = ()
    note: str = ""


def _weak_system() -> LevelSystem:
    return LevelSystem.from_transitions(WEAK_OMEGA21, WEAK_OMEGA32)


def _strong_system() -> LevelSystem:
    return LevelSystem.from_transitions(STRONG_OMEGA21, STRONG_OMEGA32)


def _strong_train(
    T: float, N: int, tau: float = FIG4_TAU, chirp: str = "sine"
) -> PulseTrainConfig:
    """The strong-drive comb of fig4, fig6 and the calibration.

    Carrier on the 3-2 transition at peak Rabi frequency FIG4_RABI; chirp is
    "sine", "cosine" (amplitude FIG4_PHI0 at the 2-1 transition frequency)
    or "none".
    """
    if chirp == "none":
        modulation = Modulation.none()
    else:
        modulation = Modulation(chirp, FIG4_PHI0, STRONG_OMEGA21)
    return PulseTrainConfig(
        rabi_peak=FIG4_RABI, omega_L=STRONG_OMEGA32, tau=tau, T=T, N=N, modulation=modulation
    )


def _weak_times() -> tuple[float, float]:
    """(tau, period) of the weak-drive presets."""
    unit = FrequencyUnit.from_terahertz(WEAK_UNIT_THZ)
    return (
        unit.time_from_seconds(WEAK_TAU_SECONDS),
        unit.period_from_rep_rate(WEAK_REP_RATE_HZ),
    )


def _weak_preset(
    name: str,
    rabi: float,
    rates: DecoherenceRates,
    expected: tuple[Expectation, ...],
    note: str,
) -> ScenarioPreset:
    """A weak-drive preset: resonant standard comb of LONG_RUN_PULSES pulses."""
    tau, period = _weak_times()
    return ScenarioPreset(
        name=name,
        sys=_weak_system(),
        cfg=PulseTrainConfig(
            rabi_peak=rabi, omega_L=WEAK_OMEGA32, tau=tau, T=period, N=LONG_RUN_PULSES
        ),
        rates=rates,
        rho0=DensityMatrix.pure(1),
        icfg=IntegratorConfig(sampler_stride=50, early_stop_pulses=EARLY_STOP_PULSES),
        expected=expected,
        note=note,
    )


def _fig3() -> ScenarioPreset:
    """Resonant weak standard comb: transient excited population near one half.

    The carrier sits exactly on the 3-2 transition, the drive is weak
    (peak Rabi frequency 1.26 in THz, about 0.01 in ladder units) and the
    system is closed.  Population cycles through the excited state; its
    transient maximum is the headline observable.
    """
    expected = (
        Expectation(
            "max_rho22",
            lo=0.3,
            provenance=PROVENANCE_REFERENCE,
            note="transient excited population may rise to about one half",
        ),
    )
    return _weak_preset(
        "fig3", FIG3_RABI, DecoherenceRates.none(), expected,
        "resonant weak standard comb, closed system",
    )


def _fig5_family(spontaneous: bool) -> ScenarioPreset:
    """Weak standard comb with decoherence: incoherent accumulation.

    The weak-drive geometry at a tenfold stronger drive than fig3, with
    collisional dephasing on both driven legs (the 1-3 coherence is
    collision-free, so the dephasing rates satisfy the additive relation
    with a zero 1-3 rate).  Without spontaneous emission every pulse is
    unitary and the dephasing is unital, so the pulse-end fixed point is
    I/3 and the yield tends to exactly 1/3 (0.342 after 3200 pulses).
    fig5sp adds equal spontaneous-emission branches from the excited state,
    which feed the target state and raise the pulse-end fixed point to
    0.4708.
    """
    gamma = WEAK_RATE if spontaneous else 0.0
    rates = DecoherenceRates(
        gamma21=gamma, gamma23=gamma, Gamma21=WEAK_RATE, Gamma31=0.0, Gamma23=WEAK_RATE
    )
    expected = (
        Expectation(
            "final_yield",
            target=0.45 if spontaneous else 0.38,
            tolerance=0.05,
            provenance=PROVENANCE_REFERENCE,
            note="steady-state yield of the decoherent standard comb",
        ),
    )
    return _weak_preset(
        "fig5sp" if spontaneous else "fig5", FIG5_RABI, rates, expected,
        "weak standard comb, collisional dephasing"
        + (" + spontaneous emission" if spontaneous else ""),
    )


def _fig4() -> ScenarioPreset:
    """Sine-chirped strong comb, closed system: stepwise near-full transfer.

    Carrier on the 3-2 transition, sinusoidal intra-pulse phase of amplitude
    4 at the 2-1 transition frequency, peak Rabi frequency equal to the 1-3
    splitting.  The pulse duration and repetition period are the calibrated
    constants FIG4_TAU / FIG4_PERIOD (see calibrate_fig4): the period tunes
    the two-photon comb tooth onto the 1-3 resonance while both one-photon
    legs stay stroboscopically detuned, so population climbs in adiabatic
    steps with the excited state only transiently occupied, completing in
    about 109 pulses.
    """
    expected = (
        Expectation(
            "final_yield",
            lo=0.95,
            provenance=PROVENANCE_REFERENCE,
            note="stepwise accumulation ends in near-full transfer",
        ),
        Expectation(
            "transfer_pulse",
            lo=98.0,
            hi=120.0,
            provenance=PROVENANCE_REFERENCE,
            note="transfer completes in about 109 pulses (+/- 10%)",
        ),
        Expectation(
            "max_rho22",
            hi=0.15,
            provenance=PROVENANCE_REFERENCE,
            note="the excited state is only slightly populated in transit",
        ),
    )
    return ScenarioPreset(
        name="fig4",
        sys=_strong_system(),
        cfg=_strong_train(FIG4_PERIOD, FIG4_PULSES),
        rates=DecoherenceRates.none(),
        rho0=DensityMatrix.pure(1),
        icfg=IntegratorConfig(interpulse_phases=True),
        expected=expected,
        note="sine-chirped strong comb, closed system, calibrated (tau, T)",
    )


def _fig6_preset(
    name: str,
    cfg: PulseTrainConfig,
    sampler_stride: int,
    expected: tuple[Expectation, ...],
    note: str,
) -> ScenarioPreset:
    """Chirp-parity comparison under identical decoherence.

    All three variants share the strong-drive geometry and the same rate set
    (equal spontaneous and dephasing rates on both driven legs, collision-free
    1-3 coherence); the modulation parity decides the outcome.
    """
    return ScenarioPreset(
        name=name,
        sys=_strong_system(),
        cfg=cfg,
        rates=DecoherenceRates(
            gamma21=FIG6_RATE, gamma23=FIG6_RATE, Gamma21=FIG6_RATE, Gamma31=0.0,
            Gamma23=FIG6_RATE,
        ),
        rho0=DensityMatrix.pure(1),
        icfg=IntegratorConfig(
            sampler_stride=sampler_stride,
            early_stop_pulses=EARLY_STOP_PULSES,
            interpulse_phases=True,
        ),
        expected=expected,
        note=note,
    )


def _fig6sin() -> ScenarioPreset:
    """Odd chirp at the short period FIG6_SINE_PERIOD, under decoherence.

    The 130-pulse train ends at a 0.924 yield.  The rates are what make it:
    with all of them zero, the same train never exceeds pulse-end
    rho33 = 0.0035 over 2000 pulses.
    """
    expected = (
        Expectation(
            "final_yield",
            lo=0.8,
            provenance=PROVENANCE_REFERENCE,
            note="odd chirp keeps near-full transfer under decoherence",
        ),
    )
    return _fig6_preset(
        "fig6sin", _strong_train(FIG6_SINE_PERIOD, FIG6_SINE_PULSES), 10, expected,
        f"sine chirp, decoherent, chosen short period T = {FIG6_SINE_PERIOD:g}",
    )


def _fig6cos() -> ScenarioPreset:
    """Even chirp at the long calibrated period: the drive settles into a
    stationary equal 1-3 mixture with a large 1-3 coherence instead of
    transferring.

    The large coherence needs Gamma31 = 0 exactly.  With Gamma23 = Gamma21 +
    Gamma31 kept, the end-of-run abs(rho13) reads 0.377 at Gamma31 = 0,
    0.267 at 1e-5 and 0.100 at 1e-4, where Gamma31 * T is about 1.4.
    """
    note = "stationary equal population of the two lower states"
    expected = (
        Expectation(
            "final_rho11", target=0.5, tolerance=0.1, provenance=PROVENANCE_REFERENCE,
            note=note,
        ),
        Expectation(
            "final_yield", target=0.5, tolerance=0.1, provenance=PROVENANCE_REFERENCE,
            note=note,
        ),
        Expectation(
            "final_coherence13",
            lo=0.25,
            provenance=PROVENANCE_DERIVED,
            note="at least half the maximum-coherence bound sqrt(r11*r33); the "
            "large coherence needs Gamma31 = 0 exactly (0.100 at Gamma31 = 1e-4)",
        ),
    )
    return _fig6_preset(
        "fig6cos", _strong_train(FIG4_PERIOD, LONG_RUN_PULSES, chirp="cosine"), 50,
        expected, "cosine chirp, decoherent, long period",
    )


def _fig6std() -> ScenarioPreset:
    """No chirp at the long period: incoherent accumulation with a degraded
    mid-range yield."""
    expected = (
        Expectation(
            "final_yield",
            lo=0.2,
            hi=0.7,
            provenance=PROVENANCE_DERIVED,
            note="degraded mid-range yield, like the weak decoherent comb",
        ),
    )
    return _fig6_preset(
        "fig6std", _strong_train(FIG4_PERIOD, LONG_RUN_PULSES, chirp="none"), 50,
        expected, "standard comb, decoherent, long period",
    )


#: Preset builders by public name.
_PRESETS = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": lambda: _fig5_family(spontaneous=False),
    "fig5sp": lambda: _fig5_family(spontaneous=True),
    "fig6sin": _fig6sin,
    "fig6cos": _fig6cos,
    "fig6std": _fig6std,
}

PRESET_NAMES = tuple(_PRESETS)


def get_preset(name: str) -> ScenarioPreset:
    """Look a preset up by its public name."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    return _PRESETS[name]()


def run_preset(preset: ScenarioPreset) -> Trajectory:
    """Propagate a preset under its own integrator setup."""
    return propagate(preset.rho0, preset.cfg, preset.sys, preset.rates, preset.icfg)


# ---------------------------------------------------------------------------
# Trajectory readouts
# ---------------------------------------------------------------------------


def _first_above_95(values: np.ndarray) -> int:
    """First pulse (1-based) whose value exceeds 95% of the last value, or the
    pulse count when the last value is not positive."""
    final = values[-1]
    if not final > 0.0:
        return int(values.size)
    # the last value always qualifies
    return int(np.nonzero(values > 0.95 * final)[0][0]) + 1


def transfer_pulse(traj: Trajectory) -> int:
    """First pulse (1-based) after which the target population exceeds 95%
    of its final value.

    Falls back to the pulse count when the final target population is not
    positive (nothing was transferred, to rounding).
    """
    ends = traj.pulse_ends[:, 2]
    if ends.size == 0:
        raise ValueError("trajectory contains no completed pulses")
    return _first_above_95(ends)


# ---------------------------------------------------------------------------
# Strong-drive (tau, period) calibration
# ---------------------------------------------------------------------------

#: Default pulse-duration grid: 2, 3, 5 and 10 fs expressed in the strong
#: unit (70 THz).
CALIBRATION_TAU_GRID = (0.14, 0.21, 0.35, 0.70)
#: Coarse period base: 200 ps in the strong unit.
CALIBRATION_PERIOD_BASE = 14000.0
#: Pulses of every calibration staircase.
CALIBRATION_PROBE_PULSES = 260
#: Start vector of every staircase (all population in level 1), read-only.
_STAIRCASE_START = DensityMatrix.pure(1).to_vector()
_STAIRCASE_START.flags.writeable = False
#: Rates of every calibration pulse map and staircase period map.
_NO_RATES = DecoherenceRates.none()


@dataclass(frozen=True)
class CalibrationPoint:
    """One scanned (tau, period) candidate and its staircase statistics."""

    tau: float
    period: float
    peak_yield: float
    peak_pulse: int
    transfer_pulse: int


@dataclass(frozen=True)
class CalibrationResult:
    """Chosen calibration plus the authoritative full-propagation readouts."""

    tau: float
    period: float
    n_pulses: int
    final_yield: float
    transfer_pulse: int
    max_rho22: float
    scanned: tuple[CalibrationPoint, ...]


def _single_pulse_map(
    tau: float, sys: LevelSystem, icfg: IntegratorConfig
) -> np.ndarray:
    """Coherent superoperator of one isolated chirped pulse (9x9, rates off).

    Integrated as the window's end map alone (dynamics._window_end_map),
    bitwise the last fine state of the full window build but without storing
    the window's fine states, and without touching propagate's window memo.
    """
    cfg = _strong_train(CALIBRATION_PERIOD_BASE, 1, tau)
    step = resolve_step(icfg, cfg, sys)
    w = icfg.window_sigmas * tau
    return _window_end_map(-w, w, step, cfg, sys, _NO_RATES)


def _staircase_stats(
    pulse_map: np.ndarray, period: float, sys: LevelSystem, n_max: int
) -> tuple[float, int, int]:
    """(peak yield, pulse count at the first yield peak, transfer pulse).

    Carries the pulse ends the way propagate does: the period map P = M R,
    with R the inter-pulse rotation as a 9x9 matrix (one gap map of zero
    length applied to the identity) and M the pulse map, and the pulse ends
    P**k M rho0 by repeated doubling into one buffer; the target population
    is component 2 (rho33) of each end.  The start vector and the zero rates are module
    constants shared by every candidate.  Bookkeeping stops at the first
    peak: the last running maximum before the yield falls by more than 0.05
    below it.  The transfer pulse is transfer_pulse's rule up to that peak.
    """
    rotation = _gap_factors(0.0, _NO_RATES, _interpulse_angles(period, sys))
    period_map = np.dot(pulse_map, _apply_free(np.eye(9), rotation))
    p33 = _map_powers(period_map, np.dot(pulse_map, _STAIRCASE_START), n_max)[:, 2]
    run_max = np.maximum.accumulate(p33)
    falls = np.nonzero(run_max - p33 > 0.05)[0]
    upto = int(falls[0]) if falls.size else n_max
    peak_pulse = int(p33[:upto].argmax()) + 1
    return float(p33[peak_pulse - 1]), peak_pulse, _first_above_95(p33[:peak_pulse])


def _refine_period(
    pulse_map: np.ndarray, tau: float, base: float, sys: LevelSystem, n_max: int
) -> CalibrationPoint:
    """Tune the period around one base value onto the two-photon resonance.

    The only period dependence of the staircase is through the three
    inter-pulse phase angles, which wrap every unit period of the 1-3
    splitting; a three-stage scan (full wrap, then two local refinements,
    each centred on the best period so far) resolves the resonance, whose
    width is roughly pi / transfer-pulse-count.  The highest peak yield
    wins, and the first scanned wins a tie.
    """
    points: list[CalibrationPoint] = []
    center = 0.0
    for offsets in (
        np.arange(0.0, 2.0 * math.pi, 0.05),
        np.linspace(-0.05, 0.05, 101),
        np.linspace(-0.001, 0.001, 41),
    ):
        for d in center + offsets:
            period = base + float(d)
            points.append(
                CalibrationPoint(tau, period, *_staircase_stats(pulse_map, period, sys, n_max))
            )
        best = max(points, key=lambda point: point.peak_yield)
        center = best.period - base
    return best


def _rank(point: CalibrationPoint) -> tuple[bool, float]:
    """Feasible (first peak above 0.95, 95% transfer in 98..120 pulses) first, then peak yield."""
    return (point.peak_yield > 0.95 and 98 <= point.transfer_pulse <= 120, point.peak_yield)


def calibrate_fig4(quick: bool = False) -> CalibrationResult:
    """Scan pulse durations and repetition periods for stepwise transfer.

    For every pulse duration on CALIBRATION_TAU_GRID the single-pulse
    superoperator is integrated once, as its end map alone (no fine states
    are kept); a candidate period then costs one 9x9 period map P = M G and its
    powers by repeated doubling (about log2(CALIBRATION_PROBE_PULSES) matrix
    products), so the period can be refined finely around
    CALIBRATION_PERIOD_BASE.  A candidate is feasible when its first yield
    peak exceeds 0.95 with the 95%-transfer point between 98 and 120 pulses;
    feasible candidates rank above the others, then the highest peak wins,
    and the first scanned wins a tie.  The winning duration of the grid is
    then polished on a local grid (+/- 0.03 in steps of 0.006, skipping
    durations already scanned).  quick skips the duration scan and refines
    the period at the frozen FIG4_TAU only.  The returned numbers are
    re-measured with a full propagation at the chosen point, which builds
    that pulse's full window map (its steps are integrated a second time,
    now with their history); the module constants FIG4_TAU / FIG4_PERIOD /
    FIG4_PULSES were frozen from the full run.
    """
    icfg = IntegratorConfig(interpulse_phases=True)
    sys = _strong_system()
    n_max = CALIBRATION_PROBE_PULSES
    taus = [FIG4_TAU] if quick else list(CALIBRATION_TAU_GRID)
    points = [
        _refine_period(_single_pulse_map(tau, sys, icfg), tau, CALIBRATION_PERIOD_BASE, sys, n_max)
        for tau in taus
    ]
    if not quick:
        center = max(points, key=_rank).tau
        for tau in np.arange(center - 0.03, center + 0.03 + 1e-12, 0.006):
            tau = round(float(tau), 6)
            if tau > 0.0 and tau not in taus:
                taus.append(tau)
                pulse_map = _single_pulse_map(tau, sys, icfg)
                points.append(_refine_period(pulse_map, tau, CALIBRATION_PERIOD_BASE, sys, n_max))
    best = max(points, key=_rank)

    cfg = _strong_train(best.period, best.peak_pulse, best.tau)
    traj = propagate(
        DensityMatrix.pure(1), cfg, sys, DecoherenceRates.none(), icfg
    )
    return CalibrationResult(
        tau=best.tau,
        period=best.period,
        n_pulses=best.peak_pulse,
        final_yield=float(quantum_yield(traj)),
        transfer_pulse=transfer_pulse(traj),
        max_rho22=float(traj.metadata["diagnostics"]["max_rho22"]),
        scanned=tuple(points),
    )
