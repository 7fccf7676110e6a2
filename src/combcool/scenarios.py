"""Named experiment presets, comparison runs, and the fig4 calibration scan.

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
             accumulation saturating near a 0.38 yield.
``fig5sp``   fig5 plus spontaneous emission; the extra 2->3 decay channel
             raises the steady yield to about 0.45.
``fig6sin``  sine-chirped strong comb with decoherence, short period (the
             inter-pulse coherences survive the gaps); yield stays above 0.8.
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
through :class:`~combcool.core.FrequencyUnit` under either the angular or the
ordinary frequency convention; the angular convention is the default and the
one the expected values below were measured under.

The strong-drive pulse duration and repetition period are not externally
given; they are fixed by :func:`calibrate_fig4`, a scripted scan that selects
the (tau, period) pair producing stepwise transfer completing in 109 +/- 10
pulses.  The scan integrates one pulse map per duration and scores each
candidate period from the powers of its 9x9 one-period map (pulse map, then
the inter-pulse rotation), formed by repeated doubling.  The chosen values
are frozen into module constants and marked with ``derived`` provenance on
the corresponding expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_CONVENTION,
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
    _integrate_window,
    _interpulse_angles,
    _map_powers,
    propagate,
    quantum_yield,
    resolve_step,
    steady_state_yield,
)
from .field import Modulation, PulseTrainConfig

__all__ = [
    "CalibrationPoint",
    "CalibrationResult",
    "ComparisonRow",
    "ComparisonTable",
    "Expectation",
    "ExpectationResult",
    "PRESET_NAMES",
    "RateCheckMode",
    "RateReport",
    "ScenarioPreset",
    "calibrate_fig4",
    "compare_runs",
    "evaluate_expectations",
    "get_preset",
    "preset_fig3",
    "preset_fig4",
    "preset_fig5",
    "preset_fig6",
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
#: Short repetition period of the decoherent sine preset (derived): the gaps
#: are short enough that the inter-pulse coherences survive, preserving the
#: stepwise-transfer mechanism under dephasing.
FIG6_SINE_PERIOD = 41.308
FIG6_SINE_PULSES = 130

#: Default scheduled length and early-stop patience of the steady-state runs.
LONG_RUN_PULSES = 3200
EARLY_STOP_PULSES = 50

PRESET_NAMES = ("fig3", "fig4", "fig5", "fig5sp", "fig6sin", "fig6cos", "fig6std")

#: Provenance tags carried by expectations: values quoted from the reference
#: results a preset reproduces, versus values fixed by this package's own
#: calibration or analysis.
PROVENANCE_REFERENCE = "reference"
PROVENANCE_DERIVED = "derived"


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

#: Quantities an Expectation may target; measured by measure_quantity().
EXPECTATION_QUANTITIES = (
    "final_yield",
    "steady_yield",
    "max_rho22",
    "transfer_pulse",
    "final_rho11",
    "final_coherence13",
)


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
    if quantity == "final_yield":
        return float(quantum_yield(traj))
    if quantity == "steady_yield":
        return float(steady_state_yield(traj))
    if quantity == "max_rho22":
        return float(traj.metadata["diagnostics"]["max_rho22"])
    if quantity == "transfer_pulse":
        return float(transfer_pulse(traj))
    if quantity == "final_rho11":
        return float(traj.rho11[-1])
    if quantity == "final_coherence13":
        return float(abs(traj.rho13[-1]))
    raise ValueError(f"unknown quantity {quantity!r}")


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

    @property
    def run_length(self) -> float:
        """Scheduled train duration N*T (a run may stop earlier)."""
        return self.cfg.N * self.cfg.T


def _weak_system() -> LevelSystem:
    return LevelSystem.from_transitions(WEAK_OMEGA21, WEAK_OMEGA32)


def _strong_system() -> LevelSystem:
    return LevelSystem.from_transitions(STRONG_OMEGA21, STRONG_OMEGA32)


def _weak_times(convention: str) -> tuple[float, float]:
    """(tau, period) of the weak-drive presets under the chosen convention."""
    unit = FrequencyUnit.from_terahertz(WEAK_UNIT_THZ, convention)
    return (
        unit.time_from_seconds(WEAK_TAU_SECONDS),
        unit.period_from_rep_rate(WEAK_REP_RATE_HZ),
    )


def preset_fig3(convention: str = DEFAULT_CONVENTION) -> ScenarioPreset:
    """Resonant weak standard comb: transient excited population near one half.

    The carrier sits exactly on the 3-2 transition, the drive is weak
    (peak Rabi frequency 1.26 in THz, about 0.01 in ladder units) and the
    system is closed.  Population cycles through the excited state; its
    transient maximum is the headline observable.
    """
    tau, period = _weak_times(convention)
    sys = _weak_system()
    cfg = PulseTrainConfig(
        rabi_peak=FIG3_RABI,
        omega_L=WEAK_OMEGA32,
        tau=tau,
        T=period,
        N=LONG_RUN_PULSES,
    )
    icfg = IntegratorConfig(
        sampler_stride=50,
        early_stop_pulses=EARLY_STOP_PULSES,
    )
    expected = (
        Expectation(
            "max_rho22",
            lo=0.3,
            provenance=PROVENANCE_REFERENCE,
            note="transient excited population may rise to about one half",
        ),
    )
    return ScenarioPreset(
        name="fig3",
        sys=sys,
        cfg=cfg,
        rates=DecoherenceRates.none(),
        rho0=DensityMatrix.pure(1),
        icfg=icfg,
        expected=expected,
        note="resonant weak standard comb, closed system",
    )


def preset_fig4() -> ScenarioPreset:
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
    sys = _strong_system()
    cfg = PulseTrainConfig(
        rabi_peak=FIG4_RABI,
        omega_L=STRONG_OMEGA32,
        tau=FIG4_TAU,
        T=FIG4_PERIOD,
        N=FIG4_PULSES,
        modulation=Modulation.sine(FIG4_PHI0, STRONG_OMEGA21),
    )
    icfg = IntegratorConfig(interpulse_phases=True)
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
        sys=sys,
        cfg=cfg,
        rates=DecoherenceRates.none(),
        rho0=DensityMatrix.pure(1),
        icfg=icfg,
        expected=expected,
        note="sine-chirped strong comb, closed system, calibrated (tau, T)",
    )


def preset_fig5(
    with_spontaneous: bool = False, convention: str = DEFAULT_CONVENTION
) -> ScenarioPreset:
    """Weak standard comb with decoherence: incoherent steady-state yield.

    The weak-drive geometry at a tenfold stronger drive than fig3, with
    collisional dephasing on both driven legs (the 1-3 coherence is
    collision-free, so the dephasing rates satisfy the additive relation
    with a zero 1-3 rate).  with_spontaneous adds equal spontaneous-emission
    branches from the excited state, which feeds the target state and raises
    the steady yield from about 0.38 to about 0.45.
    """
    tau, period = _weak_times(convention)
    sys = _weak_system()
    cfg = PulseTrainConfig(
        rabi_peak=FIG5_RABI,
        omega_L=WEAK_OMEGA32,
        tau=tau,
        T=period,
        N=LONG_RUN_PULSES,
    )
    gamma = WEAK_RATE if with_spontaneous else 0.0
    rates = DecoherenceRates(
        gamma21=gamma,
        gamma23=gamma,
        Gamma21=WEAK_RATE,
        Gamma31=0.0,
        Gamma23=WEAK_RATE,
    )
    icfg = IntegratorConfig(
        sampler_stride=50,
        early_stop_pulses=EARLY_STOP_PULSES,
    )
    target = 0.45 if with_spontaneous else 0.38
    expected = (
        Expectation(
            "final_yield",
            target=target,
            tolerance=0.05,
            provenance=PROVENANCE_REFERENCE,
            note="steady-state yield of the decoherent standard comb",
        ),
    )
    name = "fig5sp" if with_spontaneous else "fig5"
    return ScenarioPreset(
        name=name,
        sys=sys,
        cfg=cfg,
        rates=rates,
        rho0=DensityMatrix.pure(1),
        icfg=icfg,
        expected=expected,
        note=(
            "weak standard comb, collisional dephasing"
            + (" + spontaneous emission" if with_spontaneous else "")
        ),
    )


def preset_fig6(modulation: str = "sine") -> ScenarioPreset:
    """Chirp-parity comparison under identical decoherence.

    All three variants share the strong-drive geometry and the same rate set
    (equal spontaneous and dephasing rates on both driven legs, collision-free
    1-3 coherence).  The modulation parity decides the outcome:

    - "sine": odd chirp at a short calibrated period (FIG6_SINE_PERIOD), so
      the inter-pulse gaps cost little coherence; the stepwise mechanism
      survives and the yield stays above 0.8.
    - "cosine": even chirp at the long calibrated period; the drive settles
      into a stationary equal 1-3 mixture with a large 1-3 coherence (the
      undamped coherence of the rate set) instead of transferring.
    - "none": no chirp at the long period; incoherent accumulation with a
      degraded mid-range yield.
    """
    if modulation not in ("sine", "cosine", "none"):
        raise ValueError(
            f"modulation must be 'sine', 'cosine' or 'none', got {modulation!r}"
        )
    sys = _strong_system()
    rates = DecoherenceRates(
        gamma21=FIG6_RATE,
        gamma23=FIG6_RATE,
        Gamma21=FIG6_RATE,
        Gamma31=0.0,
        Gamma23=FIG6_RATE,
    )
    if modulation == "sine":
        cfg = PulseTrainConfig(
            rabi_peak=FIG4_RABI,
            omega_L=STRONG_OMEGA32,
            tau=FIG4_TAU,
            T=FIG6_SINE_PERIOD,
            N=FIG6_SINE_PULSES,
            modulation=Modulation.sine(FIG4_PHI0, STRONG_OMEGA21),
        )
        expected = (
            Expectation(
                "final_yield",
                lo=0.8,
                provenance=PROVENANCE_REFERENCE,
                note="odd chirp keeps near-full transfer under decoherence",
            ),
        )
        name, note = "fig6sin", "sine chirp, decoherent, short calibrated period"
    elif modulation == "cosine":
        cfg = PulseTrainConfig(
            rabi_peak=FIG4_RABI,
            omega_L=STRONG_OMEGA32,
            tau=FIG4_TAU,
            T=FIG4_PERIOD,
            N=LONG_RUN_PULSES,
            modulation=Modulation.cosine(FIG4_PHI0, STRONG_OMEGA21),
        )
        expected = (
            Expectation(
                "final_rho11",
                target=0.5,
                tolerance=0.1,
                provenance=PROVENANCE_REFERENCE,
                note="stationary equal population of the two lower states",
            ),
            Expectation(
                "final_yield",
                target=0.5,
                tolerance=0.1,
                provenance=PROVENANCE_REFERENCE,
                note="stationary equal population of the two lower states",
            ),
            Expectation(
                "final_coherence13",
                lo=0.25,
                provenance=PROVENANCE_DERIVED,
                note="at least half the maximum-coherence bound sqrt(r11*r33)",
            ),
        )
        name, note = "fig6cos", "cosine chirp, decoherent, long period"
    else:
        cfg = PulseTrainConfig(
            rabi_peak=FIG4_RABI,
            omega_L=STRONG_OMEGA32,
            tau=FIG4_TAU,
            T=FIG4_PERIOD,
            N=LONG_RUN_PULSES,
        )
        expected = (
            Expectation(
                "final_yield",
                lo=0.2,
                hi=0.7,
                provenance=PROVENANCE_DERIVED,
                note="degraded mid-range yield, like the weak decoherent comb",
            ),
        )
        name, note = "fig6std", "standard comb, decoherent, long period"
    icfg = IntegratorConfig(
        sampler_stride=10 if modulation == "sine" else 50,
        early_stop_pulses=EARLY_STOP_PULSES,
        interpulse_phases=True,
    )
    return ScenarioPreset(
        name=name,
        sys=sys,
        cfg=cfg,
        rates=rates,
        rho0=DensityMatrix.pure(1),
        icfg=icfg,
        expected=expected,
        note=note,
    )


def get_preset(name: str, convention: str = DEFAULT_CONVENTION) -> ScenarioPreset:
    """Look a preset up by its public name.

    The convention switch only affects presets whose configuration converts
    laboratory quantities (the weak-drive family); the strong-drive presets
    are defined directly by calibrated dimensionless constants.
    """
    if name == "fig3":
        return preset_fig3(convention)
    if name == "fig4":
        return preset_fig4()
    if name == "fig5":
        return preset_fig5(False, convention)
    if name == "fig5sp":
        return preset_fig5(True, convention)
    if name == "fig6sin":
        return preset_fig6("sine")
    if name == "fig6cos":
        return preset_fig6("cosine")
    if name == "fig6std":
        return preset_fig6("none")
    raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")


def run_preset(preset: ScenarioPreset, icfg: IntegratorConfig | None = None) -> Trajectory:
    """Propagate a preset, optionally under a different integrator setup."""
    return propagate(
        preset.rho0,
        preset.cfg,
        preset.sys,
        preset.rates,
        icfg if icfg is not None else preset.icfg,
    )


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------


def transfer_pulse(traj: Trajectory) -> int:
    """First pulse (1-based) after which the target population exceeds 95%
    of its final value.

    Falls back to the pulse count when the final target population is zero
    (nothing was ever transferred).
    """
    ends = traj.rho33[traj.pulse_end_indices]
    if ends.size == 0:
        raise ValueError("trajectory contains no completed pulses")
    final = ends[-1]
    hits = np.nonzero(ends > 0.95 * final)[0]
    if hits.size == 0:
        return int(ends.size)
    return int(hits[0]) + 1


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    final_yield: float
    steady_yield: float
    max_rho22: float
    transfer_pulse: int
    pulses_run: int
    trace_max_drift: float


@dataclass(frozen=True)
class ComparisonTable:
    """Summary rows plus the trajectories they were measured from."""

    rows: tuple[ComparisonRow, ...]
    trajectories: dict[str, Trajectory]

    def format(self) -> str:
        header = (
            f"{'name':<10} {'final_yield':>12} {'steady_yield':>13} "
            f"{'max_rho22':>10} {'transfer':>9} {'pulses':>7} {'drift':>10}"
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.name:<10} {r.final_yield:>12.6f} {r.steady_yield:>13.6f} "
                f"{r.max_rho22:>10.6f} {r.transfer_pulse:>9d} "
                f"{r.pulses_run:>7d} {r.trace_max_drift:>10.2e}"
            )
        return "\n".join(lines)


def _summary_row(name: str, traj: Trajectory) -> ComparisonRow:
    diag = traj.metadata["diagnostics"]
    return ComparisonRow(
        name=name,
        final_yield=float(quantum_yield(traj)),
        steady_yield=float(steady_state_yield(traj)),
        max_rho22=float(diag["max_rho22"]),
        transfer_pulse=transfer_pulse(traj),
        pulses_run=int(diag["pulses_run"]),
        trace_max_drift=float(diag["trace_max_drift"]),
    )


def compare_runs(
    presets: list[ScenarioPreset] | tuple[ScenarioPreset, ...],
    icfg: IntegratorConfig | None = None,
) -> ComparisonTable:
    """Run two or more presets on the same level system side by side.

    Each preset runs under its own integrator setup unless a shared one is
    given.  Runs are sequential and pure, so the table is bit-identical
    across repetitions.  Duplicate names are disambiguated in the trajectory
    mapping by a numeric suffix.
    """
    presets = tuple(presets)
    if len(presets) < 2:
        raise ValueError("compare_runs needs at least two presets")
    first = presets[0].sys
    for p in presets[1:]:
        if p.sys != first:
            raise ValueError(
                f"presets do not share a level system: {p.name!r} differs from "
                f"{presets[0].name!r}"
            )
    rows = []
    trajectories: dict[str, Trajectory] = {}
    for p in presets:
        traj = run_preset(p, icfg)
        key = p.name
        serial = 2
        while key in trajectories:
            key = f"{p.name}#{serial}"
            serial += 1
        trajectories[key] = traj
        rows.append(_summary_row(key, traj))
    return ComparisonTable(rows=tuple(rows), trajectories=trajectories)


# ---------------------------------------------------------------------------
# Strong-drive (tau, period) calibration
# ---------------------------------------------------------------------------

#: Default pulse-duration grid: 2, 3, 5 and 10 fs expressed in the strong
#: unit (70 THz, angular convention).
CALIBRATION_TAU_GRID = (0.14, 0.21, 0.35, 0.70)
#: Default coarse period base: 200 ps in the strong unit.
CALIBRATION_PERIOD_GRID = (14000.0,)


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
    """Coherent superoperator of one isolated chirped pulse (9x9, rates off)."""
    cfg = PulseTrainConfig(
        rabi_peak=FIG4_RABI,
        omega_L=STRONG_OMEGA32,
        tau=tau,
        T=max(CALIBRATION_PERIOD_GRID),
        N=1,
        modulation=Modulation.sine(FIG4_PHI0, STRONG_OMEGA21),
    )
    step = resolve_step(icfg, cfg, sys)
    w = icfg.window_sigmas * tau
    _, m_fine = _integrate_window(
        -w, w, step, cfg, sys, DecoherenceRates.none(), np.eye(9)
    )
    return m_fine[-1]


def _staircase_stats(
    pulse_map: np.ndarray, period: float, sys: LevelSystem, n_max: int
) -> tuple[float, int, int]:
    """(peak yield, pulse count at the first yield peak, transfer pulse).

    Forms the one-period map P = R(period) @ pulse_map once (the inter-pulse
    rotation R applied to the columns of the pulse map), takes the powers
    P**k of the pure initial state by repeated doubling, and reads the
    target population at each pulse end as row 2 of pulse_map against them.
    Bookkeeping stops at the first peak: the last running maximum before the
    yield falls by more than 0.05 below it.
    """
    period_map = _apply_free(
        pulse_map, 0.0, DecoherenceRates.none(), _interpulse_angles(period, sys)
    )
    rows = _map_powers(period_map, DensityMatrix.pure(1).to_vector(), n_max)
    p33 = rows @ pulse_map[2]
    run_max = np.maximum.accumulate(p33)
    falls = np.nonzero(run_max - p33 > 0.05)[0]
    upto = int(falls[0]) if falls.size else n_max
    peak_pulse = int(p33[:upto].argmax()) + 1
    peak = float(p33[peak_pulse - 1])
    hits = np.nonzero(p33[:peak_pulse] > 0.95 * peak)[0]
    transfer = int(hits[0]) + 1 if hits.size else peak_pulse
    return peak, peak_pulse, transfer


def _refine_period(
    pulse_map: np.ndarray, base: float, sys: LevelSystem, n_max: int
) -> CalibrationPoint:
    """Tune the period around one base value onto the two-photon resonance.

    The only period dependence of the staircase is through the three
    inter-pulse phase angles, which wrap every unit period of the 1-3
    splitting; a three-stage scan (full wrap, then two local refinements)
    resolves the resonance, whose width is roughly pi / transfer-pulse-count.
    """
    best: tuple[float, float, int, int] | None = None

    def scan(offsets: np.ndarray) -> None:
        nonlocal best
        for d in offsets:
            period = base + float(d)
            peak, peak_pulse, transfer = _staircase_stats(
                pulse_map, period, sys, n_max
            )
            if best is None or peak > best[0]:
                best = (peak, period, peak_pulse, transfer)

    scan(np.arange(0.0, 2.0 * math.pi, 0.05))
    center = best[1] - base
    scan(center + np.linspace(-0.05, 0.05, 101))
    center = best[1] - base
    scan(center + np.linspace(-0.001, 0.001, 41))
    peak, period, peak_pulse, transfer = best
    return CalibrationPoint(
        tau=math.nan,
        period=period,
        peak_yield=peak,
        peak_pulse=peak_pulse,
        transfer_pulse=transfer,
    )


def _feasible(point: CalibrationPoint) -> bool:
    return point.peak_yield > 0.95 and 98 <= point.transfer_pulse <= 120


def _better(a: CalibrationPoint, b: CalibrationPoint | None) -> bool:
    if b is None:
        return True
    if _feasible(a) != _feasible(b):
        return _feasible(a)
    return a.peak_yield > b.peak_yield


def calibrate_fig4(
    tau_grid: tuple[float, ...] | None = None,
    period_grid: tuple[float, ...] | None = None,
    n_pulse_probe: int = 260,
    refine_tau: bool = True,
    icfg: IntegratorConfig | None = None,
) -> CalibrationResult:
    """Scan pulse durations and repetition periods for stepwise transfer.

    For every pulse duration on the grid the single-pulse superoperator is
    integrated once; a candidate period then costs one 9x9 one-period map
    and its powers by repeated doubling (about log2(n_pulse_probe) matrix
    products), so the period can be refined finely around each coarse base.
    A candidate is feasible when its first yield peak exceeds 0.95 with the
    95%-transfer point between 98 and 120 pulses; among feasible candidates
    the highest peak wins.  With refine_tau the winning duration is polished
    on a local grid (+/- 0.03 in steps of 0.006).  The returned numbers are
    re-measured with a full propagation at the chosen point; the module
    constants FIG4_TAU / FIG4_PERIOD / FIG4_PULSES were frozen from this
    procedure's default run.  An empty tau_grid or period_grid, or an
    n_pulse_probe below 1, raises ValueError.
    """
    taus = tuple(tau_grid) if tau_grid is not None else CALIBRATION_TAU_GRID
    bases = (
        tuple(period_grid) if period_grid is not None else CALIBRATION_PERIOD_GRID
    )
    if not taus:
        raise ValueError("tau_grid must hold at least one pulse duration")
    if not bases:
        raise ValueError("period_grid must hold at least one period")
    if n_pulse_probe < 1:
        raise ValueError(f"n_pulse_probe must be at least 1, got {n_pulse_probe!r}")
    icfg = icfg if icfg is not None else IntegratorConfig(interpulse_phases=True)
    sys = _strong_system()

    scanned: list[CalibrationPoint] = []
    best: CalibrationPoint | None = None

    def consider(tau: float) -> None:
        nonlocal best
        pulse_map = _single_pulse_map(tau, sys, icfg)
        for base in bases:
            point = replace(
                _refine_period(pulse_map, base, sys, n_pulse_probe), tau=tau
            )
            scanned.append(point)
            if _better(point, best):
                best = point

    for tau in taus:
        consider(tau)
    if refine_tau:
        seen = set(taus)
        for tau in np.arange(best.tau - 0.03, best.tau + 0.03 + 1e-12, 0.006):
            tau = round(float(tau), 6)
            if tau <= 0.0 or tau in seen:
                continue
            seen.add(tau)
            consider(tau)

    cfg = PulseTrainConfig(
        rabi_peak=FIG4_RABI,
        omega_L=STRONG_OMEGA32,
        tau=best.tau,
        T=best.period,
        N=best.peak_pulse,
        modulation=Modulation.sine(FIG4_PHI0, STRONG_OMEGA21),
    )
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
        scanned=tuple(scanned),
    )
