"""Frequency-comb synthesis and structure verification.

A phase-locked train of N identical pulses at period T has a line spectrum:
teeth at integer multiples of the repetition frequency 2*pi/T (offset within
one spacing by the carrier phase slip), weighted by the single-pulse
envelope spectrum.  Sinusoidal or cosinusoidal intra-pulse phase modulation
of amplitude Phi0 and frequency Omega splits that envelope into sideband
sets centred Omega apart (with Bessel-function weights), while the tooth
spacing itself stays locked to the repetition rate.  The width of an
individual tooth is set by the inverse of the total observation time.

This module synthesizes the real field on a uniform grid, computes a
one-sided power spectrum normalized so that summed intensity times bin
width equals time-domain energy, finds peaks with sub-bin parabolic
refinement, and verifies the spacing laws above against a train
configuration.  Everything is exact arithmetic on the configured train --
analyses are meant to run on desk-scale trains (tens of pulses, carrier a
few tens of inverse time units), since the spacing laws only depend on the
ratios omega_L : Omega : 2*pi/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import DEFAULT_WINDOW_SIGMAS, PulseTrainConfig, field_amplitude

__all__ = [
    "CombStructureReport",
    "InsufficientPeaks",
    "NyquistViolation",
    "PeakList",
    "SpectrumResult",
    "compute_spectrum",
    "extract_peaks",
    "nyquist_limit",
    "sample_field",
    "tooth_fwhm",
    "verify_comb_structure",
]


class NyquistViolation(ValueError):
    """The requested sample rate cannot resolve the field's bandwidth."""


class InsufficientPeaks(ValueError):
    """Too few spectral peaks to measure comb structure."""


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided power spectrum on a uniform angular-frequency grid.

    intensities are normalized such that sum(intensities) * resolution
    equals the time-domain energy sum(series**2) * dt.
    """

    frequencies: np.ndarray
    intensities: np.ndarray
    resolution: float

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=float)
        intens = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "intensities", intens)
        if freqs.ndim != 1 or freqs.shape != intens.shape:
            raise ValueError("frequencies and intensities must be parallel 1-D arrays")
        if freqs.size < 2:
            raise ValueError("a spectrum needs at least two bins")
        if not self.resolution > 0.0:
            raise ValueError("resolution must be positive")
        spacing = np.diff(freqs)
        if spacing.min() <= 0.0:
            raise ValueError("frequencies must be strictly increasing")
        if abs(spacing - self.resolution).max() > 1e-9 * self.resolution:
            raise ValueError("frequency grid must be uniform at the stated resolution")
        if intens.min() < 0.0:
            raise ValueError("intensities must be non-negative")


@dataclass(frozen=True)
class PeakList:
    """Refined spectral peaks above a fractional intensity threshold."""

    peak_frequencies: np.ndarray
    peak_intensities: np.ndarray
    threshold_used: float

    def __post_init__(self) -> None:
        freqs = np.asarray(self.peak_frequencies, dtype=float)
        intens = np.asarray(self.peak_intensities, dtype=float)
        object.__setattr__(self, "peak_frequencies", freqs)
        object.__setattr__(self, "peak_intensities", intens)
        if freqs.shape != intens.shape or freqs.ndim != 1:
            raise ValueError("peak arrays must be parallel 1-D arrays")

    @property
    def n_peaks(self) -> int:
        return int(self.peak_frequencies.size)


def nyquist_limit(cfg: PulseTrainConfig) -> float:
    """Minimum admissible sample rate for the configured train.

    Twice the highest significant angular frequency, expressed as an
    ordinary rate: the carrier, plus the modulation-broadened sideband span
    Phi0*Omega, plus a 10/tau envelope-bandwidth margin.
    """
    mod = cfg.modulation
    span = mod.amplitude * mod.frequency if mod.kind != "none" else 0.0
    return (cfg.omega_L + span + 10.0 / cfg.tau) / math.pi


def sample_field(
    cfg: PulseTrainConfig,
    sample_rate: float,
    t_total: float,
    window_sigmas: float = DEFAULT_WINDOW_SIGMAS,
) -> np.ndarray:
    """Synthesize the train's real field on a uniform grid.

    The grid has round(t_total * sample_rate) points spaced 1/sample_rate,
    starting at -T/2 so every pulse (centres at 0, T, ..., (N-1)T) lies
    inside it; t_total beyond N*T pads the observation window with silence,
    which narrows the measured teeth.
    """
    limit = nyquist_limit(cfg)
    if not sample_rate > limit:
        raise NyquistViolation(
            f"sample rate {sample_rate:g} is below the admissible minimum "
            f"{limit:g} for this train"
        )
    if t_total < cfg.N * cfg.T:
        raise ValueError(
            f"t_total = {t_total:g} is shorter than the train N*T = "
            f"{cfg.N * cfg.T:g}"
        )
    n_samples = round(t_total * sample_rate)
    t = -0.5 * cfg.T + np.arange(n_samples) / sample_rate
    return field_amplitude(t, cfg, window_sigmas)


def compute_spectrum(series: np.ndarray, sample_rate: float) -> SpectrumResult:
    """One-sided power spectrum of a uniformly sampled real series.

    resolution = 2*pi / (actual sampled duration); intensities carry the
    interior-bin factor 2 of the one-sided fold so that Parseval holds
    exactly: sum(intensities) * resolution == sum(series**2) / sample_rate.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size < 2:
        raise ValueError("series must be a 1-D array with at least two samples")
    if not sample_rate > 0.0:
        raise ValueError("sample_rate must be positive")
    n = series.size
    dt = 1.0 / sample_rate
    amplitudes = np.fft.rfft(series)
    weights = np.full(amplitudes.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    intensities = weights * np.abs(amplitudes) ** 2 * dt * dt / (2.0 * math.pi)
    resolution = 2.0 * math.pi / (n * dt)
    frequencies = np.arange(amplitudes.size) * resolution
    return SpectrumResult(
        frequencies=frequencies, intensities=intensities, resolution=resolution
    )


def extract_peaks(spec: SpectrumResult, threshold_fraction: float) -> PeakList:
    """Interior local maxima above a fraction of the global maximum.

    Each peak is refined by a three-point parabola on log intensity, which
    places an isolated tooth to a small fraction of a bin; the refined
    vertex intensity is reported (never below the bin value, so the
    threshold invariant survives refinement).
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must lie strictly between 0 and 1")
    intens = spec.intensities
    threshold = threshold_fraction * intens.max()
    inner = intens[1:-1]
    is_peak = (inner > intens[:-2]) & (inner > intens[2:]) & (inner >= threshold)
    idx = np.nonzero(is_peak)[0] + 1

    freqs = np.empty(idx.size)
    heights = np.empty(idx.size)
    for out_i, i in enumerate(idx):
        y_m, y_0, y_p = intens[i - 1], intens[i], intens[i + 1]
        if y_m > 0.0 and y_p > 0.0:
            lm, l0, lp = math.log(y_m), math.log(y_0), math.log(y_p)
            denom = lm - 2.0 * l0 + lp
            delta = 0.5 * (lm - lp) / denom if denom < 0.0 else 0.0
            delta = min(0.5, max(-0.5, delta))
            heights[out_i] = math.exp(l0 - 0.25 * (lm - lp) * delta)
        else:
            delta = 0.0
            heights[out_i] = y_0
        freqs[out_i] = spec.frequencies[i] + delta * spec.resolution
    return PeakList(
        peak_frequencies=freqs,
        peak_intensities=heights,
        threshold_used=threshold_fraction,
    )


def tooth_fwhm(spec: SpectrumResult, omega: float) -> float:
    """Full width at half maximum of the comb tooth nearest a frequency.

    Climbs to the local maximum nearest `omega`, then finds the half-height
    crossings on both sides by linear interpolation.  The observation
    window must be long enough that the tooth spans several bins.
    """
    intens = spec.intensities
    i = int(np.argmin(np.abs(spec.frequencies - omega)))
    while 0 < i < intens.size - 1:
        if intens[i + 1] > intens[i]:
            i += 1
        elif intens[i - 1] > intens[i]:
            i -= 1
        else:
            break
    half = 0.5 * intens[i]

    right = i
    while right < intens.size - 1 and intens[right] > half:
        right += 1
    if intens[right] > half:
        raise ValueError("tooth right flank never falls below half maximum")
    x_right = right - 1 + (intens[right - 1] - half) / (intens[right - 1] - intens[right])

    left = i
    while left > 0 and intens[left] > half:
        left -= 1
    if intens[left] > half:
        raise ValueError("tooth left flank never falls below half maximum")
    x_left = left + 1 - (intens[left + 1] - half) / (intens[left + 1] - intens[left])

    return (x_right - x_left) * spec.resolution


@dataclass(frozen=True)
class CombStructureReport:
    """Measured comb spacings against their configured values."""

    n_peaks: int
    mode_spacing: float
    mode_spacing_deviation: float
    set_spacing: float | None
    set_spacing_deviation: float | None
    tolerance: float
    passed: bool

    def format(self) -> str:
        lines = [
            f"n_peaks = {self.n_peaks}",
            f"mode_spacing = {self.mode_spacing:.12g}",
            f"mode_spacing_deviation = {self.mode_spacing_deviation:.6g}",
        ]
        if self.set_spacing is not None:
            lines.append(f"set_spacing = {self.set_spacing:.12g}")
            lines.append(f"set_spacing_deviation = {self.set_spacing_deviation:.6g}")
        else:
            lines.append("set_spacing = none")
        lines.append(f"tolerance = {self.tolerance:.6g}")
        lines.append(f"passed = {'true' if self.passed else 'false'}")
        return "\n".join(lines)


def verify_comb_structure(
    peaks: PeakList, cfg: PulseTrainConfig, resolution: float
) -> CombStructureReport:
    """Measure tooth and sideband-set spacings and compare to the train.

    Tooth spacing: the median of nearest-neighbour peak separations in the
    smallest separation class, compared to 2*pi/T.  Set spacing (modulated
    trains only): intensity maxima among the teeth within a half-Omega
    neighbourhood mark the sideband-set centres; the median of their
    separations is compared to Omega.  Both must match within half a bin of
    the originating spectrum for the report to pass.
    """
    if peaks.n_peaks < 3:
        raise InsufficientPeaks(
            f"need at least 3 peaks to measure spacings, got {peaks.n_peaks}"
        )
    freqs = peaks.peak_frequencies
    intens = peaks.peak_intensities
    order = np.argsort(freqs)
    freqs = freqs[order]
    intens = intens[order]

    diffs = np.diff(freqs)
    smallest = diffs.min()
    mode_spacing = float(np.median(diffs[diffs < 1.5 * smallest]))
    nominal_mode = 2.0 * math.pi / cfg.T
    mode_deviation = abs(mode_spacing - nominal_mode)
    tolerance = 0.5 * resolution

    set_spacing: float | None = None
    set_deviation: float | None = None
    modulated = cfg.modulation.kind != "none"
    if modulated:
        omega_set = cfg.modulation.frequency
        centres = []
        for i in range(freqs.size):
            window = np.abs(freqs - freqs[i]) <= 0.5 * omega_set
            if intens[i] >= intens[window].max():
                centres.append(freqs[i])
        centres = np.asarray(centres)
        if centres.size >= 2:
            set_spacing = float(np.median(np.diff(centres)))
            set_deviation = abs(set_spacing - omega_set)

    passed = mode_deviation < tolerance and (
        not modulated or (set_deviation is not None and set_deviation < tolerance)
    )
    return CombStructureReport(
        n_peaks=peaks.n_peaks,
        mode_spacing=mode_spacing,
        mode_spacing_deviation=mode_deviation,
        set_spacing=set_spacing,
        set_spacing_deviation=set_deviation,
        tolerance=tolerance,
        passed=passed,
    )
