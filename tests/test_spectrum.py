"""Spectrum tests: Parseval, tooth placement, sideband sets, linewidths."""

import math
import re

import numpy as np
import pytest
from scipy.special import jv

from combcool import (
    InsufficientPeaks,
    NyquistViolation,
    PeakList,
    SpectrumResult,
    compute_spectrum,
    extract_peaks,
    nyquist_limit,
    sample_field,
    tooth_fwhm,
    verify_comb_structure,
)

from helpers import (
    DESK_OMEGA_L,
    DESK_OMEGA_MOD,
    DESK_PHI0,
    DESK_T,
    DESK_TAU,
    TICK,
    desk_spectrum,
    desk_train,
    safe_rate,
)


# --- sampling and normalization ----------------------------------------------


def test_nyquist_guard_rejects_slow_sampling():
    cfg = desk_train("sine")
    limit = nyquist_limit(cfg)
    with pytest.raises(NyquistViolation):
        sample_field(cfg, 0.9 * limit, cfg.N * cfg.T)
    # modulation widens the admissible band
    assert nyquist_limit(desk_train("sine")) > nyquist_limit(desk_train("none"))


def test_sample_window_must_cover_the_train():
    cfg = desk_train("none", n_pulses=4)
    with pytest.raises(ValueError):
        sample_field(cfg, safe_rate(cfg), 3.0 * cfg.T)


def test_parseval_identity():
    cfg = desk_train("sine", n_pulses=8)
    rate = safe_rate(cfg)
    series = sample_field(cfg, rate, cfg.N * cfg.T)
    spec = compute_spectrum(series, rate)
    dt = 1.0 / rate
    time_energy = float(np.sum(series**2) * dt)
    freq_energy = float(np.sum(spec.intensities) * spec.resolution)
    assert freq_energy == pytest.approx(time_energy, rel=1e-9)


def test_total_energy_matches_gaussian_pulse_integral():
    """Energy of N well-separated pulses of unit peak: N * tau * sqrt(pi)/2.

    (The envelope-squared integral is tau sqrt(pi); the cos^2 carrier
    averages it down by one half.)
    """
    cfg = desk_train("none", n_pulses=8)
    rate = safe_rate(cfg)
    series = sample_field(cfg, rate, cfg.N * cfg.T)
    dt = 1.0 / rate
    measured = float(np.sum(series**2) * dt)
    expected = cfg.N * cfg.tau * math.sqrt(math.pi) / 2.0
    assert measured == pytest.approx(expected, rel=1e-3)


def test_spectrum_result_requires_uniform_grid():
    with pytest.raises(ValueError):
        SpectrumResult(
            frequencies=np.array([0.0, 1.0, 3.0]),
            intensities=np.ones(3),
            resolution=1.0,
        )


# --- standard comb -------------------------------------------------------------


def test_teeth_sit_on_repetition_harmonics():
    cfg = desk_train("none")
    spec = desk_spectrum(cfg)
    peaks = extract_peaks(spec, 0.05)
    assert peaks.n_peaks > 10
    # every bright tooth is an integer multiple of 2*pi/T
    offsets = peaks.peak_frequencies / TICK
    np.testing.assert_allclose(offsets, np.round(offsets), atol=1e-3)
    # and the brightest tooth is the carrier itself
    brightest = peaks.peak_frequencies[np.argmax(peaks.peak_intensities)]
    assert brightest == pytest.approx(DESK_OMEGA_L, abs=TICK / 2.0)


def test_standard_comb_structure_report():
    cfg = desk_train("none")
    spec = desk_spectrum(cfg)
    peaks = extract_peaks(spec, 0.05)
    report = verify_comb_structure(peaks, cfg, spec.resolution)
    assert report.passed
    assert report.mode_spacing == pytest.approx(2.0 * math.pi / DESK_T, abs=report.tolerance)
    assert report.mode_spacing_deviation < report.tolerance
    text = report.format()
    assert "mode_spacing" in text and "passed" in text


def test_mode_spacing_states_half_bin_tolerance():
    cfg = desk_train("none")
    spec = desk_spectrum(cfg)
    peaks = extract_peaks(spec, 0.05)
    report = verify_comb_structure(peaks, cfg, spec.resolution)
    assert report.tolerance == pytest.approx(spec.resolution / 2.0)


# --- modulated combs -------------------------------------------------------------


def test_sine_modulation_builds_sideband_sets():
    cfg = desk_train("sine")
    spec = desk_spectrum(cfg)
    peaks = extract_peaks(spec, 0.02)
    report = verify_comb_structure(peaks, cfg, spec.resolution)
    assert report.passed
    assert report.set_spacing == pytest.approx(DESK_OMEGA_MOD, abs=report.tolerance)
    # teeth keep the repetition spacing inside each set
    assert report.mode_spacing == pytest.approx(2.0 * math.pi / DESK_T, abs=report.tolerance)


def test_cosine_modulation_builds_the_same_sets():
    cfg = desk_train("cosine")
    spec = desk_spectrum(cfg)
    peaks = extract_peaks(spec, 0.02)
    report = verify_comb_structure(peaks, cfg, spec.resolution)
    assert report.passed
    assert report.set_spacing == pytest.approx(DESK_OMEGA_MOD, abs=report.tolerance)


@pytest.mark.parametrize("kind", ["sine", "cosine"])
def test_sideband_set_weights_follow_bessel_functions(kind):
    """Set-centre intensities scale as J_m(phi0)^2 relative to the carrier."""
    cfg = desk_train(kind)
    spec = desk_spectrum(cfg)

    def intensity_at(omega):
        return spec.intensities[int(round(omega / spec.resolution))]

    i0 = intensity_at(DESK_OMEGA_L)
    for m in (-2, -1, 1, 2):
        ratio = intensity_at(DESK_OMEGA_L + m * DESK_OMEGA_MOD) / i0
        oracle = (jv(m, DESK_PHI0) / jv(0, DESK_PHI0)) ** 2
        assert ratio == pytest.approx(oracle, rel=0.01)


def test_mode_spacing_unchanged_by_modulation_depth():
    spacings = []
    for phi0 in (0.0, 1.0, 4.0):
        cfg = desk_train("sine", phi0=phi0) if phi0 else desk_train("none")
        spec = desk_spectrum(cfg)
        peaks = extract_peaks(spec, 0.02)
        report = verify_comb_structure(peaks, cfg, spec.resolution)
        spacings.append(report.mode_spacing)
    assert max(spacings) - min(spacings) < desk_spectrum(desk_train("none")).resolution


def test_span_grows_with_modulation_frequency():
    spans = []
    for factor in (0.5, 1.0, 2.0):
        cfg = desk_train("sine", omega_mod=factor * DESK_OMEGA_MOD)
        spec = desk_spectrum(cfg)
        peaks = extract_peaks(spec, 0.02)
        spans.append(peaks.peak_frequencies.max() - peaks.peak_frequencies.min())
    assert spans[0] < spans[1] < spans[2]


# --- linewidths --------------------------------------------------------------------


def test_tooth_width_narrows_as_the_train_lengthens():
    """Finite-train teeth have FWHM ~ 0.886 * 2*pi / (N*T): doubling the
    train halves the width.  Measured on an 8x padded window so the line
    shape is resolved."""
    widths = {}
    for n_pulses in (32, 64):
        cfg = desk_train("none", n_pulses=n_pulses)
        spec = desk_spectrum(cfg, pad=8.0)
        widths[n_pulses] = tooth_fwhm(spec, DESK_OMEGA_L)
        expected = 0.886 * 2.0 * math.pi / (n_pulses * DESK_T)
        assert widths[n_pulses] == pytest.approx(expected, rel=0.10)
    assert widths[32] / widths[64] == pytest.approx(2.0, rel=0.10)


# --- peak extraction edge cases ------------------------------------------------------


def test_single_pulse_has_no_comb():
    cfg = desk_train("none", n_pulses=1)
    rate = safe_rate(cfg)
    series = sample_field(cfg, rate, 40.0 * cfg.T)
    spec = compute_spectrum(series, rate)
    peaks = extract_peaks(spec, 0.05)
    with pytest.raises(InsufficientPeaks):
        verify_comb_structure(peaks, cfg, spec.resolution)


def test_pure_tone_is_located_within_one_bin():
    rate = 8.0
    n = 4096
    t = np.arange(n) / rate
    omega0 = 3.1
    spec = compute_spectrum(np.cos(omega0 * t), rate)
    peaks = extract_peaks(spec, 0.5)
    assert peaks.n_peaks == 1
    assert abs(peaks.peak_frequencies[0] - omega0) < spec.resolution


def test_peak_threshold_is_recorded():
    cfg = desk_train("none")
    spec = desk_spectrum(cfg)
    peaks = extract_peaks(spec, 0.05)
    assert isinstance(peaks, PeakList)
    assert peaks.threshold_used == pytest.approx(0.05)
    lower = extract_peaks(spec, 0.001)
    assert lower.n_peaks >= peaks.n_peaks


# --- input checks and edge branches ---------------------------------------------------


def _bins(intensities, resolution=1.0) -> SpectrumResult:
    """A spectrum on bins 0, 1, 2, ... of the given intensities."""
    intensities = np.asarray(intensities, dtype=float)
    return SpectrumResult(np.arange(intensities.size) * resolution, intensities, resolution)


# Each check of the spectrum module, and the message it raises.
@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: SpectrumResult(np.arange(3.0), np.ones(2), 1.0),
                     "frequencies and intensities must be parallel 1-D arrays", id="result_shapes"),
        pytest.param(lambda: SpectrumResult(np.zeros(1), np.ones(1), 1.0),
                     "a spectrum needs at least two bins", id="result_bins"),
        pytest.param(lambda: SpectrumResult(np.arange(3.0), np.ones(3), 0.0),
                     "resolution must be positive", id="result_resolution"),
        pytest.param(lambda: SpectrumResult(np.array([0.0, 1.0, 1.0]), np.ones(3), 1.0),
                     "frequencies must be strictly increasing", id="result_order"),
        pytest.param(lambda: SpectrumResult(np.array([0.0, 1.0, 3.0]), np.ones(3), 1.0),
                     "frequency grid must be uniform at the stated resolution", id="result_grid"),
        pytest.param(lambda: _bins([1.0, -1.0, 1.0]),
                     "intensities must be non-negative", id="result_intensities"),
        pytest.param(lambda: PeakList(np.zeros(2), np.ones(3), 0.5),
                     "peak arrays must be parallel 1-D arrays", id="peak_shapes"),
        pytest.param(lambda: compute_spectrum(np.ones(1), 1.0),
                     "series must be a 1-D array with at least two samples", id="series"),
        pytest.param(lambda: compute_spectrum(np.ones(4), 0.0),
                     "sample_rate must be positive", id="sample_rate"),
        pytest.param(lambda: extract_peaks(_bins([0.0, 1.0, 0.0]), 0.0),
                     "threshold_fraction must lie strictly between 0 and 1", id="threshold"),
        pytest.param(lambda: tooth_fwhm(_bins([0.0, 1.0, 2.0, 1.5]), 2.0),
                     "tooth right flank never falls below half maximum", id="right_flank"),
        pytest.param(lambda: tooth_fwhm(_bins([1.5, 2.0, 1.0, 0.0]), 1.0),
                     "tooth left flank never falls below half maximum", id="left_flank"),
    ],
)
def test_spectrum_checks_name_their_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("omega", [1.0, 2.0, 3.0], ids=["climbs_right", "at_top", "climbs_left"])
def test_tooth_fwhm_climbs_to_the_nearest_maximum(omega):
    # half maximum 1.5 is crossed at 1.25 and 2.75
    assert tooth_fwhm(_bins([0.0, 1.0, 3.0, 1.0, 0.0], 0.5), omega * 0.5) == 0.75


def test_peak_beside_an_empty_bin_keeps_its_bin():
    """A zero neighbour has no logarithm: the peak stays on its bin, at its bin value."""
    peaks = extract_peaks(_bins([0.0, 0.0, 2.0, 1.0, 0.5], 0.5), 0.5)
    assert peaks.peak_frequencies.tolist() == [1.0]
    assert peaks.peak_intensities.tolist() == [2.0]
