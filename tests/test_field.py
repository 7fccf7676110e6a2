"""Unit tests for the driving field: synthesis, modulation, matrix elements."""

import math

import numpy as np
import pytest

from combcool import (
    LevelSystem,
    Modulation,
    PulseTrainConfig,
    field_amplitude,
    phase_modulation,
)
from combcool.field import DEFAULT_WINDOW_SIGMAS

from helpers import hamiltonian_element


def _cfg(**overrides):
    base = dict(rabi_peak=1.0, omega_L=10.0, tau=0.4, T=20.0, N=1)
    base.update(overrides)
    return PulseTrainConfig(**base)


# --- field synthesis --------------------------------------------------------


def test_field_peak_value_and_carrier_phase():
    """The field is in units of the envelope peak, so a pulse centre reads cos(phi)."""
    cfg = _cfg(phi=0.4)
    assert field_amplitude(0.0, cfg) == math.cos(0.4)


def test_field_carrier_oscillates_at_omega_L():
    cfg = _cfg(omega_L=25.0, tau=5.0)  # slow envelope, fast carrier
    t = 0.13
    expected = math.exp(-t**2 / (2.0 * cfg.tau**2)) * math.cos(cfg.omega_L * t)
    assert field_amplitude(t, cfg) == pytest.approx(expected, rel=1e-12)


def test_train_is_superposition_of_single_pulses():
    cfg3 = _cfg(N=3, phi=0.7)
    cfg1 = _cfg(N=1, phi=0.7)
    ts = np.linspace(-5.0, 2.0 * cfg3.T + 5.0, 1201)
    total = field_amplitude(ts, cfg3, window_sigmas=40.0)
    parts = sum(
        field_amplitude(ts - k * cfg3.T, cfg1, window_sigmas=40.0) for k in range(3)
    )
    np.testing.assert_allclose(total, parts, atol=1e-12)


def test_field_vectorized_matches_scalar():
    cfg = _cfg(modulation=Modulation.sine(2.0, 1.5), N=2)
    ts = np.linspace(-2.0, cfg.T + 2.0, 57)
    vec = field_amplitude(ts, cfg)
    scalars = np.array([field_amplitude(float(t), cfg) for t in ts])
    np.testing.assert_allclose(vec, scalars, atol=1e-14)


def test_field_of_unsorted_times_is_the_permuted_field():
    cfg = _cfg(modulation=Modulation.sine(2.0, 1.5), N=3)
    ts = np.linspace(-3.0, 2.0 * cfg.T + 3.0, 301)
    perm = np.random.default_rng(7).permutation(ts.size)
    sorted_field = field_amplitude(ts, cfg)
    assert np.array_equal(field_amplitude(ts[perm], cfg), sorted_field[perm])
    grid = field_amplitude(ts[perm].reshape(7, 43), cfg)
    assert np.array_equal(grid, sorted_field[perm].reshape(7, 43))


def test_window_truncation_is_exact_beyond_cutoff():
    cfg = _cfg()
    s_out = DEFAULT_WINDOW_SIGMAS * cfg.tau + 1e-6
    assert field_amplitude(s_out, cfg) == 0.0
    assert field_amplitude(-s_out, cfg) == 0.0
    # just inside the window the Gaussian tail is tiny but nonzero
    assert field_amplitude(0.99 * s_out, cfg) != 0.0


# --- phase modulation -------------------------------------------------------


def test_phase_modulation_kinds():
    s = np.linspace(-1.0, 1.0, 11)
    none = phase_modulation(s, Modulation.none())
    np.testing.assert_allclose(none, np.zeros_like(s))
    sine = phase_modulation(s, Modulation.sine(2.5, 1.2))
    np.testing.assert_allclose(sine, 2.5 * np.sin(1.2 * s))
    cosine = phase_modulation(s, Modulation.cosine(2.5, 1.2))
    np.testing.assert_allclose(cosine, 2.5 * np.cos(1.2 * s))


def test_modulation_validation():
    with pytest.raises(ValueError):
        Modulation(kind="square", amplitude=1.0, frequency=1.0)
    with pytest.raises(ValueError):
        Modulation.sine(-1.0, 1.0)
    with pytest.raises(ValueError):
        Modulation.sine(1.0, 0.0)
    # inactive modulation does not need a frequency
    assert Modulation.none().kind == "none"


def test_modulation_enters_carrier_phase():
    mod = Modulation.sine(3.0, 0.9)
    cfg = _cfg(modulation=mod, omega_L=12.0)
    t = 0.21
    expected = math.exp(-t**2 / (2.0 * cfg.tau**2)) * math.cos(
        cfg.omega_L * t + 3.0 * math.sin(0.9 * t)
    )
    assert field_amplitude(t, cfg) == pytest.approx(expected, rel=1e-12)


# --- Hamiltonian matrix elements --------------------------------------------


def test_hamiltonian_element_formula():
    sys_ = LevelSystem.from_transitions(4.0, 6.0)
    cfg = _cfg(rabi_peak=0.8, omega_L=6.0, phi=0.3, modulation=Modulation.sine(1.5, 0.7))
    k = 0
    t = 0.17
    phase = cfg.omega_L * t + 1.5 * math.sin(0.7 * t) + cfg.phi
    envelope = 0.8 * math.exp(-t**2 / (2.0 * cfg.tau**2))
    h21 = hamiltonian_element(2, 1, t, k, cfg, sys_)
    h32 = hamiltonian_element(3, 2, t, k, cfg, sys_)
    assert h21 == pytest.approx(
        2.0 * envelope * math.cos(phase) * np.exp(-1j * 4.0 * t), rel=1e-12
    )
    assert h32 == pytest.approx(
        2.0 * envelope * math.cos(phase) * np.exp(-1j * 6.0 * t), rel=1e-12
    )


def test_hamiltonian_element_undriven_pairs_are_zero_and_transposes_conjugate():
    sys_ = LevelSystem.from_transitions(4.0, 6.0)
    cfg = _cfg(omega_L=6.0)
    t = 0.11
    assert hamiltonian_element(3, 1, t, 0, cfg, sys_) == 0j
    assert hamiltonian_element(1, 1, t, 0, cfg, sys_) == 0j
    h21 = hamiltonian_element(2, 1, t, 0, cfg, sys_)
    h12 = hamiltonian_element(1, 2, t, 0, cfg, sys_)
    assert h12 == pytest.approx(h21.conjugate(), rel=1e-12)
    with pytest.raises(ValueError):
        hamiltonian_element(4, 1, t, 0, cfg, sys_)
    with pytest.raises(ValueError):
        hamiltonian_element(2, 1, t, 5, cfg, sys_)


# --- configuration validation -----------------------------------------------


def test_period_must_clear_pulse_duration():
    with pytest.raises(ValueError, match="period"):
        _cfg(tau=0.4, T=3.9, N=2)  # below 10*tau
    # a single pulse has no period constraint
    _cfg(tau=0.4, T=3.9, N=1)


def test_short_period_warns_for_multi_pulse_trains():
    with pytest.warns(UserWarning, match="truncation"):
        _cfg(tau=0.4, T=10.0, N=2)


def test_single_pulse_does_not_warn_for_short_period():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _cfg(tau=0.4, T=10.0, N=1)


def test_basic_parameter_validation():
    with pytest.raises(ValueError):
        _cfg(tau=0.0)
    with pytest.raises(ValueError):
        _cfg(N=0)
    with pytest.raises(ValueError):
        _cfg(rabi_peak=-1.0)
    with pytest.raises(ValueError):
        _cfg(omega_L=0.0)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"tau": 0.0}, "tau must be positive, got 0.0"),
        ({"omega_L": -1.0}, "omega_L must be positive, got -1.0"),
        ({"T": 0.0}, "T must be positive, got 0.0"),
        ({"T": -20.0, "N": 2}, "T must be positive, got -20.0"),
    ],
)
def test_train_input_checks_raise_their_message(overrides, message):
    with pytest.raises(ValueError) as raised:
        _cfg(**overrides)
    assert type(raised.value) is ValueError and str(raised.value) == message


def test_short_period_warning_names_the_code_that_built_the_config():
    with pytest.warns(UserWarning, match="below 50\\*tau") as record:
        _cfg(N=2, T=5.0)  # 10 tau <= T < 50 tau
    assert [w.filename for w in record] == [__file__]
