"""Unit tests for the core containers: units, levels, rates, states."""

import numpy as np
import pytest

from combcool import (
    DecoherenceRates,
    DensityMatrix,
    FrequencyUnit,
    LevelSystem,
    RateCheckMode,
    RateRelationViolation,
    Trajectory,
    hermitian_defect,
    trace,
    validate_rates,
)
from combcool.core import VECTOR_COMPONENTS


# --- FrequencyUnit ----------------------------------------------------------


def test_unit_angular_convention_takes_quoted_value_as_angular():
    unit = FrequencyUnit.from_terahertz(125.5)
    assert unit.reference_angular_frequency == pytest.approx(125.5e12)


def test_unit_time_conversion_femtosecond_pulse():
    unit = FrequencyUnit.from_terahertz(125.5)
    assert unit.time_from_seconds(3e-15) == pytest.approx(0.3765)


def test_unit_period_from_rep_rate():
    unit = FrequencyUnit.from_terahertz(125.5)
    assert unit.period_from_rep_rate(5e9) == pytest.approx(25100.0)
    with pytest.raises(ValueError):
        unit.period_from_rep_rate(0.0)


def test_unit_validation():
    with pytest.raises(ValueError):
        FrequencyUnit(reference_angular_frequency=0.0)


# --- LevelSystem ------------------------------------------------------------


def test_ladder_identity_derived_by_factory():
    sys_ = LevelSystem.from_transitions(2.4645418326693228, 3.4645418326693228)
    assert sys_.omega31 == pytest.approx(1.0)


def test_ladder_identity_enforced():
    """omega31 is derived, never set: bitwise omega32 - omega21, with no third
    field that could contradict it."""
    sys_ = LevelSystem(omega21=2.1, omega32=3.3)
    assert sys_.omega31 == 3.3 - 2.1
    assert LevelSystem.from_transitions(2.1, 3.3) == sys_
    with pytest.raises(TypeError):
        LevelSystem(omega21=2.0, omega32=3.0, omega31=1.0)


def test_level_system_rejects_nonpositive_frequencies():
    # omega31 = omega32 - omega21 must be positive too
    for omega21, omega32 in ((-1.0, 2.0), (0.0, 2.0), (2.0, 2.0), (3.0, 2.0)):
        with pytest.raises(ValueError, match="need 0 < omega21 < omega32"):
            LevelSystem.from_transitions(omega21, omega32)


# --- DecoherenceRates -------------------------------------------------------


def test_rates_reject_negative_values():
    with pytest.raises(ValueError):
        DecoherenceRates(gamma21=-0.001)


def test_rate_relation_examples():
    ok1 = DecoherenceRates(Gamma21=0.001, Gamma31=0.0, Gamma23=0.001)
    ok2 = DecoherenceRates(Gamma21=0.001, Gamma31=0.001, Gamma23=0.002)
    bad = DecoherenceRates(Gamma21=0.001, Gamma31=0.001, Gamma23=0.001)
    assert ok1.relation_deviation() == pytest.approx(0.0, abs=1e-15)
    assert ok2.relation_deviation() == pytest.approx(0.0, abs=1e-15)
    assert bad.relation_deviation() == pytest.approx(-0.001)


@pytest.mark.parametrize("mode", list(RateCheckMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("violating", [False, True], ids=["valid", "violating"])
def test_validate_rates_applies_its_mode_in_one_place(capsys, mode, violating):
    """Only ENFORCE on violating rates raises, only WARN on violating rates
    writes stderr, and every call that does not raise returns the same report."""
    rates = DecoherenceRates(Gamma21=0.001, Gamma31=0.001, Gamma23=0.001 if violating else 0.002)
    off = validate_rates(rates, RateCheckMode.OFF)
    assert off.within_tolerance is not violating
    if violating and mode is RateCheckMode.ENFORCE:
        with pytest.raises(RateRelationViolation) as excinfo:
            validate_rates(rates, mode, "point: ")
        assert str(excinfo.value) == off.message
    else:
        assert validate_rates(rates, mode.value, "point: ") == off
    warned = violating and mode is RateCheckMode.WARN
    assert capsys.readouterr() == ("", f"warning: point: {off.message}\n" if warned else "")


def test_rates_helpers():
    rates = DecoherenceRates(gamma21=0.002, gamma23=0.003)
    assert rates.gamma2_total == pytest.approx(0.005)
    assert rates.any_nonzero
    assert not DecoherenceRates.none().any_nonzero


# --- DensityMatrix ----------------------------------------------------------


def test_pure_states():
    for level in (1, 2, 3):
        rho = DensityMatrix.pure(level)
        assert rho.populations[level - 1] == pytest.approx(1.0)
        assert trace(rho) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DensityMatrix.pure(4)


def test_vector_round_trip():
    vec = np.array([0.5, 0.3, 0.2, 0.1, -0.05, 0.02, 0.03, -0.01, 0.04])
    rho = DensityMatrix.from_vector(vec)
    np.testing.assert_allclose(rho.to_vector(), vec, atol=0.0)
    assert rho.rho12 == complex(0.1, -0.05)
    assert len(VECTOR_COMPONENTS) == 9


def test_matrix_round_trip_and_hermiticity_guard():
    m = np.array(
        [
            [0.6, 0.2 + 0.1j, -0.05j],
            [0.2 - 0.1j, 0.3, 0.1],
            [0.05j, 0.1, 0.1],
        ]
    )
    rho = DensityMatrix.from_matrix(m)
    np.testing.assert_allclose(rho.matrix, m, atol=1e-15)
    assert hermitian_defect(rho.matrix) == 0.0
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix.from_matrix(m + np.array([[0, 1e-6, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(np.eye(2))
    with pytest.raises(ValueError):
        DensityMatrix.from_vector(np.zeros(8))


def test_numpy_scalars_coerced_to_python_types():
    rho = DensityMatrix(np.float64(0.5), np.float64(0.5), np.float64(0.0))
    assert type(rho.rho11) is float
    assert type(rho.rho12) is complex


# --- Trajectory -------------------------------------------------------------


def _synthetic_trajectory():
    times = np.linspace(0.0, 4.0, 5)
    data = np.arange(45, dtype=float).reshape(5, 9) / 100.0
    ends = np.array([2, 4])
    return Trajectory.from_arrays(times, data, ends, metadata={})


def test_trajectory_accessors():
    traj = _synthetic_trajectory()
    assert traj.n_samples == 5
    np.testing.assert_array_equal(traj.rho22, traj.data[:, 1])
    np.testing.assert_array_equal(traj.rho33, traj.data[:, 2])


def test_trajectory_states():
    traj = _synthetic_trajectory()
    np.testing.assert_array_equal(traj.pulse_ends, traj.data[[2, 4]])
    np.testing.assert_array_equal(traj.last_rows(3), traj.data[2:])
    np.testing.assert_allclose(traj.final_state.to_vector(), traj.data[-1])


@pytest.mark.parametrize("m", [0, -1, 4, 5])
def test_last_rows_rejects_a_count_outside_the_rows(m):
    """Three held rows give their last one to three; any other count raises
    rather than read past the rows (4, 5) or return none (0, -1)."""
    traj = Trajectory.from_arrays(np.arange(3.0), np.ones((3, 9)), [2])
    with pytest.raises(ValueError, match=f"1 <= m <= 3, got {m}"):
        traj.last_rows(m)


@pytest.mark.parametrize(
    "times, data, ends, message",
    [
        (np.zeros((5, 1)), np.zeros((5, 9)), [4], "one-dimensional"),
        (np.arange(5.0), np.zeros((5, 3)), [4], "does not match 5 samples"),
        (np.arange(5.0), np.zeros((4, 9)), [3], "does not match 5 samples"),
        (np.array([0.0, 1.0, 1.0, 2.0]), np.zeros((4, 9)), [3], "strictly increasing"),
        (np.array([0.0, 2.0, 1.0]), np.zeros((3, 9)), [2], "strictly increasing"),
        (np.arange(5.0), np.zeros((5, 9)), [2, 5], "out of range"),
        (np.arange(5.0), np.zeros((5, 9)), [-1, 4], "out of range"),
    ],
)
def test_from_arrays_rejects_malformed_rows(times, data, ends, message):
    with pytest.raises(ValueError, match=message):
        Trajectory.from_arrays(times, data, ends)


# --- input checks -------------------------------------------------------------


@pytest.mark.parametrize(
    "rho, outcome",
    [
        (DensityMatrix.pure(2), 0.0),
        (np.eye(2), "expected a 3x3 matrix, got shape (2, 2)"),
        (np.zeros(9), "expected a 3x3 matrix, got shape (9,)"),
    ],
)
def test_hermitian_defect_reads_a_density_matrix_and_rejects_other_shapes(rho, outcome):
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as raised:
            hermitian_defect(rho)
        assert type(raised.value) is ValueError and str(raised.value) == outcome
    else:
        assert hermitian_defect(rho) == outcome
