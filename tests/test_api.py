"""Public-surface tests: the exported names of the package and its modules."""

import importlib

import pytest

import combcool

PUBLIC_NAMES = [
    "CalibrationPoint",
    "CalibrationResult",
    "CombStructureReport",
    "DecoherenceRates",
    "DensityMatrix",
    "Expectation",
    "ExpectationResult",
    "FrequencyUnit",
    "InsufficientPeaks",
    "IntegrationError",
    "IntegratorConfig",
    "LevelSystem",
    "Modulation",
    "NegativePopulation",
    "NyquistViolation",
    "PRESET_NAMES",
    "PeakList",
    "PulseTrainConfig",
    "RateCheckMode",
    "RateRelationViolation",
    "RateReport",
    "ScenarioPreset",
    "SpectrumResult",
    "TraceDrift",
    "Trajectory",
    "__version__",
    "calibrate_fig4",
    "compute_spectrum",
    "evaluate_expectations",
    "extract_peaks",
    "field_amplitude",
    "free_evolution",
    "get_preset",
    "hermitian_defect",
    "nyquist_limit",
    "phase_modulation",
    "propagate",
    "quantum_yield",
    "run_preset",
    "sample_field",
    "steady_state_yield",
    "tooth_fwhm",
    "trace",
    "transfer_pulse",
    "validate_rates",
    "verify_comb_structure",
]


def test_package_exports_exactly_the_public_names():
    assert combcool.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(combcool, name) is not None


@pytest.mark.parametrize(
    "module", ["cli", "core", "dynamics", "field", "scenarios", "spectrum"]
)
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"combcool.{module}")
    exported = getattr(mod, "__all__", ())
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == []


def test_rate_check_modes_are_enforce_and_off():
    assert [mode.value for mode in combcool.RateCheckMode] == ["enforce", "warn", "off"]
