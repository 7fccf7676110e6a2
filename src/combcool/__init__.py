"""Three-level Lambda-system dynamics under phase-locked femtosecond pulse trains.

A |1> (loosely bound) -- |2> (excited) -- |3> (deeply bound) ladder-in-Lambda
system is driven by a train of N identical phase-locked pulses (optionally
sine- or cosine-phase-modulated, i.e. a shaped frequency comb).  The density
matrix evolves under the beyond-rotating-wave Liouville-von Neumann equations
with spontaneous emission and collisional dephasing; the quantum yield is the
population accumulated in |3>.
"""

from .core import (
    DecoherenceRates,
    DensityMatrix,
    FrequencyUnit,
    LevelSystem,
    RateCheckMode,
    RateRelationViolation,
    RateReport,
    Trajectory,
    hermitian_defect,
    trace,
    validate_rates,
)
from .dynamics import (
    IntegrationError,
    IntegratorConfig,
    NegativePopulation,
    TraceDrift,
    free_evolution,
    lvn_rhs,
    propagate,
    quantum_yield,
    steady_state_yield,
)
from .field import (
    Modulation,
    PulseTrainConfig,
    field_amplitude,
    hamiltonian_element,
    phase_modulation,
    rabi_envelope,
)
from .scenarios import (
    CalibrationPoint,
    CalibrationResult,
    ComparisonRow,
    ComparisonTable,
    Expectation,
    ExpectationResult,
    PRESET_NAMES,
    ScenarioPreset,
    calibrate_fig4,
    compare_runs,
    evaluate_expectations,
    get_preset,
    run_preset,
    transfer_pulse,
)
from .spectrum import (
    CombStructureReport,
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

__version__ = "0.1.0"

__all__ = [
    "CalibrationPoint",
    "CalibrationResult",
    "CombStructureReport",
    "ComparisonRow",
    "ComparisonTable",
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
    "compare_runs",
    "compute_spectrum",
    "evaluate_expectations",
    "extract_peaks",
    "field_amplitude",
    "free_evolution",
    "get_preset",
    "hamiltonian_element",
    "hermitian_defect",
    "lvn_rhs",
    "nyquist_limit",
    "phase_modulation",
    "propagate",
    "quantum_yield",
    "rabi_envelope",
    "run_preset",
    "sample_field",
    "steady_state_yield",
    "tooth_fwhm",
    "trace",
    "transfer_pulse",
    "validate_rates",
]
