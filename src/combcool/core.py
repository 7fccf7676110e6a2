"""State containers and the unit system shared by the whole simulator.

Everything downstream works in dimensionless units: angular frequencies are
multiples of a single positive reference frequency, times are multiples of its
inverse, and hbar = 1.  The three-level basis is fixed as

    |1>  weakly bound initial (Feshbach) state
    |2>  excited intermediate state
    |3>  deeply bound target (ultracold) state

with E3 < E1 < E2, so omega31 = omega32 - omega21 > 0.  Indices in names and
file formats are 1-based to match the level labels.

The density matrix is stored as the real diagonal plus the upper triangle of
coherences, which makes Hermiticity and real populations structural instead of
numerical properties.
"""

from __future__ import annotations

import enum
import functools
import sys
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "DecoherenceRates",
    "DensityMatrix",
    "FrequencyUnit",
    "LevelSystem",
    "RateCheckMode",
    "RateRelationViolation",
    "RateReport",
    "Trajectory",
    "hermitian_defect",
    "trace",
    "validate_rates",
]

#: Absolute tolerance for the dephasing-rate relation Gamma23 = Gamma21 + Gamma31.
RATE_RELATION_TOL = 1e-12


class RateRelationViolation(ValueError):
    """The dephasing rates break Gamma23 = Gamma21 + Gamma31 under enforcement."""


@dataclass(frozen=True)
class FrequencyUnit:
    """Reference angular frequency (rad/s) defining the dimensionless unit system.

    All dimensionless frequencies in a scenario are multiples of this
    reference; all dimensionless times are real time multiplied by it.
    """

    reference_angular_frequency: float

    def __post_init__(self) -> None:
        if not self.reference_angular_frequency > 0.0:
            raise ValueError(
                f"reference angular frequency must be positive, got "
                f"{self.reference_angular_frequency!r}"
            )

    @classmethod
    def from_terahertz(cls, value_thz: float) -> "FrequencyUnit":
        """Build the unit from a value quoted in THz, read as an angular
        frequency in 10^12 rad/s: t_dimless = t_seconds * value * 1e12."""
        return cls(reference_angular_frequency=value_thz * 1e12)

    def time_from_seconds(self, seconds: float) -> float:
        """Convert a real time in seconds to dimensionless units."""
        return seconds * self.reference_angular_frequency

    def period_from_rep_rate(self, rep_rate_hz: float) -> float:
        """Dimensionless pulse-train period for a repetition rate in Hz."""
        if not rep_rate_hz > 0.0:
            raise ValueError("repetition rate must be positive")
        return self.time_from_seconds(1.0 / rep_rate_hz)


@dataclass(frozen=True)
class LevelSystem:
    """Transition frequencies of the Lambda ladder, in reference units.

    omega21 and omega32 are the two driven one-photon transitions, with
    0 < omega21 < omega32; omega31 = omega32 - omega21 is the undriven
    two-photon splitting between the initial and target states, derived
    from them and never set on its own.
    """

    omega21: float
    omega32: float

    def __post_init__(self) -> None:
        if not 0.0 < self.omega21 < self.omega32:
            raise ValueError(f"need 0 < omega21 < omega32, got {self.omega21!r} and {self.omega32!r}")

    @property
    def omega31(self) -> float:
        """The undriven 1-3 splitting, omega32 - omega21."""
        return self.omega32 - self.omega21

    @classmethod
    def from_transitions(cls, omega21: float, omega32: float) -> "LevelSystem":
        """Build from the two driven transitions; omega31 follows from them."""
        return cls(omega21, omega32)


@dataclass(frozen=True)
class DecoherenceRates:
    """Spontaneous-emission and collisional-dephasing rates, in reference units.

    gamma21 / gamma23 are population decay rates of the excited state into
    levels 1 and 3.  Gamma21 / Gamma31 / Gamma23 are pure dephasing rates of
    the corresponding coherences; symmetric index pairs (e.g. Gamma12 and
    Gamma21) are the same physical rate and are stored once.  For elastic
    collisions that leave the 1-3 coherence untouched the rates satisfy
    Gamma23 = Gamma21 + Gamma31.  Construction does not check this;
    validate_rates does, and propagation calls it unless explicitly waived.
    """

    gamma21: float = 0.0
    gamma23: float = 0.0
    Gamma21: float = 0.0
    Gamma31: float = 0.0
    Gamma23: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma21", "gamma23", "Gamma21", "Gamma31", "Gamma23"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")

    @classmethod
    def none(cls) -> "DecoherenceRates":
        """All rates zero (closed-system dynamics)."""
        return cls()

    def relation_deviation(self) -> float:
        """Signed deviation Gamma23 - (Gamma21 + Gamma31)."""
        return self.Gamma23 - (self.Gamma21 + self.Gamma31)

    @property
    def gamma2_total(self) -> float:
        """Total population decay rate of the excited state."""
        return self.gamma21 + self.gamma23

    @property
    def any_nonzero(self) -> bool:
        return any(
            getattr(self, name) != 0.0
            for name in ("gamma21", "gamma23", "Gamma21", "Gamma31", "Gamma23")
        )


class RateCheckMode(enum.Enum):
    """What to do when the additive dephasing relation is violated."""

    ENFORCE = "enforce"
    WARN = "warn"
    OFF = "off"


@dataclass(frozen=True)
class RateReport:
    """Outcome of validate_rates: the signed deviation and the verdict."""

    deviation: float
    within_tolerance: bool
    message: str


def validate_rates(
    rates: DecoherenceRates, mode: RateCheckMode | str = RateCheckMode.ENFORCE, where: str = ""
) -> RateReport:
    """Check the additive dephasing relation Gamma23 = Gamma21 + Gamma31.

    For dephasing driven by elastic collisions that leave the 1-3 coherence
    untouched, the three collisional rates are not independent: the 2-3 rate
    must equal the sum of the other two.  The one place the rate-relation
    policy is applied: on violation ENFORCE raises RateRelationViolation,
    WARN prints one line "warning: {where}{message}" to stderr (where names
    the caller's context, such as a sweep point's assignments) and OFF stays
    silent.  Every call that does not raise returns the same report.
    """
    mode = RateCheckMode(mode)
    deviation = rates.relation_deviation()
    ok = abs(deviation) <= RATE_RELATION_TOL
    if ok:
        message = (
            f"Gamma23 = Gamma21 + Gamma31 holds (deviation {deviation:.3e})"
        )
    else:
        message = (
            f"Gamma23 - (Gamma21 + Gamma31) = {deviation:.6g}; the additive "
            "dephasing relation is violated"
        )
        if mode is RateCheckMode.ENFORCE:
            raise RateRelationViolation(message)
        if mode is RateCheckMode.WARN:
            print(f"warning: {where}{message}", file=sys.stderr)
    return RateReport(deviation=deviation, within_tolerance=ok, message=message)


# Component order of the real 9-vector representation used by the integrator.
VECTOR_COMPONENTS = (
    "rho11", "rho22", "rho33",
    "re12", "im12", "re13", "im13", "re23", "im23",
)


@dataclass(frozen=True)
class DensityMatrix:
    """3x3 density matrix stored as real diagonal plus upper-triangle coherences.

    The lower triangle is defined by conjugation, so a stored state is
    Hermitian with real populations by construction.  No trace or positivity
    normalization happens here; the same container carries tangent vectors
    (time derivatives), whose diagonal entries may be negative and whose
    trace is near zero.
    """

    rho11: float
    rho22: float
    rho33: float
    rho12: complex = 0j
    rho13: complex = 0j
    rho23: complex = 0j

    def __post_init__(self) -> None:
        # Coerce numpy scalars so equality and repr behave like plain Python.
        object.__setattr__(self, "rho11", float(self.rho11))
        object.__setattr__(self, "rho22", float(self.rho22))
        object.__setattr__(self, "rho33", float(self.rho33))
        object.__setattr__(self, "rho12", complex(self.rho12))
        object.__setattr__(self, "rho13", complex(self.rho13))
        object.__setattr__(self, "rho23", complex(self.rho23))

    @classmethod
    def pure(cls, level: int) -> "DensityMatrix":
        """Pure population in one level (1, 2 or 3)."""
        if level not in (1, 2, 3):
            raise ValueError(f"level must be 1, 2 or 3, got {level!r}")
        pops = [0.0, 0.0, 0.0]
        pops[level - 1] = 1.0
        return cls(*pops)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, defect_tol: float = 1e-12) -> "DensityMatrix":
        """Import a full 3x3 complex matrix, guarding against non-Hermitian input."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        defect = hermitian_defect(m)
        if defect > defect_tol:
            raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {defect_tol:.0e}")
        return cls(
            m[0, 0].real, m[1, 1].real, m[2, 2].real,
            m[0, 1], m[0, 2], m[1, 2],
        )

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "DensityMatrix":
        """Rebuild from the real 9-vector (see VECTOR_COMPONENTS for the order)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (9,):
            raise ValueError(f"expected a length-9 real vector, got shape {v.shape}")
        return cls(
            v[0], v[1], v[2],
            complex(v[3], v[4]), complex(v[5], v[6]), complex(v[7], v[8]),
        )

    def to_vector(self) -> np.ndarray:
        """Real 9-vector [p1, p2, p3, Re12, Im12, Re13, Im13, Re23, Im23]."""
        return np.array(
            [
                self.rho11, self.rho22, self.rho33,
                self.rho12.real, self.rho12.imag,
                self.rho13.real, self.rho13.imag,
                self.rho23.real, self.rho23.imag,
            ]
        )

    @property
    def matrix(self) -> np.ndarray:
        """Full 3x3 complex matrix (lower triangle by conjugation)."""
        return np.array(
            [
                [self.rho11, self.rho12, self.rho13],
                [self.rho12.conjugate(), self.rho22, self.rho23],
                [self.rho13.conjugate(), self.rho23.conjugate(), self.rho33],
            ]
        )

    @property
    def populations(self) -> tuple[float, float, float]:
        return (self.rho11, self.rho22, self.rho33)


def config_tree(
    sys: LevelSystem, cfg, rates: DecoherenceRates, icfg, rho0: DensityMatrix
) -> dict:
    """Nested plain-dict image of a fully resolved configuration.

    One section per configuration dataclass (level system, pulse train,
    rates, integrator), each its dataclasses.asdict image, so every field
    is in the schema by construction; rho0 is keyed by VECTOR_COMPONENTS.
    """
    return {
        "system": asdict(sys),
        "train": asdict(cfg),
        "rates": asdict(rates),
        "integrator": asdict(icfg),
        "rho0": dict(zip(VECTOR_COMPONENTS, rho0.to_vector().tolist())),
    }


def trace(rho: DensityMatrix) -> float:
    """Sum of the three populations."""
    return rho.rho11 + rho.rho22 + rho.rho33


def hermitian_defect(rho) -> float:
    """Largest |rho_ij - conj(rho_ji)| over all elements.

    Zero by construction for the triangular storage; this exists as a guard
    for full-matrix interchange formats.
    """
    if isinstance(rho, DensityMatrix):
        m = rho.matrix
    else:
        m = np.asarray(rho, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    return float(np.abs(m - m.conj().T).max())


class Trajectory:
    """Time-ordered samples of a propagated density matrix, held as its pulse ends.

    A row is one sample: its time in times and its real 9-vector (see
    VECTOR_COMPONENTS) in data.  pulse_end_indices marks, for each
    integrated pulse, the row taken at the end of its integration window,
    which is what per-pulse diagnostics (transfer step counts, early-stop
    detection) read; pulse_ends holds those rows, data[pulse_end_indices].
    metadata carries the fully resolved configuration that produced the
    trajectory plus integration diagnostics.

    The rows are formed by rows(pulse_ends, first), which yields (times,
    data) of consecutive row blocks from row first to the last row.
    propagate binds one such former per trajectory, which forms any block
    from the stored pulse ends; from_arrays binds one that yields slices of
    the given arrays.  row_blocks and last_rows form only the blocks they
    read, each time they read them; times and data are formed once, on first
    access.  A trajectory pickles as its attributes.
    """

    def __init__(self, pulse_ends, pulse_end_indices, metadata, rows, n_samples) -> None:
        self.pulse_ends = pulse_ends
        self.pulse_end_indices = pulse_end_indices
        self.metadata = metadata
        self._rows = rows
        self._times = self._data = None
        # n_samples is set in __post_init__, the hook perfbench's tracer wraps to count samples
        self.__post_init__(n_samples)

    def __post_init__(self, n_samples) -> None:
        """Set n_samples and check pulse_end_indices against it."""
        self.n_samples = n_samples
        ends = self.pulse_end_indices = np.asarray(self.pulse_end_indices, dtype=int)
        if ends.size and (ends.min() < 0 or ends.max() >= n_samples):
            raise ValueError("pulse_end_indices out of range")

    @classmethod
    def from_arrays(cls, times, data, pulse_end_indices, metadata=None) -> "Trajectory":
        """A trajectory of the rows times and data, held as one block."""
        times, data = np.asarray(times, dtype=float), np.asarray(data, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if data.shape != (times.size, 9):
            raise ValueError(f"data shape {data.shape} does not match {times.size} samples")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        ends = np.asarray(pulse_end_indices, dtype=int)
        # clipped, so that __post_init__ rather than the indexing rejects an index out of range
        traj = cls(data.take(ends, axis=0, mode="clip"), ends, {} if metadata is None else metadata,
                   functools.partial(_held_rows, times, data), times.size)
        traj._times, traj._data = times, data
        return traj

    def _form_arrays(self) -> None:
        """Form times and data from all the row blocks, once."""
        self._times, self._data = _join(self.row_blocks(), self.n_samples)

    @property
    def times(self) -> np.ndarray:
        if self._times is None:
            self._form_arrays()
        return self._times

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._form_arrays()
        return self._data

    def row_blocks(self):
        """Yield (times, data) of consecutive rows, from the first row to the
        last, forming each block when it is reached."""
        return self._rows(self.pulse_ends, 0)

    def last_rows(self, m: int) -> np.ndarray:
        """The last m >= 1 rows of data, an (m, 9) view of C-ordered rows.

        Only the trailing blocks that hold them are formed, or none when the
        last row alone is read and it is the last pulse end.  Raises
        ValueError unless 1 <= m <= n_samples.
        """
        if not 1 <= m <= self.n_samples:
            raise ValueError(f"last_rows needs 1 <= m <= {self.n_samples}, got {m}")
        ends = self.pulse_end_indices
        if m == 1 and ends.size and ends[-1] == self.n_samples - 1:
            return self.pulse_ends[-1:]
        return _join(self._rows(self.pulse_ends, self.n_samples - m), m)[1]

    @property
    def rho22(self) -> np.ndarray:
        return self.data[:, 1]

    @property
    def rho33(self) -> np.ndarray:
        return self.data[:, 2]

    @property
    def final_state(self) -> DensityMatrix:
        return DensityMatrix.from_vector(self.last_rows(1)[0])


def _held_rows(times, data, pulse_ends, first):
    """The row former of Trajectory.from_arrays: its given rows from row first on."""
    yield times[first:], data[first:]


def _join(blocks, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(times, data) of n_rows consecutive rows, each row block formed into its slice."""
    times, data = np.empty(n_rows), np.empty((n_rows, 9))
    row = 0
    for block_times, block_data in blocks:
        times[row:row + len(block_times)], data[row:row + len(block_times)] = block_times, block_data
        row += len(block_times)
    return times, data
