"""Phase-locked pulse trains and their interaction-picture Hamiltonian.

The electric field is a train of N identical Gaussian pulses with period T,
carrier omega_L, constant phase phi and an optional intra-pulse phase
modulation M(s) evaluated in pulse-local time s = t - k*T:

    E(t) = sum_k  exp(-s^2 / (2 tau^2)) * cos(omega_L * s + M(s) + phi)

in units of the peak of the pulse envelope.

Because every pulse is referenced to its own centre the train is phase locked:
the comb it generates has zero offset frequency and the k-th pulse is an exact
translate of the first.

The interaction-picture Hamiltonian keeps both rotating and counter-rotating
terms.  For the driven transitions (j, i) in {(2, 1), (3, 2)}:

    H_ji(t) = Omega_R(s) * [ exp(-i((omega_L + omega_ji) s + M(s) + phi))
                           + exp(+i((omega_L - omega_ji) s + M(s) + phi)) ]

with Omega_R(s) = rabi_peak * exp(-s^2 / (2 tau^2)) and H_ij = conj(H_ji).
The 1-3 leg is not dipole coupled and its element is zero.

The interaction strength is set by rabi_peak alone; the synthesized field,
which only the spectral analysis reads, carries no amplitude of its own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import LevelSystem

__all__ = [
    "Modulation",
    "PulseTrainConfig",
    "field_amplitude",
    "phase_modulation",
]

#: Default half-width of a pulse integration/synthesis window, in units of tau.
DEFAULT_WINDOW_SIGMAS = 6.0

_MODULATION_KINDS = ("none", "sine", "cosine")


@dataclass(frozen=True)
class Modulation:
    """Intra-pulse phase modulation M(s).

    kind 'none'   : M(s) = 0
    kind 'sine'   : M(s) = amplitude * sin(frequency * s)   (odd chirp)
    kind 'cosine' : M(s) = amplitude * cos(frequency * s)   (even chirp)

    The sine and cosine variants have identical sideband magnitudes but
    opposite parity, which is what separates stepwise transfer from
    self-trapped coherence in the driven Lambda system.
    """

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _MODULATION_KINDS:
            raise ValueError(f"modulation kind must be one of {_MODULATION_KINDS}, got {self.kind!r}")
        if self.amplitude < 0.0:
            raise ValueError(f"modulation amplitude must be non-negative, got {self.amplitude!r}")
        if self.kind != "none" and not self.frequency > 0.0:
            raise ValueError("modulation frequency must be positive when modulation is active")

    @classmethod
    def none(cls) -> "Modulation":
        return cls()

    @classmethod
    def sine(cls, amplitude: float, frequency: float) -> "Modulation":
        return cls("sine", amplitude, frequency)

    @classmethod
    def cosine(cls, amplitude: float, frequency: float) -> "Modulation":
        return cls("cosine", amplitude, frequency)


@dataclass(frozen=True)
class PulseTrainConfig:
    """Geometry and strength of the phase-locked pulse train.

    All frequencies and times are dimensionless (see core).  rabi_peak is the
    peak Rabi frequency entering the Hamiltonian.
    """

    rabi_peak: float
    omega_L: float
    tau: float
    T: float
    N: int
    phi: float = 0.0
    modulation: Modulation = Modulation.none()

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        if not self.omega_L > 0.0:
            raise ValueError(f"omega_L must be positive, got {self.omega_L!r}")
        if self.rabi_peak < 0.0:
            raise ValueError(f"rabi_peak must be non-negative, got {self.rabi_peak!r}")
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not self.T > 0.0:
            raise ValueError(f"T must be positive, got {self.T!r}")
        if self.N >= 2:
            # The period only constrains anything once there is a second pulse.
            if self.T < 10.0 * self.tau:
                raise ValueError(
                    f"pulse period T = {self.T!r} is below 10*tau = {10.0 * self.tau!r}; "
                    "pulses would overlap beyond what the piecewise propagation supports"
                )
            if self.T < 50.0 * self.tau:
                warnings.warn(
                    f"pulse period T = {self.T:g} is below 50*tau = {50.0 * self.tau:g}; "
                    "window truncation tails start to matter",
                    # 3 names the caller of the generated __init__, which built the config
                    stacklevel=3,
                )


def phase_modulation(t_local, modulation: Modulation):
    """M(s) evaluated at pulse-local time(s) s.  Works on scalars and arrays."""
    if modulation.kind == "none":
        return t_local * 0.0
    if modulation.kind == "sine":
        return modulation.amplitude * np.sin(modulation.frequency * t_local)
    return modulation.amplitude * np.cos(modulation.frequency * t_local)


def field_amplitude(t, cfg: PulseTrainConfig, window_sigmas: float = DEFAULT_WINDOW_SIGMAS):
    """Real electric field of the full train at absolute time(s) t, in units
    of the peak of the pulse envelope.

    Each pulse contributes only within k*T - w <= t <= k*T + w, where
    w = window_sigmas * tau; the dropped tails are at the
    exp(-window_sigmas^2 / 2) level.  Accepts scalars or arrays of any
    order: the times are sorted once, so each pulse finds its window by
    binary search and long trains stay cheap to synthesize.
    """
    t_arr = np.asarray(t, dtype=float)
    t_flat = t_arr.ravel()
    order = np.argsort(t_flat, kind="stable")
    out = np.zeros_like(t_flat)
    half = window_sigmas * cfg.tau

    for k in range(cfg.N):
        centre = k * cfg.T
        lo = np.searchsorted(t_flat, centre - half, side="left", sorter=order)
        hi = np.searchsorted(t_flat, centre + half, side="right", sorter=order)
        idx = order[lo:hi]
        s = t_flat[idx] - centre
        out[idx] += np.exp(-(s * s) / (2.0 * cfg.tau * cfg.tau)) * np.cos(
            cfg.omega_L * s + phase_modulation(s, cfg.modulation) + cfg.phi
        )

    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def _transition_drives(s, cfg: PulseTrainConfig, sys: LevelSystem):
    """Vectorized H21(s) and H32(s) in pulse-local time.

    The only implementation of the matrix-element formula in the module
    docstring.  The propagator's generator reads the pair as its four real
    drive components d = (Re H21, Im H21, Re H32, Im H32), each scaling one
    commutator coupling of the master equation.
    """
    s = np.asarray(s, dtype=float)
    env = cfg.rabi_peak * np.exp(-(s * s) / (2.0 * cfg.tau * cfg.tau))
    pm = phase_modulation(s, cfg.modulation) + cfg.phi

    def element(omega_ji: float) -> np.ndarray:
        return env * (
            np.exp(-1j * ((cfg.omega_L + omega_ji) * s + pm))
            + np.exp(1j * ((cfg.omega_L - omega_ji) * s + pm))
        )

    return element(sys.omega21), element(sys.omega32)

