"""Shared fixtures-by-function: desk-scale surrogates and random generators.

The surrogate train below is small enough to FFT in milliseconds yet keeps
every structural feature of the physical trains: carrier far above the
repetition rate, modulation frequency an integer number of comb teeth
(38 ticks), and pulses short against the period.  tau = 0.7 keeps adjacent
sideband sets separated (Omega * tau ~= 4), which matters when measuring
set spacing from brightest teeth.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from combcool import (
    DecoherenceRates,
    DensityMatrix,
    IntegratorConfig,
    LevelSystem,
    Modulation,
    PulseTrainConfig,
    propagate,
)
from combcool import spectrum as sp
from combcool.dynamics import (
    NegativePopulation,
    TraceDrift,
    _apply_free,
    _interpulse_angles,
)

# --- desk-scale comb surrogate (dimensionless units) -----------------------
TICK = 2.0 * math.pi / 40.0          # comb tooth spacing for T = 40
DESK_T = 40.0
DESK_OMEGA_L = 160.0 * TICK          # carrier on tooth 160
DESK_OMEGA_MOD = 38.0 * TICK         # modulation on tooth 38
DESK_TAU = 0.7
DESK_PHI0 = 2.0
DESK_PULSES = 32


def desk_train(
    kind: str = "none",
    n_pulses: int = DESK_PULSES,
    tau: float = DESK_TAU,
    phi0: float = DESK_PHI0,
    omega_mod: float = DESK_OMEGA_MOD,
) -> PulseTrainConfig:
    if kind == "none":
        modulation = Modulation.none()
    elif kind == "sine":
        modulation = Modulation.sine(phi0, omega_mod)
    else:
        modulation = Modulation.cosine(phi0, omega_mod)
    return PulseTrainConfig(
        rabi_peak=1.0,
        omega_L=DESK_OMEGA_L,
        tau=tau,
        T=DESK_T,
        N=n_pulses,
        modulation=modulation,
    )


def safe_rate(cfg: PulseTrainConfig, margin: float = 1.2) -> float:
    """Admissible sample rate rounded up to an integer count per period.

    Integer samples per period make the sampled train exactly periodic, so
    every comb tooth falls exactly on an FFT bin.
    """
    rate = margin * sp.nyquist_limit(cfg)
    return math.ceil(rate * cfg.T) / cfg.T


def desk_spectrum(cfg: PulseTrainConfig, pad: float = 1.0):
    rate = safe_rate(cfg)
    series = sp.sample_field(cfg, rate, pad * cfg.N * cfg.T)
    return sp.compute_spectrum(series, rate)


# --- random-but-valid physical configurations ------------------------------

def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state: G G^dagger normalized to unit trace."""
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix.from_matrix(m)


def random_rates(rng: np.random.Generator) -> DecoherenceRates:
    """Random rate set honoring the additive dephasing relation."""
    gamma21 = rng.uniform(0.0, 0.01)
    gamma23 = rng.uniform(0.0, 0.01)
    big21 = rng.uniform(0.0, 0.01)
    big31 = rng.uniform(0.0, 0.01)
    return DecoherenceRates(gamma21, gamma23, big21, big31, big21 + big31)


def random_setup(rng: np.random.Generator):
    """One random desk-scale scenario: (system, train, rates, rho0, icfg)."""
    omega21 = rng.uniform(1.0, 5.0)
    omega32 = omega21 + rng.uniform(0.5, 5.0)
    sys_ = LevelSystem.from_transitions(omega21, omega32)
    tau = rng.uniform(0.1, 0.5)
    period = rng.uniform(max(10.0 * tau, 6.0), 30.0)
    kind = rng.choice(["none", "sine", "cosine"])
    if kind == "none":
        modulation = Modulation.none()
    elif kind == "sine":
        modulation = Modulation.sine(rng.uniform(0.0, 4.0), rng.uniform(0.5, 3.0))
    else:
        modulation = Modulation.cosine(rng.uniform(0.0, 4.0), rng.uniform(0.5, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = PulseTrainConfig(
            rabi_peak=rng.uniform(0.0, 2.0),
            omega_L=rng.uniform(0.8, 1.2) * omega32,
            tau=tau,
            T=period,
            N=int(rng.integers(1, 7)),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            modulation=modulation,
        )
    icfg = IntegratorConfig(interpulse_phases=bool(rng.integers(0, 2)))
    return sys_, cfg, random_rates(rng), random_density_matrix(rng), icfg


def quiet_propagate(rho0, cfg, sys_, rates, icfg):
    """Propagate while silencing the short-period design warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return propagate(rho0, cfg, sys_, rates, icfg)


# --- reference implementations ---------------------------------------------

def staircase_stats_loop(pulse_map, period, sys_, n_max):
    """Per-pulse oracle for scenarios._staircase_stats.

    Steps the pure initial state through pulse map and inter-pulse rotation
    one pulse at a time, then applies the same first-peak bookkeeping.
    """
    angles = _interpulse_angles(period, sys_)
    rates = DecoherenceRates.none()
    v = DensityMatrix.pure(1).to_vector()
    p33 = np.empty(n_max)
    for k in range(n_max):
        v = pulse_map @ v
        p33[k] = v[2]
        v = _apply_free(v, 0.0, rates, angles)
    run_max = np.maximum.accumulate(p33)
    falls = np.nonzero(run_max - p33 > 0.05)[0]
    upto = int(falls[0]) if falls.size else n_max
    peak_pulse = int(p33[:upto].argmax()) + 1
    peak = float(p33[peak_pulse - 1])
    hits = np.nonzero(p33[:peak_pulse] > 0.95 * peak)[0]
    transfer = int(hits[0]) + 1 if hits.size else peak_pulse
    return peak, peak_pulse, transfer


def scan_states_reference(states, times, trace_tol, pop_tol):
    """Row-reduction oracle for dynamics._scan_states.

    Reduces the (n, 3) population block along its rows; NaN-blind, so only
    finite stacks are compared against it.
    """
    traces = states[:, :3].sum(axis=1)
    drift = np.abs(traces - 1.0)
    worst = int(drift.argmax())
    if drift[worst] > trace_tol:
        raise TraceDrift(
            f"|trace - 1| = {drift[worst]:.3e} > {trace_tol:.0e} at t = {times[worst]:g}; "
            "integration step or tolerances are inadequate"
        )
    pops = states[:, :3]
    low = int(pops.min(axis=1).argmin())
    pmin = float(pops[low].min())
    if pmin < -pop_tol:
        raise NegativePopulation(
            f"population {pmin:.3e} < -{pop_tol:.0e} at t = {times[low]:g}; "
            "integration step or tolerances are inadequate"
        )
    return float(drift[worst]), pmin, float(states[:, 1].max())


def write_csv_reference(path, header, columns):
    """Per-value oracle for cli._write_rows: format(x, '.17g') for every cell."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(format(float(x), ".17g") for x in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
