"""Command-line interface: runs, sweeps, spectra, rate checks, calibration.

Verbs

- ``run``             execute one scenario, write CSV/summary/plot data
- ``sweep``           grid-scan one or two dotted parameters, write sweep.csv
- ``spectrum``        synthesize a train, verify its comb structure
- ``validate-rates``  check the additive dephasing relation
- ``calibrate-fig4``  rerun the strong-drive (tau, period) calibration scan
- ``list-scenarios``  enumerate the named presets

A scenario is either a preset name (``fig3`` ... ``fig6std``) or the path of
a flat ``key = value`` configuration file as written by ``run
--dump-config``; ``--set key=value`` overrides individual fields of either.
Exit codes: 0 success, 2 configuration error, 3 integration failure, 4 rate
relation violated under enforcement.  All emitted files are UTF-8 with LF
line endings; CSV numbers carry 17 significant digits so they round-trip
64-bit floats losslessly.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    CONVENTIONS,
    DEFAULT_CONVENTION,
    VECTOR_COMPONENTS,
    DecoherenceRates,
    DensityMatrix,
    LevelSystem,
    RateCheckMode,
    RateRelationViolation,
    Trajectory,
    config_tree,
    validate_rates,
)
from .dynamics import (
    IntegrationError,
    IntegratorConfig,
    propagate,
    quantum_yield,
    steady_state_yield,
)
from .field import Modulation, PulseTrainConfig
from .scenarios import (
    PRESET_NAMES,
    ScenarioPreset,
    calibrate_fig4,
    evaluate_expectations,
    get_preset,
    transfer_pulse,
)
from . import spectrum as spectrum_mod

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_RATES = 4

_RATE_FLAGS = ("gamma21", "gamma23", "Gamma21", "Gamma31", "Gamma23")

EMIT_CHOICES = ("timeseries", "summary", "spectrum", "plotdata")
DEFAULT_EMIT = ("timeseries", "summary")
OBJECTIVES = ("final_yield", "steady_yield", "max_rho22")
THREADS_ENV = "COMB_LAMBDA_THREADS"
SWEEP_CAP = 10_000
SPECTRUM_MAX_SAMPLES = 4_000_000


class ConfigError(ValueError):
    """A scenario, override, or sweep-axis definition could not be resolved."""


# ---------------------------------------------------------------------------
# Flat configuration trees
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _flatten(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, path + ".")
        else:
            yield path, value


def config_lines(tree: dict) -> list[str]:
    return [f"{key} = {_format_value(value)}" for key, value in _flatten(tree)]


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines with # comments -> {dotted key: raw value}."""
    flat: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        flat[key.strip()] = value.strip()
    return flat


def _coerce(raw: str, current, dotted: str):
    """Parse a raw string against the type of the value it replaces."""
    raw = raw.strip()
    if isinstance(current, bool):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {dotted!r}: expected true/false, got {raw!r}")
    if isinstance(current, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {dotted!r}: expected an integer, got {raw!r}") from None
    if current is None or isinstance(current, float):
        if raw.lower() == "none":
            return None
        return _finite_float(raw, f"key {dotted!r}")
    return raw


def _finite_float(raw: str, what: str) -> float:
    """Parse a finite float; what names the key or flag in the error."""
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{what}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what}: expected a finite number, got {raw!r}")
    return value


def _leaf_node(tree: dict, dotted: str) -> tuple[dict, str]:
    """The dict holding a dotted key's value, and the key's last part."""
    *parts, leaf = dotted.split(".")
    node = tree
    for part in parts:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown configuration key {dotted!r}")
        node = node[part]
    if not isinstance(node, dict) or leaf not in node or isinstance(node[leaf], dict):
        raise ConfigError(f"unknown configuration key {dotted!r}")
    return node, leaf


def set_config_key(tree: dict, dotted: str, raw: str) -> None:
    """Assign one dotted key; unknown keys are errors, never warnings."""
    node, leaf = _leaf_node(tree, dotted)
    node[leaf] = _coerce(raw, node[leaf], dotted)


def _template_tree() -> dict:
    """A typed key skeleton for parsing standalone config files."""
    return config_tree(
        LevelSystem.from_transitions(1.0, 2.0),
        PulseTrainConfig(rabi_peak=1.0, omega_L=2.0, tau=0.2, T=40.0, N=1),
        DecoherenceRates.none(),
        IntegratorConfig(),
        DensityMatrix.pure(1),
    )


def tree_from_config_file(path: Path) -> dict:
    """Load a complete resolved configuration from a flat config file."""
    flat = parse_config_text(path.read_text(encoding="utf-8"))
    tree = _template_tree()
    required = {key for key, _ in _flatten(tree)}
    missing = sorted(required - flat.keys())
    if missing:
        raise ConfigError(
            f"config file {path} is incomplete; missing keys: {', '.join(missing)}"
        )
    for key, raw in flat.items():
        set_config_key(tree, key, raw)
    return tree


def objects_from_tree(
    tree: dict,
) -> tuple[LevelSystem, PulseTrainConfig, DecoherenceRates, IntegratorConfig, DensityMatrix]:
    """Rebuild validated domain objects from a configuration tree."""
    try:
        sys_ = LevelSystem(**tree["system"])
        modulation = Modulation(**tree["train"]["modulation"])
        cfg = PulseTrainConfig(**{**tree["train"], "modulation": modulation})
        rates = DecoherenceRates(**tree["rates"])
        icfg = IntegratorConfig(**tree["integrator"])
        vector = np.array([tree["rho0"][c] for c in VECTOR_COMPONENTS], dtype=float)
        rho0 = DensityMatrix.from_vector(vector)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return sys_, cfg, rates, icfg, rho0


# ---------------------------------------------------------------------------
# Scenario resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything the run verb needs: source scenario plus output plan."""

    scenario: str
    overrides: tuple[str, ...] = ()
    output_dir: Path = Path("combcool-out")
    emit: tuple[str, ...] = DEFAULT_EMIT
    rates_mode: str = "enforce"
    convention: str = DEFAULT_CONVENTION


@dataclass(frozen=True)
class ResolvedRun:
    label: str
    preset: ScenarioPreset | None
    tree: dict

    @property
    def objects(self):
        return objects_from_tree(self.tree)


def resolve_scenario(
    scenario: str, overrides: tuple[str, ...], convention: str
) -> ResolvedRun:
    preset: ScenarioPreset | None = None
    if scenario in PRESET_NAMES:
        preset = get_preset(scenario, convention)
        tree = config_tree(preset.sys, preset.cfg, preset.rates, preset.icfg, preset.rho0)
        label = preset.name
    else:
        path = Path(scenario)
        if not path.is_file():
            raise ConfigError(
                f"scenario {scenario!r} is neither a preset name "
                f"({', '.join(PRESET_NAMES)}) nor an existing config file"
            )
        tree = tree_from_config_file(path)
        label = path.stem
    for override in overrides:
        key, sep, value = override.partition("=")
        if not sep:
            raise ConfigError(f"override {override!r} is not of the form key=value")
        set_config_key(tree, key.strip(), value)
    return ResolvedRun(label=label, preset=preset, tree=tree)


def _check_rates(rates: DecoherenceRates, rates_mode: str) -> None:
    """Apply the chosen rate-relation policy before running."""
    report = validate_rates(rates, RateCheckMode.OFF)
    if report.within_tolerance:
        return
    if rates_mode == "enforce":
        raise RateRelationViolation(report.message)
    if rates_mode == "warn":
        print(f"warning: {report.message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


#: Rows rendered per formatting call in _write_rows; bounds the text held in memory.
_ROW_CHUNK = 4096


def _g(value) -> str:
    return format(float(value), ".17g")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_rows(path: Path, header: str, block: np.ndarray) -> None:
    """Write a header line, then the rows of a float (n, m) block as CSV.

    Every value is rendered as '%.17g', which is the same text as _g.  The
    rows go out _ROW_CHUNK at a time, each chunk through one %-format over
    its values, so the text held in memory stays bounded however long the
    block is.
    """
    block = np.asarray(block, dtype=float)
    n, m = block.shape
    row = ",".join(["%.17g"] * m) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _ROW_CHUNK):
            part = block[start : start + _ROW_CHUNK]
            fh.write(row * len(part) % tuple(part.ravel().tolist()))


def write_timeseries(path: Path, traj: Trajectory) -> None:
    _write_rows(
        path,
        "t,rho11,rho22,rho33,re12,im12,re13,im13,re23,im23,trace",
        np.column_stack((traj.times, traj.data, traj.trace_series)),
    )


def summary_lines(resolved: ResolvedRun, traj: Trajectory) -> list[str]:
    diag = traj.metadata["diagnostics"]
    lines = [
        f"scenario = {resolved.label}",
        f"yield = {_g(quantum_yield(traj))}",
        f"steady_yield = {_g(steady_state_yield(traj))}",
        f"max_rho22 = {_g(diag['max_rho22'])}",
        f"transfer_pulse = {transfer_pulse(traj)}",
        f"pulses_run = {diag['pulses_run']}",
        f"early_stopped = {'true' if diag['early_stopped'] else 'false'}",
        f"trace_max_drift = {_g(diag['trace_max_drift'])}",
    ]
    if resolved.preset is not None:
        for result in evaluate_expectations(resolved.preset, traj):
            lines.append(result.line())
    lines.append("")
    lines.append("# resolved configuration")
    lines.extend(config_lines(resolved.tree))
    return lines


def _surrogate_spectrum(
    cfg: PulseTrainConfig,
    pulses: int,
    pad: float,
    margin: float,
    max_samples: int,
):
    """Synthesize and transform a truncated copy of the configured train.

    The sample rate is rounded up to an integer number of samples per period
    so the sampled train is exactly periodic and every tooth lands on a bin.
    """
    cfg_s = replace(cfg, N=min(cfg.N, pulses))
    rate = margin * spectrum_mod.nyquist_limit(cfg_s)
    rate = math.ceil(rate * cfg_s.T) / cfg_s.T
    t_total = pad * cfg_s.N * cfg_s.T
    projected = round(t_total * rate)
    if projected > max_samples:
        raise ConfigError(
            f"spectrum would need {projected} samples (cap {max_samples}); "
            "analyze a desk-scale surrogate instead, e.g. --set train.T=40 "
            "--set train.omega_L=25 --set train.tau=0.7 (the spacing laws "
            "only depend on frequency ratios)"
        )
    series = spectrum_mod.sample_field(cfg_s, rate, t_total)
    return cfg_s, spectrum_mod.compute_spectrum(series, rate)


def write_spectrum_csv(path: Path, spec) -> None:
    _write_rows(
        path, "omega,intensity", np.column_stack((spec.frequencies, spec.intensities))
    )


_PLOT_STUB = '''#!/usr/bin/env python3
"""Draw the populations stored beside this script (needs matplotlib)."""
import csv
import pathlib

try:
    import matplotlib.pyplot as plt
except ImportError as exc:
    raise SystemExit(f"matplotlib is required to draw the plots: {exc}")

here = pathlib.Path(__file__).parent
for name in ("rho11", "rho22", "rho33"):
    with open(here / f"{name}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    plt.plot([float(r[0]) for r in rows], [float(r[1]) for r in rows], label=name)
plt.xlabel("t")
plt.ylabel("population")
plt.legend()
plt.tight_layout()
plt.show()
'''


def write_plotdata(directory: Path, traj: Trajectory) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for column, name in ((0, "rho11"), (1, "rho22"), (2, "rho33")):
        _write_rows(
            directory / f"{name}.csv",
            f"t,{name}",
            np.column_stack((traj.times, traj.data[:, column])),
        )
    (directory / "plot.py").write_text(_PLOT_STUB, encoding="utf-8")


# ---------------------------------------------------------------------------
# Verb: run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    rc = RunConfig(
        scenario=args.scenario,
        overrides=tuple(args.set or ()),
        output_dir=Path(args.out),
        emit=_parse_emit(args.emit),
        rates_mode=args.rates_mode,
        convention=args.convention,
    )
    resolved = resolve_scenario(rc.scenario, rc.overrides, rc.convention)
    if args.dump_config is not None:
        text = "\n".join(config_lines(resolved.tree)) + "\n"
        if args.dump_config == "-":
            sys.stdout.write(text)
        else:
            dest = Path(args.dump_config)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text, encoding="utf-8")
        return EXIT_OK

    sys_, cfg, rates, icfg, rho0 = resolved.objects
    _check_rates(rates, rc.rates_mode)
    traj = propagate(
        rho0,
        cfg,
        sys_,
        rates,
        icfg,
        allow_unconstrained_rates=rc.rates_mode != "enforce",
    )

    out = rc.output_dir
    if "timeseries" in rc.emit:
        write_timeseries(out / "timeseries.csv", traj)
    if "summary" in rc.emit:
        _write_lines(out / "summary.txt", summary_lines(resolved, traj))
    if "spectrum" in rc.emit:
        _, spec = _surrogate_spectrum(cfg, 32, 1.0, 1.2, SPECTRUM_MAX_SAMPLES)
        write_spectrum_csv(out / "spectrum.csv", spec)
    if "plotdata" in rc.emit:
        write_plotdata(out / "plotdata", traj)

    diag = traj.metadata["diagnostics"]
    print(
        f"{resolved.label}: yield={quantum_yield(traj):.6f} "
        f"transfer_pulse={transfer_pulse(traj)} pulses={diag['pulses_run']} "
        f"trace_drift={diag['trace_max_drift']:.2e}"
    )
    return EXIT_OK


def _parse_emit(values) -> tuple[str, ...]:
    if not values:
        return DEFAULT_EMIT
    chosen: list[str] = []
    for chunk in values:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in EMIT_CHOICES:
                raise ConfigError(
                    f"unknown emit target {name!r}, expected one of {EMIT_CHOICES}"
                )
            if name not in chosen:
                chosen.append(name)
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Verb: sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One swept axis: dotted keys (several move together) and raw values."""

    keys: tuple[str, ...]
    values: tuple[str, ...]

    @property
    def label(self) -> str:
        return "+".join(self.keys)


@dataclass(frozen=True)
class SweepSpec:
    axis1: SweepAxis
    axis2: SweepAxis | None
    objective: str
    cap: int = SWEEP_CAP

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}"
            )
        total = self.total_points
        if not 1 <= total <= self.cap:
            raise ConfigError(
                f"sweep grid has {total} points, outside 1..{self.cap}"
            )

    @property
    def total_points(self) -> int:
        n = len(self.axis1.values)
        if self.axis2 is not None:
            n *= len(self.axis2.values)
        return n


def parse_axis(spec: str) -> SweepAxis:
    """Parse 'key[+key2]=v1,v2,...' or 'key=linspace(start,stop,count)'."""
    key_part, sep, value_part = spec.partition("=")
    if not sep or not key_part.strip() or not value_part.strip():
        raise ConfigError(f"axis {spec!r} is not of the form key=values")
    keys = tuple(k.strip() for k in key_part.split("+") if k.strip())
    value_part = value_part.strip()
    if value_part.startswith("linspace(") and value_part.endswith(")"):
        inner = value_part[len("linspace(") : -1]
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"axis {spec!r}: linspace needs (start, stop, count)")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"axis {spec!r}: {exc}") from None
        if count < 1:
            raise ConfigError(f"axis {spec!r}: count must be at least 1")
        values = tuple(_g(v) for v in np.linspace(start, stop, count))
    else:
        values = tuple(v.strip() for v in value_part.split(",") if v.strip())
        if not values:
            raise ConfigError(f"axis {spec!r} lists no values")
    return SweepAxis(keys=keys, values=values)


def _sweep_point(payload) -> tuple[float, float, str]:
    """Evaluate one grid point; never raises (errors travel in the row)."""
    tree, assignments, objective, rates_mode = payload
    try:
        point_tree = copy.deepcopy(tree)
        for key, raw in assignments:
            set_config_key(point_tree, key, raw)
        sys_, cfg, rates, icfg, rho0 = objects_from_tree(point_tree)
        traj = propagate(
            rho0, cfg, sys_, rates, icfg, allow_unconstrained_rates=rates_mode != "enforce"
        )
        if objective == "final_yield":
            value = quantum_yield(traj)
        elif objective == "steady_yield":
            value = steady_state_yield(traj)
        else:
            value = traj.metadata["diagnostics"]["max_rho22"]
        drift = traj.metadata["diagnostics"]["trace_max_drift"]
        return float(value), float(drift), ""
    except Exception as exc:  # recorded per row, not fatal to the sweep
        message = f"{type(exc).__name__}: {exc}".replace(",", ";")
        message = " ".join(message.split())
        return math.nan, math.nan, message


def _worker_count(n_points: int) -> int:
    cap_raw = os.environ.get(THREADS_ENV)
    if cap_raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(cap_raw)
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV} must be an integer, got {cap_raw!r}"
            ) from None
        if cap < 1:
            raise ConfigError(f"{THREADS_ENV} must be at least 1, got {cap}")
    return max(1, min(n_points, cap))


def cmd_sweep(args) -> int:
    resolved = resolve_scenario(
        args.scenario, tuple(args.set or ()), args.convention
    )
    axis1 = parse_axis(args.axis1)
    axis2 = parse_axis(args.axis2) if args.axis2 else None
    spec = SweepSpec(axis1=axis1, axis2=axis2, objective=args.objective, cap=args.cap)

    # Fail fast on unknown axis keys before launching any work; bad values
    # are recorded per point, whichever point they fall on.
    for axis in filter(None, (axis1, axis2)):
        for key in axis.keys:
            _leaf_node(resolved.tree, key)

    payloads = []
    for v1 in axis1.values:
        assignments1 = [(k, v1) for k in axis1.keys]
        if axis2 is None:
            payloads.append(
                (resolved.tree, tuple(assignments1), spec.objective, args.rates_mode)
            )
        else:
            for v2 in axis2.values:
                assignments = assignments1 + [(k, v2) for k in axis2.keys]
                payloads.append(
                    (resolved.tree, tuple(assignments), spec.objective, args.rates_mode)
                )

    workers = _worker_count(len(payloads))
    if workers <= 1:
        results = [_sweep_point(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))

    header = [axis1.label]
    if axis2 is not None:
        header.append(axis2.label)
    header += [spec.objective, "trace_max_drift", "error"]
    lines = [",".join(header)]
    index = 0
    for v1 in axis1.values:
        for v2 in axis2.values if axis2 is not None else (None,):
            value, drift, error = results[index]
            index += 1
            row = [v1]
            if v2 is not None:
                row.append(v2)
            row += [_g(value), _g(drift), error]
            lines.append(",".join(row))
    out = Path(args.out)
    _write_lines(out / "sweep.csv", lines)
    n_err = sum(1 for _, _, e in results if e)
    print(
        f"sweep: {len(payloads)} points, {n_err} errors, "
        f"objective={spec.objective}, workers={workers}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verb: spectrum
# ---------------------------------------------------------------------------


def _check_spectrum_flags(args) -> None:
    """Reject spectrum flags outside the range the synthesis can honour."""
    for flag, ok, wanted in (
        ("pulses", args.pulses >= 1, "an integer of at least 1"),
        ("pad", math.isfinite(args.pad) and args.pad >= 1.0, "a finite number of at least 1"),
        ("margin", math.isfinite(args.margin) and args.margin > 1.0, "a finite number above 1"),
        ("threshold", 0.0 < args.threshold < 1.0, "a number strictly between 0 and 1"),
    ):
        if not ok:
            raise ConfigError(f"--{flag}: expected {wanted}, got {getattr(args, flag)!r}")


def cmd_spectrum(args) -> int:
    _check_spectrum_flags(args)
    resolved = resolve_scenario(
        args.scenario, tuple(args.set or ()), args.convention
    )
    _, cfg, _, _, _ = resolved.objects
    cfg_s, spec = _surrogate_spectrum(
        cfg, args.pulses, args.pad, args.margin, args.max_samples
    )
    peaks = spectrum_mod.extract_peaks(spec, args.threshold)
    try:
        report = spectrum_mod.verify_comb_structure(peaks, cfg_s, spec.resolution)
    except spectrum_mod.InsufficientPeaks as exc:
        raise ConfigError(
            f"{exc}; the analyzed train has no comb structure to verify"
        ) from exc
    out = Path(args.out)
    write_spectrum_csv(out / "spectrum.csv", spec)
    _write_lines(out / "structure.txt", report.format().splitlines())
    print(report.format())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verb: validate-rates
# ---------------------------------------------------------------------------


def cmd_validate_rates(args) -> int:
    if args.scenario is not None:
        resolved = resolve_scenario(args.scenario, tuple(args.set or ()), args.convention)
        _, _, rates, _, _ = resolved.objects
    else:
        try:
            rates = DecoherenceRates(
                **{name: _finite_float(getattr(args, name), f"--{name}") for name in _RATE_FLAGS}
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    report = validate_rates(rates, RateCheckMode.OFF)
    print(f"deviation = {_g(report.deviation)}")
    print(f"verdict = {'valid' if report.within_tolerance else 'violation'}")
    _check_rates(rates, args.mode)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verb: calibrate-fig4
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    if args.quick:
        result = calibrate_fig4(tau_grid=(0.198,), refine_tau=False)
    else:
        result = calibrate_fig4()
    print(f"tau = {_g(result.tau)}")
    print(f"period = {_g(result.period)}")
    print(f"n_pulses = {result.n_pulses}")
    print(f"final_yield = {_g(result.final_yield)}")
    print(f"transfer_pulse = {result.transfer_pulse}")
    print(f"max_rho22 = {_g(result.max_rho22)}")
    if args.out is not None:
        lines = ["tau,period,peak_yield,peak_pulse,transfer_pulse"]
        for point in result.scanned:
            lines.append(
                ",".join(
                    (
                        _g(point.tau),
                        _g(point.period),
                        _g(point.peak_yield),
                        str(point.peak_pulse),
                        str(point.transfer_pulse),
                    )
                )
            )
        _write_lines(Path(args.out) / "calibration.csv", lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verb: list-scenarios
# ---------------------------------------------------------------------------


def cmd_list(_args) -> int:
    for name in PRESET_NAMES:
        preset = get_preset(name)
        cfg = preset.cfg
        rates = "decoherent" if preset.rates.any_nonzero else "closed"
        print(
            f"{name:<8} {preset.note}; mod={cfg.modulation.kind}, "
            f"N={cfg.N}, T={cfg.T:g}, tau={cfg.tau:g}, "
            f"rabi={cfg.rabi_peak:g}, {rates}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        required=True,
        help="preset name or path to a flat key=value config file",
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one configuration field (dotted path); repeatable",
    )
    parser.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default=DEFAULT_CONVENTION,
        help="frequency convention for presets converting laboratory values",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combcool",
        description=(
            "Three-level Lambda-system dynamics under phase-locked pulse "
            "trains: scenario runs, parameter sweeps, comb spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit files")
    _add_scenario_options(p_run)
    p_run.add_argument("--out", default="combcool-out", help="output directory")
    p_run.add_argument(
        "--emit",
        action="append",
        metavar="TARGETS",
        help=f"comma-separated subset of {EMIT_CHOICES}; repeatable",
    )
    p_run.add_argument(
        "--rates-mode",
        choices=("enforce", "warn", "off"),
        default="enforce",
        help="policy for the additive dephasing relation",
    )
    p_run.add_argument(
        "--dump-config",
        metavar="PATH",
        help="write the resolved configuration to PATH ('-' for stdout) and exit",
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid-scan one or two parameters")
    _add_scenario_options(p_sweep)
    p_sweep.add_argument("--out", default="combcool-out", help="output directory")
    p_sweep.add_argument(
        "--axis1", required=True, metavar="KEY=VALUES", help="first sweep axis"
    )
    p_sweep.add_argument(
        "--axis2", metavar="KEY=VALUES", help="optional second sweep axis"
    )
    p_sweep.add_argument(
        "--objective", choices=OBJECTIVES, default="final_yield"
    )
    p_sweep.add_argument(
        "--rates-mode",
        choices=("enforce", "warn", "off"),
        default="enforce",
    )
    p_sweep.add_argument(
        "--cap", type=int, default=SWEEP_CAP, help="maximum grid size"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_spec = sub.add_parser(
        "spectrum", help="synthesize a train and verify comb structure"
    )
    _add_scenario_options(p_spec)
    p_spec.add_argument("--out", default="combcool-out", help="output directory")
    p_spec.add_argument(
        "--pulses", type=int, default=32, help="pulses in the analyzed train"
    )
    p_spec.add_argument(
        "--pad",
        type=float,
        default=1.0,
        help="observation window as a multiple of the train duration",
    )
    p_spec.add_argument(
        "--threshold", type=float, default=0.05, help="peak threshold fraction"
    )
    p_spec.add_argument(
        "--margin",
        type=float,
        default=1.2,
        help="sample-rate margin over the admissible minimum",
    )
    p_spec.add_argument(
        "--max-samples",
        type=int,
        default=SPECTRUM_MAX_SAMPLES,
        help="refuse syntheses needing more samples than this",
    )
    p_spec.set_defaults(func=cmd_spectrum)

    p_rates = sub.add_parser(
        "validate-rates", help="check the additive dephasing relation"
    )
    p_rates.add_argument("--scenario", help="validate a preset's rate set")
    p_rates.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_rates.add_argument(
        "--convention", choices=CONVENTIONS, default=DEFAULT_CONVENTION
    )
    # rates stay strings here so that _finite_float can reject NaN and inf
    for name in _RATE_FLAGS:
        p_rates.add_argument(f"--{name}", default="0")
    p_rates.add_argument(
        "--mode", choices=("enforce", "warn", "off"), default="enforce"
    )
    p_rates.set_defaults(func=cmd_validate_rates)

    p_cal = sub.add_parser(
        "calibrate-fig4",
        help="scan pulse duration and period for stepwise transfer",
    )
    p_cal.add_argument(
        "--quick",
        action="store_true",
        help="refine only the frozen pulse duration (fast smoke run)",
    )
    p_cal.add_argument("--out", help="also write calibration.csv here")
    p_cal.set_defaults(func=cmd_calibrate)

    p_list = sub.add_parser("list-scenarios", help="enumerate the named presets")
    p_list.set_defaults(func=cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RateRelationViolation as exc:
        print(f"rate relation violated: {exc}", file=sys.stderr)
        return EXIT_RATES
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
