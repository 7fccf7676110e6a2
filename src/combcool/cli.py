"""Command-line interface: runs, sweeps, spectra, rate checks, calibration.

Verbs

- ``run``             execute one scenario, write CSV/summary/plot data
- ``sweep``           grid-scan one or two dotted parameters, write sweep.csv
- ``spectrum``        synthesize a 32-pulse surrogate train, verify its comb structure
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
import contextlib
import copy
import functools
import itertools
import math
import os
import sys
from dataclasses import astuple, dataclass, replace
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
    check_unit_trace,
    propagate,
    quantum_yield,
    resolve_step,
    steady_state_yield,
)
from .field import Modulation, PulseTrainConfig
from .scenarios import (
    PRESET_NAMES,
    ScenarioPreset,
    calibrate_fig4,
    evaluate_expectations,
    get_preset,
    measure_quantity,
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
#: The spectrum surrogate: at most this many pulses of the configured train,
#: sampled at this multiple of the admissible rate, within this many samples.
SPECTRUM_PULSES = 32
SPECTRUM_RATE_MARGIN = 1.2
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
        return _g(value)
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


def runnable_objects(
    tree: dict,
) -> tuple[LevelSystem, PulseTrainConfig, DecoherenceRates, IntegratorConfig, DensityMatrix]:
    """objects_from_tree plus the input checks of propagate, naming the key.

    propagate makes the same checks for library callers, but its ValueError
    would reach the CLI as a traceback instead of a configuration error.
    """
    sys_, cfg, rates, icfg, rho0 = objects = objects_from_tree(tree)
    for key, check in (("rho0", lambda: check_unit_trace(rho0)),
                       ("integrator.step_in_pulse", lambda: resolve_step(icfg, cfg, sys_))):
        try:
            check()
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    return objects


# ---------------------------------------------------------------------------
# Scenario resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedRun:
    label: str
    preset: ScenarioPreset | None
    tree: dict


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


#: Rows rendered per _render_rows call in _write_rows.  The kernel holds about
#: 0.3 kB of temporaries per value, so this bounds them and the text of one
#: chunk; 512 rows keep weak_long_run's peak RSS within 1% of the previous
#: per-value formatter, while larger chunks raise it.
_ROW_CHUNK = 512
#: Lines read per chunk when the plot files are cut from timeseries.csv.  Each
#: line splits into five str objects, so 4096 lines would hold about 4 MB of
#: text at once, above fig5sp's peak RSS; 1024 lines fit in the memory that
#: _write_rows has already freed.
_READ_CHUNK = 1024

TIMESERIES_HEADER = "t,rho11,rho22,rho33,re12,im12,re13,im13,re23,im23,trace"
_PLOT_NAMES = ("rho11", "rho22", "rho33")


def _g(value) -> str:
    return format(float(value), ".17g")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


#: Decimal exponents covered by the _render_rows tables: floor(log10|x|) of
#: every x with 1e-200 <= |x| <= 1e200, with a margin of one on each side.
_E_MIN, _E_MAX = -202, 201
#: Bytes per value in _render_rows, NUL where unused: 0 the sign, 1-5 the
#: "0.000" prefix, 6 + 2i digit i (i = 0..16) and 7 + 2i the hole for a point
#: after it, 40-44 the exponent, 45 the separator, 46-47 padding to 6 words.
_SLOT = 48
_LE64 = np.dtype("<u8")
#: Dekker's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0


@functools.cache
def _render_tables():
    """Tables for _render_rows, built from Python ints on first use.

    Per decimal exponent e in [_E_MIN, _E_MAX]: 10**(16 - e) as a
    double-double hi + lo (each part rounded correctly by int true
    division), the index q of the last digit before the point (-1 for the
    fixed form below 1, where the point is in the prefix), and one slot
    template per sign with the sign, the prefix, the point after digit q
    and the exponent in place.  Also, per 4-digit group g < 10**4, a
    little-endian word of eight bytes with g's digits at the even bytes and
    NUL holes at the odd ones.
    """
    hi, lo, q, templates = [], [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        p_hi = num / den
        a, b = p_hi.as_integer_ratio()
        hi.append(p_hi)
        lo.append((num * b - a * den) / (den * b))
        slot = bytearray(_SLOT)
        if -4 <= e < 0:  # fixed form below 1
            q.append(-1)
            prefix = b"0." + b"0" * (-e - 1)
            slot[1 : 1 + len(prefix)] = prefix
        elif 0 <= e <= 16:  # fixed form, digits 0..e before the point
            q.append(e)
            if e < 16:
                slot[7 + 2 * e] = ord(".")
        else:  # scientific form
            q.append(0)
            slot[7] = ord(".")
            exponent = b"e%+03d" % e
            slot[40 : 40 + len(exponent)] = exponent
        slot[45] = ord(",")
        templates.append(bytes(slot))
        slot[0] = ord("-")
        templates.append(bytes(slot))
    g = np.arange(10**4, dtype=_LE64)
    groups = np.zeros_like(g)
    for j, place in enumerate((1000, 100, 10, 1)):
        groups |= (48 + g // place % 10) << np.uint64(16 * j)
    return (
        np.array(hi),
        np.array(lo),
        np.array(q, dtype=np.intp),
        np.frombuffer(b"".join(templates), dtype=np.uint8).reshape(-1, _SLOT),
        groups,
    )


def _render_rows(block: np.ndarray) -> str:
    """The CSV lines of an (n, m) float block, every value as '%.17g'.

    A finite x with 1e-200 <= |x| <= 1e200 takes the vectorized path:
    - e = floor(log10|x|), from which every table entry is looked up;
    - S = |x| * 10**(16 - e) as Dekker's error-free product of |x| and the
      table's hi, plus |x| * lo: S_hi + S_lo is S to about 1e-14;
    - floor(S) in int64 (S_hi >= 2**53 is an integer), rounded up if the
      fraction exceeds 1/2: the 17 significant digits;
    - the digits, as a leading digit and four 4-digit groups, are laid into
      a copy of e's slot template, trailing fraction zeros are blanked, and
      the NUL holes are squeezed out of the chunk with bytes.translate.
    Every other value takes '%.17g' % x: zero, non-finite, subnormal or out
    of range, a fraction within 1e-6 of 1/2 (every exact tie, which '%.17g'
    rounds half to even, lies there), floor(S) outside [1e16, 1e17) (e one
    off near a power of ten), or digits that reach 1e17 when rounded.
    Outside the tie band the rounding is exact, so the text is the same as
    formatting value by value.
    """
    block = np.asarray(block, dtype=np.float64)
    n, m = block.shape
    x = block.ravel()
    hi_t, lo_t, q_t, templates, groups_t = _render_tables()
    a = np.abs(x)
    fast = (a >= 1e-200) & (a <= 1e200)
    a[~fast] = 1.0  # a placeholder: these slots are overwritten at the end
    row = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    hi = hi_t[row]
    s_hi = a * hi
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    c = hi * _SPLIT
    h1 = c - (c - hi)
    h2 = hi - h1
    s_lo = ((((a1 * h1 - s_hi) + a1 * h2) + a2 * h1) + a2 * h2) + a * lo_t[row]
    floor_lo = np.floor(s_lo)
    frac = s_lo - floor_lo
    up = frac > 0.5
    digits = s_hi.astype(np.int64) + floor_lo.astype(np.int64)
    fast &= (digits >= 10**16) & (digits + up < 10**17) & (np.abs(frac - 0.5) > 1e-6)
    digits += up

    buf = templates.take(2 * row + np.signbit(x), axis=0)
    # Word 0 takes the leading digit at byte 6; words 1-4 take the groups.
    # (numpy divides a contiguous int64 array by a scalar several times faster
    # than a strided one, or than np.divmod does.)
    groups = np.empty((len(x), 4), np.int64)
    lead = digits
    for j in range(3, -1, -1):
        quotient = lead // 10**4
        groups[:, j] = lead - quotient * 10**4
        lead = quotient
    words = buf.view(_LE64)
    words[:, 0] |= (lead + 48).astype(_LE64) << np.uint64(48)
    words[:, 1:5] |= groups_t.take(groups)
    # Blank the zeros past both the last nonzero digit and the digit before
    # the point, and the point of a whole number; only digits ending in 0 have any.
    ends_in_zero = np.flatnonzero(buf[:, 38] == ord("0"))
    if ends_in_zero.size:
        shown = buf[ends_in_zero, 6:40:2]
        last = 16 - np.argmax(shown[:, ::-1] != ord("0"), axis=1)
        q = q_t[row[ends_in_zero]]
        shown[np.arange(17) > np.maximum(last, q)[:, None]] = 0
        buf[ends_in_zero, 6:40:2] = shown
        whole = last <= q
        buf[ends_in_zero[whole], 7 + 2 * q[whole]] = 0
    buf.reshape(n, m, _SLOT)[:, -1, 45] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(("%.17g" % v).encode().ljust(45, b"\0") for v in x[slow].tolist())
        buf[slow, :45] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 45)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _write_rows(path: Path, header: str, *columns: np.ndarray) -> None:
    """Write a header line, then the rows of the given columns as CSV.

    Each column is a float array of n rows, 1-D (one CSV column) or (n, k)
    (k CSV columns); a row is the columns' rows side by side.  Every value
    is rendered as '%.17g', which is the same text as _g.  The rows go out
    _ROW_CHUNK at a time: each chunk's slices of the columns are stacked and
    rendered by _render_rows, so neither the stacked block nor the text of
    the whole file is ever held in memory.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns differ in length")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _ROW_CHUNK):
            part = np.column_stack([c[start : start + _ROW_CHUNK] for c in columns])
            fh.write(_render_rows(part))


def write_timeseries(path: Path, traj: Trajectory) -> None:
    _write_rows(path, TIMESERIES_HEADER, traj.times, traj.data, traj.trace_series)


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


def _surrogate_spectrum(cfg: PulseTrainConfig):
    """Synthesize and transform a truncated copy of the configured train.

    The copy keeps at most SPECTRUM_PULSES pulses and no padding.  The sample
    rate is SPECTRUM_RATE_MARGIN times the admissible minimum, rounded up to
    an integer number of samples per period so the sampled train is exactly
    periodic and every tooth lands on a bin.  The sample count is checked
    against SPECTRUM_MAX_SAMPLES before anything is synthesized.
    """
    cfg_s = replace(cfg, N=min(cfg.N, SPECTRUM_PULSES))
    rate = SPECTRUM_RATE_MARGIN * spectrum_mod.nyquist_limit(cfg_s)
    rate = math.ceil(rate * cfg_s.T) / cfg_s.T
    t_total = cfg_s.N * cfg_s.T
    projected = round(t_total * rate)
    if projected > SPECTRUM_MAX_SAMPLES:
        raise ConfigError(
            f"spectrum would need {projected} samples (cap {SPECTRUM_MAX_SAMPLES}); "
            "analyze a desk-scale surrogate instead, e.g. --set train.T=40 "
            "--set train.omega_L=25 --set train.tau=0.7 (the spacing laws "
            "only depend on frequency ratios)"
        )
    series = spectrum_mod.sample_field(cfg_s, rate, t_total)
    return cfg_s, spectrum_mod.compute_spectrum(series, rate)


def write_spectrum_csv(path: Path, spec) -> None:
    _write_rows(path, "omega,intensity", spec.frequencies, spec.intensities)


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


def write_plotdata(directory: Path, traj: Trajectory, timeseries: Path | None = None) -> None:
    """Write t,rhoJJ for J = 1, 2, 3 to rhoJJ.csv in directory, plus plot.py.

    With timeseries, the path of the timeseries.csv just written for traj,
    the rows are cut from that file's text instead of being rendered again:
    fields 0 and J of each line are the same '%.17g' strings that rendering
    would produce, so the files are byte-identical either way.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if timeseries is None:
        for column, name in enumerate(_PLOT_NAMES):
            _write_rows(directory / f"{name}.csv", f"t,{name}", traj.times, traj.data[:, column])
    else:
        _project_plotdata(directory, traj, timeseries)
    (directory / "plot.py").write_text(_PLOT_STUB, encoding="utf-8")


def _project_plotdata(directory: Path, traj: Trajectory, timeseries: Path) -> None:
    """Cut the population files from timeseries.csv, _READ_CHUNK lines at a time.

    Raises ValueError, and removes the partial plot files, if the file does
    not hold traj: another header, a short line, a row count other than
    traj.n_samples, or a first or last t other than traj's.
    """
    paths = [directory / f"{name}.csv" for name in _PLOT_NAMES]
    try:
        with contextlib.ExitStack() as stack:
            src = stack.enter_context(open(timeseries, encoding="utf-8"))
            if src.readline() != TIMESERIES_HEADER + "\n":
                raise ValueError("unexpected header")
            outs = [stack.enter_context(open(path, "w", encoding="utf-8")) for path in paths]
            for out, name in zip(outs, _PLOT_NAMES):
                out.write(f"t,{name}\n")
            n_rows, t = 0, ()
            while lines := list(itertools.islice(src, _READ_CHUNK)):
                fields = [line.split(",", 4) for line in lines]
                if not lines[-1].endswith("\n") or min(map(len, fields)) < 5:
                    raise ValueError(f"a line after row {n_rows} is cut short")
                t, rho11, rho22, rho33, _ = zip(*fields)
                if n_rows == 0 and t[0] != _g(traj.times[0]):
                    raise ValueError(f"first t is {t[0]}, not {_g(traj.times[0])}")
                for out, column in zip(outs, (rho11, rho22, rho33)):
                    out.write("\n".join(map(",".join, zip(t, column))) + "\n")
                n_rows += len(lines)
        if n_rows != traj.n_samples:
            raise ValueError(f"{n_rows} rows, not {traj.n_samples}")
        if n_rows and t[-1] != _g(traj.times[-1]):
            raise ValueError(f"last t is {t[-1]}, not {_g(traj.times[-1])}")
    except ValueError as exc:
        for path in paths:
            path.unlink(missing_ok=True)
        raise ValueError(f"{timeseries} does not hold the trajectory to plot: {exc}") from None


# ---------------------------------------------------------------------------
# Verb: run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    emit = _parse_emit(args.emit)
    resolved = resolve_scenario(args.scenario, tuple(args.set or ()), args.convention)
    if args.dump_config is not None:
        text = "\n".join(config_lines(resolved.tree)) + "\n"
        if args.dump_config == "-":
            sys.stdout.write(text)
        else:
            dest = Path(args.dump_config)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text, encoding="utf-8")
        return EXIT_OK

    sys_, cfg, rates, icfg, rho0 = runnable_objects(resolved.tree)
    _check_rates(rates, args.rates_mode)
    # the spectrum needs only the train, so an oversized one fails before any work
    spec = _surrogate_spectrum(cfg)[1] if "spectrum" in emit else None
    traj = propagate(
        rho0, cfg, sys_, rates, icfg, allow_unconstrained_rates=args.rates_mode != "enforce"
    )

    out = Path(args.out)
    if "timeseries" in emit:
        write_timeseries(out / "timeseries.csv", traj)
    if "summary" in emit:
        _write_lines(out / "summary.txt", summary_lines(resolved, traj))
    if spec is not None:
        write_spectrum_csv(out / "spectrum.csv", spec)
    if "plotdata" in emit:
        # cut from the timeseries text when there is one, so no value is rendered twice
        timeseries = out / "timeseries.csv" if "timeseries" in emit else None
        write_plotdata(out / "plotdata", traj, timeseries)

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
        sys_, cfg, rates, icfg, rho0 = runnable_objects(point_tree)
        traj = propagate(
            rho0, cfg, sys_, rates, icfg, allow_unconstrained_rates=rates_mode != "enforce"
        )
        drift = traj.metadata["diagnostics"]["trace_max_drift"]
        return measure_quantity(traj, objective), float(drift), ""
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
    axes = [parse_axis(args.axis1)] + ([parse_axis(args.axis2)] if args.axis2 else [])
    total = math.prod(len(axis.values) for axis in axes)
    if total > SWEEP_CAP:
        raise ConfigError(f"sweep grid has {total} points, outside 1..{SWEEP_CAP}")

    # Fail fast on unknown axis keys before launching any work; bad values
    # are recorded per point, whichever point they fall on.
    for axis in axes:
        for key in axis.keys:
            _leaf_node(resolved.tree, key)

    grid = list(itertools.product(*(axis.values for axis in axes)))
    payloads = [
        (
            resolved.tree,
            tuple((key, value) for axis, value in zip(axes, point) for key in axis.keys),
            args.objective,
            args.rates_mode,
        )
        for point in grid
    ]
    workers = _worker_count(len(payloads))
    if workers <= 1:
        results = [_sweep_point(p) for p in payloads]
    else:
        # imported here: the other verbs never start a pool, so they skip its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))

    header = [axis.label for axis in axes] + [args.objective, "trace_max_drift", "error"]
    lines = [",".join(header)]
    for point, (value, drift, error) in zip(grid, results):
        lines.append(",".join([*point, _g(value), _g(drift), error]))
    _write_lines(Path(args.out) / "sweep.csv", lines)
    n_err = sum(1 for _, _, e in results if e)
    print(
        f"sweep: {len(payloads)} points, {n_err} errors, "
        f"objective={args.objective}, workers={workers}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verb: spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ConfigError(
            f"--threshold: expected a number strictly between 0 and 1, got {args.threshold!r}"
        )
    resolved = resolve_scenario(
        args.scenario, tuple(args.set or ()), args.convention
    )
    _, cfg, _, _, _ = objects_from_tree(resolved.tree)
    cfg_s, spec = _surrogate_spectrum(cfg)
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
        _, _, rates, _, _ = objects_from_tree(resolved.tree)
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
    result = calibrate_fig4(quick=args.quick)
    print(f"tau = {_g(result.tau)}")
    print(f"period = {_g(result.period)}")
    print(f"n_pulses = {result.n_pulses}")
    print(f"final_yield = {_g(result.final_yield)}")
    print(f"transfer_pulse = {result.transfer_pulse}")
    print(f"max_rho22 = {_g(result.max_rho22)}")
    if args.out is not None:
        _write_rows(
            Path(args.out) / "calibration.csv",
            "tau,period,peak_yield,peak_pulse,transfer_pulse",
            np.array([astuple(point) for point in result.scanned]),
        )
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
    p_sweep.set_defaults(func=cmd_sweep)

    p_spec = sub.add_parser(
        "spectrum", help="synthesize a train and verify comb structure"
    )
    _add_scenario_options(p_spec)
    p_spec.add_argument("--out", default="combcool-out", help="output directory")
    p_spec.add_argument(
        "--threshold", type=float, default=0.05, help="peak threshold fraction"
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
