"""The benchmark's workloads: which CLI calls make one pass, and their checks.

A pass is a closed loop with one client: each ``python -m combcool`` call
starts after the previous one has exited.  Every call has a check that reads
its outputs and returns an Outcome; an operation (one ``run`` call, one
sweep point, one calibration) fails on a non-zero exit, an error row or a
failed check.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WEAK_EMIT = "timeseries,summary,plotdata"
# preset -> (pulses_run, final yield or None); the yields are criterion 9's
WEAK_PRESETS = {
    "fig3": (3200, None),
    "fig5": (3200, 0.34174041394351806),
    "fig5sp": (703, 0.47092520869554516),
}
YIELD_TOL = 1e-6

SWEEP_AMPLITUDES = 5
SWEEP_PERIODS = 8
SWEEP_T0 = 14000.0
FIG4_PULSES = 118  # fig4 runs its whole train: early_stop_pulses = 0

CAL_TAU = 0.198
CAL_PERIOD = 14005.253930
CAL_PERIOD_TOL = 1e-3
# _refine_period scans one phase wrap in 126 steps, then 101 and 41 points;
# the traced pass checks this count against the staircases it sees.
CANDIDATES_PER_TAU = 126 + 101 + 41
STAIRCASE_PULSES = 260  # calibrate_fig4's n_pulse_probe

SMOKE_PULSES = 12

WORKLOADS = ("weak_long_run", "strong_sweep", "calibrate_full")


@dataclass
class Outcome:
    """What one CLI call did, as read back from its outputs."""

    ops: int
    failed: int = 0
    pulses: int = 0
    items: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> "Outcome":
        self.problems.append(message)
        self.failed = self.ops
        return self


@dataclass
class Call:
    """One CLI call of a pass and the check of its outputs."""

    label: str
    args: list[str]
    ops: int
    check: object  # (out_dir, stdout_text) -> Outcome
    parallel: bool = False  # runs the sweep worker pool

    def outcome(self, exit_code: int, out_dir: Path, stdout: str) -> Outcome:
        if exit_code != 0:
            return Outcome(self.ops).fail(f"{self.label}: exit code {exit_code}")
        try:
            return self.check(out_dir, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Outcome(self.ops).fail(f"{self.label}: unreadable output: {exc!r}")


# The harness reads outputs in bounded chunks: the peak RSS it reports for a
# CLI call also counts the harness's own peak at the time of the spawn.
CHUNK = 1 << 20


def digest(out_dir: Path) -> str:
    """Hash of every file under out_dir, for the byte-identity checks."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(CHUNK):
                h.update(chunk)
    return h.hexdigest()


def _key_values(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs.setdefault(key.strip(), value.strip())
    return pairs


def _count_rows(path: Path) -> tuple[int, list[str]]:
    """(data rows, last row) of a CSV file with one header line."""
    n, last = -1, ""
    with open(path, encoding="utf-8") as fh:
        for last in fh:
            n += 1
    return n, last.rstrip("\n").split(",")


# ---------------------------------------------------------------------------
# weak_long_run
# ---------------------------------------------------------------------------


def _check_run(preset: str, pulses: int, final_yield: float | None, strict: bool):
    def check(out_dir: Path, stdout: str) -> Outcome:
        out = Outcome(ops=1)
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
        kv = _key_values(summary)
        expects = [line for line in summary.splitlines() if line.startswith("expect.")]
        if not expects:
            out.fail(f"{preset}: summary.txt has no expect.* lines")
        if strict:
            for line in expects:
                if " = PASS " not in line:
                    out.fail(f"{preset}: {line}")
        out.pulses = int(kv["pulses_run"])
        if out.pulses != pulses:
            out.fail(f"{preset}: pulses_run = {out.pulses}, expected {pulses}")
        got = float(kv["yield"])
        if final_yield is not None and abs(got - final_yield) > YIELD_TOL:
            out.fail(f"{preset}: yield {got!r} differs from {final_yield!r} by > {YIELD_TOL}")
        n_rows, last = _count_rows(out_dir / "timeseries.csv")
        for name in ("rho11", "rho22", "rho33"):
            n_plot, _ = _count_rows(out_dir / "plotdata" / f"{name}.csv")
            if n_plot != n_rows:
                out.fail(f"{preset}: {n_rows} timeseries rows but {n_plot} in {name}.csv")
        if n_rows < 1 or last[3] != kv["yield"]:
            out.fail(f"{preset}: last timeseries rho33 is not the reported yield")
        out.items = n_rows
        return out

    return check


def weak_long_run(seed: int, smoke: bool) -> list[Call]:
    if smoke:
        plan = {"fig4": (SMOKE_PULSES, None)}
        extra = ["--set", f"train.N={SMOKE_PULSES}"]
    else:
        plan, extra = WEAK_PRESETS, []
    return [
        Call(
            label=preset,
            args=["run", "--scenario", preset, *extra, "--emit", WEAK_EMIT],
            ops=1,
            check=_check_run(preset, pulses, final_yield, strict=not smoke),
        )
        for preset, (pulses, final_yield) in plan.items()
    ]


# ---------------------------------------------------------------------------
# strong_sweep
# ---------------------------------------------------------------------------


def sweep_axes(seed: int, smoke: bool) -> tuple[list[str], list[str]]:
    """Amplitudes in [2, 6] and periods over one phase wrap, from the seed."""
    rng = random.Random(seed)
    n_amp, n_t = (1, 2) if smoke else (SWEEP_AMPLITUDES, SWEEP_PERIODS)
    amplitudes = sorted(rng.uniform(2.0, 6.0) for _ in range(n_amp))
    periods = sorted(SWEEP_T0 + rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_t))
    return [repr(a) for a in amplitudes], [repr(t) for t in periods]


def _check_sweep(amplitudes: list[str], periods: list[str]):
    grid = [(a, t) for a in amplitudes for t in periods]

    def check(out_dir: Path, stdout: str) -> Outcome:
        out = Outcome(ops=len(grid))
        lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        header = "train.modulation.amplitude,train.T,final_yield,trace_max_drift,error"
        if lines[0] != header or len(lines) - 1 != len(grid):
            return out.fail(f"sweep: header or row count wrong ({len(lines) - 1} rows)")
        bad = 0
        for (a, t), line in zip(grid, lines[1:]):
            cells = line.split(",")
            value, drift = float(cells[2]), float(cells[3])
            ok = (
                cells[:2] == [a, t]
                and cells[4] == ""
                and drift <= 1e-6
                and 0.0 <= value <= 1.0
            )
            if not ok:
                bad += 1
                out.problems.append(f"sweep: bad row {line!r}")
        out.failed = bad
        out.items = len(grid)
        out.pulses = len(grid) * FIG4_PULSES
        return out

    return check


def strong_sweep(seed: int, smoke: bool) -> list[Call]:
    amplitudes, periods = sweep_axes(seed, smoke)
    return [
        Call(
            label="sweep",
            args=[
                "sweep", "--scenario", "fig4",
                "--axis1", "train.modulation.amplitude=" + ",".join(amplitudes),
                "--axis2", "train.T=" + ",".join(periods),
            ],
            ops=len(amplitudes) * len(periods),
            check=_check_sweep(amplitudes, periods),
            parallel=True,
        )
    ]


# ---------------------------------------------------------------------------
# calibrate_full
# ---------------------------------------------------------------------------


def _check_calibration(out_dir: Path, stdout: str) -> Outcome:
    out = Outcome(ops=1)
    kv = _key_values(stdout)
    tau, period = float(kv["tau"]), float(kv["period"])
    n_pulses, transfer = int(kv["n_pulses"]), int(kv["transfer_pulse"])
    final_yield = float(kv["final_yield"])
    if abs(tau - CAL_TAU) > 1e-12:
        out.fail(f"calibration: tau = {tau!r}, expected {CAL_TAU}")
    if abs(period - CAL_PERIOD) > CAL_PERIOD_TOL:
        out.fail(f"calibration: period = {period!r}, expected {CAL_PERIOD} +/- {CAL_PERIOD_TOL}")
    if n_pulses != FIG4_PULSES:
        out.fail(f"calibration: n_pulses = {n_pulses}, expected {FIG4_PULSES}")
    if not final_yield > 0.95:
        out.fail(f"calibration: final_yield = {final_yield!r} <= 0.95")
    if not 98 <= transfer <= 120:
        out.fail(f"calibration: transfer_pulse = {transfer} outside 98..120")
    # The program reports neither its candidates nor its staircase pulses:
    # the candidate count is nominal, one full period scan per CSV row, and
    # the pulses are those of the final propagation only.
    taus, _ = _count_rows(out_dir / "calibration.csv")
    out.items = taus * CANDIDATES_PER_TAU
    out.pulses = n_pulses
    return out


def calibrate_full(seed: int, smoke: bool) -> list[Call]:
    return [
        Call(
            label="calibrate",
            args=["calibrate-fig4", *(["--quick"] if smoke else [])],
            ops=1,
            check=_check_calibration,
        )
    ]


def calls(name: str, seed: int, smoke: bool = False) -> list[Call]:
    """The CLI calls of one pass of workload ``name``.

    Only strong_sweep draws its inputs from the seed; the other two run the
    paper's fixed presets, whose outputs the checks pin exactly.
    """
    return {"weak_long_run": weak_long_run, "strong_sweep": strong_sweep,
            "calibrate_full": calibrate_full}[name](seed, smoke)
