"""Per-layer metrics from the spans of one traced workload pass.

Every ``*.s`` metric is self time: a span's duration minus the part covered
by its traced children, summed over the spans of the layer.  A metric reads
0 when the workload never enters that layer, and null when a best-effort
helper it is built on no longer exists in the program (or its counter could
not read the helper's arguments).
"""

from __future__ import annotations

import json
import statistics
from collections import Counter

import numpy as np

# Bytes of one 9x9 float64 block, and flops of one 9x9 matrix-vector product.
MAP_BLOCK_BYTES = 81 * 8
MAP_BLOCK_FLOPS = 2 * 81

# metric -> (unit, better, spans whose absence makes the metric null)
PER_LAYER = {
    "cli.resolve.s": ("s", "lower", ()),
    "cli.resolve.calls": ("count", "lower", ()),
    "cli.emit.s": ("s", "lower", ()),
    "cli.emit.rows": ("count", "lower", ()),
    "cli.emit.bytes": ("B", "lower", ()),
    "cli.emit.rows_per_s": ("1/s", "higher", ()),
    "cli.sweep.point_s": ("s", "lower", ("cli._sweep_point",)),
    "cli.sweep.parallel_eff": ("ratio", "higher", ("cli._sweep_point",)),
    "dynamics.propagate.s": ("s", "lower", ()),
    "dynamics.propagate.calls": ("count", "lower", ()),
    "dynamics.pulses": ("count", "lower", ()),
    "dynamics.pulse_loop.us_per_pulse": ("us", "lower", ()),
    "dynamics.pulse_loop.bytes_per_pulse": ("B", "lower", ("dynamics._integrate_window",)),
    "dynamics.pulse_loop.flops_per_pulse": ("flop", "lower", ("dynamics._integrate_window",)),
    "dynamics.window.s": ("s", "lower", ("dynamics._integrate_window",)),
    "dynamics.window.builds": ("count", "lower", ("dynamics._integrate_window",)),
    "dynamics.window.fine_steps": ("count", "lower", ("dynamics._integrate_window",)),
    "dynamics.scan.s": ("s", "lower", ("dynamics._scan_states",)),
    "dynamics.scan.states": ("count", "lower", ("dynamics._scan_states",)),
    "dynamics.gap.s": ("s", "lower", ("dynamics._apply_free",)),
    "dynamics.gap.calls": ("count", "lower", ("dynamics._apply_free",)),
    "scenarios.calibrate.s": ("s", "lower", ()),
    "scenarios.staircase.s": ("s", "lower", ("scenarios._staircase_stats",)),
    "scenarios.staircase.calls": ("count", "lower", ("scenarios._staircase_stats",)),
    "scenarios.staircase.pulses": ("count", "lower", ("scenarios._staircase_stats",)),
    "scenarios.pulse_map.builds": ("count", "lower", ("scenarios._single_pulse_map",)),
    "field.drives.s": ("s", "lower", ("field._transition_drives",)),
    "field.drives.nodes": ("count", "lower", ("field._transition_drives",)),
    "core.samples": ("count", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}


def load(paths) -> dict:
    """Self time, duration list and call count per span name, plus counters."""
    self_s: Counter = Counter()
    durations: dict[str, list[float]] = {}
    counters: Counter = Counter()
    unusable: set[str] = set()
    n_spans = 0
    for path in paths:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            name_id, parent = data["name_id"], data["parent"]
            duration = data["end"] - data["start"]
        n_spans += duration.size
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
        own = duration - covered
        names = meta["names"]
        for nid in np.unique(name_id):
            mask = name_id == nid
            self_s[names[nid]] += float(own[mask].sum())
            durations.setdefault(names[nid], []).extend(duration[mask].tolist())
        counters.update(meta["counters"])
        unusable.update(meta["missing"])
        unusable.update(meta["count_errors"])
    return {
        "self_s": self_s,
        "durations": durations,
        "counters": counters,
        "unusable": unusable,
        "spans": n_spans,
    }


def metrics(trace: dict, *, workers: int, untraced_wall_s: float, traced_wall_s: float,
            baseline_wall_s: float) -> dict:
    """Every PER_LAYER metric for one traced pass.

    ``untraced_wall_s`` is the parallel sweep's wall time (for the parallel
    efficiency); ``baseline_wall_s`` is the untraced pass run with the same
    worker count as the traced one (for the overhead).
    """
    s, c = trace["self_s"], trace["counters"]

    def calls(*names):
        return sum(len(trace["durations"].get(n, ())) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    points = trace["durations"].get("cli._sweep_point", [])
    emit_s = s["cli.write_timeseries"] + s["cli.write_plotdata"] + s["cli.summary_lines"]
    pulses = c["dynamics.pulses"]
    values = {
        "cli.resolve.s": s["cli.resolve_scenario"] + s["cli.objects_from_tree"],
        "cli.resolve.calls": calls("cli.resolve_scenario", "cli.objects_from_tree"),
        "cli.emit.s": emit_s,
        "cli.emit.rows": c["cli.emit.rows"],
        "cli.emit.bytes": c["cli.emit.bytes"],
        "cli.emit.rows_per_s": ratio(c["cli.emit.rows"], emit_s),
        "cli.sweep.point_s": statistics.median(points) if points else 0.0,
        "cli.sweep.parallel_eff": ratio(sum(points), workers * untraced_wall_s),
        "dynamics.propagate.s": s["dynamics.propagate"],
        "dynamics.propagate.calls": calls("dynamics.propagate"),
        "dynamics.pulses": pulses,
        "dynamics.pulse_loop.us_per_pulse": ratio(1e6 * s["dynamics.propagate"], pulses),
        "dynamics.pulse_loop.bytes_per_pulse": ratio(
            MAP_BLOCK_BYTES * c["dynamics.pulse_loop.map_rows"], pulses),
        "dynamics.pulse_loop.flops_per_pulse": ratio(
            MAP_BLOCK_FLOPS * c["dynamics.pulse_loop.map_rows"], pulses),
        "dynamics.window.s": s["dynamics._integrate_window"],
        "dynamics.window.builds": calls("dynamics._integrate_window"),
        "dynamics.window.fine_steps": c["dynamics.window.fine_steps"],
        "dynamics.scan.s": s["dynamics._scan_states"],
        "dynamics.scan.states": c["dynamics.scan.states"],
        "dynamics.gap.s": s["dynamics._apply_free"],
        "dynamics.gap.calls": calls("dynamics._apply_free"),
        "scenarios.calibrate.s": s["scenarios.calibrate_fig4"],
        "scenarios.staircase.s": s["scenarios._staircase_stats"],
        "scenarios.staircase.calls": calls("scenarios._staircase_stats"),
        "scenarios.staircase.pulses": c["scenarios.staircase.pulses"],
        "scenarios.pulse_map.builds": calls("scenarios._single_pulse_map"),
        "field.drives.s": s["field._transition_drives"],
        "field.drives.nodes": c["field.drives.nodes"],
        "core.samples": c["core.samples"],
        "trace.overhead_s": traced_wall_s - baseline_wall_s,
    }
    for name, (_, _, needs) in PER_LAYER.items():
        if trace["unusable"].intersection(needs):
            values[name] = None
    return values
