"""In-process span tracer for one combcool CLI call.

The tracer wraps functions of the combcool package from the outside; the
package itself is not changed.  Spans live in memory as parallel arrays
(name id, parent index, start, end) so that the ~1e6 gap-map calls of a full
calibration stay cheap, and are written to one ``.npz`` file when the call
ends.  A parent index of -1 marks a root span.

Modules that import a traced function by name (``cli`` and ``scenarios``
import ``propagate``, ``_integrate_window`` and ``_apply_free``) hold their
own binding, so every module of the package whose attribute is the original
function gets the wrapper.

Public entry points are required targets: if one is missing the call fails.
Private helpers are best-effort targets: a missing one is listed in the dump
and the metrics built on it report null.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

MODULES = ("cli", "dynamics", "scenarios", "field", "core")


def _emit_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths)


# (span name, module, attribute, required, counter).  The counter receives
# (counters, tracer, args, kwargs, result) after the call returns.
def _count_timeseries(c, t, args, kwargs, result):
    path, traj = args[:2]
    c["cli.emit.rows"] += traj.n_samples
    c["cli.emit.bytes"] += _emit_bytes([Path(path)])


def _count_plotdata(c, t, args, kwargs, result):
    directory, traj = Path(args[0]), args[1]
    c["cli.emit.rows"] += 3 * traj.n_samples
    c["cli.emit.bytes"] += _emit_bytes(p for p in directory.iterdir() if p.is_file())


def _count_summary(c, t, args, kwargs, result):
    c["cli.emit.bytes"] += len(("\n".join(result) + "\n").encode("utf-8"))


def _count_propagate(c, t, args, kwargs, result):
    pulses = int(result.metadata["diagnostics"]["pulses_run"])
    c["dynamics.pulses"] += pulses
    # m_fine of the window map that drives this call's pulse loop: rows = n + 1
    c["dynamics.pulse_loop.map_rows"] += pulses * t.window_rows.pop()


def _count_window(c, t, args, kwargs, result):
    s_grid, x_fine = result
    c["dynamics.window.fine_steps"] += s_grid.size - 1
    if x_fine.ndim == 3 and t.window_rows:
        t.window_rows[-1] = s_grid.size


def _count_scan(c, t, args, kwargs, result):
    c["dynamics.scan.states"] += len(args[0])


def _count_staircase(c, t, args, kwargs, result):
    c["scenarios.staircase.pulses"] += int(args[3] if len(args) > 3 else kwargs["n_max"])


def _count_drives(c, t, args, kwargs, result):
    c["field.drives.nodes"] += int(np.size(args[0]))


def _count_trajectory(c, t, args, kwargs, result):
    c["core.samples"] += args[0].n_samples


TARGETS = (
    ("cli.main", "cli", "main", True, None),
    ("cli.resolve_scenario", "cli", "resolve_scenario", True, None),
    ("cli.objects_from_tree", "cli", "objects_from_tree", True, None),
    ("cli.write_timeseries", "cli", "write_timeseries", True, _count_timeseries),
    ("cli.write_plotdata", "cli", "write_plotdata", True, _count_plotdata),
    ("cli.summary_lines", "cli", "summary_lines", True, _count_summary),
    ("cli._sweep_point", "cli", "_sweep_point", False, None),
    ("dynamics.propagate", "dynamics", "propagate", True, _count_propagate),
    ("dynamics._integrate_window", "dynamics", "_integrate_window", False, _count_window),
    ("dynamics._scan_states", "dynamics", "_scan_states", False, _count_scan),
    ("dynamics._apply_free", "dynamics", "_apply_free", False, None),
    ("scenarios.calibrate_fig4", "scenarios", "calibrate_fig4", True, None),
    ("scenarios._staircase_stats", "scenarios", "_staircase_stats", False, _count_staircase),
    ("scenarios._single_pulse_map", "scenarios", "_single_pulse_map", False, None),
    ("field._transition_drives", "field", "_transition_drives", False, _count_drives),
    ("core.Trajectory.__post_init__", "core", "Trajectory.__post_init__", True, _count_trajectory),
)


class MissingTarget(RuntimeError):
    """A required span target does not exist in the traced program."""


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.count_errors: dict[str, str] = {}
        # one slot per open propagate call: rows of the last matrix window built
        self.window_rows: list[int] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, counter=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, counters = self._stack, time.perf_counter, self.counters
        is_propagate = name == "dynamics.propagate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if is_propagate:
                self.window_rows.append(0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(counters, self, args, kwargs, result)
                except Exception as exc:  # a changed signature nulls the metric, not the run
                    self.count_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every target in the modules of ``package`` (combcool)."""
        modules = {m: getattr(package, m) for m in MODULES}
        for name, module, attr, required, counter in TARGETS:
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                if required:
                    raise MissingTarget(f"required span target {module}.{attr} is missing")
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, counter)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules.values():
                if getattr(mod, leaf, None) is original:
                    setattr(mod, leaf, wrapped)

    def dump(self, path: Path, exit_code: int, wall_s: float) -> None:
        meta = {
            "names": self.names,
            "counters": dict(self.counters),
            "missing": self.missing,
            "count_errors": self.count_errors,
            "exit_code": exit_code,
            "wall_s": wall_s,
        }
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )
