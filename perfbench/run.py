"""combcool benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each CLI call is a fresh ``python -m combcool`` process importing the
package from ``src/`` of the checkout, timed from spawn to ``os.wait4``.
One run: a discarded warm-up pass, ``setup_s`` (median of several fresh
interpreters importing ``combcool.cli``), then timed passes until
``--seconds`` have elapsed; every metric is a median over the passes.  With
``--trace 1`` one more pass runs with the span tracer installed in each CLI
process and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric is also
printed on its own line with its unit, and the full record (machine,
settings, passes, problems, every metric) is written to
``.bench_out/<workload>/result.json``.  The exit code is 1 when any output
check failed, 2 when the checkout has no combcool source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MAX_WORKERS = 2
SETUP_REPEATS = 15  # before the timed passes; one more before each call
# Start no further pass that would end more than this many seconds after the
# run began, so that a run stays under about 45 s even when the machine is
# slow (a pass can take twice as long under load from other tenants), and
# kill any call still running after CALL_TIMEOUT_S: a run must end within 180 s.
PASS_DEADLINE_S = 40.0
CALL_TIMEOUT_S = 170.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pulses_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """One workload pass: its wall time and what its calls produced."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    pulses: int = 0
    items: int = 0
    call_s: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(workers: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["COMB_LAMBDA_THREADS"] = str(workers)
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run argv to completion; return (wall s, exit code, peak RSS MB).

    The peak RSS comes from wait4, which covers the process and every child
    it waited for (the sweep's worker pool).
    """
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_pass(calls, out_dir: Path, env: dict, spans_dir: Path | None = None,
             setup: list[float] | None = None) -> Pass:
    """Run every call of one pass in order; check outputs after the pass.

    With ``setup``, a fresh interpreter imports combcool.cli before each
    call, outside the pass's wall time, and the import time is appended to
    ``setup``.
    """
    done = []
    result = Pass()
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, call in enumerate(calls):
        if setup is not None:
            setup.append(time_import(env, out_dir / "setup.stdout"))
        call_dir = out_dir / call.label
        shutil.rmtree(call_dir, ignore_errors=True)
        call_dir.mkdir(parents=True)
        if spans_dir is None:
            argv = [sys.executable, "-m", "combcool"]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_dir / f"{i}.npz")]
        log = out_dir / f"{call.label}.stdout"
        wall, code, rss = spawn(argv + call.args + ["--out", str(call_dir)], env, log)
        result.wall_s += wall
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        result.call_s[call.label] = wall
        done.append((call, code, call_dir, log))
    for call, code, call_dir, log in done:
        outcome = call.outcome(code, call_dir, log.read_text(encoding="utf-8", errors="replace"))
        result.attempted += outcome.ops
        result.failed += outcome.failed
        result.pulses += outcome.pulses
        result.items += outcome.items
        result.problems += outcome.problems
        if code == 0:
            result.digests[call.label] = workloads.digest(call_dir)
    return result


def check_same_outputs(reference: Pass, other: Pass, what: str, calls) -> None:
    """Byte-identity of every call's outputs; a mismatch fails its operations."""
    for call in calls:
        ref, got = reference.digests.get(call.label), other.digests.get(call.label)
        if ref is not None and got is not None and ref != got:
            other.problems.append(f"{call.label}: outputs differ from the {what}")
            other.failed = min(other.attempted, other.failed + call.ops)


def time_import(env: dict, log: Path) -> float:
    """Wall time for a fresh interpreter to import combcool.cli."""
    wall, code, _ = spawn([sys.executable, "-c", "import combcool.cli"], env, log)
    if code != 0:
        raise RuntimeError(f"importing combcool.cli failed with exit code {code}")
    return wall


def machine(seed: int, workers: int) -> dict:
    import numpy
    import scipy

    info = {
        "nproc": cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {**THREAD_ENV, "COMB_LAMBDA_THREADS": str(workers)},
        "seed": seed,
        "git_commit": "unknown (not a git checkout)",
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["openblas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def median_of(passes, key) -> float:
    return statistics.median(key(p) for p in passes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    started = time.perf_counter()
    calls = workloads.calls(name, seed, smoke)
    out_dir = OUT / ("smoke-" + name if smoke else name)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workers = min(MAX_WORKERS, cpu_count())
    env, env_serial = child_env(workers), child_env(1)
    parallel = any(c.parallel for c in calls)

    # Warm-up: bytecode and page cache.  The sweep's runs with one worker, so
    # the timed passes also check that the worker count leaves sweep.csv
    # byte-identical.
    warm = run_pass(calls, out_dir / "warmup", env_serial if parallel else env)
    # setup_s: imports spread over the whole run, so that a burst of load
    # from other tenants of the machine hits few of them
    setup = [time_import(env, out_dir / "setup.stdout") for _ in range(SETUP_REPEATS)]

    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        timed = run_pass(calls, out_dir / "pass", env, setup=setup)
        check_same_outputs(warm, timed, "warm-up pass", calls)
        passes.append(timed)
        now = time.perf_counter()
        if now - t0 >= seconds or now - started + timed.wall_s > PASS_DEADLINE_S:
            break

    all_passes = [warm, *passes]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": median_of(passes, lambda p: p.wall_s),
        "pulses_per_s": median_of(passes, lambda p: p.pulses / p.wall_s),
        "peak_rss_mb": median_of(passes, lambda p: p.peak_rss_mb),
    }
    extra = {}
    units = dict(END_TO_END_UNITS)
    if name == "weak_long_run":
        for call in calls:
            extra[f"run_s.{call.label}"] = median_of(passes, lambda p: p.call_s[call.label])
            units[f"run_s.{call.label}"] = "s"
    if name == "strong_sweep":
        extra["points_per_s"] = median_of(passes, lambda p: p.items / p.wall_s)
        units["points_per_s"] = "1/s"
    if name == "calibrate_full":
        extra["candidates_per_s"] = median_of(passes, lambda p: p.items / p.wall_s)
        units["candidates_per_s"] = "1/s"

    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer = None
    if trace:
        per_layer, traced = traced_pass(name, calls, out_dir, env, env_serial, warm,
                                        passes, workers, parallel)
        all_passes.append(traced)
        units.update({k: v[0] for k, v in _layers().PER_LAYER.items()})

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    extra["error_rate"] = failed / attempted if attempted else 1.0
    units["error_rate"] = "ratio"
    problems = [msg for p in all_passes for msg in p.problems]
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "machine": machine(seed, workers),
        "workers": workers,
        # a spawned call's peak RSS is at least the harness's peak at spawn time
        "harness_peak_rss_mb": harness_rss_mb,
        "passes": [p.__dict__ for p in passes],
        "warmup": warm.__dict__,
        "end_to_end": e2e,
        "workload_metrics": extra,
        "per_layer": per_layer,
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def _layers():
    import layers

    return layers


def traced_pass(name, calls, out_dir, env, env_serial, warm, passes, workers, parallel):
    """One pass with spans; returns (per-layer metrics, the traced Pass).

    Spans from forked sweep workers would be lost, so the traced sweep runs
    with one worker; its overhead is measured against an untraced
    one-worker pass.
    """
    spans_dir = out_dir / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir()
    if parallel:
        baseline = run_pass(calls, out_dir / "serial", env_serial)
        check_same_outputs(warm, baseline, "warm-up pass", calls)
        baseline_wall = baseline.wall_s
    else:
        baseline_wall = median_of(passes, lambda p: p.wall_s)
    traced = run_pass(calls, out_dir / "traced", env_serial if parallel else env, spans_dir)
    check_same_outputs(passes[-1], traced, "untraced pass", calls)
    # numpy enters the harness only now, after its last spawn
    layers = _layers()
    spans = layers.load(sorted(spans_dir.glob("*.npz")))
    values = layers.metrics(
        spans,
        workers=workers,
        untraced_wall_s=median_of(passes, lambda p: p.wall_s),
        traced_wall_s=traced.wall_s,
        baseline_wall_s=baseline_wall,
    )
    # The traced counts must agree with what the outputs report.
    if values["dynamics.pulses"] != traced.pulses:
        traced.problems.append(
            f"traced pulses {values['dynamics.pulses']} != reported {traced.pulses}")
    if name == "weak_long_run" and values["cli.emit.rows"] != 4 * values["core.samples"]:
        traced.problems.append("cli.emit.rows is not 4 x core.samples")
    if name == "calibrate_full":
        # candidates_per_s rests on a nominal count (workloads.CANDIDATES_PER_TAU);
        # without a traced staircase count nothing would catch a changed scan.
        staircases = values["scenarios.staircase.calls"]
        pulses = values["scenarios.staircase.pulses"]
        if staircases is None:
            traced.problems.append(
                "no staircase count traced: give the candidate check another count")
        elif (staircases, pulses) != (traced.items, traced.items * workloads.STAIRCASE_PULSES):
            traced.problems.append(
                f"{staircases} staircases of {pulses} pulses traced, "
                f"{traced.items} of {workloads.STAIRCASE_PULSES} pulses each expected")
    if traced.problems:
        traced.failed = traced.attempted
    values["trace.spans"] = spans["spans"]
    return values, traced


def report(record: dict, trace: bool) -> dict:
    """Print every metric by name and unit; return the JSON result line."""
    units = record["units"]
    shown = {**record["end_to_end"], **record["workload_metrics"]}
    if trace:
        shown.update(record["per_layer"])
    for name, value in shown.items():
        print(f"{name} = {value} {units.get(name, 'count')}")
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    if trace:
        chosen = record["per_layer"]
        catalogue = {n: spec[0] for n, spec in _layers().PER_LAYER.items()}
    else:
        chosen, catalogue = record["end_to_end"], END_TO_END_UNITS
    metrics = {n: {"value": chosen[n], "unit": unit} for n, unit in catalogue.items()}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload at toy size, untraced and traced: names and checks only."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [w["name"] for w in spec["workloads"]]
    wanted = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    ok = sorted(declared) == sorted(workloads.WORKLOADS)
    if not ok:
        print(f"smoke: BENCHMARK.json workloads {declared} != {list(workloads.WORKLOADS)}")
    for name in declared:
        for trace in (False, True):
            record = run_workload(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            line = report(record, trace)
            got = set(line["metrics"])
            if got != wanted[trace]:
                ok = False
                print(f"smoke {name} trace={int(trace)}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(wanted[trace] - got)}, extra {sorted(got - wanted[trace])}")
            if not line["correct"]:
                ok = False
                print(f"smoke {name} trace={int(trace)}: checks failed")
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast check of the harness itself")
    args = parser.parse_args(argv)
    if not (SRC / "combcool" / "cli.py").is_file():
        print(f"no combcool source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(record, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
