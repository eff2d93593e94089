"""Benchmark of the loadshed package.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the root of a checkout; the package is imported from its ``src/``.
One workload runs in one process, one scenario at a time (closed loop, a
single client), repeating its pool of generated scenarios until ``--seconds``
have passed.  Every scenario's output is checked against the oracle, and the
workload's golden cases against golden.json.  The last stdout line is one JSON
object: ``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed; ``--trace 1`` spends half the time untraced and half with spans
recorded around the package's public functions, and reports the per-layer
metrics and the tracing overhead.  ``--workload all`` runs each workload in
its own process, one after another.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import golden
from layers import UNITS, LayerHooks, per_layer_metrics
from calibrate import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = golden.BENCH_DIR
ROOT = golden.ROOT
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
MODULES = ("cli", "criticality", "netgraph", "oracle", "protocol", "rootfind", "scenario", "seeding")
END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_s_p50": "s",
    "peak_rss_mb": "MB",
}


def import_package() -> SimpleNamespace:
    """Import loadshed afresh from the checkout's src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "loadshed" or m.startswith("loadshed.")]:
        del sys.modules[name]
    pkg = SimpleNamespace(**{m: importlib.import_module(f"loadshed.{m}") for m in MODULES})
    if not Path(pkg.scenario.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"loadshed imported from {pkg.scenario.__file__}, not {SRC}")
    return pkg


def set_up(workload, seed: int, workdir: Path):
    """Import the package and make the inputs, several times; the last copy is used.

    Returns the package, the inputs, and the speed-scaled seconds of each
    set-up and of each generate_scenario call.
    """
    probe = SpeedProbe()
    times, gen_times = [], []
    for _ in range(SETUP_REPEATS):
        generated = []
        with probe.timing() as timing:
            pkg = import_package()
            items = workload.setup(pkg, seed, workdir, generated)
        times.append(timing.scaled)
        gen_times += [g * timing.factor for g in generated]
    return pkg, items, times, gen_times


def run_phase(workload, pkg, items, seconds: float, probe: SpeedProbe, tracer=None, hooks=None):
    """Closed loop over the pool until ``seconds`` pass; at least one scenario.

    Returns (samples, errors): samples are (pool index, wall seconds, speed
    factor, root span id, end span id), errors are (label, message).
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    samples, errors = [], []
    deadline = perf_counter() + seconds
    k = 0
    while True:
        index = k % len(items)
        item = items[index]
        root = len(tracer.start) if tracer is not None else -1
        with span("bench.scenario"), probe.timing() as timing:
            try:
                output = workload.execute(pkg, item)
                with span("bench.verify"):
                    error = workload.verify(pkg, item, output)
            except Exception:  # a failing scenario is counted, not fatal
                error = traceback.format_exc()
        stop = len(tracer.start) if tracer is not None else -1
        if hooks is not None:
            hooks.end_scenario()
        samples.append((index, timing.seconds, timing.factor, root, stop))
        if error:
            errors.append((item.label, error))
            print(f"FAILED {item.label}: {error}", file=sys.stderr)
        k += 1
        if perf_counter() >= deadline:
            return samples, errors


def check_golden(workload, pkg, workdir: Path):
    """Run the workload's golden cases; returns (attempted, errors)."""
    errors = []
    for name, with_csv in workload.golden:
        try:
            bad = golden.check_case(pkg, name, workdir, with_csv)
        except Exception:
            bad = [traceback.format_exc()]
        if bad:
            errors.append((f"golden {name}", f"digest mismatch: {bad}"))
            print(f"FAILED golden {name}: {bad}", file=sys.stderr)
    return len(workload.golden), errors


def record_overhead(pkg, item) -> float:
    """Recorded minus unrecorded engine time on one scenario, untraced."""
    inst = pkg.scenario.build_instance(item.config)
    probe = SpeedProbe()
    seconds = {}
    for record in (False, True):
        with probe.timing() as timing:
            pkg.protocol.run_protocol(inst, record_trace=record)
        seconds[record] = timing.scaled
    return seconds[True] - seconds[False]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    print(f"env {json.dumps(environment(seed), sort_keys=True)}")
    workdir = OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sys.path.insert(0, str(SRC))
        pkg, items, setup_times, gen_times = set_up(workload, seed, workdir)
        print(f"workload {name}: pool of {len(items)} scenarios: "
              + " ".join(item.label for item in items))
        if trace:
            untraced, errors = run_phase(workload, pkg, items, seconds / 2, SpeedProbe())
            overhead = record_overhead(pkg, items[0])
            tracer, hooks, probe = Tracer(), LayerHooks(), SpeedProbe()
            hooks.install(tracer, pkg)
            try:
                traced, traced_errors = run_phase(
                    workload, pkg, items, seconds / 2, probe, tracer, hooks
                )
            finally:
                tracer.uninstall()
            errors += traced_errors
            samples = untraced + traced
        else:
            samples, errors = run_phase(workload, pkg, items, seconds, SpeedProbe())
        golden_attempted, golden_errors = check_golden(workload, pkg, workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    attempted = len(samples) + golden_attempted
    failed = len(errors) + len(golden_errors)
    wall = [s for _, s, _, _, _ in samples]
    scaled = [s * f for _, s, f, _, _ in samples]
    factors = [f for _, _, f, _, _ in samples]
    print(f"workload {name} seed {seed}: {len(samples)} scenarios in {sum(wall):.3f} s wall, "
          f"speed factor median {statistics.median(factors):.4f} "
          f"(min {min(factors):.4f}, max {max(factors):.4f}); {golden_attempted} golden cases")
    for index, item in enumerate(items):
        mine = [s * f for i, s, f, _, _ in samples if i == index]
        if mine:
            print(f"  {item.label}: n={len(mine)} median {statistics.median(mine):.6g} s")
    print(f"failed_ratio {failed / attempted:.6g} fraction ({failed} of {attempted} attempted)")
    if trace:
        metrics = per_layer_metrics(
            tracer, hooks, [(i, f, r, e) for i, _, f, r, e in traced],
            [(i, s * f) for i, s, f, _, _ in untraced], gen_times, overhead, probe.intervals,
        )
        units = UNITS
        residual = metrics["bench.self_time_residual_ratio"]
        overhead_ratio = metrics["bench.trace_overhead_ratio"]
        verdict = "PASS" if abs(residual) <= abs(overhead_ratio) + 0.02 else "FAIL"
        print(f"self-time check {verdict}: layer self times sum to {1 + residual:.4f} x the "
              f"untraced scenario time; tracing overhead {overhead_ratio:+.4f} (tolerance 0.02)")
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
        tracer.write_csv(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "scenarios_per_s": (len(samples) - len(errors)) / sum(scaled),
            "scenario_s_p50": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        print(f"wall-clock scenario median {statistics.median(wall):.6g} s (not speed-scaled)")
        tail = high_percentile(scaled)
        if tail:
            print(f"scenario_s_p{tail[0]} {tail[1]:.6g} s (n={len(scaled)})")
    notes = {"scenario_s_p50": f" (median of n={len(scaled)} scenarios)",
             "setup_s": f" (median of {SETUP_REPEATS} set-ups)"}
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}{notes.get(key, '')}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loadshed" / "__init__.py").is_file():
        print(f"error: no loadshed package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
