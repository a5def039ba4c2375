#!/usr/bin/env python3
"""barronlab benchmark: four seeded workloads, timed from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a separate traced run; ``--workload all`` runs both
for every workload.  Human-readable lines (run record, every output check,
every metric with its unit) come first; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each measurement runs in a fresh interpreter (perfbench/worker.py) with
BLAS/OpenMP pinned to one thread and ``src`` on PYTHONPATH, one at a time.
Times are in reference seconds (perfbench/hostspeed.py), with the wall
figure printed beside each.  Only the stdlib is used here; the workers use
NumPy and barronlab.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectral", "geometry", "relu", "cli-desk")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50)
TAIL_BEYOND = 10


class BenchmarkError(RuntimeError):
    """A benchmark process failed; no result is printed."""


def environment() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def python(args, env, **kwargs) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, timeout=CHILD_TIMEOUT_S,
                          check=False, **kwargs)
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(args[:3])} exited {proc.returncode}:\n"
                             + proc.stderr.decode(errors="replace")[-2000:])
    return proc


def worker(mode, workload, seed, seconds, env, *extra) -> dict:
    proc = python([str(HERE / "worker.py"), mode, "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), *extra], env)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def time_setup(workload, seed, env) -> tuple[float, float]:
    """Reference and wall seconds from process start until the inputs are built."""
    args = [sys.executable, str(HERE / "worker.py"), "setup",
            "--workload", workload, "--seed", str(seed)]
    before = hostspeed.kernel_s()
    start = time.perf_counter()
    with subprocess.Popen(args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchmarkError(f"setup of {workload} failed")
    return hostspeed.reference_s(elapsed, before, hostspeed.kernel_s()), elapsed


def time_import(env) -> float:
    code = ("import time; t = time.perf_counter(); import barronlab.cli; "
            "print(time.perf_counter() - t)")
    return float(python(["-c", code], env).stdout)


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); with too few samples for
    any listed percentile it is the maximum, with 0 beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100.0, 0


def run_record(workload, seed, seconds, trace) -> list[str]:
    numpy_info = subprocess.run(
        [sys.executable, "-c",
         "import numpy; c = numpy.show_config(mode='dicts')['Build Dependencies']"
         "['blas']; print(numpy.__version__, c['name'], c['version'])"],
        capture_output=True, text=True, check=False).stdout.split()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return [
        f"run record: workload={workload} seed={seed} seconds={seconds} trace={trace}",
        f"  commit={commit}",
        f"  python={platform.python_version()} numpy={' '.join(numpy_info[:1])} "
        f"blas={' '.join(numpy_info[1:])}",
        f"  nproc={os.cpu_count()} threads pinned to 1 via {','.join(THREAD_VARS)}",
    ]


def check_lines(checks: dict, known: dict) -> tuple[list[str], bool]:
    """One line per op check; the run stays correct if only known defects fail."""
    lines, correct = [], True
    for op_id, failed in checks.items():
        if not failed:
            lines.append(f"check {op_id}: ok")
            continue
        notes = []
        for name in failed:
            if name in known:
                notes.append(f"{name} [known defect, {known[name]}]")
            else:
                notes.append(name)
                correct = False
        lines.append(f"check {op_id}: FAIL " + "; ".join(notes))
    return lines, correct


def latencies(workload, times) -> tuple[float, float, tuple, str]:
    """Sweep, p50, tail (value, percentile, beyond) and the samples counted."""
    rounds = len(next(iter(times.values())))
    if workload == "cli-desk":
        samples, what = [t for op_times in times.values() for t in op_times], "invocations"
    else:
        # In-process ops differ in size by 100x, so one op of such a sweep is
        # a whole round: every op of the workload once, back to back.
        samples = [sum(op_times[i] for op_times in times.values()) for i in range(rounds)]
        what = "rounds"
    return (sum(statistics.median(v) for v in times.values()), statistics.median(samples),
            tail(samples), f"n={len(samples)} {what}")


def end_to_end(workload, seed, seconds, env) -> tuple[dict, list[str], dict]:
    # Setup is probed before and after the run, so the probes meet the host
    # at two different moments.
    setups = [time_setup(workload, seed, env) for _ in range(SETUP_PROBES // 2)]
    result = worker("run", workload, seed, seconds, env)
    setups += [time_setup(workload, seed, env) for _ in range(SETUP_PROBES - len(setups))]
    times = result["times"]
    rounds = len(next(iter(times.values())))
    sweep, p50, (value, pct, beyond), counted = latencies(workload, times)
    wall = latencies(workload, result["walls"])
    wall_setup = statistics.median(s[1] for s in setups)
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        "sweep_s": (sweep, "s", f"sum over {len(times)} ops of the median of {rounds} "
                    f"rounds; wall {wall[0]:.4f} s"),
        "op_p50_s": (p50, "s", f"{counted}; wall {wall[1]:.4f} s"),
        "op_tail_s": (value, "s", f"p{pct:g}, {counted}, {beyond} beyond; "
                      f"wall p{wall[2][1]:g} {wall[2][0]:.4f} s"),
        "setup_s": (statistics.median(s[0] for s in setups), "s",
                    f"median of {len(setups)} fresh processes; wall {wall_setup:.4f} s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB",
                        "max over child processes" if workload == "cli-desk"
                        else "worker process"),
    }
    lines = [f"failed_ops {failed / attempted:.4f} fraction ({failed} of {attempted} op runs)"]
    return metrics, lines, result


def per_layer(workload, seed, seconds, env) -> tuple[dict, list[str], dict]:
    imports = [time_import(env) for _ in range(IMPORT_PROBES)]
    spans = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    result = worker("trace", workload, seed, seconds, env, "--spans", str(spans))
    metrics = {name: tuple(entry) for name, entry in result["layers"].items()}
    metrics["cli.import_s"] = (statistics.median(imports), "s",
                               f"median of {len(imports)} fresh imports")
    plain = sum(sum(v) for v in result["untraced"].values())
    traced = sum(sum(v) for v in result["traced"].values())
    metrics["trace.span_coverage"] = (result["coverage"], "ratio",
                                      "root-span time over the traced round's wall time")
    metrics["trace.overhead_s"] = (traced - plain, "s",
                                   f"traced {traced:.4f} s - untraced {plain:.4f} s")
    lines = [f"span coverage of the traced round: {result['coverage']:.4f}",
             f"tracing overhead: {traced - plain:+.4f} s "
             f"({(traced - plain) / plain:+.2%} of the untraced round)",
             f"spans written to {spans.relative_to(ROOT)}"]
    return metrics, lines, result


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def measure(workload, seed, seconds, trace, env) -> tuple[dict, list[str]]:
    """Run one workload in one mode; return its JSON result and report lines."""
    lines = run_record(workload, seed, seconds, trace)
    fn = per_layer if trace == "1" else end_to_end
    metrics, extra, result = fn(workload, seed, seconds, env)
    wanted = declared()[trace]
    for name in sorted({m["name"] for m in wanted} - set(metrics)):
        per_subcommand = name.startswith("cli.") and name.endswith(".p50_s")
        if workload == "cli-desk" or not per_subcommand:
            raise BenchmarkError(f"metric not produced: {name}")
        metrics[name] = (0.0, "s", "measured on cli-desk only")
    check, correct = check_lines(result["checks"], result["known"])
    lines += check + extra
    out = {}
    for m in wanted:
        value, unit, note = metrics[m["name"]]
        lines.append(f"{m['name']} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "barronlab" / "__init__.py").is_file():
        print(f"error: no barronlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    # Turn SIGTERM into an exception, so subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        python(["-c", "import barronlab.cli"], env)  # compile bytecode once
        if args.workload != "all":
            result, lines = measure(args.workload, args.seed, args.seconds,
                                    args.trace, env)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                result, lines = measure(workload, args.seed, args.seconds, trace, env)
                print(f"== {workload} trace={trace}")
                print("\n".join(lines), flush=True)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                combined["metrics"].update(
                    {f"{workload}.{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(combined))
        return 0
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
