"""One benchmark process: ``setup``, a timed ``run``, or a ``trace`` run.

run.py starts each mode in a fresh interpreter with BLAS and OpenMP pinned to
one thread and barronlab importable from the checkout's ``src``.  The
process prints one JSON object on its last stdout line.

- ``setup`` imports barronlab, builds the workload's inputs, prints
  ``ready`` and exits; run.py times it from process start.
- ``run`` makes one untimed warm-up round (cli-desk has none: its users pay
  the cold start on every invocation), then the timed rounds, each sample
  between two host-speed probes, reads the peak RSS, and only then checks
  the outputs.
- ``trace`` makes a warm-up round and one untraced round, then runs the same
  round under the tracer, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import subprocess
import sys
import time

import numpy as np

import hostspeed
import tracer
import workloads

# Nominal seconds of one timed round, host-speed probes included, on the
# machine the benchmark was defined on.  Rounds per run derive from them, so
# the sample count, and with it the percentile op_tail_s reads, does not
# depend on how fast the host happens to be.
ROUND_S = {"spectral": 7.5, "geometry": 9.0, "relu": 9.0, "cli-desk": 4.0}
MIN_ROUNDS = 3
MAX_RUN_S = 120.0


def timed_rounds(workload: str, seconds: float, one_round) -> None:
    """Call ``one_round`` for the workload's round count at ``seconds``.

    A host so slow that the rounds pass MAX_RUN_S stops early.
    """
    began = time.perf_counter()
    for _ in range(max(MIN_ROUNDS, int(seconds / ROUND_S[workload]))):
        one_round()
        if time.perf_counter() - began > MAX_RUN_S:
            break


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

def call(op, inputs, repeat=1):
    """Run one op ``repeat`` times back to back and return the last output.

    An exception is an output like any other (and a failure).
    """
    try:
        for _ in range(repeat):
            out = op.run(inputs)
    except Exception as exc:  # the benchmark must report, not stop
        return exc
    return out


def warm_up(ops, inputs):
    """Untimed round: each op's output, captured results and fingerprint."""
    outputs, captured = {}, {}
    for op in ops:
        sink = {}
        with tracer.capture(op.capture, sink):
            outputs[op.id] = call(op, inputs)
        captured[op.id] = sink
    reference = {op.id: workloads.fingerprint(outputs[op.id]) for op in ops}
    return outputs, captured, reference


def series(keys):
    """Empty per-op lists of latencies and output fingerprints."""
    keys = list(keys)
    return {k: [] for k in keys}, {k: [] for k in keys}


def timed_round(ops, inputs, times, prints, tr=None, walls=None):
    """Time every op once, in order.

    With ``walls``, each sample is timed between two host-speed probes:
    ``times`` gets reference seconds and ``walls`` wall seconds.  Without it
    ``times`` gets wall seconds; the traced comparison runs so, because the
    probes would sit outside every span.
    """
    for op in ops:
        if tr is not None:
            tr.op = op.id
        gc.collect()  # garbage of the previous op is not this op's cost
        if walls is None:
            start = time.perf_counter()
            out = call(op, inputs, op.repeat)
            times[op.id].append((time.perf_counter() - start) / op.repeat)
        else:
            out, wall, ref = hostspeed.timed(lambda: call(op, inputs, op.repeat))
            times[op.id].append(ref / op.repeat)
            walls[op.id].append(wall / op.repeat)
        prints[op.id].append(workloads.fingerprint(out))


def check_ops(ops, inputs, outputs, captured) -> dict:
    """op id -> failed check names, from the warm-up outputs."""
    result = {}
    for op in ops:
        out = outputs[op.id]
        if isinstance(out, Exception):
            result[op.id] = [f"raised-{type(out).__name__}: {out}"]
            continue
        try:
            result[op.id] = op.check(out, inputs, captured[op.id])
        except Exception as exc:  # a check that cannot run is a failed check
            result[op.id] = [f"check-raised-{type(exc).__name__}: {exc}"]
    return result


def invocations(checks, reference, prints) -> tuple[dict, int, int]:
    """Add output drift to the checks; count attempted and failed invocations."""
    attempted = failed = 0
    for op_id, seen in prints.items():
        if any(p != reference[op_id] for p in seen):
            checks[op_id].append("output-differs-across-rounds")
        attempted += len(seen)
        failed += len(seen) if checks[op_id] else 0
    return checks, attempted, failed


def run_in_process(name, seed, seconds):
    build, ops = workloads.WORKLOADS[name]
    inputs = build(seed)
    outputs, captured, reference = warm_up(ops, inputs)
    times, prints = series(op.id for op in ops)
    walls = {op.id: [] for op in ops}
    timed_rounds(name, seconds, lambda: timed_round(ops, inputs, times, prints, walls=walls))
    rss = peak_rss_mb()
    checks, attempted, failed = invocations(
        check_ops(ops, inputs, outputs, captured), reference, prints)
    return {"times": times, "walls": walls, "checks": checks, "attempted": attempted,
            "failed": failed, "peak_rss_mb": rss}


def trace_in_process(name, seed):
    build, ops = workloads.WORKLOADS[name]
    inputs = build(seed)
    outputs, captured, reference = warm_up(ops, inputs)
    plain = series(op.id for op in ops)
    timed_round(ops, inputs, *plain)
    traced = series(op.id for op in ops)
    tr = tracer.Tracer()
    with tr.patch():
        started = time.perf_counter()
        timed_round(ops, inputs, *traced, tr=tr)
        wall = time.perf_counter() - started
    checks = check_ops(ops, inputs, outputs, captured)
    for op in ops:
        if traced[1][op.id] != plain[1][op.id]:
            checks[op.id].append("traced-output-differs")
    checks, attempted, failed = invocations(checks, reference, traced[1])
    return {"layers": tr.layer_metrics(), "checks": checks,
            "attempted": attempted, "failed": failed,
            "untraced": plain[0], "traced": traced[0],
            "coverage": tr.root_seconds() / wall, "tracer": tr}


# ----------------------------------------------------------------------
# cli-desk
# ----------------------------------------------------------------------

def cli_subprocess_rounds(commands, seconds):
    """Run every command once per round, cold and in sequence.

    Each invocation is timed between two host-speed probes; returns its
    reference seconds, wall seconds, stdout and exit code per subcommand.
    """
    times, stdout = series(sub for sub, _, _ in commands)
    walls = {sub: [] for sub in times}
    codes = {sub: [] for sub in times}

    def one_round():
        for sub, argv, _ in commands:
            proc, wall, ref = hostspeed.timed(lambda: subprocess.run(
                [sys.executable, "-m", "barronlab.cli", *argv],
                capture_output=True, check=False))
            times[sub].append(ref)
            walls[sub].append(wall)
            stdout[sub].append(proc.stdout)
            codes[sub].append(proc.returncode)

    timed_rounds("cli-desk", seconds, one_round)
    return times, walls, stdout, codes


def cli_checks(commands, stdout, codes) -> dict:
    checks = {}
    for sub, _, fmt in commands:
        failed = []
        for code, out in zip(codes[sub], stdout[sub]):
            failed += workloads.check_cli_output(fmt, code, out.decode())
        if len(set(stdout[sub])) > 1:
            failed.append("stdout-differs-across-rounds")
        checks[sub] = sorted(set(failed))
    return checks


def run_cli(seed, seconds):
    commands = workloads.build_cli(seed)["commands"]
    times, walls, stdout, codes = cli_subprocess_rounds(commands, seconds)
    checks = cli_checks(commands, stdout, codes)
    attempted = sum(len(v) for v in times.values())
    failed = sum(len(times[sub]) for sub in checks if checks[sub])
    return {"times": times, "walls": walls, "checks": checks, "attempted": attempted,
            "failed": failed, "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}


def dispatch_round(commands, times, outputs, tr=None):
    """Call cli.dispatch in-process for every command, capturing stdout."""
    from barronlab import cli

    for sub, argv, _ in commands:
        if tr is not None:
            tr.op = sub
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.dispatch(argv)
        times[sub].append(time.perf_counter() - start)
        outputs[sub].append((code, buf.getvalue().encode()))


def trace_cli(seed):
    commands = workloads.build_cli(seed)["commands"]
    subs = [sub for sub, _, _ in commands]
    _, times, stdout, codes = cli_subprocess_rounds(commands, 0.0)  # MIN_ROUNDS rounds
    checks = cli_checks(commands, stdout, codes)
    dispatch_round(commands, *series(subs))  # warm-up
    plain = series(subs)
    dispatch_round(commands, *plain)
    traced = series(subs)
    tr = tracer.Tracer()
    with tr.patch():
        started = time.perf_counter()
        dispatch_round(commands, *traced, tr=tr)
        wall = time.perf_counter() - started
    for sub in subs:
        if traced[1][sub] != plain[1][sub]:
            checks[sub].append("traced-output-differs")
        if traced[1][sub][0] != (codes[sub][0], stdout[sub][0]):
            checks[sub].append("dispatch-differs-from-subprocess")
    layers = tr.layer_metrics()
    for sub in subs:
        layers[f"cli.{sub}.p50_s"] = (float(np.median(times[sub])), "s",
                                      f"median of {len(times[sub])} cold runs")
    failed = sum(1 for sub in subs if checks[sub])
    return {"layers": layers, "checks": checks, "attempted": len(subs),
            "failed": failed, "untraced": plain[0], "traced": traced[0],
            "coverage": tr.root_seconds() / wall, "tracer": tr}


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--spans", default=None, help="write trace spans here")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        build, _ = workloads.WORKLOADS[args.workload]
        build(args.seed)
        print("ready", flush=True)
        return 0
    is_cli = args.workload == "cli-desk"
    if args.mode == "run":
        result = (run_cli(args.seed, args.seconds) if is_cli
                  else run_in_process(args.workload, args.seed, args.seconds))
    else:
        result = (trace_cli(args.seed) if is_cli
                  else trace_in_process(args.workload, args.seed))
        tr = result.pop("tracer")
        if args.spans:
            tr.dump(args.spans)
    result["known"] = workloads.KNOWN_DEFECTS
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
