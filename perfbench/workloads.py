"""The benchmark's four workloads: seeded inputs, timed ops and output checks.

Every op calls barronlab only through public functions.  ``build`` makes a
workload's inputs from the benchmark seed; each op maps those inputs to an
output; ``check`` inspects that output, and anything captured while the
untimed warm-up round ran, and returns the list of checks that failed.

Checks whose failure is a defect described in ROADMAP.md are listed in
``KNOWN_DEFECTS``.  They still count as failed ops; they only do not mark
the run as incorrect, so the defect stays visible until a fix lands.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from barronlab import barron, greedy_fourier, lower_bounds, rates, relu_nets

RATES_SAMPLE_RTOL = 1e-9
SMOOTHED_ATOL = 1e-12
EVALUATE_RTOL = 1e-10
REFERENCE_NODES = 1500

# check name -> the ROADMAP item that describes why it fails today.
KNOWN_DEFECTS = {
    "certificate-below-reference": "ROADMAP item 3: tensor-quadrature "
                                   "certificate is not an upper bound",
    "gap-errors-not-positive": "ROADMAP item 4: normal-equation residual "
                               "cancels to 0 and is clamped",
}


@dataclass(frozen=True)
class Op:
    """One timed call.  ``run`` is timed; ``check`` runs outside timing."""

    id: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict, list], list]
    # Public functions whose results the warm-up round records for ``check``.
    capture: tuple[str, ...] = ()
    # Back-to-back calls per timed sample, so that each sample of an op
    # shorter than about 0.3 s still spans 0.3 s; the sample is their mean.
    repeat: int = 1


def geometric(lo: int, hi: int) -> list[int]:
    return [lo << i for i in range((hi // lo).bit_length())]


def fingerprint(output) -> str:
    """Text form of an op's output, compared across the rounds of one run.

    Results other than reports and arrays are compared by ``repr``, so a
    change of their internal layout cannot break the comparison.
    """
    if isinstance(output, rates.ExperimentReport):
        return rates.report_to_json(output)
    if isinstance(output, np.ndarray):
        return output.tobytes().hex()
    if isinstance(output, tuple):
        return "|".join(fingerprint(part) for part in output)
    return repr(output)


# ----------------------------------------------------------------------
# rates-harness ops, shared by spectral and geometry
# ----------------------------------------------------------------------

def rates_op(op_id: str, kind: str, params: dict, grid: list[int],
             verdict: str, value_check=None, capture=()) -> Op:
    """An op that runs one ``rates.run_experiment`` sweep.

    It fails if its verdict differs from ``verdict``, if the report carries
    failures, or if ``value_check(report, inputs, captured)`` objects.
    """

    def run(inputs):
        return rates.run_experiment(kind, params, grid, inputs["seed"])

    def check(report, inputs, captured):
        failed = []
        if report.failures:
            failed.append("report-failures")
        if report.verdict != verdict:
            failed.append(f"verdict-{report.verdict}")
        if value_check is not None:
            failed += value_check(report, inputs, captured)
        return failed

    return Op(op_id, run, check, capture)


# ----------------------------------------------------------------------
# spectral: barron, greedy_fourier, numerics.sobolev_weight, dyadic blocks
# ----------------------------------------------------------------------

def greedy_tail_errors(report) -> list:
    """Recompute the greedy tail errors from the rebuilt spectrum in NumPy."""
    cfg = report.config
    d, m, ks = cfg["d"], cfg["m"], cfg["ks"]
    fs = greedy_fourier.synthetic_heavy_tail(d, ks, cfg["xi_max"], cfg["seed"])
    freqs = fs.frequencies()
    coeffs = fs.coefficient_vector()
    index = np.rint(freqs * fs.L).astype(np.int64)
    keys = (1.0 + np.linalg.norm(freqs, axis=1)) ** (2.0 * m - ks) * np.abs(coeffs)
    order = np.lexsort(tuple(index[:, j] for j in reversed(range(d))) + (-keys,))
    eta = (np.asarray(fs.a) + freqs)[order]
    weight = np.ones(len(order))
    if m >= 1:  # the generated sweeps use m <= 1: w_1 = 1 + |2 pi eta|^2
        weight += np.sum((2.0 * np.pi * eta) ** 2, axis=1)
    mass = (np.abs(coeffs[order]) ** 2 * weight)[::-1].cumsum()[::-1]
    want = [math.sqrt(fs.L**d * mass[n]) if n < len(mass) else 0.0
            for n, _ in report.samples]
    got = [e for _, e in report.samples]
    if not np.allclose(got, want, rtol=RATES_SAMPLE_RTOL, atol=0.0):
        return ["tail-errors-mismatch"]
    return []


def dyadic_residuals(report) -> list:
    """Closed-form residual: root of sum (1 + |z|)^(-2 decay) over |z| >= 2^level."""
    xi_max, decay = int(report.config["xi_max"]), report.config["decay"]
    z = np.arange(-xi_max, xi_max + 1)
    sq = (1.0 + np.abs(z)) ** (-2.0 * decay)
    failed = []
    for n, got in report.samples:
        level = int(math.floor(math.log2(n)))
        floor = 2**level if level >= 1 else 0
        want = math.sqrt(float(np.sum(sq[np.abs(z) >= floor])))
        if not math.isclose(got, want, rel_tol=RATES_SAMPLE_RTOL):
            failed.append(f"residual-mismatch-n{n}")
    return failed


def scan_target(seed: int) -> Callable:
    """Seeded sum of four Gaussian bumps inside [0.5, 1.5]^2."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.5, 1.5, size=(4, 2))
    amplitudes = rng.uniform(0.5, 1.5, size=4)

    def f(pts):
        sq = ((np.asarray(pts)[:, None, :] - centers[None]) ** 2).sum(axis=2)
        return np.exp(-sq / (2.0 * 0.3**2)) @ amplitudes

    return f


SCAN_L, SCAN_Z_BOX, SCAN_GRID, SCAN_SUPPORT = 6.0, 24, 4, 2.0
SCAN_WEIGHT = barron.WeightSpec.polynomial(1.0)


def run_scan(inputs):
    return barron.scan_offset(inputs["scan_target"], 2, SCAN_L, SCAN_Z_BOX,
                              SCAN_WEIGHT, support_bound=SCAN_SUPPORT,
                              grid=SCAN_GRID)


def check_scan(output, inputs, captured) -> list:
    """The kept offset is a grid point and carries the least weighted mass."""
    best_a, fs = output
    grid = np.linspace(0.0, 1.0 / SCAN_L, SCAN_GRID, endpoint=False)
    failed = []
    if fs.a != best_a or not all(np.any(np.isclose(v, grid, rtol=0, atol=1e-15))
                                 for v in best_a):
        failed.append("offset-off-grid")
    masses = [barron.barron_norm(r, SCAN_WEIGHT) for r in captured["barron.periodize_expand"]]
    if len(masses) != SCAN_GRID**2:
        failed.append("periodization-count")
    elif barron.barron_norm(fs, SCAN_WEIGHT) != min(masses):
        failed.append("offset-not-argmin")
    if not np.all(np.isfinite(fs.coefficient_vector())):
        failed.append("non-finite-coefficients")
    return failed


def build_spectral(seed: int) -> dict:
    return {"seed": seed, "scan_target": scan_target(seed)}


GRID_2D = geometric(32, 4096)

SPECTRAL = (
    rates_op("greedy-fourier-d2-ks2-m0", rates.GREEDY_FOURIER,
             {"d": 2, "ks": 2.0, "m": 0, "xi_max": 400.0}, GRID_2D,
             rates.BOUND_SATISFIED, lambda r, i, c: greedy_tail_errors(r)),
    rates_op("greedy-fourier-d2-ks3-m1", rates.GREEDY_FOURIER,
             {"d": 2, "ks": 3.0, "m": 1, "xi_max": 300.0}, GRID_2D,
             rates.BOUND_SATISFIED, lambda r, i, c: greedy_tail_errors(r)),
    rates_op("greedy-fourier-d1-ks2-m0", rates.GREEDY_FOURIER,
             {"d": 1, "ks": 2.0, "m": 0, "xi_max": 1e5}, geometric(2, 1024),
             rates.BOUND_SATISFIED, lambda r, i, c: greedy_tail_errors(r)),
    rates_op("dyadic-residual", rates.DYADIC_RESIDUAL,
             {"xi_max": 65536.0}, geometric(2, 1024),
             rates.BOUND_SATISFIED, lambda r, i, c: dyadic_residuals(r)),
    Op("scan-offset-d2", run_scan, check_scan,
       capture=("barron.periodize_expand",)),
)


# ----------------------------------------------------------------------
# geometry: sphere_geom, packing witnesses, subsample
# ----------------------------------------------------------------------

def packing_identity(report, inputs, captured) -> list:
    reports = captured["lower_bounds.pairwise_separation"]
    if len(reports) != len(report.samples):
        return ["separation-report-count"]
    worst = max(r.identity_violation for r in reports)
    return [] if worst <= 1e-9 else ["identity-violation"]


def maurey_results(report, inputs, captured) -> list:
    results = captured["subsample.maurey_subsample"]
    big_n = report.config["N"]
    failed = []
    if len(results) != len(report.samples):
        failed.append("subsample-result-count")
    for (n, _), res in zip(report.samples, results):
        if len(res.indices) != n or not all(0 <= i < big_n for i in res.indices):
            failed.append(f"indices-out-of-range-n{n}")
        if min(res.deviations) < 0.0 or res.deviation < 0.0:
            failed.append(f"negative-deviation-n{n}")
    return failed


def build_geometry(seed: int) -> dict:
    return {"seed": seed}


GEOMETRY = (
    rates_op("sphere-cover-d3", rates.SPHERE_COVER, {"d": 3},
             geometric(8, 256), rates.BOUND_SATISFIED),
    rates_op("sphere-cover-d2", rates.SPHERE_COVER, {"d": 2},
             geometric(4, 128), rates.BOUND_SATISFIED),
    rates_op("packing-separation-fourier-d2", rates.PACKING_SEPARATION,
             {"family": "fourier", "d": 2, "k_or_s": 1.0}, geometric(8, 256),
             rates.INFORMATIONAL, packing_identity,
             capture=("lower_bounds.pairwise_separation",)),
    rates_op("subsample-concentration", rates.SUBSAMPLE_CONCENTRATION,
             {"N": 4096, "M": 64, "restarts": 256}, geometric(4, 1024),
             rates.BOUND_SATISFIED, maurey_results,
             capture=("subsample.maurey_subsample",)),
)


# ----------------------------------------------------------------------
# relu: relu_nets, numerics.tensor_nodes, lower_bounds.highfreq_gap
# ----------------------------------------------------------------------

UNIT_BOX_2 = [(0.0, 1.0)] * 2
UNIT_BOX_3 = [(0.0, 1.0)] * 3
BIAS_CAP = 2.0
GAP_OMEGAS = (2.0, 8.0, 16.0, 32.0, 64.0)
CERT_D2_CASES = ((2, 1), (1, 0), (3, 2))


def unit_l1_network(rng, width: int, d: int, k: int) -> relu_nets.ReluNetwork:
    """Uniform directions, b ~ U[0, 2], positive outer weights of l1 mass 1
    (the unit law of the width-independence acceptance check)."""
    omegas = rng.standard_normal((width, d))
    omegas /= np.linalg.norm(omegas, axis=1, keepdims=True)
    biases = rng.uniform(0.0, BIAS_CAP, width)
    raw = rng.uniform(0.2, 1.0, width)
    outer = raw / raw.sum()
    return relu_nets.relu_network(
        [(outer[i], omegas[i], biases[i], k) for i in range(width)]
    )


def smooth_target(seed: int) -> Callable:
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(2)
    phase = rng.uniform(0.0, 2.0 * np.pi)

    def f(pts):
        return np.sin(2.0 * np.pi * (np.asarray(pts) @ direction) + phase)

    return f


def build_relu(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "target": smooth_target(seed),
        "smooth_points": rng.random((40_000, 2)),
        "cert_net_d3": unit_l1_network(rng, 500, 3, 2),
        "cert_nets_d2": {(k, m): unit_l1_network(rng, 4, 2, k)
                         for k, m in CERT_D2_CASES},
        "eval_net": unit_l1_network(rng, 2000, 3, 2),
        "eval_points": rng.random((20_000, 3)),
    }


def run_smoothed(inputs):
    approx = relu_nets.compile_sobolev_approximant(
        inputs["target"], 2, relu_nets.CubePartition(2, 16), smoothing=100.0
    )
    return approx, approx.smoothed(inputs["smooth_points"])


def check_smoothed(output, inputs, captured) -> list:
    """smoothed(x) equals self(x) * phi_cell(x), the ramp of x's own cell."""
    approx, got = output
    pts = inputs["smooth_points"]
    cell = approx.partition.cell_index(pts)
    phi = np.empty(len(pts))
    for i in np.unique(cell):
        phi[cell == i] = approx.indicators[i](pts[cell == i])
    want = approx(pts) * phi
    return [] if np.max(np.abs(got - want)) <= SMOOTHED_ATOL else ["smoothed-mismatch"]


def reference_unit_norms(net, box, m: int) -> np.ndarray:
    """H^m norms of each unit by 1500-node-per-axis tensor Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(REFERENCE_NODES)
    (lo0, hi0), (lo1, hi1) = box
    x0, w0 = lo0 + (hi0 - lo0) * (nodes + 1) / 2, weights * (hi0 - lo0) / 2
    x1, w1 = lo1 + (hi1 - lo1) * (nodes + 1) / 2, weights * (hi1 - lo1) / 2
    norms = []
    for unit in net.units:
        (a0, a1), k = unit.direction, unit.power
        t = np.maximum(a0 * x0[:, None] + a1 * x1[None, :] + unit.bias, 0.0)
        sq = np.zeros_like(t)
        for r in range(m + 1):
            # Sum over |alpha| = r of prod omega_j^(2 alpha_j).
            dir_sum = sum(a0 ** (2 * i) * a1 ** (2 * (r - i)) for i in range(r + 1))
            falling = math.factorial(k) / math.factorial(k - r)
            deriv = falling * (t ** (k - r) if k > r else (t > 0).astype(float))
            sq += dir_sum * deriv**2
        norms.append(math.sqrt(float(w0 @ sq @ w1)))
    return np.array(norms)


def cert_op(op_id: str, key, box, m: int, repeat: int) -> Op:
    def run(inputs):
        net = inputs["cert_net_d3"] if key is None else inputs["cert_nets_d2"][key]
        return relu_nets.network_hm_upper(net, box, m, BIAS_CAP)

    def check(result, inputs, captured):
        failed = []
        if result.bound != result.max_unit_norm * result.ell1:
            failed.append("bound-not-max-norm-times-ell1")
        if key is not None:
            net = inputs["cert_nets_d2"][key]
            reference = float(np.max(reference_unit_norms(net, box, m))) * net.ell1
            if result.bound < reference:
                failed.append("certificate-below-reference")
        return failed

    return Op(op_id, run, check, repeat=repeat)


def run_evaluate(inputs):
    return relu_nets.evaluate_network(inputs["eval_net"], inputs["eval_points"])


def check_evaluate(got, inputs, captured) -> list:
    net, pts = inputs["eval_net"], inputs["eval_points"]
    omegas = np.array([u.direction for u in net.units])
    biases = np.array([u.bias for u in net.units])
    outer = np.array([u.outer.real for u in net.units])
    want = np.concatenate([
        np.maximum(chunk @ omegas.T + biases, 0.0) ** 2 @ outer
        for chunk in np.array_split(pts, 20)
    ])
    ok = np.allclose(got, want, rtol=EVALUATE_RTOL, atol=EVALUATE_RTOL * np.max(np.abs(want)))
    return [] if ok else ["evaluate-mismatch"]


def gap_op(omega0: float) -> Op:
    def run(inputs):
        return lower_bounds.highfreq_gap(1.0, omega0, 16, 256, seed=inputs["seed"])

    def check(probe, inputs, captured):
        errors = np.array(probe.errors_by_width)
        failed = []
        if not np.all(errors > 0.0):
            failed.append("gap-errors-not-positive")
        if np.any(np.diff(errors) > 0.0):
            failed.append("gap-errors-increasing")
        return failed

    return Op(f"gap-omega{omega0:g}", run, check, repeat=3)


GAPS = [gap_op(omega0) for omega0 in GAP_OMEGAS]
CERTS_D2 = [cert_op(f"hm-upper-d2-w4-k{k}-m{m}", (k, m), UNIT_BOX_2, m, repeat=300)
            for k, m in CERT_D2_CASES]

# Short ops sit between long ones, so their samples come from different
# moments of the round and one burst of machine noise cannot cover them all.
RELU = (
    GAPS[0],
    rates_op("sobolev-compile-d2", rates.SOBOLEV_COMPILE, {"d": 2, "ell": 2},
             geometric(2, 64), rates.BOUND_SATISFIED),
    CERTS_D2[0],
    GAPS[1],
    Op("smoothed-q16-d2", run_smoothed, check_smoothed),
    GAPS[2],
    CERTS_D2[1],
    cert_op("hm-upper-d3-w500-k2-m1", None, UNIT_BOX_3, 1, repeat=1),
    GAPS[3],
    Op("evaluate-w2000-k2", run_evaluate, check_evaluate, repeat=2),
    CERTS_D2[2],
    GAPS[4],
)


# ----------------------------------------------------------------------
# cli-desk: the README's example commands
# ----------------------------------------------------------------------

# (argv, README seed, output format).  The benchmark seed is added to the
# README seed, so seed 0 runs the README commands exactly.
CLI_COMMANDS = (
    ("exponents --d 2 --m 0 --k 1 --s 0.5", 0, "json"),
    ("greedy-fourier --d 1 --ks 2 --m 0 --n-grid 2:256", 7, "csv"),
    ("relu-compile --ell 2 --q 8", 0, "csv"),
    ("monomial-check --k 4", 0, "json"),
    ("sphere-net --d 3 --m 64", 5, "csv"),
    ("subsample --N 256 --n 64 --M 10 --restarts 64", 1, "csv"),
    ("packing --kind relu --d 2 --k 2 --n 32 --format json", 0, "json"),
    ("dyadic --xi-max 128", 0, "csv"),
    ("example1-gap --omega0-grid 8,16,32,64 --units 8 --candidates 512", 0, "csv"),
    ("example2-tail --m 0 --A 2", 0, "json"),
    ("witness --n 8 --k 1 --d 1 --m 1", 0, "json"),
    ("rates --kind sobolev-compile --n-grid 2:64 --param ell=2", 0, "json"),
)


def build_cli(seed: int) -> dict:
    commands = []
    for text, readme_seed, fmt in CLI_COMMANDS:
        argv = text.split() + ["--seed", str(readme_seed + seed)]
        commands.append((argv[0], argv, fmt))
    return {"seed": seed, "commands": commands}


def check_cli_output(fmt: str, code: int, stdout: str) -> list:
    """Exit code 0 and stdout that parses as the command's format."""
    failed = [] if code == 0 else [f"exit-{code}"]
    try:
        if fmt == "json":
            json.loads(stdout)
        else:
            rows = list(csv.reader(io.StringIO(stdout)))
            if not rows or any(len(r) != len(rows[0]) for r in rows):
                raise ValueError("ragged or empty CSV")
            for value in (v for r in rows[1:] for v in r if ";" not in v):
                float(value)  # cell centres in d > 1 are ';'-joined
    except ValueError:
        failed.append("unparsable-stdout")
    return failed


WORKLOADS = {
    "spectral": (build_spectral, SPECTRAL),
    "geometry": (build_geometry, GEOMETRY),
    "relu": (build_relu, RELU),
    "cli-desk": (build_cli, None),
}
