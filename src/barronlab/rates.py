"""Experiment harness: sweep a size parameter, collect errors from the
constructive modules, fit the log-log slope, and render a verdict against
the predicted decay exponent.

Rate checks are one-sided: a synthetic input may decay faster than the
class-worst case, so the verdict only asks that the measured slope be at
least as steep as the predicted bound (within tolerance).  Every per-n run
derives its seed as master_seed XOR run index, making reports reproducible
bit for bit.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import greedy_fourier, lower_bounds, relu_nets, sphere_geom, subsample
from .numerics import RateFit, loglog_fit

GREEDY_FOURIER = "greedy-fourier"
SOBOLEV_COMPILE = "sobolev-compile"
SPHERE_COVER = "sphere-cover"
SUBSAMPLE_CONCENTRATION = "subsample-concentration"
PACKING_SEPARATION = "packing-separation"
DYADIC_RESIDUAL = "dyadic-residual"

EXPERIMENT_KINDS = (
    GREEDY_FOURIER,
    SOBOLEV_COMPILE,
    SPHERE_COVER,
    SUBSAMPLE_CONCENTRATION,
    PACKING_SEPARATION,
    DYADIC_RESIDUAL,
)

BOUND_SATISFIED = "bound-satisfied"
BOUND_VIOLATED = "bound-violated"
INFORMATIONAL = "informational"

DEFAULT_SLOPE_TOLERANCE = 0.15


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    config: dict
    samples: tuple[tuple[int, float], ...]
    fit: RateFit | None
    predicted_exponent: float
    verdict: str
    seconds: float
    failures: tuple[str, ...] = field(default=(), compare=False)


def _verdict(fit: RateFit | None, predicted: float, tolerance: float,
             informational: bool) -> str:
    """Pure verdict rule: slope <= -predicted + tolerance means satisfied."""
    if informational or fit is None:
        return INFORMATIONAL
    return BOUND_SATISFIED if fit.slope <= -predicted + tolerance else BOUND_VIOLATED


def _validate_grid(n_grid: Sequence[int]) -> list[int]:
    grid = [int(n) for n in n_grid]
    if len(grid) < 4:
        raise ValueError("n grid needs at least 4 points for a slope fit")
    if min(grid) < 1:
        raise ValueError(f"n grid values must be >= 1, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n grid must be strictly increasing")
    if math.log10(grid[-1] / grid[0]) < 1.5:
        raise ValueError("n grid must span at least 1.5 decades")
    return grid


def run_experiment(kind: str, params: dict | None, n_grid: Sequence[int],
                   seed: int = 0) -> ExperimentReport:
    """Run one error sweep and fit its rate.

    ``params`` carries kind-specific knobs (dimensions, smoothness, widths);
    unspecified entries fall back to the defaults documented per kind below.
    A sub-run that fails a precondition (``ValueError`` or
    ``ConvergenceError``) is recorded and downgrades the verdict to
    informational while keeping the samples collected so far; any other
    exception propagates.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    params = dict(params or {})
    grid = _validate_grid(n_grid)
    tolerance = float(params.pop("tolerance", DEFAULT_SLOPE_TOLERANCE))
    started = time.perf_counter()
    samples: list[tuple[int, float]] = []
    failures: list[str] = []
    informational = kind == PACKING_SEPARATION

    runner, predicted, config = _build_runner(kind, params, grid, seed)
    for index, n in enumerate(grid):
        run_seed = seed ^ index
        try:
            samples.append((n, float(runner(n, run_seed))))
        except (ValueError, lower_bounds.ConvergenceError) as exc:
            failures.append(f"n={n}: {exc}")
    fit = None
    if len({n for n, _ in samples}) >= 2 and all(e > 0 for _, e in samples):
        fit = loglog_fit(samples)
    verdict = _verdict(fit, predicted, tolerance,
                       informational or bool(failures))
    seconds = time.perf_counter() - started
    config.update({"seed": seed, "n_grid": grid, "tolerance": tolerance})
    return ExperimentReport(
        kind=kind,
        config=config,
        samples=tuple(samples),
        fit=fit,
        predicted_exponent=predicted,
        verdict=verdict,
        seconds=seconds,
        failures=tuple(failures),
    )


def _build_runner(kind: str, params: dict, grid: list[int], seed: int):
    """Resolve a kind to (per-n error function, predicted exponent, config)."""
    if kind == GREEDY_FOURIER:
        d = int(params.get("d", 1))
        ks = float(params.get("ks", 2.0))
        m = int(params.get("m", 0))
        xi_max = float(params.get("xi_max", max(400.0, 1.5 * grid[-1])))
        fs = greedy_fourier.synthetic_heavy_tail(d, ks, xi_max, seed)
        sel = greedy_fourier.order_frequencies(fs, m, ks)
        predicted = 0.5 + (ks - m) / d
        config = {"d": d, "ks": ks, "m": m, "xi_max": xi_max}

        def runner(n, _):
            return greedy_fourier.tail_error_hm(fs, sel, n, m)

        return runner, predicted, config

    if kind == SOBOLEV_COMPILE:
        d = int(params.get("d", 1))
        ell = int(params.get("ell", 2))
        cycles = float(params.get("cycles", 1.0))
        predicted = float(params.get("s", ell))
        config = {"d": d, "ell": ell, "cycles": cycles, "s": predicted}

        def f(pts):
            return np.sin(2.0 * np.pi * cycles * np.asarray(pts)[:, 0])

        def runner(q, _):
            approx = relu_nets.compile_sobolev_approximant(
                f, ell, relu_nets.CubePartition(d, q)
            )
            return approx.sup_error(f)

        return runner, predicted, config

    if kind == SPHERE_COVER:
        d = int(params.get("d", 2))
        predicted = 1.0 / (d - 1)
        config = {"d": d}

        def runner(m, run_seed):
            net = sphere_geom.greedy_net(d, m, candidate_pool=64 * m,
                                         seed=run_seed)
            return net.cover_rad

        return runner, predicted, config

    if kind == SUBSAMPLE_CONCENTRATION:
        big_n = int(params.get("N", 256))
        n_monomials = int(params.get("M", 10))
        restarts = int(params.get("restarts", 64))
        predicted = 0.5
        config = {"N": big_n, "M": n_monomials, "restarts": restarts}

        def runner(n, run_seed):
            rng = np.random.default_rng(run_seed)
            terms = rng.uniform(-1.0, 1.0, size=(big_n, n_monomials))
            result = subsample.maurey_subsample(
                terms, n, restarts=restarts, seed=run_seed + 1, coeff_bound=1.0
            )
            return result.deviation

        return runner, predicted, config

    if kind == PACKING_SEPARATION:
        kind_name = params.get("family", lower_bounds.FOURIER_KIND)
        d = int(params.get("d", 2))
        k_or_s = float(params.get("k_or_s", 1.0))
        predicted = (1.0 + 2.0 * k_or_s) / (2.0 * d)
        config = {"family": kind_name, "d": d, "k_or_s": k_or_s}

        def runner(n, run_seed):
            family = lower_bounds.build_packing(kind_name, d, k_or_s, n,
                                                seed=run_seed)
            report = lower_bounds.pairwise_separation(
                family, norm="witness", pair_budget=32, seed=run_seed + 1
            )
            return report.min_distance

        return runner, predicted, config

    if kind == DYADIC_RESIDUAL:
        xi_max = float(params.get("xi_max", 256.0))
        decay = float(params.get("decay", 1.0))
        predicted = 0.5
        config = {"xi_max": xi_max, "decay": decay}
        spectrum = lower_bounds.decaying_spectrum(xi_max, decay)
        decomp = lower_bounds.dyadic_blocks(spectrum)

        def runner(n, _):
            return lower_bounds.residual_tail_norm(decomp, int(math.floor(math.log2(n))))

        return runner, predicted, config

    raise ValueError(f"unknown experiment kind {kind!r}")


def report_to_json(report: ExperimentReport, deterministic: bool = True) -> str:
    """Serialize a report; the deterministic form nulls the timing field.

    Timing varies run to run, so files meant to be byte-reproducible carry
    ``"seconds": null`` and the measured time goes to diagnostics instead.
    """
    payload = {
        "kind": report.kind,
        "config": report.config,
        "samples": [{"n": n, "error": e} for n, e in report.samples],
        "fit": None if report.fit is None else {
            "slope": report.fit.slope,
            "intercept": report.fit.intercept,
            "r2": report.fit.r_squared,
        },
        "predicted": report.predicted_exponent,
        "verdict": report.verdict,
        "seconds": None if deterministic else report.seconds,
    }
    if report.failures:
        payload["failures"] = list(report.failures)
    return json.dumps(payload, sort_keys=True)


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    buf.write("n,error\n")
    for n, e in report.samples:
        buf.write(f"{n},{format(e, '.17g')}\n")
    return buf.getvalue()
