"""Experiment harness: sweep a size parameter, collect errors from the
constructive modules, fit the log-log slope, and render a verdict against
the predicted decay exponent.

Each kind declares its check.  ``upper`` is one-sided: a synthetic input may
decay faster than the class-worst case, so it asks only that the fitted slope
be as steep as the predicted bound within the fixed slack ``SLOPE_TOLERANCE``;
``informational`` asserts nothing, and ``failed`` says which verdicts exit 1.
No parameter sets the slack, a check or a prediction.  Every per-n run derives
its seed as master_seed XOR run index, making reports reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Each kind setup imports the other modules it runs.  subsample stays here:
# perfbench's result capture can wrap a function only in a module already loaded.
from . import subsample
from .numerics import RateFit, loglog_fit

GREEDY_FOURIER = "greedy-fourier"
SOBOLEV_COMPILE = "sobolev-compile"
SPHERE_COVER = "sphere-cover"
SUBSAMPLE_CONCENTRATION = "subsample-concentration"
PACKING_SEPARATION = "packing-separation"
DYADIC_RESIDUAL = "dyadic-residual"

BOUND_SATISFIED = "bound-satisfied"
BOUND_VIOLATED = "bound-violated"
INFORMATIONAL = "informational"  # a check and its verdict
UPPER = "upper"

SLOPE_TOLERANCE = 0.15


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    config: dict
    samples: tuple[tuple[int, float], ...]
    fit: RateFit
    predicted_exponent: float
    verdict: str
    seconds: float
    last_kept_keys: tuple[float, ...] = ()  # greedy-fourier's key(n) per n; not in the JSON
    # Never filled: a sub-run that fails raises.  Kept only because
    # perfbench/workloads.py still reads it (ROADMAP item 1).
    failures: tuple[str, ...] = field(default=(), compare=False)


def _verdict(fit: RateFit, predicted: float, check: str) -> str:
    """Pure verdict rule: ``upper`` holds at slope <= -predicted + SLOPE_TOLERANCE."""
    if check == UPPER:
        return BOUND_SATISFIED if fit.slope <= -predicted + SLOPE_TOLERANCE else BOUND_VIOLATED
    if check == INFORMATIONAL:
        return INFORMATIONAL
    raise ValueError(f"unknown verdict check {check!r}")


def failed(verdict: str) -> bool:
    """Whether ``verdict`` failed its check: the one rule behind exit code 1."""
    return verdict == BOUND_VIOLATED


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


def sine_target(pts) -> np.ndarray:
    """The smooth target sin(2 pi x_1) on point batches (N, d)."""
    return np.sin(2.0 * np.pi * np.asarray(pts)[:, 0])


def seeded_subsample(big_n: int, n_monomials: int, n: int, restarts: int,
                     seed: int) -> subsample.MaureyResult:
    """Subsample n of big_n seeded uniform rows in [-1, 1]^n_monomials."""
    for key, value in (("N", big_n), ("M", n_monomials)):
        if value < 1:
            raise ValueError(f"subsampling needs {key} >= 1, got {key}={value}")
    subsample.check_draws(N=big_n, M=n_monomials)
    terms = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(big_n, n_monomials))
    return subsample.maurey_subsample(terms, n, restarts=restarts,
                                      seed=seed + 1, coeff_bound=1.0)


def seeded_packing(kind: str, d: int, k_or_s: float, n: int, pairs: int, seed: int):
    """A seeded packing family and its witness separations on ``pairs`` pairs."""
    from . import lower_bounds
    family = lower_bounds.build_packing(kind, d, k_or_s, n, seed=seed)
    return family, lower_bounds.pairwise_separation(family, pair_budget=pairs,
                                                    seed=seed + 1)


# Each setup(config, grid, seed) fills in the defaults left as None (derived
# from the grid or from other parameters), refuses a config that no sub-run
# could use, and returns the predicted decay exponent and the per-n error
# function error(n, run_seed); greedy-fourier adds its sweep's key(n).

def _greedy_fourier(c, grid, seed):
    from . import exponents, greedy_fourier
    if c["xi_max"] is None:
        c["xi_max"] = max(400.0, 1.5 * grid[-1])
    for key in ("m", "xi_max"):
        if c[key] < 0:
            raise ValueError(f"kind {GREEDY_FOURIER} needs {key} >= 0, got {key}={c[key]}")
    # At |xi| <= xi_max a key factor is at most (1 + xi_max)^(2m - ks) and w_m at
    # most (m + 1) max(1, 2 pi xi_max)^(2m); logs keep the test itself finite.
    m, ks, xi_max = c["m"], c["ks"], c["xi_max"]
    spread = math.log2(2.0 * math.pi) + math.log2(max(xi_max, 0.5 / math.pi))
    if max((2 * m - ks) * math.log2(1.0 + xi_max), math.log2(m + 1) + 2 * m * spread) >= 1023:
        raise ValueError(f"kind {GREEDY_FOURIER} needs key factor (1 + xi_max)^(2m - ks) "
                         f"and w_m(xi_max) below 2^1023, got m={m}, ks={ks} at xi_max={xi_max:g}")
    predicted = exponents.rate_exponents(ks, m, 1, c["d"]).greedy_fourier_exponent
    if predicted <= 0:  # tail errors never grow in n, so no fit could violate it
        raise ValueError(f"kind {GREEDY_FOURIER} needs 1/2 + (ks - m)/d > 0 for a tail that "
                         f"decays, got ks={ks}, m={m}, d={c['d']}")
    tail, key = greedy_fourier.heavy_tail_sweep(c["d"], ks, m, xi_max, seed)
    return predicted, lambda n, _: tail(n), key


def _sobolev_compile(c, grid, seed):
    from . import relu_nets
    if c["ell"] < 0:
        raise ValueError(f"kind {SOBOLEV_COMPILE} needs ell >= 0, got ell={c['ell']}")
    if c["d"] > 3:
        raise ValueError(f"kind {SOBOLEV_COMPILE} needs d <= 3, got d={c['d']}")
    relu_nets.check_compile_size(c["d"], grid[-1], c["ell"])
    target = relu_nets.probe_target(sine_target, c["d"])
    return float(c["ell"]), lambda q, _: relu_nets.compile_sobolev_approximant(
        sine_target, c["ell"], relu_nets.CubePartition(c["d"], q)).probe_error(target)


def _sphere_cover(c, grid, seed):
    from . import sphere_geom
    sphere_geom.check_net_work(grid[-1], 64 * grid[-1])
    return 1.0 / (c["d"] - 1), lambda m, run_seed: sphere_geom.greedy_net(
        c["d"], m, candidate_pool=64 * m, seed=run_seed).cover_rad


def _subsample_concentration(c, grid, seed):
    for key in ("restarts", "N", "M"):
        if c[key] < 1:
            raise ValueError(f"kind {SUBSAMPLE_CONCENTRATION} needs {key} >= 1, "
                             f"got {key}={c[key]}")
    if grid[-1] >= c["N"]:  # n = N selects every row, a deviation of exactly 0
        raise ValueError(f"kind {SUBSAMPLE_CONCENTRATION} needs every n < N, "
                         f"got n={grid[-1]} with N={c['N']}")
    subsample.check_draws(restarts=c["restarts"], n=grid[-1])
    return 0.5, lambda n, run_seed: seeded_subsample(
        c["N"], c["M"], n, c["restarts"], run_seed).deviation


def _packing_separation(c, grid, seed):
    from . import lower_bounds
    try:
        lower_bounds.validate_packing(c["family"], c["k_or_s"])
    except ValueError as exc:
        raise ValueError(f"kind {PACKING_SEPARATION} parameters family={c['family']!r}, "
                         f"k_or_s={c['k_or_s']}: {exc}") from None
    return (1.0 + 2.0 * c["k_or_s"]) / (2.0 * c["d"]), lambda n, run_seed: seeded_packing(
        c["family"], c["d"], c["k_or_s"], n, 32, run_seed)[1].min_distance


def _dyadic_residual(c, grid, seed):
    from . import lower_bounds
    # The residual from level k = floor(log2 n), the root of the sum of (1 + |z|)^(-2 decay)
    # over |z| >= 2^k, goes like n^(1/2 - decay): it decays only for decay > 1/2.
    if c["decay"] <= 0.5:
        raise ValueError(f"kind {DYADIC_RESIDUAL} needs decay > 0.5 for a residual that "
                         f"decays, got decay={c['decay']}")
    decomp = lower_bounds.dyadic_blocks(
        lower_bounds.decaying_spectrum(c["xi_max"], c["decay"]))
    return c["decay"] - 0.5, lambda n, _: lower_bounds.residual_tail_norm(
        decomp, int(math.floor(math.log2(n))))


# kind -> (parameter defaults, setup, verdict check, least d: 2 on the sphere S^(d-1))
_Kind = namedtuple("_Kind", "defaults setup check min_d", defaults=(1,))
KINDS = {
    GREEDY_FOURIER: _Kind({"d": 1, "ks": 2.0, "m": 0, "xi_max": None}, _greedy_fourier, UPPER),
    SOBOLEV_COMPILE: _Kind({"d": 1, "ell": 2}, _sobolev_compile, UPPER),
    SPHERE_COVER: _Kind({"d": 2}, _sphere_cover, UPPER, min_d=2),
    SUBSAMPLE_CONCENTRATION: _Kind({"N": 256, "M": 10, "restarts": 64},
                                   _subsample_concentration, UPPER),
    PACKING_SEPARATION: _Kind({"family": "fourier", "d": 2, "k_or_s": 1.0},
                              _packing_separation, INFORMATIONAL, min_d=2),
    DYADIC_RESIDUAL: _Kind({"xi_max": 256.0, "decay": 1.0}, _dyadic_residual, UPPER),
}
EXPERIMENT_KINDS = tuple(KINDS)


def kind_config(kind: str, params: dict | None) -> dict:
    """The kind's own parameter defaults, updated by ``params``.

    A given number or text is cast to its default's type (float where the
    default is None, which the setup derives); None keeps the default.  An
    unknown kind or key, a value that is not a finite number for a numeric
    default, a non-integral value for an integer default, or d below 1 (below
    2 for the two kinds that work on the sphere S^(d-1)) is a ``ValueError``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    config = dict(KINDS[kind].defaults)
    for key, value in (params or {}).items():
        if key not in config:
            raise ValueError(f"unknown parameter {key!r} for kind {kind}; "
                             f"accepted: {', '.join(config)}")
        if value is None:
            continue
        cast = float if config[key] is None else type(config[key])
        if cast is not str:
            try:
                number = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"parameter {key!r} for kind {kind} must be a number, "
                                 f"got {value!r}") from None
            if not math.isfinite(number):
                raise ValueError(f"parameter {key!r} for kind {kind} must be finite, got {number}")
            if cast is int and number != int(number):
                raise ValueError(f"parameter {key!r} for kind {kind} must be an integer, "
                                 f"got {number}")
            value = number
        config[key] = cast(value)
    min_d = KINDS[kind].min_d
    if config.get("d", min_d) < min_d:
        raise ValueError(f"kind {kind} needs d >= {min_d}, got d={config['d']}")
    return config


def run_experiment(kind: str, params: dict | None, n_grid: Sequence[int],
                   seed: int = 0) -> ExperimentReport:
    """Run one error sweep and fit its rate.

    ``params`` overrides entries of the kind's defaults in ``KINDS`` (see
    ``kind_config``).  The report's config adds the fixed ``tolerance``, the
    seed and the grid, so each report names everything its verdict used.
    Every sweep ends in a fit or an exception: a sub-run's refusal
    propagates, and so does ``loglog_fit``'s refusal of an error that is 0
    or not finite, naming its n.
    """
    config = kind_config(kind, params)
    grid = _validate_grid(n_grid)
    started = time.perf_counter()
    predicted, error, *key = KINDS[kind].setup(config, grid, seed)
    samples = tuple((n, float(error(n, seed ^ index))) for index, n in enumerate(grid))
    fit = loglog_fit(samples)
    verdict = _verdict(fit, predicted, KINDS[kind].check)
    seconds = time.perf_counter() - started
    config.update({"tolerance": SLOPE_TOLERANCE, "seed": seed, "n_grid": grid})
    return ExperimentReport(
        kind=kind,
        config=config,
        samples=samples,
        fit=fit,
        predicted_exponent=predicted,
        verdict=verdict,
        seconds=seconds,
        last_kept_keys=tuple(key[0](n) for n in grid) if key else (),
    )


def report_to_json(report: ExperimentReport) -> str:
    """Serialize a report with ``"seconds": null``.

    Timing varies run to run, so the byte-reproducible report carries no
    time; the measured time goes to diagnostics instead.
    """
    payload = {
        "kind": report.kind,
        "config": report.config,
        "samples": [{"n": n, "error": e} for n, e in report.samples],
        "fit": {
            "slope": report.fit.slope,
            "intercept": report.fit.intercept,
            "r2": report.fit.r_squared,
        },
        "predicted": report.predicted_exponent,
        "verdict": report.verdict,
        "seconds": None,
    }
    return json.dumps(payload, sort_keys=True)
