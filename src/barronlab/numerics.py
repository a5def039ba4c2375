"""Shared numerical substrate: box quadrature, Sobolev mode weights, and
log-log rate fitting.

All routines here are deterministic functions of their inputs.  Tensor-grid
quadrature uses Gauss-Legendre nodes with ``resolution`` nodes per axis,
which integrates per-axis polynomial degree up to ``2 * resolution - 1``
exactly.  Monte Carlo quadrature draws its node set from a seeded generator,
so an identical spec always reproduces the identical node set bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

TENSOR_GRID = "tensor-grid"
MONTE_CARLO = "monte-carlo"

Box = Sequence[tuple[float, float]]


class IntegrationError(ValueError):
    """An integrand produced a non-finite value at a quadrature node."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Deterministic quadrature description.

    Parameters
    ----------
    method : str
        ``"tensor-grid"`` (Gauss-Legendre, ``resolution`` nodes per axis,
        ``resolution**d`` nodes total) or ``"monte-carlo"`` (``resolution``
        uniform samples drawn from ``seed``).
    resolution : int
        Nodes per axis (tensor grid) or total sample count (Monte Carlo).
    seed : int
        Generator seed; only used by the Monte Carlo method.
    """

    method: str = TENSOR_GRID
    resolution: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.method not in (TENSOR_GRID, MONTE_CARLO):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log n, log error)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


def multi_indices(d: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Yield every exponent tuple alpha in Z_{>=0}^d with sum(alpha) <= degree."""
    for alpha in itertools.product(range(degree + 1), repeat=d):
        if sum(alpha) <= degree:
            yield alpha


def grid_rows(axis: np.ndarray, d: int) -> np.ndarray:
    """All d-tuples of ``axis`` values as rows, in lexicographic order."""
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark the arrays read-only in place and return them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def gauss_rule(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached. Read-only."""
    return read_only(*np.polynomial.legendre.leggauss(resolution))


def axis_rule(lo: float, hi: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [lo, hi]."""
    nodes, weights = gauss_rule(resolution)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def validate_box(box: Box) -> list[tuple[float, float]]:
    out = []
    for axis, (lo, hi) in enumerate(box):
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ValueError(f"degenerate box on axis {axis}: [{lo}, {hi}]")
        out.append((lo, hi))
    return out


def tensor_nodes(box: Box, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre nodes (N, d) and weights (N,) on a box."""
    box = validate_box(box)
    axes = [axis_rule(lo, hi, resolution) for lo, hi in box]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(1)
    for _, aw in axes:
        w = np.multiply.outer(w, aw).ravel()
    return pts, w


def monte_carlo_nodes(box: Box, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform nodes (N, d) and equal weights summing to the box volume."""
    box = validate_box(box)
    d = len(box)
    rng = np.random.default_rng(spec.seed)
    unit = rng.random((spec.resolution, d))
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = lo + unit * (hi - lo)
    volume = float(np.prod(hi - lo))
    w = np.full(spec.resolution, volume / spec.resolution)
    return pts, w


def _eval_field(f: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a field on (N, d) points, accepting vectorized callables."""
    vals = np.asarray(f(pts))
    n = pts.shape[0]
    if vals.shape == ():
        return np.full(n, vals[()])
    if vals.shape != (n,):
        vals = vals.reshape(n)
    return vals


def _check_finite(vals: np.ndarray, pts: np.ndarray) -> None:
    finite = np.isfinite(vals) if not np.iscomplexobj(vals) else (
        np.isfinite(vals.real) & np.isfinite(vals.imag)
    )
    if not finite.all():
        i = int(np.argmin(finite))
        raise IntegrationError(
            f"non-finite integrand value {vals[i]!r} at node {pts[i].tolist()}"
        )


def integrate(f: Callable, box: Box, spec: QuadratureSpec | None = None):
    """Integrate a real- or complex-valued field over an axis-aligned box.

    Without an explicit spec, tensor Gauss-Legendre is used for d <= 3 and
    Monte Carlo (2**16 samples, seed 0) for d >= 4.  Complex integrands are
    handled componentwise, which the weighted dot product does implicitly.
    """
    box = validate_box(box)
    if spec is None:
        if len(box) <= 3:
            spec = QuadratureSpec()
        else:
            spec = QuadratureSpec(MONTE_CARLO, 1 << 16, 0)
    if spec.method == TENSOR_GRID:
        pts, w = tensor_nodes(box, spec.resolution)
    else:
        pts, w = monte_carlo_nodes(box, spec)
    vals = _eval_field(f, pts)
    _check_finite(vals, pts)
    total = np.dot(w, vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def monte_carlo_estimate(f: Callable, box: Box, spec: QuadratureSpec):
    """Monte Carlo integral and its standard error estimate.

    The standard error is volume * std(samples, ddof=1) / sqrt(N); doubling
    the sample count shrinks it by roughly sqrt(2).
    """
    if spec.method != MONTE_CARLO:
        raise ValueError("monte_carlo_estimate requires a monte-carlo spec")
    pts, w = monte_carlo_nodes(box, spec)
    vals = _eval_field(f, pts)
    _check_finite(vals, pts)
    volume = float(w.sum())
    n = len(vals)
    estimate = np.dot(w, vals)
    stderr = volume * float(np.std(vals, ddof=1)) / math.sqrt(n)
    result = complex(estimate) if np.iscomplexobj(vals) else float(estimate)
    return result, stderr


def sobolev_weight(eta, m: int):
    """Exact squared-mode weight w_m(eta) = sum_{|alpha| <= m} prod_j (2 pi eta_j)^(2 alpha_j).

    This is the exact H^m mass of the unit exponential mode with frequency
    vector eta on a unit-volume cell.  w_0 is identically 1, w_m >= 1, and
    w_m(eta) is comparable to (1 + |eta|)^(2m) up to constants depending on
    m and d only.

    Accepts a single frequency vector (d,) or a batch (N, d).
    """
    if m < 0 or int(m) != m:
        raise ValueError(f"derivative order must be a nonnegative integer, got {m}")
    eta = np.asarray(eta, dtype=float)
    single = eta.ndim == 1
    y = 2.0 * np.pi * np.atleast_2d(eta)
    total = np.zeros(y.shape[0])
    for alpha in multi_indices(y.shape[1], int(m)):
        term = np.ones(y.shape[0])
        for j, aj in enumerate(alpha):
            if aj:
                term = term * y[:, j] ** (2 * aj)
        total += term
    return float(total[0]) if single else total


def loglog_fit(samples: Iterable[tuple[float, float]]) -> RateFit:
    """Fit a least-squares line through (log n, log error).

    Duplicate n values are collapsed by averaging their log errors before
    fitting.  Requires at least two distinct n; every error must be positive
    (log undefined otherwise) and every n >= 1.
    """
    by_n: dict[float, list[float]] = {}
    for n, err in samples:
        if err <= 0:
            raise ValueError(f"error values must be positive for a log fit, got {err}")
        if n < 1:
            raise ValueError(f"sample sizes must be >= 1, got {n}")
        by_n.setdefault(float(n), []).append(math.log(err))
    if len(by_n) < 2:
        raise ValueError("need at least two distinct n values to fit a slope")
    ns = np.array(sorted(by_n))
    logn = np.log(ns)
    loge = np.array([np.mean(by_n[n]) for n in ns])
    design = np.stack([logn, np.ones_like(logn)], axis=-1)
    (slope, intercept), *_ = np.linalg.lstsq(design, loge, rcond=None)
    resid = loge - design @ np.array([slope, intercept])
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(loge - loge.mean(), loge - loge.mean()))
    if ss_tot <= 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(float(slope), float(intercept), r_squared, len(ns))
