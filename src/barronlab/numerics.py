"""Shared numerical substrate: box quadrature, Sobolev mode weights,
log-log rate fitting, the powered rectifier, and a thread pool for NumPy
work.

All routines here are deterministic functions of their inputs.  Tensor-grid
quadrature uses Gauss-Legendre nodes with ``resolution`` nodes per axis,
which integrates per-axis polynomial degree up to ``2 * resolution - 1``
exactly.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Box = Sequence[tuple[float, float]]


class IntegrationError(ValueError):
    """An integrand produced a non-finite value at a quadrature node."""


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
    """All d-tuples of ``axis`` values as rows, in lexicographic order and
    the axis's dtype."""
    axis = np.asarray(axis)
    rows = np.empty((len(axis),) * d + (d,), dtype=axis.dtype)
    for j in range(d):
        rows[..., j] = axis.reshape((-1,) + (1,) * (d - 1 - j))
    return rows.reshape(-1, d)


def as_batch(x, ndim: int = 1, d: int | None = None) -> tuple[np.ndarray, bool]:
    """Float batch of scalars (``ndim`` 0) or points (``ndim`` 1) and whether ``x``
    was one of them; with ``d``, points of another dimension are refused."""
    x = np.asarray(x, dtype=float)
    batch = np.atleast_1d(x) if ndim == 0 else np.atleast_2d(x)
    if d is not None and batch.shape[1] != d:
        raise ValueError(f"points have dimension {batch.shape[1]}, expected {d}")
    return batch, x.ndim == ndim


def unbatch(values: np.ndarray, single: bool):
    """The Python number ``values[0]`` for one item, else the array itself."""
    return values[0].item() if single else values


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark the arrays read-only in place and return them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def sigma_k(t, k: int):
    """Powered rectifier max(0, t)^k; k = 0 gives the Heaviside with sigma_0(0) = 0."""
    if k < 0 or int(k) != k:
        raise ValueError(f"power must be a nonnegative integer, got {k}")
    t, single = as_batch(t, ndim=0)
    if k == 0:
        out = (t > 0).astype(float)
    else:
        out = np.maximum(t, 0.0) ** k
    return unbatch(out, single)


# ----------------------------------------------------------------------
# thread pool
# ----------------------------------------------------------------------

_pool = None  # ThreadPoolExecutor, created on first parallel use
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _forget_pool() -> None:
    """In a forked child the parent's pool threads do not exist: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_forget_pool)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shares(items: Sequence) -> list[Sequence]:
    """``items`` cut into one contiguous share per usable core, fewer when
    there are fewer items; the longer shares come first."""
    count = min(usable_cores(), len(items))
    size, extra = divmod(len(items), max(count, 1))
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def _run_share(fn: Callable, share: Sequence) -> list:
    return [fn(item) for item in share]


def parallel_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, one share of the items per usable core.

    The caller runs the first share and threads of a module pool, created on
    first use, run the others, so NumPy and LAPACK work, which releases the
    interpreter lock, overlaps.  Results come back in item order; an
    exception raised in any share reaches the caller once every share has
    ended.  A call made from a pool thread runs serially, so nested calls
    cannot deadlock.  ``fn`` should allocate little: each thread that
    allocates gets its own malloc arena, which raises peak memory.
    """
    parts = shares(items)
    if len(parts) <= 1 or getattr(_pool_thread, "active", False):
        return _run_share(fn, items)
    from concurrent import futures  # imported here: cold processes skip its cost
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = futures.ThreadPoolExecutor(
                max(1, usable_cores() - 1), thread_name_prefix="barronlab",
                initializer=_mark_pool_thread)
        pending = [_pool.submit(_run_share, fn, part) for part in parts[1:]]
    try:
        results = _run_share(fn, parts[0])
    finally:
        futures.wait(pending)
    for future in pending:
        results += future.result()
    return results


@lru_cache(maxsize=None)
def gauss_rule(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached. Read-only."""
    return read_only(*np.polynomial.legendre.leggauss(resolution))


def axis_rule(lo: float, hi: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of ``resolution`` >= 2 nodes mapped to [lo, hi]."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
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


def _check_finite(vals: np.ndarray, pts: np.ndarray) -> None:
    finite = np.isfinite(vals) if not np.iscomplexobj(vals) else (
        np.isfinite(vals.real) & np.isfinite(vals.imag)
    )
    if not finite.all():
        i = int(np.argmin(finite))
        raise IntegrationError(
            f"non-finite integrand value {vals[i]!r} at node {pts[i].tolist()}"
        )


def integrate(f: Callable, box: Box, resolution: int = 64):
    """Integrate a real- or complex-valued field over a box of at most 3 axes.

    Tensor Gauss-Legendre with ``resolution`` nodes per axis.  ``f`` maps
    the (N, d) node batch to N values.  Complex integrands are handled
    componentwise, which the weighted dot product does implicitly.
    """
    box = validate_box(box)
    if len(box) > 3:
        raise ValueError(f"integrate takes at most 3 axes, got {len(box)}")
    pts, w = tensor_nodes(box, resolution)
    vals = np.asarray(f(pts)).reshape(len(pts))
    _check_finite(vals, pts)
    total = np.dot(w, vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


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
    eta, single = as_batch(eta)
    y = 2.0 * np.pi * eta
    total = np.zeros(y.shape[0])
    for alpha in multi_indices(y.shape[1], int(m)):
        term = np.ones(y.shape[0])
        for j, aj in enumerate(alpha):
            if aj:
                term = term * y[:, j] ** (2 * aj)
        total += term
    return unbatch(total, single)


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
