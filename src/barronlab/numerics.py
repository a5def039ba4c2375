"""Shared numerical substrate: Gauss-Legendre rules and ``tensor_nodes``,
Sobolev mode weights, log-log rate fitting, the powered rectifier and the one
ridge-atom kernel ``ridge_block``.

All routines here are deterministic functions of their inputs, and the
package runs on the calling thread: no module starts a thread or reads the
core count.  A Gauss-Legendre rule of ``resolution`` nodes per axis
integrates per-axis polynomial degree up to ``2 * resolution - 1`` exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

Box = Sequence[tuple[float, float]]


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log n, log error)."""

    slope: float
    intercept: float
    r_squared: float


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


def count_text(n: int) -> str:
    """A count as text: in full up to 10^6, else to three significant digits
    as ``:.3g`` writes a float (4194305 as 4.19e+06), at any size."""
    if n <= 10**6:
        return str(n)
    if n < 10**308:
        return f"{n:.3g}"
    from decimal import Decimal  # past the float range; loaded only here
    mantissa, exponent = f"{Decimal(n):.2e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"


def sigma_k(t, k: int, out=None):
    """Powered rectifier max(0, t)^k; k = 0 gives the Heaviside with sigma_0(0) = 0.
    An ``out`` array of t's shape, which may be t itself, receives the values."""
    if k < 0 or int(k) != k:
        raise ValueError(f"power must be a nonnegative integer, got {k}")
    t, single = as_batch(t, ndim=0)
    if k == 0:
        out = np.greater(t, 0.0, out=np.empty(t.shape) if out is None else out)
    else:
        out = np.maximum(t, 0.0, out=out)
        out **= k
    return unbatch(out, single)


def ridge_block(lifted, ridge, out, *, k=None, alpha=None) -> np.ndarray:
    """Ridge atoms in ``out``, returned: t = ``lifted`` @ ``ridge`` = [x | 1] @ [Omega^T; b],
    then sigma_k(t) in place when ``k`` is given, else |t|, * (-alpha) and exp.
    Stacked operands give stacked blocks, and ``out`` may be a strided view."""
    t = np.matmul(lifted, ridge, out=out)
    if k is not None:
        return sigma_k(t, k, out=t)
    np.abs(t, out=t)
    t *= -alpha
    return np.exp(t, out=t)


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


def homogeneous_sums(y: np.ndarray, m: int) -> np.ndarray:
    """Rows h_0..h_m, shape (m + 1, N), of h_r(y) = sum_{|alpha| = r} prod_j y_j^alpha_j
    on a batch y (N, d), by h_r(y_1..y_j) = h_r(y_1..y_{j-1}) + y_j h_{r-1}(y_1..y_j)
    in O(d m) passes (Macdonald, *Symmetric Functions and Hall Polynomials*, 1995)."""
    sums = np.vstack([np.ones(len(y)), np.zeros((m, len(y)))])
    for yj in y.T:
        for r in range(1, m + 1):
            sums[r] += yj * sums[r - 1]
    return sums


def sobolev_weight(eta, m: int):
    """Exact squared-mode weight w_m(eta) = sum_{|alpha| <= m} prod_j (2 pi eta_j)^(2 alpha_j).

    This is the exact H^m mass of the unit exponential mode with frequency
    vector eta on a unit-volume cell.  w_0 is identically 1, w_m >= 1, and
    w_m(eta) is comparable to (1 + |eta|)^(2m) up to constants depending on
    m and d only.  It sums the ``homogeneous_sums`` rows at y = (2 pi eta)^2.

    Accepts a single frequency vector (d,) or a batch (N, d).
    """
    if m < 0 or int(m) != m:
        raise ValueError(f"derivative order must be a nonnegative integer, got {m}")
    eta, single = as_batch(eta)
    return unbatch(homogeneous_sums((2.0 * np.pi * eta) ** 2, int(m)).sum(axis=0), single)


def loglog_fit(samples: Iterable[tuple[float, float]]) -> RateFit:
    """Fit a least-squares line through (log n, log error).

    Needs at least two samples; every n must be >= 1 and appear once, and
    every error must be positive and finite.  A sample that breaks this is a
    ``ValueError`` naming its n and value.
    """
    ns, log_errors = [], []
    for n, err in samples:
        if n < 1:
            raise ValueError(f"sample sizes must be >= 1, got {n}")
        if not 0 < err < math.inf:
            raise ValueError(f"a log fit needs every error positive and finite, "
                             f"got {err} at n={n}")
        if float(n) in ns:
            raise ValueError(f"n={n} appears twice; a log fit takes each n once")
        ns.append(float(n))
        log_errors.append(math.log(err))
    if len(ns) < 2:
        raise ValueError("need at least two samples to fit a slope")
    logn = np.log(np.array(ns))
    loge = np.array(log_errors)
    design = np.stack([logn, np.ones_like(logn)], axis=-1)
    (slope, intercept), *_ = np.linalg.lstsq(design, loge, rcond=None)
    resid = loge - design @ np.array([slope, intercept])
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(loge - loge.mean(), loge - loge.mean()))
    if ss_tot <= 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(float(slope), float(intercept), r_squared)
