"""Lattice Fourier representations of functions with summable weighted spectra.

A function on a box is represented as a finite sum
``f(x) = sum_z c_z exp(2 pi i (a + z/L) . x)`` over integer lattice indices
``z``.  Construction from a generic field goes through a smooth compactly
supported cutoff (a convolved tensor bump) followed by Poisson-summation
periodization; the weighted l1 mass of the resulting coefficients is the
spectral smoothness norm used throughout the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .numerics import axis_rule, grid_rows, read_only, sobolev_weight

COEFF_DROP_RELATIVE = 1e-14
CUTOFF_ALPHA = 2.0  # bump shape parameter of the mollified cutoff


# ----------------------------------------------------------------------
# smooth bump and its transform
# ----------------------------------------------------------------------

def bump_value(alpha: float, t):
    """Compactly supported bump exp(-(1 - t^2)^(1 - alpha)) on (-1, 1), 0 outside.

    Requires alpha > 1.  The bump is even, peaks at exp(-1) at t = 0, and all
    derivatives vanish at the endpoints.
    """
    if alpha <= 1:
        raise ValueError(f"bump shape parameter must exceed 1, got {alpha}")
    t = np.asarray(t, dtype=float)
    single = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(over="ignore", divide="ignore"):
        u = (1.0 - t[inside] ** 2) ** (1.0 - alpha)
        out[inside] = np.exp(-u)
    return float(out[0]) if single else out


def bump_fourier_transform(alpha: float, xi):
    """Transform of the bump, integral of g(t) cos(2 pi xi t) over [-1, 1].

    The bump is real and even, so the transform is real and even.  The
    max(256, int(16 max|xi|) + 32) Gauss-Legendre nodes scale with |xi|.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    resolution = max(256, int(16 * np.max(np.abs(xi))) + 32)
    nodes, weights = axis_rule(-1.0, 1.0, resolution)
    g = bump_value(alpha, nodes)
    phases = np.cos(2.0 * np.pi * np.outer(xi, nodes))
    return phases @ (weights * g)


@dataclass(frozen=True)
class BumpDecayFit:
    """Regression of log |transform| against |xi|^(1 - 1/alpha)."""

    slope: float
    intercept: float
    r_squared: float
    residuals: tuple[float, ...]
    clamped: int


def bump_fourier_decay(alpha: float, xi_grid) -> BumpDecayFit:
    """Fit the stretched-exponential decay rate of the bump transform.

    Regresses log |g^(xi)| on |xi|^(1 - 1/alpha); a negative slope is the
    fitted decay constant.  Transform values below 1e-300 are clamped and
    excluded from the fit.  The grid must span at least a decade of |xi|.
    """
    xi = np.abs(np.atleast_1d(np.asarray(xi_grid, dtype=float)))
    xi = xi[xi > 0]
    if xi.size < 2 or np.max(xi) / np.min(xi) < 10.0:
        raise ValueError("frequency grid must span at least one decade of |xi|")
    transform = np.abs(bump_fourier_transform(alpha, xi))
    usable = transform > 1e-300
    x = xi[usable] ** (1.0 - 1.0 / alpha)
    y = np.log(transform[usable])
    design = np.stack([x, np.ones_like(x)], axis=-1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([slope, intercept])
    resid = y - fitted
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot if ss_tot > 0 else 1.0
    return BumpDecayFit(
        float(slope),
        float(intercept),
        max(0.0, min(1.0, r2)),
        tuple(float(r) for r in resid),
        int(np.sum(~usable)),
    )


# ----------------------------------------------------------------------
# spectral weights
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Submultiplicative spectral weight, polynomial or subexponential.

    ``polynomial(s)`` evaluates (1 + |xi|)^s with s >= 0;
    ``subexponential(c, beta)`` evaluates exp(c |xi|^beta) with c > 0 and
    beta in (0, 1).  Both satisfy mu(xi + omega) <= mu(xi) mu(omega).
    """

    kind: str
    s: float = 0.0
    c: float = 0.0
    beta: float = 0.0

    @classmethod
    def polynomial(cls, s: float) -> "WeightSpec":
        if s < 0:
            raise ValueError(f"polynomial weight exponent must be >= 0, got {s}")
        return cls(kind="polynomial", s=float(s))

    @classmethod
    def subexponential(cls, c: float, beta: float) -> "WeightSpec":
        if c <= 0:
            raise ValueError(f"subexponential scale must be positive, got {c}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"subexponential power must lie in (0, 1), got {beta}")
        return cls(kind="subexponential", c=float(c), beta=float(beta))

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        single = xi.ndim == 1
        norms = np.linalg.norm(np.atleast_2d(xi), axis=-1)
        if self.kind == "polynomial":
            vals = (1.0 + norms) ** self.s
        elif self.kind == "subexponential":
            vals = np.exp(self.c * norms**self.beta)
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        return float(vals[0]) if single else vals


# ----------------------------------------------------------------------
# finite lattice expansions
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FourierSum:
    """Finite lattice Fourier expansion with offset.

    ``index`` is an (M, d) int64 array of lattice indices z in lexicographic
    order and ``values`` the (M,) complex coefficient vector aligned with it;
    the mode frequency is a + z/L.  Both arrays are read-only.  ``coeffs``
    is a dict view derived from them.  Build instances with ``fourier_sum``
    (from a dict) or ``from_arrays``.
    """

    d: int
    L: float
    a: tuple[float, ...]
    index: np.ndarray
    values: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"period must be positive, got {self.L}")
        if len(self.a) != self.d:
            raise ValueError("offset dimension does not match d")
        tol = 1e-12 / self.L
        for aj in self.a:
            if not -tol <= aj <= 1.0 / self.L + tol:
                raise ValueError(f"offset component {aj} outside [0, 1/L]")

    def __repr__(self) -> str:
        return to_json(self)

    @property
    def coeffs(self) -> dict[tuple[int, ...], complex]:
        return dict(zip(map(tuple, self.index.tolist()), self.values.tolist()))

    def support_size(self) -> int:
        return len(self.values)

    def frequencies(self) -> np.ndarray:
        """Lattice frequencies z/L as an (M, d) array in sorted index order."""
        return self.index / self.L

    def shifted_frequencies(self) -> np.ndarray:
        """Actual mode frequencies a + z/L as an (M, d) array."""
        return np.asarray(self.a) + self.frequencies()

    def coefficient_vector(self) -> np.ndarray:
        return self.values.copy()


def from_arrays(d, L, a, index, values, warnings=()) -> FourierSum:
    """Build a FourierSum from index rows and coefficients, in any order.

    Coefficients below 1e-14 of the largest are dropped, which keeps
    supports finite without moving any norm by more than 1e-12 relative;
    the rest are sorted by lattice index.  A non-finite coefficient is a
    ``ValueError``.
    """
    d = int(d)
    values = np.asarray(values, dtype=complex).reshape(-1)
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        index = index.reshape(0, d)
    if index.shape != (len(values), d):
        raise ValueError(
            f"lattice indices of shape {index.shape} do not match "
            f"{len(values)} coefficients in dimension {d}"
        )
    mags = np.abs(values)
    if len(mags):
        peak = mags.max()
        if not np.isfinite(peak):
            bad = int(np.argmin(np.isfinite(mags)))
            raise ValueError(f"non-finite coefficient {values[bad]} at lattice index "
                             f"{index[bad].tolist()}")
        keep = (mags >= COEFF_DROP_RELATIVE * peak) & (mags > 0.0)
        index, values = index[keep], values[keep]
    order = np.lexsort(index.T[::-1])
    index, values = read_only(index[order], values[order])
    return FourierSum(d=d, L=float(L), a=tuple(float(v) for v in a),
                      index=index, values=values, warnings=tuple(warnings))


def fourier_sum(d, L, a, coeffs) -> FourierSum:
    """Build a warning-free FourierSum from a dict of index tuples to coefficients."""
    coeffs = dict(coeffs)
    return from_arrays(d, L, a, list(coeffs), list(coeffs.values()))


def evaluate_sum(fs: FourierSum, x):
    """Evaluate sum_z c_z exp(2 pi i (a + z/L) . x) at one point or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != fs.d:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {fs.d}")
    out = np.exp(2j * np.pi * (pts @ fs.shifted_frequencies().T)) @ fs.values
    return complex(out[0]) if single else out


def barron_norm(fs: FourierSum, weight: WeightSpec) -> float:
    """Weighted l1 coefficient mass sum_z mu(a + z/L) |c_z|."""
    if not fs.support_size():
        return 0.0
    mu = weight(fs.shifted_frequencies())
    return float(np.dot(mu, np.abs(fs.values)))


def hm_norm_exact(fs: FourierSum, m: int) -> float:
    """Exact H^m([0, L]^d) norm via mode orthogonality.

    Distinct lattice modes are orthogonal in every H^k of the period cell,
    so the squared norm is L^d sum_z |c_z|^2 w_m(a + z/L).
    """
    if not fs.support_size():
        return 0.0
    w = sobolev_weight(fs.shifted_frequencies(), m)
    return math.sqrt(fs.L**fs.d * float(np.dot(w, np.abs(fs.values) ** 2)))


def to_json(fs: FourierSum) -> str:
    """Serialize losslessly; floats use shortest round-trip decimal form."""
    payload = {
        "d": fs.d,
        "L": fs.L,
        "a": list(fs.a),
        "coeffs": [
            {"z": z, "re": re, "im": im}
            for z, re, im in zip(fs.index.tolist(), fs.values.real.tolist(),
                                 fs.values.imag.tolist())
        ],
    }
    return json.dumps(payload)


def from_json(text: str) -> FourierSum:
    payload = json.loads(text)
    entries = payload["coeffs"]
    return from_arrays(
        payload["d"], payload["L"], payload["a"], [e["z"] for e in entries],
        [complex(e["re"], e["im"]) for e in entries],
    )


# ----------------------------------------------------------------------
# mollified cutoff and periodization
# ----------------------------------------------------------------------

def _cutoff_profile(vals: np.ndarray, L: float, eps: float, alpha: float,
                    resolution: int) -> np.ndarray:
    """One axis of the cutoff: scaled-bump convolution with the inner box.

    Separability reduces the tensor convolution to, per axis, an integral of
    the unit bump over [4(x - L)/eps + 6, 4x/eps + 2] clipped to [-1, 1],
    normalized by the full bump integral (same rule, so the plateau value is
    exactly 1).
    """
    nodes, weights = axis_rule(-1.0, 1.0, resolution)
    normalization = float(np.dot(weights, bump_value(alpha, nodes)))
    lo = np.maximum(-1.0, 4.0 * (vals - L) / eps + 6.0)
    hi = np.minimum(1.0, 4.0 * vals / eps + 2.0)
    out = np.zeros_like(vals)
    active = hi > lo
    if np.any(active):
        half = 0.5 * (hi[active] - lo[active])
        mid = 0.5 * (hi[active] + lo[active])
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        integrals = (bump_value(alpha, pts.ravel()).reshape(pts.shape) @ weights) * half
        out[active] = integrals / normalization
    plateau = (4.0 * (vals - L) / eps + 6.0 <= -1.0) & (4.0 * vals / eps + 2.0 >= 1.0)
    out[plateau] = 1.0
    return np.clip(out, 0.0, 1.0)


def mollified_cutoff(x, L: float, eps: float, resolution: int = 64):
    """Smooth cutoff equal to 1 on [0, L - 2 eps]^d, 0 outside [-eps, L - eps]^d.

    Realized as the convolution of the eps/4-scaled tensor bump (alpha = 2) with
    the indicator of [-eps/2, L - 3 eps/2]^d, evaluated per axis with
    ``resolution`` Gauss-Legendre nodes.
    """
    if eps <= 0 or eps >= L / 2:
        raise ValueError(f"transition width must satisfy 0 < eps < L/2, got {eps}")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    out = np.ones(pts.shape[0])
    for j in range(pts.shape[1]):
        out = out * _cutoff_profile(pts[:, j], L, eps, CUTOFF_ALPHA, resolution)
    return float(out[0]) if single else out


def _periodize_once(f_e: Callable, L: float, a, z_box: int, eps: float,
                    alpha: float, resolution: int, window: bool) -> np.ndarray:
    """One pass of windowed coefficient extraction at a fixed resolution.

    Returns the coefficients of every index in the box |z_j| <= z_box, in
    the row order of ``grid_rows``.
    """
    d = len(a)
    lo_box, hi_box = (-eps, L - eps) if window else (0.0, L)
    nodes, weights = axis_rule(lo_box, hi_box, resolution)
    h = np.asarray(f_e(grid_rows(nodes, d)), dtype=complex).reshape((resolution,) * d)
    if window:
        profile = _cutoff_profile(nodes, L, eps, alpha, resolution)
        h = h * reduce(np.multiply.outer, [profile] * d)
    z = np.arange(-z_box, z_box + 1)
    for aj in a:
        # Contracting the leading node axis appends the index axis last, so
        # after d passes the axes are (z_1, ..., z_d).
        phase = np.exp(-2j * np.pi * np.outer(aj + z / L, nodes)) * weights
        h = np.tensordot(h, phase, axes=([0], [1]))
    return h.ravel() / L**d


def _ring_fraction(index: np.ndarray, values: np.ndarray, z_box: int) -> float:
    """Share of the l1 coefficient mass on the outermost ring max|z_j| = z_box."""
    mags = np.abs(values)
    total = float(mags.sum())
    if total == 0.0:
        return 0.0
    return float(mags[np.max(np.abs(index), axis=1) == z_box].sum()) / total


def periodize_expand(f_e: Callable, L: float, a, z_box: int, *,
                     support_bound: float, eps: float | None = None,
                     alpha: float = CUTOFF_ALPHA, window: bool = True) -> FourierSum:
    """Expand a field into a lattice Fourier sum by windowed periodization.

    The caller declares that the restriction of interest lives in
    ``[0, support_bound]^d``; the period must satisfy
    ``L > sqrt(d) * support_bound + 2``.  Coefficients are
    ``c_z = L^{-d} * transform(cutoff * f_e)`` sampled at ``a + z/L`` and
    computed by tensor Gauss-Legendre quadrature over the cutoff support
    (32 ceil(L) nodes per axis, doubled once automatically when the
    outermost index ring carries more than 1% of the l1 mass; a persistent
    overweight ring attaches a truncation warning).

    ``window=False`` skips the cutoff and integrates over one period cell,
    which is plain mode inversion and only meaningful for inputs that are
    already L-periodic or supported inside the cell.

    Only d <= 2 is supported: the node grid has (32 ceil(L))^d points.
    """
    a = tuple(float(v) for v in a)
    d = len(a)
    if d > 2:
        raise ValueError("periodization is implemented for d <= 2 only")
    if L <= math.sqrt(d) * support_bound + 2.0:
        raise ValueError(
            f"period {L} too small: need L > sqrt(d) * {support_bound} + 2"
        )
    if eps is None:
        eps = min(1.0, (L - support_bound) / 4.0)
    if not 0.0 < eps < L / 2 or L - 2.0 * eps < support_bound:
        raise ValueError(f"transition width {eps} incompatible with L={L}, S={support_bound}")
    resolution = 32 * math.ceil(L)

    index = grid_rows(np.arange(-z_box, z_box + 1), d)
    values = _periodize_once(f_e, L, a, z_box, eps, alpha, resolution, window)
    warnings = ()
    if _ring_fraction(index, values, z_box) > 0.01:
        values = _periodize_once(f_e, L, a, z_box, eps, alpha, 2 * resolution, window)
        frac = _ring_fraction(index, values, z_box)
        if frac > 0.01:
            warnings = (
                f"truncation: outermost index ring at |z|={z_box} carries "
                f"{frac:.2%} of the l1 coefficient mass; increase z_box",
            )
    return from_arrays(d, L, a, index, values, warnings=warnings)


def scan_offset(f_e: Callable, d: int, L: float, z_box: int, weight: WeightSpec, *,
                support_bound: float, grid: int = 4) -> tuple[tuple[float, ...], FourierSum]:
    """Scan offsets on a grid of [0, 1/L]^d and keep the weighted-mass argmin.

    Offsets are periodized with ``periodize_expand``'s default eps and alpha
    on its 32 ceil(L) nodes per axis.
    A mass-minimizing offset exists but is not constructive; this scan
    reports the best grid point, nothing sharper.
    """
    candidates = np.linspace(0.0, 1.0 / L, grid, endpoint=False)
    best_a: tuple[float, ...] = ()
    best_fs: FourierSum | None = None
    best_mass = math.inf
    for a in grid_rows(candidates, d):
        fs = periodize_expand(f_e, L, a, z_box, support_bound=support_bound)
        mass = barron_norm(fs, weight)
        if mass < best_mass:
            best_a, best_fs, best_mass = tuple(float(v) for v in a), fs, mass
    assert best_fs is not None
    return best_a, best_fs
