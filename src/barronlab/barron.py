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
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .numerics import as_batch, axis_rule, grid_rows, read_only, sobolev_weight, unbatch

COEFF_DROP_RELATIVE = 1e-14
CUTOFF_ALPHA = 2.0  # bump shape parameter of the mollified cutoff
# Largest lattice box the spectrum builders make: 2^22 index rows, ~100 MB at d=3.
MAX_BOX_ROWS = 2**22


# ----------------------------------------------------------------------
# smooth bump
# ----------------------------------------------------------------------

def bump_value(t):
    """Compactly supported bump exp(-(1 - t^2)^(1 - alpha)) on (-1, 1), 0 outside.

    The shape is fixed at alpha = ``CUTOFF_ALPHA`` = 2.  The bump is even,
    peaks at exp(-1) at t = 0, and all derivatives vanish at the endpoints.
    """
    t, single = as_batch(t, ndim=0)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(over="ignore", divide="ignore"):
        u = (1.0 - t[inside] ** 2) ** (1.0 - CUTOFF_ALPHA)
        out[inside] = np.exp(-u)
    return unbatch(out, single)


# ----------------------------------------------------------------------
# spectral weights
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Submultiplicative polynomial spectral weight.

    ``polynomial(s)`` evaluates (1 + |xi|)^s with s >= 0, which satisfies
    mu(xi + omega) <= mu(xi) mu(omega).
    """

    s: float

    @classmethod
    def polynomial(cls, s: float) -> "WeightSpec":
        if s < 0:
            raise ValueError(f"polynomial weight exponent must be >= 0, got {s}")
        return cls(s=float(s))

    def __call__(self, xi):
        xi, single = as_batch(xi)
        norms = np.linalg.norm(xi, axis=-1)
        return unbatch((1.0 + norms) ** self.s, single)


# ----------------------------------------------------------------------
# finite lattice expansions
# ----------------------------------------------------------------------

def _check_offset(a, L: float) -> None:
    """Refuse an offset with a component outside [0, 1/L] (to 1e-12 / L)."""
    tol = 1e-12 / L
    for aj in a:
        if not -tol <= aj <= 1.0 / L + tol:
            raise ValueError(f"offset component {aj} outside [0, 1/L]")


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
        _check_offset(self.a, self.L)

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

    Coefficients below 1e-14 of the largest, ``max|c|``, are dropped, which
    keeps supports finite; the rest are sorted by lattice index.  Dropping
    moves the l1 mass by at most (#dropped) 1e-14 max|c| and the l2 norm by
    at most sqrt(#dropped) 1e-14 max|c|; weighted masses such as
    sum (1 + |xi|)^s |c| are not bounded by the rule.  A non-finite
    coefficient is a ``ValueError``.

    Rows that already increase strictly are kept in place: the check
    compares consecutive rows column by column into boolean arrays, and only
    when it fails do a stable ``np.lexsort`` and a gather reorder them.  The
    magnitudes are freed before any copy, and an array is copied only while
    it still shares memory with the caller's input, so the result's
    read-only arrays never alias the caller's, which stay writable.
    """
    d, given = int(d), (index, values)
    values = np.asarray(values, dtype=complex).reshape(-1)
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        index = index.reshape(0, d)
    if index.shape != (len(values), d):
        raise ValueError(
            f"lattice indices of shape {index.shape} do not match "
            f"{len(values)} coefficients in dimension {d}"
        )
    if len(values):
        mags = np.abs(values)
        peak = mags.max()
        if not np.isfinite(peak):
            bad = int(np.argmin(np.isfinite(mags)))
            raise ValueError(f"non-finite coefficient {values[bad]} at lattice index "
                             f"{index[bad].tolist()}")
        keep = mags >= COEFF_DROP_RELATIVE * peak
        keep &= mags > 0.0
        del mags
        if not keep.all():
            index, values = index[keep], values[keep]
        del keep
    if _ascending(index):
        index, values = (x.copy() if np.may_share_memory(x, g) else x
                         for x, g in zip((index, values), given))
    else:
        order = np.lexsort(index.T[::-1])
        index, values = index[order], values[order]
    index, values = read_only(index, values)
    return FourierSum(d=d, L=float(L), a=tuple(float(v) for v in a),
                      index=index, values=values, warnings=tuple(warnings))


def _ascending(index: np.ndarray) -> bool:
    """Whether each row of ``index`` is lexicographically above the one before.

    Consecutive rows are compared from the last column to the first: row
    i + 1 is above row i where it is above in column j, or equal there and
    above in the later columns.
    """
    before, after = index[:-1], index[1:]
    above = before[:, -1] < after[:, -1]
    for j in range(index.shape[1] - 2, -1, -1):
        above &= before[:, j] == after[:, j]
        above |= before[:, j] < after[:, j]
    return bool(above.all())


def fourier_sum(d, L, a, coeffs) -> FourierSum:
    """Build a warning-free FourierSum from a dict of index tuples to coefficients."""
    coeffs = dict(coeffs)
    return from_arrays(d, L, a, list(coeffs), list(coeffs.values()))


def evaluate_sum(fs: FourierSum, x):
    """Evaluate sum_z c_z exp(2 pi i (a + z/L) . x) at one point or a batch."""
    pts, single = as_batch(x, d=fs.d)
    out = np.exp(2j * np.pi * (pts @ fs.shifted_frequencies().T)) @ fs.values
    return unbatch(out, single)


def barron_norm(fs: FourierSum, weight: WeightSpec) -> float:
    """Weighted l1 coefficient mass sum_z mu(a + z/L) |c_z|."""
    if not fs.support_size():
        return 0.0
    mu = weight(fs.shifted_frequencies())
    return float(np.dot(mu, np.abs(fs.values)))


def hm_norm_exact(fs: FourierSum, m: int) -> float:
    """Exact H^m([0, L]^d) norm via mode orthogonality.

    Distinct lattice modes are orthogonal in every H^k of the period cell,
    so the squared norm is L^d sum_z |c_z|^2 w_m(a + z/L).  At m = 0 the
    weight is w_0 = 1 in closed form, so no frequency array is made.
    """
    w = None if m == 0 else sobolev_weight(fs.shifted_frequencies(), m)
    return mode_norm(fs.L, fs.d, np.abs(fs.values) ** 2, w)


def mode_norm(L: float, d: int, power: np.ndarray, w: np.ndarray | None = None) -> float:
    """sqrt(L^d sum_z w_z p_z): the norm of orthogonal lattice modes with
    squared moduli ``power`` and squared-mode weights ``w``, all 1 when None."""
    if w is None:
        w = np.ones(len(power))
    return math.sqrt(L**d * float(np.dot(w, power)))


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


# ----------------------------------------------------------------------
# mollified cutoff and periodization
# ----------------------------------------------------------------------

def _cutoff_profile(vals: np.ndarray, L: float, eps: float, resolution: int) -> np.ndarray:
    """One axis of the cutoff: scaled-bump convolution with the inner box.

    Separability reduces the tensor convolution to, per axis, an integral of
    the unit bump over [4(x - L)/eps + 6, 4x/eps + 2] clipped to [-1, 1],
    normalized by the full bump integral (same rule, so the plateau value is
    exactly 1).
    """
    nodes, weights = axis_rule(-1.0, 1.0, resolution)
    normalization = float(np.dot(weights, bump_value(nodes)))
    lo = np.maximum(-1.0, 4.0 * (vals - L) / eps + 6.0)
    hi = np.minimum(1.0, 4.0 * vals / eps + 2.0)
    out = np.zeros_like(vals)
    active = hi > lo
    if np.any(active):
        half = 0.5 * (hi[active] - lo[active])
        mid = 0.5 * (hi[active] + lo[active])
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        integrals = (bump_value(pts.ravel()).reshape(pts.shape) @ weights) * half
        out[active] = integrals / normalization
    plateau = (4.0 * (vals - L) / eps + 6.0 <= -1.0) & (4.0 * vals / eps + 2.0 >= 1.0)
    out[plateau] = 1.0
    return np.clip(out, 0.0, 1.0)


def mollified_cutoff(x, L: float, eps: float, resolution: int = 64):
    """Smooth cutoff equal to 1 on [0, L - 2 eps]^d, 0 outside (-3 eps/4, L - 5 eps/4)^d.

    Realized as the convolution of the eps/4-scaled tensor bump (alpha = 2) with
    the indicator of [-eps/2, L - 3 eps/2]^d, evaluated per axis with
    ``resolution`` Gauss-Legendre nodes.
    """
    if eps <= 0 or eps >= L / 2:
        raise ValueError(f"transition width must satisfy 0 < eps < L/2, got {eps}")
    pts, single = as_batch(x)
    out = np.ones(pts.shape[0])
    for j in range(pts.shape[1]):
        out = out * _cutoff_profile(pts[:, j], L, eps, resolution)
    return unbatch(out, single)


@lru_cache(maxsize=2)
def _node_plan(L: float, eps: float, resolution: int, d: int):
    """Offset-independent part of one periodization, cached and read-only.

    The target is sampled only on the support cube: per axis, the run of
    nodes where the cutoff profile is nonzero, inside (-3 eps/4, L - 5 eps/4).
    Returns the cube's node rows in ``grid_rows`` order, the tensor cutoff
    over them and the cube's slices of the node grid: 0.5 MB at L = 6 in
    d = 2 (142 of 192 nodes per axis), 1.9 MB doubled (284 of 384).
    """
    nodes, _ = axis_rule(-eps, L - eps, resolution)
    profile = _cutoff_profile(nodes, L, eps, resolution)
    inside = np.flatnonzero(profile)
    run = slice(inside[0], inside[-1] + 1)
    return (*read_only(grid_rows(nodes[run], d), reduce(np.multiply.outer, [profile[run]] * d)),
            (run,) * d)


@lru_cache(maxsize=16)
def _phase_matrix(aj: float, L: float, z_box: int, eps: float, resolution: int) -> np.ndarray:
    """Weighted phases exp(-2 pi i (aj + z/L) x) w of one axis, cached and read-only.

    Rows are the indices -z_box..z_box, columns the Gauss-Legendre nodes on [-eps, L - eps].
    """
    nodes, weights = axis_rule(-eps, L - eps, resolution)
    z = np.arange(-z_box, z_box + 1)
    (phase,) = read_only(np.exp(-2j * np.pi * np.outer(aj + z / L, nodes)) * weights)
    return phase


class _Field:
    """A target read at the periodization nodes, shared by a scan's offsets.

    Per node grid, keyed by ``(L, eps, resolution, d)``, it holds the samples
    times the cutoff on all n^d nodes, zero off the support cube, and the last
    contraction along the first node axis, tagged with its ``(a[0], z_box)``.
    Contractions run over all n nodes: a shorter sum would round differently.
    """

    def __init__(self, f_e: Callable):
        self.f_e, self.windowed, self.first = f_e, {}, {}

    def periodize(self, L: float, a, z_box: int, eps: float, resolution: int) -> np.ndarray:
        """Coefficients of every index in the box |z_j| <= z_box, in the row
        order of ``grid_rows``, by one quadrature at a fixed resolution."""
        key = (L, eps, resolution, len(a))
        if key not in self.windowed:
            points, cutoff, window = _node_plan(*key)
            self.windowed[key] = np.zeros((resolution,) * len(a), dtype=complex)
            self.windowed[key][window] = np.asarray(self.f_e(points), dtype=complex) \
                .reshape(cutoff.shape) * cutoff
        if self.first.get(key, (None,))[0] != (a[0], z_box):
            phase = _phase_matrix(a[0], L, z_box, eps, resolution)
            self.first[key] = ((a[0], z_box),
                               np.tensordot(self.windowed[key], phase, axes=([0], [1])))
        h = self.first[key][1]
        for aj in a[1:]:
            # Contracting the leading node axis appends the index axis last, so
            # after d passes the axes are (z_1, ..., z_d).
            h = np.tensordot(h, _phase_matrix(aj, L, z_box, eps, resolution), axes=([0], [1]))
        return h.ravel() / L**len(a)


def _ring_mask(z_box: int, d: int) -> np.ndarray:
    """Rows of the box |z_j| <= z_box on its outermost ring max|z_j| = z_box."""
    edge = np.abs(np.arange(-z_box, z_box + 1)) == z_box
    return reduce(np.logical_or.outer, [edge] * d).ravel()


def _ring_fraction(values: np.ndarray, ring: np.ndarray) -> float:
    """Share of the l1 coefficient mass on the rows of the ``ring`` mask."""
    mags = np.abs(values)
    total = float(mags.sum())
    if total == 0.0:
        return 0.0
    return float(mags[ring].sum()) / total


def periodize_expand(f_e: Callable | _Field, L: float, a, z_box: int, *,
                     support_bound: float) -> FourierSum:
    """Expand a field into a lattice Fourier sum by windowed periodization.

    The caller declares that the restriction of interest lives in
    ``[0, support_bound]^d``; the period must satisfy
    ``L > sqrt(d) * support_bound + 2``.  Coefficients are
    ``c_z = L^{-d} * transform(cutoff * f_e)`` sampled at ``a + z/L`` and
    computed by tensor Gauss-Legendre quadrature over the cutoff support
    (n = 32 ceil(L) nodes per axis, doubled once automatically when the
    outermost index ring carries more than 1% of the l1 mass; a persistent
    overweight ring attaches a truncation warning).  The cutoff is
    ``mollified_cutoff`` with eps = min(1, (L - support_bound) / 4).

    Only d <= 2 is supported: the node grid has n^d points.  ``z_box`` must
    be an integer in [0, n/2] (beyond about 2n/pi, n nodes no longer
    integrate the phases exactly and the box aliases silently) and each
    offset component in [0, 1/L]; both are checked before any quadrature.

    Two bounded caches keep the offset-independent work for later calls:
    up to 2 node plans, a node grid and its doubling (the node rows where the
    cutoff is nonzero, the only ones the target is sampled at, and the cutoff
    there: 0.5 MB at L = 6 in d = 2, 1.9 MB on the doubled grid) and up to
    16 per-axis phase matrices ((2 z_box + 1) n complex values: 150 KB at
    L = 6, z_box = 24).  Cached arrays are read-only, so ``f_e`` receives
    read-only points; it need only be finite there.  A plain ``f_e`` is read
    through a field made for the call, which holds per node grid the windowed
    samples on all n^d nodes (complex values: 0.6 MB at L = 6 in d = 2,
    2.4 MB doubled) and one first-axis contraction (150 KB at L = 6,
    z_box = 24, 300 KB doubled).
    """
    a = tuple(float(v) for v in a)
    d = len(a)
    if d > 2:
        raise ValueError("periodization is implemented for d <= 2 only")
    if L <= math.sqrt(d) * support_bound + 2.0:
        raise ValueError(
            f"period {L} too small: need L > sqrt(d) * {support_bound} + 2"
        )
    eps = min(1.0, (L - support_bound) / 4.0)
    if not 0.0 < eps < L / 2 or L - 2.0 * eps < support_bound:
        raise ValueError(f"transition width {eps} incompatible with L={L}, S={support_bound}")
    if not (z_box >= 0 and float(z_box).is_integer()):
        raise ValueError(f"z_box must be an integer >= 0, got z_box = {z_box}")
    resolution = 32 * math.ceil(L)
    if z_box > resolution // 2:
        raise ValueError(f"z_box = {z_box} exceeds the limit 16 ceil(L) = {resolution // 2} "
                         f"at L = {L}: the {resolution}-node rule aliases larger indices")
    _check_offset(a, L)
    # Float cache keys: an entry never depends on the caller's number types.
    L, eps = float(L), float(eps)

    field = f_e if isinstance(f_e, _Field) else _Field(f_e)
    index, ring = grid_rows(np.arange(-z_box, z_box + 1), d), _ring_mask(z_box, d)
    values = field.periodize(L, a, z_box, eps, resolution)
    warnings = ()
    if _ring_fraction(values, ring) > 0.01:
        values = field.periodize(L, a, z_box, eps, 2 * resolution)
        frac = _ring_fraction(values, ring)
        if frac > 0.01:
            warnings = (
                f"truncation: outermost index ring at |z|={z_box} carries "
                f"{frac:.2%} of the l1 coefficient mass; increase z_box",
            )
    return from_arrays(d, L, a, index, values, warnings=warnings)


def scan_offset(f_e: Callable, d: int, L: float, z_box: int, weight: WeightSpec, *,
                support_bound: float, grid: int = 4) -> tuple[tuple[float, ...], FourierSum]:
    """Scan offsets on a grid of [0, 1/L]^d and keep the weighted-mass argmin.

    Offsets are periodized by ``periodize_expand``, with its fixed cutoff on
    its 32 ceil(L) nodes per axis, all reading one field.  The node grid does
    not depend on the offset, so the field samples the target where the
    cutoff is nonzero (142^2 of 192^2 nodes at L = 6) and multiplies by the
    cutoff once per node grid (the base grid, and the doubled one if some
    offset needs it), and makes the contraction along the first node
    axis once per first offset component, as offsets run with a[0] slowest.
    In d = 2 a scan so costs grid n^2 (2 z_box + 1) + grid^2 n (2 z_box + 1)^2
    multiply-adds per node grid.  The field lives only during the call and
    holds per node grid the windowed samples (n^2 complex values: 0.6 MB at
    L = 6, 2.4 MB doubled) and one contraction (150 KB at L = 6, z_box = 24,
    300 KB doubled).  What outlives the call is ``periodize_expand``'s
    caches: one node plan per node grid (0.5 MB at L = 6 in d = 2) and one
    phase matrix per distinct offset component and node grid, so ``grid`` of
    them (150 KB each at L = 6, z_box = 24), twice that if the doubled grid
    was needed.
    ``grid`` must be an integer >= 1.
    A mass-minimizing offset exists but is not constructive; this scan
    reports the best grid point, nothing sharper.
    """
    if not isinstance(grid, (int, np.integer)) or grid < 1:
        raise ValueError(f"grid must be an integer >= 1, got grid = {grid}")
    field = _Field(f_e)
    candidates = np.linspace(0.0, 1.0 / L, grid, endpoint=False)
    best_a: tuple[float, ...] = ()
    best_fs: FourierSum | None = None
    best_mass = math.inf
    for a in grid_rows(candidates, d):
        fs = periodize_expand(field, L, a, z_box, support_bound=support_bound)
        mass = barron_norm(fs, weight)
        if mass < best_mass:
            best_a, best_fs, best_mass = tuple(float(v) for v in a), fs, mass
    if best_fs is None:
        raise ValueError(f"every offset's weighted mass is infinite or NaN under the "
                         f"weight (1 + |xi|)^s with s = {weight.s}")
    return best_a, best_fs
