"""ReLU^k dictionary: activation, shallow networks, exact monomial algebra,
local polynomial surrogates of ridge units, smoothed cell indicators, and a
cube-partition compiler for smooth targets.

sigma_k(t) = max(0, t)^k with the convention 0^0 = 0, so sigma_0 is the
right-open Heaviside step.  Networks hold the parameters of their units
a_i sigma_{k_i}(omega_i . x + b_i) in arrays; heterogeneous powers are
allowed because degree-m monomials use sigma_m units whatever the powers
of the other units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import (Box, as_batch, gauss_rule, grid_rows, homogeneous_sums, multi_indices,
                       parallel_map, read_only, shares, sigma_k, unbatch, validate_box)


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------

class ReluUnit(NamedTuple):
    """One unit a sigma_k(omega . x + b), as ``relu_network`` accepts it."""

    outer: complex
    direction: tuple[float, ...]
    bias: float
    power: int


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Shallow network sum_i a_i sigma_{k_i}(omega_i . x + b_i).

    Unit i is row i of the read-only arrays ``outer`` (W,) complex,
    ``directions`` (W, d), ``biases`` (W,) and ``powers`` (W,) int.  Build
    it with ``relu_network``, which validates the units.
    """

    outer: np.ndarray
    directions: np.ndarray
    biases: np.ndarray
    powers: np.ndarray

    @property
    def d(self) -> int:
        return self.directions.shape[1]

    @property
    def width(self) -> int:
        return len(self.powers)

    @property
    def ell1(self) -> float:
        return float(np.abs(self.outer).sum())

    @property
    def units(self) -> tuple[ReluUnit, ...]:
        """The units as records, built on access."""
        return tuple(
            ReluUnit(a, tuple(omega), b, k) for a, omega, b, k in zip(
                self.outer.tolist(), self.directions.tolist(),
                self.biases.tolist(), self.powers.tolist())
        )


# Pre-activations per block of ``evaluate_network``: 512 kB of float64.
_EVAL_BLOCK = 1 << 16


def relu_network(units: Sequence[tuple]) -> ReluNetwork:
    """Build a network from (outer, direction, bias, power) tuples.

    Every power must be a nonnegative integer and every direction a vector
    of the first unit's dimension; errors name the first offending unit.
    """
    units = list(units)
    rows = [np.atleast_1d(np.asarray(omega, dtype=float)) for _, omega, _, _ in units]
    d = len(rows[0]) if rows else 0
    for i, ((_, _, _, k), omega) in enumerate(zip(units, rows)):
        if omega.shape != (d,):
            raise ValueError(f"unit {i} has direction shape {omega.shape}, expected ({d},)")
        if k < 0 or int(k) != k:
            raise ValueError(f"unit {i} power must be a nonnegative integer, got {k}")
    return ReluNetwork(*read_only(
        np.array([complex(u[0]) for u in units], dtype=complex),
        np.array(rows, dtype=float).reshape(len(units), d),
        np.array([float(u[2]) for u in units]),
        np.array([int(u[3]) for u in units], dtype=int),
    ))


def evaluate_network(net: ReluNetwork, x):
    """Evaluate the unit sum at one point (d,) or a batch (N, d).

    Per power, in ascending order, the pre-activations are formed in row
    blocks of at most ``_EVAL_BLOCK`` entries, activated in place, and
    contracted with the real and imaginary parts of the units' outer
    weights.  The blocks are shared out by ``parallel_map``, each share
    reusing one pre-activation buffer the caller allocates and writing only
    its own rows, so the result is bitwise the same for any worker count.
    """
    pts, single = as_batch(x, d=net.d if net.width else None)
    weights = np.stack([net.outer.real, net.outer.imag], axis=1)
    total = np.zeros((len(pts), 2))
    for k in np.unique(net.powers).tolist():
        units = np.flatnonzero(net.powers == k)
        omega, bias, outer = net.directions[units].T, net.biases[units], weights[units]
        step = max(1, _EVAL_BLOCK // len(units))

        def run(share):
            starts, buffer = share
            for start in starts:
                rows = slice(start, start + step)
                block = pts[rows]
                t = np.matmul(block, omega, out=buffer[:len(block)])
                t += bias
                if k == 0:
                    np.greater(t, 0.0, out=t)  # the Heaviside, with sigma_0(0) = 0
                else:
                    np.maximum(t, 0.0, out=t)
                    t **= k
                total[rows] += t @ outer

        parallel_map(run, [(starts, np.empty((min(step, len(pts)), len(units))))
                           for starts in shares(range(0, len(pts), step))])
    total = total[:, 0] + 1j * total[:, 1] if total[:, 1].any() else total[:, 0]
    return unbatch(total, single)


def monomial_network_1d(m: int) -> ReluNetwork:
    """Two-unit network computing x^m on all of R: sigma_m(x) + (-1)^m sigma_m(-x).

    The degree m must be at least 1.
    """
    if m < 1:
        raise ValueError(f"monomial degree must be >= 1, got {m}")
    return relu_network([(1.0, (1.0,), 0.0, m), ((-1.0) ** m, (-1.0,), 0.0, m)])


# ----------------------------------------------------------------------
# product-term expansions of multivariate monomials
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProductTermSum:
    """sum_t signs[t] prod_j sigma_{powers[j]}(arg_signs[t, j] x_j), as read-only
    arrays: powers (d,) int, arg_signs (T, d) with 0 where powers[j] = 0, signs (T,)."""

    powers: np.ndarray
    arg_signs: np.ndarray
    signs: np.ndarray


def monomial_product_expansion(alpha: Sequence[int], k: int) -> ProductTermSum:
    """Expand prod_j x_j^(alpha_j) into signed products of one-sided powers.

    Each coordinate factor x^a equals sigma_a(x) + (-1)^a sigma_a(-x);
    distributing the product gives 2^(number of nonzero exponents) terms, in
    ``itertools.product((1, -1))`` order.  Requires nonnegative integer
    exponents of total degree within the power cap k.  The identity holds
    pointwise on all of R^d (no approximation).
    """
    if any(a < 0 or int(a) != a for a in alpha):
        raise ValueError(f"exponents must be nonnegative integers, got {tuple(alpha)}")
    powers = np.array(alpha, dtype=int).reshape(-1)
    if powers.sum() > k:
        raise ValueError(f"total degree {powers.sum()} exceeds power cap {k}")
    active = np.flatnonzero(powers)
    # Bit a - 1 - p of term t set: the p-th active coordinate takes -x.
    bits = (np.arange(2 ** len(active))[:, None] >> np.arange(len(active))[::-1]) & 1
    arg_signs = np.zeros((len(bits), len(powers)), dtype=int)
    arg_signs[:, active] = 1 - 2 * bits
    signs = 1 - 2 * ((bits @ powers[active]) % 2)
    return ProductTermSum(*read_only(powers, arg_signs, signs))


def evaluate_product_sum(pts_sum: ProductTermSum, x):
    """Evaluate at one point (d,) or a batch (N, d): one product per active
    coordinate across all terms, then the terms summed in order."""
    pts, single = as_batch(x, d=len(pts_sum.powers))
    vals = np.repeat(pts_sum.signs.astype(float)[:, None], len(pts), axis=1)
    for j in np.flatnonzero(pts_sum.powers).tolist():
        vals = vals * sigma_k(pts_sum.arg_signs[:, j, None] * pts[:, j], int(pts_sum.powers[j]))
    # cumsum adds in term order; + 0.0 maps a -0.0 total to 0.0, as 0.0 + terms would.
    return unbatch(np.cumsum(vals, axis=0)[-1] + 0.0, single)


# ----------------------------------------------------------------------
# cubes, partitions, local polynomials
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Cube:
    center: tuple[float, ...]
    side: float

    @property
    def d(self) -> int:
        return len(self.center)

    def bounds(self) -> list[tuple[float, float]]:
        h = self.side / 2.0
        return [(c - h, c + h) for c in self.center]

    def grid(self, per_axis: int) -> np.ndarray:
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in self.bounds()]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)


@dataclass(frozen=True)
class CubePartition:
    """q^d axis-aligned cells of side 1/q tiling the unit cube."""

    d: int
    q: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension d must be >= 1, got {self.d}")
        if self.q < 1:
            raise ValueError(f"cells per axis must be >= 1, got {self.q}")

    @property
    def h(self) -> float:
        return 1.0 / self.q

    def centers(self) -> np.ndarray:
        """(q^d, d) cell centres in flat-index order."""
        return grid_rows((np.arange(self.q) + 0.5) * self.h, self.d)

    def cells(self) -> list[Cube]:
        return [Cube(tuple(c), self.h) for c in self.centers().tolist()]

    def grids(self, per_axis: int) -> np.ndarray:
        """(q^d, per_axis^d, d) tensor grids of all cells; row i equals
        ``cells()[i].grid(per_axis)``."""
        axis = (np.arange(self.q) + 0.5) * self.h
        nodes = np.linspace(axis - self.h / 2.0, axis + self.h / 2.0, per_axis, axis=-1)
        d = self.d
        out = np.empty((self.q,) * d + (per_axis,) * d + (d,))
        for j in range(d):
            # Coordinate j varies with cell axis j and node axis j only.
            shape = [1] * (2 * d)
            shape[j], shape[d + j] = nodes.shape
            out[..., j] = nodes.reshape(shape)
        return out.reshape(self.q**d, per_axis**d, d)

    def locate_axis(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell index along one axis and scaled local coordinate 2 q (x - c)
        of the coordinates ``x``; x = 1 belongs to the last cell."""
        i = np.clip((x * self.q).astype(int), 0, self.q - 1)
        return i, (x - (i + 0.5) * self.h) * (2.0 / self.h)

    def locate(self, columns):
        """Flat cell index and scaled local coordinates of the points whose
        coordinates are the arrays ``columns[j]``, the columns of a batch."""
        ids, local = zip(*(self.locate_axis(x) for x in columns))
        return np.ravel_multi_index(ids, (self.q,) * self.d), local

    def cell_index(self, x):
        """Flat cell index per point; the x = 1 faces belong to the last cell."""
        pts, single = as_batch(x, d=self.d)
        return unbatch(self.locate(pts.T)[0], single)


@dataclass(frozen=True)
class RidgeTaylor:
    """Local polynomial surrogate of a ridge unit on one cell.

    ``case`` is "positive", "negative", or "straddling".  The first two are
    exact (zero error).  For straddling cells the surrogate keeps the smooth
    branch, (theta . x + b)^k or 0, selected by the sign of the ridge argument
    at the cell center, and the report carries the measured sup error on a
    dense grid together with two a priori bounds: the Taylor-remainder form
    delta^(k+1) / (k+1) and the scaling form delta^k implied by the kink of
    the k-th derivative.
    The measured error tracks delta^k, not delta^(k+1).
    """

    case: str
    measured_error: float
    taylor_bound: float
    homogeneity_bound: float
    delta: float


def ridge_local_taylor(theta, b: float, cell: Cube, k: int) -> RidgeTaylor:
    """Degree-k polynomial surrogate of sigma_k(theta . x + b) on a cell.

    On a straddling cell the sup error is measured on the cell's grid of
    201 points in d = 1 and 41 points per axis otherwise.
    """
    theta = np.asarray(theta, dtype=float)
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise ValueError("ridge direction must be a unit vector")
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    center = np.asarray(cell.center)
    t0 = float(theta @ center + b)
    delta = float(np.sum(np.abs(theta)) * cell.side / 2.0)
    t_min, t_max = t0 - delta, t0 + delta
    if t_min >= 0.0 or t_max <= 0.0:
        return RidgeTaylor("positive" if t_min >= 0.0 else "negative", 0.0, 0.0, 0.0, delta)
    t = cell.grid(201 if cell.d == 1 else 41) @ theta + b
    # The surrogate is the branch at the centre: t^k where t0 >= 0, and 0 otherwise.
    measured = float(np.max(np.abs(sigma_k(t, k) - (t**k if t0 >= 0.0 else 0.0))))
    return RidgeTaylor("straddling", measured, delta ** (k + 1) / (k + 1), delta**k, delta)


# ----------------------------------------------------------------------
# smoothed indicators and the cube-partition compiler
# ----------------------------------------------------------------------

def _ramp_product(pts: np.ndarray, centers, side: float, sharpness) -> np.ndarray:
    """prod_j clip(a_j (side/2 - |x_j - c_j|), 0, 1) for each row x of pts."""
    ramp_args = np.asarray(sharpness) * (side / 2.0 - np.abs(pts - centers))
    return np.clip(ramp_args, 0.0, 1.0).prod(axis=1)


@dataclass(frozen=True)
class IndicatorBump:
    """Ramp-product indicator: 1 on the core of the cell, 0 outside it.

    phi(x) = prod_j clip(a_j (h/2 - |x_j - c_j|), 0, 1), which is expressible
    with first-power rectifier units since clip(t, 0, 1) =
    sigma_1(t) - sigma_1(t - 1).  The transition band on axis j has width
    1/a_j inside the cell boundary.
    """

    cell: Cube
    sharpness: tuple[float, ...]

    def __call__(self, x):
        pts, single = as_batch(x, d=self.cell.d)
        return unbatch(_ramp_product(pts, np.asarray(self.cell.center), self.cell.side,
                                     self.sharpness), single)


def indicator_bump(cell: Cube, sharpness) -> IndicatorBump:
    """Smoothed indicator of a cell; the transition band must fit inside it."""
    a = np.broadcast_to(np.asarray(sharpness, dtype=float), (cell.d,)).copy()
    if np.any(a <= 0):
        raise ValueError("sharpness must be positive")
    if np.any(a * (cell.side / 2.0) <= 1.0):
        raise ValueError(
            f"transition band 1/a does not fit in a cell of side {cell.side}; "
            "need sharpness * side/2 > 1"
        )
    return IndicatorBump(cell, tuple(float(v) for v in a))


@dataclass(frozen=True, eq=False)
class SobolevApproximant:
    """Piecewise polynomial fit on a cube partition, optionally smoothed.

    Cell i (flat index, as in ``CubePartition.cell_index``) carries the
    polynomial sum_a coefficients[i, a] prod_j y_j^exponents[a, j] in the
    scaled local coordinates y = 2 q (x - c_i), which map the cell onto
    [-1, 1]^d.  The exact evaluator uses the polynomial of the containing
    cell; the smoothed evaluator multiplies it by that cell's ramp indicator
    (per-axis sharpness ``smoothing``), so the two differ only inside the
    indicator transition bands.
    """

    partition: CubePartition
    exponents: np.ndarray  # (n_alpha, d) int
    coefficients: np.ndarray  # (q^d, n_alpha)
    smoothing: tuple[float, ...] | None = None

    @cached_property
    def indicators(self) -> tuple[IndicatorBump, ...]:
        """Ramp indicator of every cell, built on first access; empty without smoothing."""
        if self.smoothing is None:
            return ()
        return tuple(IndicatorBump(cell, self.smoothing) for cell in self.partition.cells())

    def _evaluate(self, cell_ids: np.ndarray, y) -> np.ndarray:
        """Polynomial of cell ``cell_ids`` at local coordinates ``y`` (per-axis
        arrays of the shape of ``cell_ids``, as ``locate`` returns them),
        gathering one coefficient column at a time."""
        total = np.zeros(np.shape(cell_ids))
        for alpha, c in zip(self.exponents.tolist(), self.coefficients.T):
            term = c[cell_ids]
            for yj, aj in zip(y, alpha):
                if aj:
                    term = term * yj**aj
            total += term
        return total

    def __call__(self, x):
        pts, single = as_batch(x, d=self.partition.d)
        return unbatch(self._evaluate(*self.partition.locate(pts.T)), single)

    def smoothed(self, x):
        """self(x) * phi_{cell(x)}(x); zero outside [0, 1]^d."""
        if self.smoothing is None:
            raise ValueError("approximant was compiled without smoothing")
        pts, single = as_batch(x, d=self.partition.d)
        ids, y = self.partition.locate(pts.T)
        ramp = _ramp_product(pts, self.partition.centers()[ids], self.partition.h,
                             self.smoothing)
        return unbatch(self._evaluate(ids, y) * ramp, single)

    def probe_error(self, target) -> float:
        """Largest |target - self| on the probe grid, where ``target`` holds the
        values ``probe_target`` returns for this approximant's dimension; a
        target of any other shape is a ``ValueError``.

        The grid is a tensor product, so the axis is located in its cells once,
        and each coefficient column, viewed as a q^d array, is gathered one axis
        at a time and multiplied by that axis's power before the next gather:
        the same products, in the same order, as evaluating every grid point.
        The axis is sorted, so each cell's probes form one contiguous run and
        the gather repeats each cell's entry by its probe count.
        """
        d, q = self.partition.d, self.partition.q
        axis = _probe_axis(d)
        target = np.asarray(target)
        if target.shape != (len(axis),) * d:
            raise ValueError(f"probe target has shape {target.shape}, "
                             f"expected {(len(axis),) * d}")
        cells, local = self.partition.locate_axis(axis)
        counts = np.bincount(cells, minlength=q)
        approx = np.zeros(target.shape)
        for alpha, c in zip(self.exponents.tolist(), self.coefficients.T):
            term = c.reshape((q,) * d)
            for j, aj in enumerate(alpha):
                term = np.repeat(term, counts, axis=j)
                if aj:
                    term *= (local**aj).reshape((-1,) + (1,) * (d - 1 - j))
            approx += term
        return float(np.max(np.abs(target - approx)))

    def cell_errors(self, f: Callable) -> np.ndarray:
        """Largest |f - p_i| of each cell i on its own closed grid, faces included,
        of 64 points per axis at d = 1 and 9 above.  A check of more than
        ``MAX_COMPILE_ROWS`` sample rows is refused before sampling."""
        d, q = self.partition.d, self.partition.q
        per_axis = 64 if d == 1 else 9
        rows = (int(q) * per_axis) ** int(d)
        if rows > MAX_COMPILE_ROWS:
            raise ValueError(f"cell check with q = {q}, d = {d} at {per_axis} points per axis "
                             f"samples {rows} rows, above the cap {MAX_COMPILE_ROWS}")
        pts, design = _cell_samples(self.partition, per_axis, self.exponents)
        values = np.asarray(f(pts)).reshape(-1, len(design))
        return np.max(np.abs(values - self.coefficients @ design.T), axis=1)

    def sup_error(self, f: Callable) -> float:
        """Largest |f - self| on the probe grid: ``probe_error`` of
        ``probe_target(f, d)``.  A sweep over partitions of one target should
        take ``probe_target`` once and call ``probe_error`` per partition."""
        return self.probe_error(probe_target(f, self.partition.d))


def _probe_axis(d: int) -> np.ndarray:
    """Probe coordinates per axis: 401 for d <= 2, and 65 for d = 3 (64
    intervals, so every q dividing 64 keeps its cell faces on the grid)."""
    return np.linspace(0.0, 1.0, 401 if d <= 2 else 65)


def probe_target(f: Callable, d: int) -> np.ndarray:
    """``f`` on the uniform probe grid of [0, 1]^d, as a ``(len(axis),) * d``
    array; ``f`` is called once on all ``grid_rows`` of the axis."""
    axis = _probe_axis(d)
    return np.asarray(f(grid_rows(axis, d))).reshape((len(axis),) * d)


# Most sample rows one compile or ``cell_errors`` takes: 200 MB of points at d = 3.
MAX_COMPILE_ROWS = 2**23


def check_compile_size(d: int, q: int, ell: int) -> None:
    """Refuse a compile of more than ``MAX_COMPILE_ROWS`` sample rows."""
    rows = (int(q) * (int(ell) + 3)) ** int(d)  # Python ints: NumPy ones would wrap
    if rows > MAX_COMPILE_ROWS:
        raise ValueError(f"compile with q = {q}, d = {d}, ell = {ell} samples "
                         f"q^d (ell + 3)^d = {rows} rows, above the cap {MAX_COMPILE_ROWS}")


def _cell_samples(cells: CubePartition, per_axis: int, exponents: np.ndarray):
    """Every cell's tensor grid of ``per_axis`` points per axis, as rows in
    flat cell order, and the design matrix prod_j y_j^exponents[a, j] at the
    grid's scaled local coordinates y in [-1, 1]^d, which all cells share."""
    y = grid_rows(np.linspace(-1.0, 1.0, per_axis), cells.d)
    return (cells.grids(per_axis).reshape(-1, cells.d),
            np.prod(y[:, None, :] ** exponents, axis=-1))


def compile_sobolev_approximant(f: Callable, ell: int, cells: CubePartition,
                                smoothing=None) -> SobolevApproximant:
    """Fit a degree-ell polynomial per cell by discrete least squares.

    Every cell is sampled on the same tensor grid of ell + 3 points per axis
    in scaled local coordinates, so all cells share one design matrix: ``f``
    is called once on every cell's samples and one least-squares solve fits
    all cells, which reproduces global polynomials of degree <= ell exactly
    (the (ell + 3)^d nodes always exceed the C(ell + d, d) coefficients).
    With ``smoothing`` set (a sharpness value or per-axis tuple), the
    smoothed variant sum_i p_i phi_i is available.  A compile of more than
    ``MAX_COMPILE_ROWS`` sample rows is refused before anything is allocated.
    """
    if ell < 0:
        raise ValueError(f"local degree must be >= 0, got {ell}")
    if cells.d > 3:
        raise ValueError("compiler supports d <= 3")
    check_compile_size(cells.d, cells.q, ell)
    exponents = np.array(sorted(multi_indices(cells.d, ell)), dtype=int)
    if smoothing is not None:
        # All cells share one side, so one indicator validates the band.
        smoothing = indicator_bump(Cube((0.5 * cells.h,) * cells.d, cells.h),
                                   smoothing).sharpness
    pts, design = _cell_samples(cells, ell + 3, exponents)
    targets = np.asarray(f(pts)).reshape(-1, len(design)).T
    sol, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return SobolevApproximant(cells, *read_only(exponents, np.ascontiguousarray(sol.T)),
                              smoothing)


# ----------------------------------------------------------------------
# l1-scaled norm certificates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HmUpperBound:
    bound: float
    max_unit_norm: float
    ell1: float
    unit_norms: tuple[float, ...]


# Relative margin on every certified unit norm: the exact integrals round
# near 1e-15 for boxes and biases of unit scale.
_CERT_MARGIN = 1e-12


def _ridge_box_integrals(omega, bias, lo, hi, p) -> np.ndarray:
    """Exact integral of sigma_{p_ri}(omega_i . x + b_i) over the box [lo, hi],
    per unit i and row r of the exponents ``p`` (R, n), in p's shape.

    The axis of the largest |omega_ij| (>= 1/sqrt(d) on the unit sphere) is
    integrated in closed form by sigma_{p+1} / ((p + 1) omega_ij).  Each other
    axis gets Gauss-Legendre, split where the integral over the axes inside it
    changes polynomial piece (at the inner box corners, clipped to the box); a
    piece of degree p + (inner axes) takes ceil((degree + 1) / 2) nodes.  One
    layout of split points, nodes and weights per unit serves every row.
    """
    n, d = omega.shape
    order = np.argsort(np.arange(d) == np.argmax(np.abs(omega), axis=1)[:, None],
                       axis=1, kind="stable")  # the closed-form axis goes last
    omega, lo, hi = np.take_along_axis(omega, order, 1), lo[order], hi[order]
    lift, reach = omega * lo, omega * (hi - lo)
    c, w = bias[:, None], np.ones((n, 1))
    for a in range(d - 1):
        # omega . x over the inner box corners, and two infinite corners whose
        # split points clip to the ends of axis a.  Where omega_ia = 0 the
        # integrand is constant along axis a and any split is exact.
        corners = (lift[:, a + 1:].sum(axis=1, keepdims=True)
                   + reach[:, a + 1:] @ grid_rows(np.array([0.0, 1.0]), d - 1 - a).T)
        inner = np.hstack([corners, np.full((n, 2), [-np.inf, np.inf])])
        slope = omega[:, a, None, None]
        cuts = -(c[:, :, None] + inner[:, None]) / np.where(slope == 0.0, 1.0, slope)
        edges = np.sort(np.clip(cuts, lo[:, a, None, None], hi[:, a, None, None]), axis=2)
        nodes, weights = gauss_rule((int(p.max()) + d - a + 1) // 2)
        half = 0.5 * np.diff(edges, axis=2)[..., None]
        x = edges[..., :-1, None] + half * (nodes + 1.0)
        c = (c[:, :, None, None] + slope[..., None] * x).reshape(n, -1)
        w = (w[:, :, None, None] * half * weights).reshape(n, -1)
    upper, lower = (np.maximum(c + (omega[:, -1] * end[:, -1])[:, None], 0.0) ** (p[..., None] + 1)
                    for end in (hi, lo))
    return np.sum(w * (upper - lower), axis=-1) / ((p + 1) * omega[:, -1])


def network_hm_upper(net: ReluNetwork, omega_box: Box, m: int, bias_cap: float,
                     spec=None) -> HmUpperBound:
    """Certified H^m upper bound (max unit norm) * (l1 coefficient mass).

    The triangle inequality gives ||f_n||_{H^m} <= sum |a_i| ||g_i||_{H^m}
    <= max_i ||g_i||_{H^m} * sum |a_i|, a width-independent certificate.
    Requires every direction to be unit length, every |b_i| <= bias_cap, and
    m <= k_i - 1 per unit (k_i = m allowed only for m = 0) so the integrated
    derivatives stay bounded.

    The order-r derivatives of sigma_k(omega . x + b) contribute
    sum_{|alpha| = r} prod_j omega_j^(2 alpha_j) (k! / (k - r)!)^2 sigma_{k-r}^2,
    and sigma_q^2 = sigma_{2q}, so all units and orders need box integrals of
    sigma_{2(k-r)}, which ``_ridge_box_integrals`` computes exactly in one
    (m + 1, W) batch; the direction sums are ``homogeneous_sums`` at omega^2.
    Each unit norm carries a relative rounding margin of 1e-12, so the
    bound is exact up to that margin and never below the true value.  ``spec``
    is accepted and ignored.
    """
    if not net.width:
        return HmUpperBound(0.0, 0.0, 0.0, ())
    bad = np.stack([
        np.abs(np.linalg.norm(net.directions, axis=1) - 1.0) > 1e-12,
        np.abs(net.biases) > bias_cap,
        (net.powers < m + 1) & (m > 0),
    ])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))  # first offending unit, first failed check
        raise ValueError([
            f"unit {i} is not dictionary-constrained: |omega| != 1",
            f"unit {i} violates the bias cap: |{net.biases[i]}| > {bias_cap}",
            f"unit {i} has power {net.powers[i]}; order m={m} needs power >= {m + 1}",
        ][int(np.argmax(bad[:, i]))])
    lo, hi = np.array(validate_box(omega_box)).reshape(-1, 2).T
    if len(lo) != net.d:
        raise ValueError(f"box has {len(lo)} axes, expected {net.d}")
    orders = np.arange(m + 1)[:, None]
    falling = np.cumprod(np.vstack([np.ones(net.width), net.powers - orders[:-1]]), axis=0)
    integrals = _ridge_box_integrals(net.directions, net.biases, lo, hi, 2 * (net.powers - orders))
    by_order = homogeneous_sums(net.directions ** 2, m)
    norms = np.sqrt(np.sum(by_order * falling**2 * integrals, axis=0)) * (1.0 + _CERT_MARGIN)
    max_norm = float(norms.max())
    return HmUpperBound(max_norm * net.ell1, max_norm, net.ell1, tuple(norms.tolist()))
