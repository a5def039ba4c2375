"""ReLU^k dictionary: shallow networks, exact monomial algebra, local
polynomial surrogates of ridge units, smoothed cell indicators, and a
cube-partition compiler for smooth targets.

A network holds the parameters of its units a_i sigma_k(omega_i . x + b_i),
with ``numerics.sigma_k`` (sigma_0 the right-open Heaviside step), in arrays,
with real outer weights a_i and one power k for all units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import (Box, as_batch, count_text, gauss_rule, grid_rows, homogeneous_sums,
                       multi_indices, read_only, ridge_block, sigma_k, unbatch,
                       validate_box)


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------

class ReluUnit(NamedTuple):
    """One unit a sigma_k(omega . x + b), as ``relu_network`` accepts it."""

    outer: float
    direction: tuple[float, ...]
    bias: float
    power: int


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Shallow network sum_i a_i sigma_k(omega_i . x + b_i).

    Unit i is row i of the read-only arrays ``outer`` (W,) float,
    ``directions`` (W, d) and ``biases`` (W,); ``power`` is k.  Build it
    with ``relu_network``, which validates the units.
    """

    outer: np.ndarray
    directions: np.ndarray
    biases: np.ndarray
    power: int

    @property
    def d(self) -> int:
        return self.directions.shape[1]

    @property
    def width(self) -> int:
        return len(self.outer)

    @property
    def ell1(self) -> float:
        return float(np.abs(self.outer).sum())

    @property
    def units(self) -> tuple[ReluUnit, ...]:
        """The units as records, built on access."""
        return tuple(ReluUnit(a, tuple(omega), b, self.power) for a, omega, b in zip(
            self.outer.tolist(), self.directions.tolist(), self.biases.tolist()))


# Pre-activations per block of ``evaluate_network``: 1 MB of float64, the fastest of
# 2^16, 2^17 and 2^18 entries on a 2-vCPU host with 2 MB of L2 per core.  A tile's
# atoms and its form's widest contraction step, (d + 1)^(k - 1) entries a row, share
# one buffer of this size, and the tiles' unit signs and form tensors are made in
# blocks of tiles and of units within the same size.
_EVAL_BLOCK = 1 << 17

# Points per tile of ``evaluate_network``: g tiles per axis, the most that leave g^d
# tiles this many points each.  On ``evaluate-w2000-k2`` (20,000 points in d = 3) it
# gives g = 3, 741 points a tile: 9.9 ms a call against 11.1 ms at g = 4 and 15 ms at
# g = 5 on one core of a 2-vCPU host (medians of 15 calls), and g = 2 on 4096 points.
_TILE_POINTS = 450


def relu_network(units: Sequence[tuple]) -> ReluNetwork:
    """Build a network from (outer, direction, bias, power) tuples.

    Unit 0's power must be a nonnegative integer, and every unit must have
    that power, a real outer weight, a direction of unit 0's shape, and a
    finite outer weight, direction and bias; each check's error names its
    first offending unit.  An empty network has power 0.
    """
    if not units:
        return ReluNetwork(*read_only(np.zeros(0), np.zeros((0, 0)), np.zeros(0)), 0)
    outer, directions, biases, powers = zip(*units)
    k, outer = powers[0], np.array(outer, dtype=complex)
    if k < 0 or int(k) != k:
        raise ValueError(f"unit 0 power must be a nonnegative integer, got {k}")
    bad = np.flatnonzero((np.array(powers) != k) | (outer.imag != 0))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"unit {i} has power {powers[i]}, unlike unit 0's {k}" if powers[i] != k
                         else f"unit {i} has outer weight {outer[i]}, which is not real")
    try:
        omega = np.array(directions, dtype=float).reshape(len(directions), np.size(directions[0]))
    except ValueError:  # ragged: name the first direction unlike unit 0's
        shapes = [np.shape(omega) for omega in directions]
        i = next((i for i, shape in enumerate(shapes) if shape != shapes[0]), None)
        if i is None:
            raise
        raise ValueError(f"unit {i} has direction shape {shapes[i]}, not {shapes[0]}") from None
    outer, biases = outer.real.copy(), np.array(biases, dtype=float)
    bad = ~np.array([np.isfinite(outer), np.isfinite(omega).all(axis=1), np.isfinite(biases)])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))  # first offending unit, first failed check
        raise ValueError((f"unit {i} has outer weight {outer[i]}, which is not finite",
                          f"unit {i} has direction {omega[i].tolist()}, which is not finite",
                          f"unit {i} has bias {biases[i]}, which is not finite",
                          )[int(np.argmax(bad[:, i]))])
    return ReluNetwork(*read_only(outer, omega, biases), int(k))


def evaluate_network(net: ReluNetwork, x):
    """Evaluate the unit sum at one point (d,) or a batch (N, d).

    The batch's bounding box is cut into g^d equal tiles, g the most per
    axis that leave ``_TILE_POINTS`` points a tile (g = 1 below that), and
    the points are sorted by tile once.  On each tile's own bounding box the
    units are sorted by sign in O(W d): a unit with t = omega . x + b below
    minus a rounding margin on the whole tile adds 0 there and is dropped.
    Where t stays above the margin, sigma_k(t) = t^k, so the tile's P such
    units add up to <T, [x - c | 1]^(x)k> with T = sum_i a_i
    [omega_i; omega_i . c + b_i]^(x)k about the batch box's centre c,
    contracted one axis at a time.  Each unit's products are made once per
    block of tiles and each tile's T is their masked sum; T costs (d + 1)^k
    products per unit to build and per point to contract, so on a tile of n
    points the form replaces the P units' atoms only when
    (d + 1)^k (P + n) < P n.  The margin covers the rounding of t, so
    sigma_0's step at t = 0 is never collapsed and no value moves by more
    than rounding; with nothing dropped or collapsed, the result is bitwise
    what every unit's atoms give.

    The units that straddle a tile get atoms, one ``ridge_block`` of each
    row block of the tile's [x | 1] rows, contracted with their outer
    weights; a row block holds at most ``_EVAL_BLOCK`` atoms and form
    entries, in one scratch buffer that each block of tiles makes after its
    classification and form products and that its tiles use in turn.
    """
    pts, single = as_batch(x, d=net.d if net.width else None)
    total = np.zeros(len(pts))
    if not (net.width and len(pts)):
        return unbatch(total, single)
    d, k, n, width = net.d, net.power, len(pts), net.width
    # reduceat over all rows: about 9x faster than pts.min(axis=0) on (N, 3) rows
    lo, hi = np.minimum.reduceat(pts, [0])[0], np.maximum.reduceat(pts, [0])[0]
    center, magnitude = 0.5 * (lo + hi), np.abs(net.directions)
    mid = net.directions @ center + net.biases  # t at the box's centre
    # At least twice the rounding error of t = [x | 1] @ [omega; b] in any
    # summation order, (d + 1) eps/2 (sum_j |x_j omega_j| + |b|), plus that of
    # a tile's mid and spread.
    margin = 4 * (d + 2) * np.finfo(float).eps * (
        magnitude @ np.maximum(np.abs(lo), np.abs(hi)) + np.abs(net.biases))
    g = max(1, int((n / _TILE_POINTS) ** (1 / d) + 1e-9))
    scale = np.divide(g, hi - lo, out=np.zeros(d), where=hi > lo)
    # Tile numbers as the smallest unsigned type: up to 16 bits, a stable argsort
    # sorts them by radix.
    tile = np.ravel_multi_index(np.minimum(((pts - lo) * scale).astype(np.intp), g - 1).T,
                                (g,) * d).astype(np.min_scalar_type(g ** d - 1))
    order = np.argsort(tile, kind="stable")
    pts, tile = pts[order], tile[order]
    starts = np.flatnonzero(np.diff(tile, prepend=-1))
    ends = np.append(starts[1:], n)
    tile_lo, tile_hi = np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)
    offsets, halves = 0.5 * (tile_lo + tile_hi) - center, 0.5 * (tile_hi - tile_lo)
    ridge = np.vstack([net.directions.T, net.biases])
    # Entries of T a unit or point, and of its widest contraction step a row;
    # no tile of at most n points takes a form when (d + 1)^k >= n.
    cost = min((d + 1) ** k, n)
    cols = max(1, cost // (d + 1)) if cost < n else 0
    height = min(int(np.max(ends - starts)), _EVAL_BLOCK)
    lifted, shifted = np.ones((height, d + 1)), np.ones((height, d + 1))
    chunk = max(1, _EVAL_BLOCK // max(2 * width, cols * (d + 1)))

    def fill(tile, scratch):  # the tile's rows of total
        keep, tensor, lo_row, hi_row, collapsed = tile
        outer, tile_ridge = net.outer[keep], ridge[:, keep]
        used = len(outer) + (cols if collapsed else 0)
        if not used:
            return
        step = max(1, _EVAL_BLOCK // used)
        for start in range(lo_row, hi_row, step):
            block = pts[start:min(start + step, hi_row)]
            m, atoms = len(block), len(outer)
            lifted[:m, :-1] = block
            value = (ridge_block(lifted[:m], tile_ridge, scratch[:m * atoms].reshape(m, atoms),
                                 k=k) @ outer if atoms else 0.0)
            if collapsed:
                np.subtract(block, center, out=shifted[:m, :-1])
                value = value + _contract(tensor, shifted[:m],
                                          scratch[m * atoms:m * used].reshape(m, cols))
            total[order[start:start + m]] = value

    for first in range(0, len(starts), chunk):
        tiles = slice(first, first + chunk)
        sizes = ends[tiles] - starts[tiles]
        # t at each tile's centre and its extremes on the tile; the spread is made
        # twice so that two (tiles x W) float arrays suffice.
        mids = offsets[tiles] @ net.directions.T
        mids += mid
        spreads = halves[tiles] @ magnitude.T
        kept = np.add(mids, spreads, out=spreads) > -margin
        np.matmul(halves[tiles], magnitude.T, out=spreads)
        form = np.subtract(mids, spreads, out=spreads) > margin
        del mids, spreads
        positive = np.count_nonzero(form, axis=1)
        form[cost * (positive + sizes) >= positive * sizes] = False
        kept &= ~form
        tensors = _form_tensors(net.outer, net.directions, mid, form, k)
        scratch = np.empty(min(n * (width + cols), max(_EVAL_BLOCK, width + cols)))
        for tile in zip(kept, tensors, starts[tiles], ends[tiles], form.any(axis=1)):
            fill(tile, scratch)
        del scratch  # freed before the next block's classification
    return unbatch(total, single)


def _form_tensors(outer: np.ndarray, directions: np.ndarray, mid: np.ndarray,
                  form: np.ndarray, k: int) -> np.ndarray:
    """T_t = sum_i form[t, i] outer_i rows_i^(x)k, rows_i = [omega_i; mid_i], for each
    row t of the mask ``form``, each a ((d + 1)^(k - 1), d + 1) matrix, its last axis
    apart; at k = 0, the (1, 1) matrix [[sum_i form[t, i] outer_i]].  The products of
    the units that some row keeps are made once, in unit blocks whose widest
    temporary stays within ``_EVAL_BLOCK`` entries, and one product with the mask
    sums them for every row.  A single row keeps all of them and takes their
    plain sum, the last factor contracted with the rows: one tile's T has the
    bits of the whole box's form."""
    units = np.flatnonzero(form.any(axis=0))
    outer, form = outer[units], form[:, units]
    if k == 0 or not len(units):  # with no unit kept, zeros of one entry that nothing reads
        return np.where(form, outer, 0.0).sum(axis=1).reshape(-1, 1, 1)
    rows = np.column_stack([directions[units], mid[units]])
    whole = len(form) == 1
    tensors = np.zeros((len(form), rows.shape[1] ** (k - 1), rows.shape[1]))
    step = max(1, _EVAL_BLOCK // rows.shape[1] ** (k - whole))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        powers = outer[start:start + step, None]
        for _ in range(k - whole):
            powers = (powers[:, :, None] * block[:, None, :]).reshape(len(block), -1)
        tensors += (powers.T @ block if whole else
                    (form[:, start:start + step] @ powers).reshape(tensors.shape))
    return tensors


def _contract(tensor: np.ndarray, shifted: np.ndarray, out: np.ndarray) -> np.ndarray:
    """<T, y^(x)k> for each row y of ``shifted`` (n, d + 1), with T from
    ``_form_tensors``: one axis at a time, the first into ``out`` (n, (d + 1)^(k - 1))."""
    if tensor.shape[1] == 1:  # k = 0: the constant sum
        return tensor[0, 0]
    partial = np.matmul(shifted, tensor.T, out=out)
    while partial.shape[1] > 1:
        partial = np.einsum("nrj,nj->nr", partial.reshape(len(shifted), -1, shifted.shape[1]),
                            shifted)
    return partial[:, 0]


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
        """(q^d, per_axis^d, d) tensor grids of all cells: row i is every d-tuple,
        in lexicographic order, of ``per_axis`` evenly spaced nodes spanning cell i."""
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
    t0 at the cell center.  That branch is exact on its side of the kink, so
    the sup error is reached at the corner across it: ``measured_error`` is
    exactly (delta - |t0|)^k.  The report adds two a priori bounds: the
    Taylor-remainder form delta^(k+1) / (k+1) and the scaling form delta^k
    implied by the kink of the k-th derivative.
    The error tracks delta^k, not delta^(k+1).
    """

    case: str
    measured_error: float
    taylor_bound: float
    homogeneity_bound: float
    delta: float


def ridge_local_taylor(theta, b: float, cell: Cube, k: int) -> RidgeTaylor:
    """Degree-k polynomial surrogate of sigma_k(theta . x + b) on a cell."""
    theta = np.asarray(theta, dtype=float)
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise ValueError("ridge direction must be a unit vector")
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    center = np.asarray(cell.center)
    t0 = float(theta @ center + b)
    delta = float(np.sum(np.abs(theta)) * cell.side / 2.0)
    if abs(t0) >= delta:  # one sign on the whole cell
        return RidgeTaylor("positive" if t0 >= delta else "negative", 0.0, 0.0, 0.0, delta)
    return RidgeTaylor("straddling", (delta - abs(t0)) ** k, delta ** (k + 1) / (k + 1),
                       delta**k, delta)


# ----------------------------------------------------------------------
# smoothed indicators and the cube-partition compiler
# ----------------------------------------------------------------------

def _ramp_product(pts: np.ndarray, centers, side: float, sharpness: float) -> np.ndarray:
    """prod_j clip(a (side/2 - |x_j - c_j|), 0, 1) for each row x of pts."""
    return np.clip(sharpness * (side / 2.0 - np.abs(pts - centers)), 0.0, 1.0).prod(axis=1)


@dataclass(frozen=True)
class IndicatorBump:
    """Ramp-product indicator: 1 on the core of the cell, 0 outside it.

    phi(x) = prod_j clip(a (h/2 - |x_j - c_j|), 0, 1), which is expressible
    with first-power rectifier units since clip(t, 0, 1) =
    sigma_1(t) - sigma_1(t - 1).  The transition band has width 1/a inside
    the cell boundary.
    """

    cell: Cube
    sharpness: float

    def __call__(self, x):
        pts, single = as_batch(x, d=self.cell.d)
        return unbatch(_ramp_product(pts, np.asarray(self.cell.center), self.cell.side,
                                     self.sharpness), single)


def indicator_bump(cell: Cube, sharpness: float) -> IndicatorBump:
    """Smoothed indicator of a cell; the transition band must fit inside it."""
    a = float(sharpness)
    if not (a > 0 and a * (cell.side / 2.0) > 1.0):
        raise ValueError(f"sharpness {a} must be positive with its transition band 1/a inside "
                         f"a cell of side {cell.side}; need sharpness * side/2 > 1")
    return IndicatorBump(cell, a)


@dataclass(frozen=True, eq=False)
class SobolevApproximant:
    """Piecewise polynomial fit on a cube partition, optionally smoothed.

    Cell i (flat index, as in ``CubePartition.cell_index``) carries the
    polynomial sum_a coefficients[i, a] prod_j y_j^exponents[a, j] in the
    scaled local coordinates y = 2 q (x - c_i), which map the cell onto
    [-1, 1]^d.  The exact evaluator uses the polynomial of the containing
    cell; the smoothed evaluator multiplies it by that cell's ramp indicator
    (sharpness ``smoothing``), so the two differ only inside the indicator
    transition bands.
    """

    partition: CubePartition
    exponents: np.ndarray  # (n_alpha, d) int
    coefficients: np.ndarray  # (q^d, n_alpha)
    smoothing: float | None = None

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
        np.subtract(target, approx, out=approx)
        return float(np.max(np.abs(approx, out=approx)))

    def cell_errors(self, f: Callable) -> np.ndarray:
        """Largest |f - p_i| of each cell i on its own closed grid, faces included,
        of 64 points per axis at d = 1 and 9 above.  A check of more than
        ``MAX_COMPILE_ROWS`` sample rows is refused before sampling."""
        d, q = self.partition.d, self.partition.q
        per_axis = 64 if d == 1 else 9
        rows = (int(q) * per_axis) ** int(d)
        if rows > MAX_COMPILE_ROWS:
            raise ValueError(f"cell check with q = {q}, d = {d} at {per_axis} points per axis "
                             f"samples {count_text(rows)} rows, above the cap {MAX_COMPILE_ROWS}")
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
        raise ValueError(f"compile with q = {q}, d = {d}, ell = {ell} samples q^d (ell + 3)^d "
                         f"= {count_text(rows)} rows, above the cap {MAX_COMPILE_ROWS}")


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
    With ``smoothing`` set (a sharpness value), the smoothed variant
    sum_i p_i phi_i is available.  A compile of more than
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

@dataclass(frozen=True, eq=False)
class HmUpperBound:
    bound: float
    max_unit_norm: float
    ell1: float
    unit_norms: np.ndarray  # read-only (W,) certified unit norms


# Relative margin on every certified unit norm: the exact integrals round
# near 1e-15 for boxes and biases of unit scale.
_CERT_MARGIN = 1e-12

# Units per block of ``network_hm_upper``.  At d = 3 and W in {500, 16384} on a
# 2-vCPU host, with the sizes' calls interleaved in one process, 32 was the
# slowest (up to 1.6x 64's time: twice the blocks, each paying NumPy's per-call
# overhead), and 128 was 5-30% faster than 64 but holds twice its memory per
# block (2.2 MiB at k = 2, m = 1 and 4.7 MiB at k = 3, m = 2, against 1.1 and
# 2.4 MiB).
_CERT_BLOCK = 64


def _ridge_box_integrals(omega, bias, lo, hi, p, tables=None) -> np.ndarray:
    """Exact integral of sigma_{p_r}(omega_i . x + b_i) over the box [lo, hi],
    per row r of the exponents ``p`` (R, 1) and unit i, as an (R, n) array.

    The axis of the largest |omega_ij| (>= 1/sqrt(d) on the unit sphere) is
    integrated in closed form by sigma_{p+1} / ((p + 1) omega_ij).  Each other
    axis gets Gauss-Legendre, split where the integral over the axes inside it
    changes polynomial piece (at the inner box corners, clipped to the box); a
    piece of degree p + (inner axes) takes ceil((degree + 1) / 2) nodes.  One
    layout of split points, nodes and weights per unit serves every row.

    The closed-form axis's powers at its two ends fill two (R, n, nodes)
    tables.  ``tables``, a list, keeps them for later calls with the same
    exponents and at most n units, which write into their leading units:
    an empty list receives this call's tables.
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
    if tables is None:
        tables = []
    if not tables:
        tables += [np.empty((len(p),) + c.shape) for _ in (hi, lo)]
    upper, lower = (table[:, :n] for table in tables)
    for table, end in zip((upper, lower), (hi, lo)):
        np.power(np.maximum(c + (omega[:, -1] * end[:, -1])[:, None], 0.0), p[..., None] + 1,
                 out=table)
    upper -= lower
    upper *= w
    return np.sum(upper, axis=-1) / ((p + 1) * omega[:, -1])


def network_hm_upper(net: ReluNetwork, omega_box: Box, m: int, bias_cap: float,
                     spec=None) -> HmUpperBound:
    """Certified H^m upper bound (max unit norm) * (l1 coefficient mass).

    The triangle inequality gives ||f_n||_{H^m} <= sum |a_i| ||g_i||_{H^m}
    <= max_i ||g_i||_{H^m} * sum |a_i|, a width-independent certificate.
    Requires a nonnegative integer m <= k - 1 (k = m allowed only for m = 0)
    so the integrated derivatives stay bounded, every direction to be unit
    length, every |b_i| <= bias_cap and every a_i and b_i finite.

    The order-r derivatives of sigma_k(omega . x + b) contribute
    sum_{|alpha| = r} prod_j omega_j^(2 alpha_j) (k! / (k - r)!)^2 sigma_{k-r}^2,
    and sigma_q^2 = sigma_{2q}, so all units and orders need box integrals of
    sigma_{2(k-r)}, which ``_ridge_box_integrals`` computes exactly for all
    orders at once; the direction sums are ``homogeneous_sums`` at omega^2
    and the falling factorials k! / (k - r)! one column.
    The units go in blocks of ``_CERT_BLOCK`` so that memory is one block's
    at any width (about 1 MB at d = 3, k = 2, m = 1); the first block's two
    power tables serve every later block, and as every step works on one
    unit's row, the norms are bitwise those of one call over all units.
    Each unit norm carries a relative rounding margin of 1e-12, so the
    bound is exact up to that margin and never below the true value.  ``spec``
    is accepted and ignored.
    """
    if not (0 <= m < np.inf and int(m) == m):  # so that NaN fails
        raise ValueError(f"order m must be a nonnegative integer, got {m}")
    if not net.width:
        return HmUpperBound(0.0, 0.0, 0.0, *read_only(np.zeros(0)))
    k, m = net.power, int(m)
    if m > 0 and k < m + 1:
        raise ValueError(f"network has power {k}; order m={m} needs power >= {m + 1}")
    bad = ~np.array([np.abs(np.linalg.norm(net.directions, axis=1) - 1.0) <= 1e-12,
                     np.abs(net.biases) <= bias_cap,  # so that NaN fails
                     np.isfinite(net.biases), np.isfinite(net.outer)])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))  # first offending unit, first failed check
        raise ValueError((f"unit {i} is not dictionary-constrained: |omega| != 1",
                          f"unit {i} violates the bias cap: |{net.biases[i]}| > {bias_cap}",
                          f"unit {i} has bias {net.biases[i]}, which is not finite",
                          f"unit {i} has outer weight {net.outer[i]}, which is not finite",
                          )[int(np.argmax(bad[:, i]))])
    lo, hi = np.array(validate_box(omega_box)).reshape(-1, 2).T
    if len(lo) != net.d:
        raise ValueError(f"box has {len(lo)} axes, expected {net.d}")
    orders = np.arange(m + 1)[:, None]
    falling = np.cumprod(np.vstack([1.0, k - orders[:-1]]), axis=0)

    norms, tables = np.empty(net.width), []
    for start in range(0, net.width, _CERT_BLOCK):
        rows = slice(start, start + _CERT_BLOCK)
        directions = net.directions[rows]
        integrals = _ridge_box_integrals(directions, net.biases[rows], lo, hi, 2 * (k - orders),
                                         tables)
        weights = homogeneous_sums(directions ** 2, m) * falling**2
        norms[rows] = np.sqrt(np.sum(weights * integrals, axis=0)) * (1.0 + _CERT_MARGIN)
    max_norm = float(norms.max())
    return HmUpperBound(max_norm * net.ell1, max_norm, net.ell1, *read_only(norms))
