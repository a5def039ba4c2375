"""ReLU^k dictionary: activation, shallow networks, exact monomial algebra,
local polynomial surrogates of ridge units, smoothed cell indicators, and a
cube-partition compiler for smooth targets.

sigma_k(t) = max(0, t)^k with the convention 0^0 = 0, so sigma_0 is the
right-open Heaviside step.  Networks are flat lists of units
a_i sigma_{k_i}(omega_i . x + b_i); heterogeneous powers are allowed because
degree-m monomials use sigma_m units regardless of the ambient power cap.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import Box, QuadratureSpec, grid_rows, integrate, multi_indices, tensor_nodes


def sigma_k(t, k: int):
    """Powered rectifier max(0, t)^k; k = 0 gives the Heaviside with sigma_0(0) = 0."""
    if k < 0 or int(k) != k:
        raise ValueError(f"power must be a nonnegative integer, got {k}")
    t = np.asarray(t, dtype=float)
    single = t.ndim == 0
    t = np.atleast_1d(t)
    if k == 0:
        out = (t > 0).astype(float)
    else:
        out = np.maximum(t, 0.0) ** k
    return float(out[0]) if single else out


def sigma_k_derivative(t, k: int, order: int):
    """Pointwise derivative d^order/dt^order of sigma_k, valid for order <= k.

    Equals k! / (k - order)! * sigma_{k - order}(t); the order = k case is a
    step function scaled by k!.
    """
    if order < 0 or order > k:
        raise ValueError(f"derivative order {order} outside [0, {k}]")
    factor = math.factorial(k) // math.factorial(k - order)
    return factor * sigma_k(t, k - order)


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReluUnit:
    outer: complex
    direction: tuple[float, ...]
    bias: float
    power: int

    def __post_init__(self):
        if self.power < 0:
            raise ValueError(f"unit power must be >= 0, got {self.power}")


@dataclass(frozen=True)
class ReluNetwork:
    """Shallow network sum_i a_i sigma_{k_i}(omega_i . x + b_i)."""

    units: tuple[ReluUnit, ...]
    ambient_power: int = 0

    @property
    def d(self) -> int:
        return len(self.units[0].direction) if self.units else 0

    @property
    def width(self) -> int:
        return len(self.units)

    @property
    def ell1(self) -> float:
        return float(sum(abs(u.outer) for u in self.units))


# Pre-activations per block in ``evaluate_network``: 512 kB of float64.
_EVAL_BLOCK = 1 << 16


def relu_network(units: Sequence[tuple], ambient_power: int | None = None) -> ReluNetwork:
    """Build a network from (outer, direction, bias, power) tuples."""
    built = tuple(
        ReluUnit(complex(a), tuple(float(w) for w in np.atleast_1d(omega)),
                 float(b), int(k))
        for a, omega, b, k in units
    )
    if ambient_power is None:
        ambient_power = max((u.power for u in built), default=0)
    return ReluNetwork(built, int(ambient_power))


def evaluate_network(net: ReluNetwork, x):
    """Evaluate the unit sum at one point (d,) or a batch (N, d).

    Units are grouped by power.  Each group is one (rows, d) @ (d, W_k)
    product per block of at most ``_EVAL_BLOCK`` pre-activations, contracted
    after activation with the real and imaginary parts of the outer weights.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if net.units and pts.shape[1] != net.d:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {net.d}")
    weights = np.array([(u.outer.real, u.outer.imag) for u in net.units]).reshape(-1, 2)
    directions = np.array([u.direction for u in net.units]).reshape(net.width, pts.shape[1])
    biases = np.array([u.bias for u in net.units])
    powers = np.array([u.power for u in net.units], dtype=int)
    total = np.zeros((len(pts), 2))
    for k in np.unique(powers).tolist():
        group = powers == k
        omega, bias, w = directions[group].T, biases[group], weights[group]
        rows = max(1, _EVAL_BLOCK // len(bias))
        for start in range(0, len(pts), rows):
            t = pts[start:start + rows] @ omega
            t += bias
            total[start:start + rows] += sigma_k(t, k) @ w
    total = total[:, 0] + 1j * total[:, 1] if total[:, 1].any() else total[:, 0]
    return total[0].item() if single else total


def network_to_json(net: ReluNetwork) -> str:
    payload = {
        "k": net.ambient_power,
        "units": [
            {
                "a_re": u.outer.real,
                "a_im": u.outer.imag,
                "omega": list(u.direction),
                "b": u.bias,
                "k_i": u.power,
            }
            for u in net.units
        ],
    }
    return json.dumps(payload)


def network_from_json(text: str) -> ReluNetwork:
    payload = json.loads(text)
    units = tuple(
        ReluUnit(complex(u["a_re"], u["a_im"]), tuple(u["omega"]), float(u["b"]),
                 int(u["k_i"]))
        for u in payload["units"]
    )
    return ReluNetwork(units, int(payload["k"]))


def monomial_network_1d(m: int) -> ReluNetwork:
    """Two-unit network computing x^m on all of R: sigma_m(x) + (-1)^m sigma_m(-x).

    Constants (m = 0) are handled by a bias channel instead, since
    sigma_k(0 * x + b) is constant; see ``bias_channel``.
    """
    if m < 1:
        raise ValueError(f"monomial degree must be >= 1, got {m}")
    return relu_network(
        [(1.0, (1.0,), 0.0, m), ((-1.0) ** m, (-1.0,), 0.0, m)],
        ambient_power=m,
    )


def bias_channel(value: complex, d: int, k: int) -> ReluUnit:
    """Constant unit: zero direction, bias chosen so the unit emits ``value``.

    With omega = 0 the activation sigma_k(b) is constant in x, so a single
    unit with outer coefficient value / sigma_k(1) and b = 1 carries any
    constant exactly.
    """
    return ReluUnit(complex(value) / sigma_k(1.0, k), (0.0,) * d, 1.0, k)


# ----------------------------------------------------------------------
# product-term expansions of multivariate monomials
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProductTerm:
    """sign * prod_j sigma_{a_j}(s_j x_j) over the listed coordinates."""

    sign: int
    factors: tuple[tuple[int, int, int], ...]  # (coordinate, argument sign, power)


@dataclass(frozen=True)
class ProductTermSum:
    d: int
    terms: tuple[ProductTerm, ...]


def monomial_product_expansion(alpha: Sequence[int], k: int) -> ProductTermSum:
    """Expand prod_j x_j^(alpha_j) into signed products of one-sided powers.

    Each coordinate factor x^a equals sigma_a(x) + (-1)^a sigma_a(-x);
    distributing the product gives 2^(number of nonzero exponents) terms,
    each a product of coordinate-wise sigma powers.  Requires the total
    degree to stay within the power cap k.  The identity holds pointwise on
    all of R^d (no approximation).
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if sum(alpha) > k:
        raise ValueError(f"total degree {sum(alpha)} exceeds power cap {k}")
    active = [j for j, a in enumerate(alpha) if a > 0]
    terms = []
    for choice in itertools.product((1, -1), repeat=len(active)):
        sign = 1
        factors = []
        for j, s in zip(active, choice):
            if s == -1:
                sign *= (-1) ** alpha[j]
            factors.append((j, s, alpha[j]))
        terms.append(ProductTerm(sign, tuple(factors)))
    return ProductTermSum(len(alpha), tuple(terms))


def evaluate_product_sum(pts_sum: ProductTermSum, x):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    total = np.zeros(pts.shape[0])
    for term in pts_sum.terms:
        vals = np.full(pts.shape[0], float(term.sign))
        for j, s, a in term.factors:
            vals = vals * sigma_k(s * pts[:, j], a)
        total += vals
    return float(total[0]) if single else total


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
        cell, node = (grid_rows(np.arange(n), self.d) for n in (self.q, per_axis))
        return nodes[cell[:, None, :], node[None, :, :]]

    def cell_index(self, x) -> np.ndarray:
        """Flat cell index per point; the x = 1 faces belong to the last cell."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        ids = np.clip((pts * self.q).astype(int), 0, self.q - 1)
        return np.ravel_multi_index(tuple(ids.T), (self.q,) * self.d)


def _monomial_sum(y: np.ndarray, terms) -> np.ndarray:
    """Sum over (alpha, c) in ``terms`` of c prod_j y_j^alpha_j, row by row;
    each c is a scalar or holds one value per row of y."""
    total = np.zeros(len(y))
    for alpha, c in terms:
        term = c
        for j, aj in enumerate(alpha):
            if aj:
                term = term * y[:, j] ** aj
        total += term
    return total


@dataclass(frozen=True)
class CellPolynomial:
    """Polynomial sum_alpha coeff_alpha * prod_j (scale * (x_j - c_j))^alpha_j."""

    center: tuple[float, ...]
    scale: float
    coeffs: dict[tuple[int, ...], float]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = (np.atleast_2d(x) - np.asarray(self.center)) * self.scale
        total = _monomial_sum(y, self.coeffs.items())
        return float(total[0]) if x.ndim == 1 else total


def _expand_ridge_power(theta: np.ndarray, t0: float, k: int) -> dict[tuple[int, ...], float]:
    """Coefficients of (t0 + theta . y)^k as a polynomial in y = x - center."""
    coeffs: dict[tuple[int, ...], float] = {}
    # Binomial in t0, multinomial in theta . y; terms in increasing degree.
    for alpha in sorted(multi_indices(len(theta), k), key=sum):
        i = sum(alpha)
        coef = math.comb(k, i) * t0 ** (k - i) * math.factorial(i)
        for j, aj in enumerate(alpha):
            coef *= theta[j] ** aj / math.factorial(aj)
        if coef != 0.0:
            coeffs[alpha] = coef
    return coeffs


@dataclass(frozen=True)
class RidgeTaylor:
    """Local polynomial surrogate of a ridge unit on one cell.

    ``case`` is "positive", "negative", or "straddling".  The first two are
    exact (zero error).  For straddling cells the surrogate keeps the smooth
    branch selected by the sign of the ridge argument at the cell center and
    the report carries the measured sup error on a dense grid together with
    two a priori bounds: the Taylor-remainder form delta^(k+1) / (k+1) and
    the scaling form delta^k implied by the kink of the k-th derivative.
    The measured error tracks delta^k, not delta^(k+1).
    """

    case: str
    poly: CellPolynomial
    measured_error: float
    taylor_bound: float
    homogeneity_bound: float
    delta: float


def ridge_local_taylor(theta, b: float, cell: Cube, k: int,
                       grid_per_axis: int | None = None) -> RidgeTaylor:
    """Degree-k polynomial surrogate of sigma_k(theta . x + b) on a cell."""
    theta = np.asarray(theta, dtype=float)
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise ValueError("ridge direction must be a unit vector")
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    center = np.asarray(cell.center)
    t0 = float(theta @ center + b)
    delta = float(np.sum(np.abs(theta)) * cell.side / 2.0)
    t_min, t_max = t0 - delta, t0 + delta
    if grid_per_axis is None:
        grid_per_axis = 201 if cell.d == 1 else 41
    # The branch at the centre: exact when the cell does not straddle the kink.
    poly = CellPolynomial(cell.center, 1.0,
                          _expand_ridge_power(theta, t0, k) if t0 >= 0.0 else {})
    if t_min >= 0.0 or t_max <= 0.0:
        return RidgeTaylor("positive" if t_min >= 0.0 else "negative", poly,
                           0.0, 0.0, 0.0, delta)
    pts = cell.grid(grid_per_axis)
    measured = float(np.max(np.abs(sigma_k(pts @ theta + b, k) - poly(pts))))
    return RidgeTaylor("straddling", poly, measured, delta ** (k + 1) / (k + 1),
                       delta**k, delta)


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
        x = np.asarray(x, dtype=float)
        vals = _ramp_product(np.atleast_2d(x), np.asarray(self.cell.center),
                             self.cell.side, self.sharpness)
        return float(vals[0]) if x.ndim == 1 else vals


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

    @property
    def indicators(self) -> tuple[IndicatorBump, ...]:
        """Ramp indicator of every cell, built on access; empty without smoothing."""
        if self.smoothing is None:
            return ()
        return tuple(IndicatorBump(cell, self.smoothing) for cell in self.partition.cells())

    def _evaluate(self, pts: np.ndarray, cell_ids: np.ndarray) -> np.ndarray:
        """Polynomial of cell ``cell_ids[n]`` at ``pts[n]``, gathering one
        coefficient column at a time."""
        y = (pts - self.partition.centers()[cell_ids]) * (2.0 / self.partition.h)
        return _monomial_sum(y, ((alpha, column[cell_ids]) for alpha, column
                                 in zip(self.exponents.tolist(), self.coefficients.T)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        out = self._evaluate(pts, self.partition.cell_index(pts))
        return float(out[0]) if single else out

    def smoothed(self, x):
        """self(x) * phi_{cell(x)}(x); zero outside [0, 1]^d."""
        if self.smoothing is None:
            raise ValueError("approximant was compiled without smoothing")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        ids = self.partition.cell_index(pts)
        ramp = _ramp_product(pts, self.partition.centers()[ids], self.partition.h,
                             self.smoothing)
        out = self._evaluate(pts, ids) * ramp
        return float(out[0]) if single else out

    def sup_error(self, f: Callable, probes_per_axis: int = 401) -> float:
        pts = grid_rows(np.linspace(0.0, 1.0, probes_per_axis), self.partition.d)
        target = np.asarray(f(pts)).reshape(len(pts))
        return float(np.max(np.abs(target - self(pts))))

    def l2_error(self, f: Callable, spec: QuadratureSpec | None = None) -> float:
        box: Box = [(0.0, 1.0)] * self.partition.d

        def sq(pts):
            diff = np.asarray(f(pts)).reshape(len(pts)) - self(pts)
            return np.abs(diff) ** 2

        return math.sqrt(max(0.0, integrate(sq, box, spec)))


def compile_sobolev_approximant(f: Callable, ell: int, cells: CubePartition,
                                smoothing=None,
                                samples_per_axis: int | None = None) -> SobolevApproximant:
    """Fit a degree-ell polynomial per cell by discrete least squares.

    Every cell is sampled on the same tensor grid of (ell + 3) points per
    axis (overridable) in scaled local coordinates, so all cells share one
    design matrix: ``f`` is called once on every cell's samples and one
    least-squares solve fits all cells, which reproduces global polynomials
    of degree <= ell exactly.  With ``smoothing`` set (a sharpness value or
    per-axis tuple), the smoothed variant sum_i p_i phi_i is available.
    """
    if ell < 0:
        raise ValueError(f"local degree must be >= 0, got {ell}")
    if cells.d > 3:
        raise ValueError("compiler supports d <= 3")
    if samples_per_axis is None:
        samples_per_axis = ell + 3
    exponents = np.array(sorted(multi_indices(cells.d, ell)), dtype=int)
    if samples_per_axis**cells.d < len(exponents):
        raise ValueError(
            f"{samples_per_axis}^{cells.d} sample nodes cannot determine "
            f"{len(exponents)} polynomial coefficients"
        )
    if smoothing is not None:
        # All cells share one side, so one indicator validates the band.
        smoothing = indicator_bump(Cube((0.5 * cells.h,) * cells.d, cells.h),
                                   smoothing).sharpness
    y = grid_rows(np.linspace(-1.0, 1.0, samples_per_axis), cells.d)
    design = np.prod(y[:, None, :] ** exponents, axis=-1)
    pts = cells.grids(samples_per_axis).reshape(-1, cells.d)
    targets = np.asarray(f(pts)).reshape(-1, len(design)).T
    sol, *_ = np.linalg.lstsq(design, targets, rcond=None)
    coefficients = np.ascontiguousarray(sol.T)
    exponents.flags.writeable = False
    coefficients.flags.writeable = False
    return SobolevApproximant(cells, exponents, coefficients, smoothing)


# ----------------------------------------------------------------------
# l1-scaled norm certificates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HmUpperBound:
    bound: float
    max_unit_norm: float
    ell1: float
    unit_norms: tuple[float, ...]


def network_hm_upper(net: ReluNetwork, omega_box: Box, m: int, bias_cap: float,
                     spec: QuadratureSpec | None = None) -> HmUpperBound:
    """Certified H^m upper bound (max unit norm) * (l1 coefficient mass).

    The triangle inequality gives ||f_n||_{H^m} <= sum |a_i| ||g_i||_{H^m}
    <= max_i ||g_i||_{H^m} * sum |a_i|, a width-independent certificate.
    Requires every direction to be unit length, every |b_i| <= bias_cap, and
    m <= k_i - 1 per unit (k_i = m allowed only for m = 0) so the integrated
    derivatives stay bounded.
    """
    if not net.units:
        return HmUpperBound(0.0, 0.0, 0.0, ())
    for i, unit in enumerate(net.units):
        if abs(np.linalg.norm(unit.direction) - 1.0) > 1e-12:
            raise ValueError(f"unit {i} is not dictionary-constrained: |omega| != 1")
        if abs(unit.bias) > bias_cap:
            raise ValueError(
                f"unit {i} violates the bias cap: |{unit.bias}| > {bias_cap}"
            )
        if m > 0 and unit.power < m + 1:
            raise ValueError(
                f"unit {i} has power {unit.power}; order m={m} needs power >= {m + 1}"
            )
    if spec is None:
        spec = QuadratureSpec(resolution=48)
    pts, w = tensor_nodes(omega_box, spec.resolution)
    norms = []
    for unit in net.units:
        t = pts @ np.asarray(unit.direction) + unit.bias
        sq = np.zeros(len(pts))
        for alpha in multi_indices(len(unit.direction), m):
            r = sum(alpha)
            dir_factor = np.prod(
                [unit.direction[j] ** (2 * a) for j, a in enumerate(alpha)]
            )
            vals = sigma_k_derivative(t, unit.power, r)
            sq += dir_factor * vals**2
        norms.append(math.sqrt(float(np.dot(w, sq))))
    max_norm = max(norms)
    return HmUpperBound(max_norm * net.ell1, max_norm, net.ell1, tuple(norms))
