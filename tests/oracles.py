"""Reference computations that unit tests check barronlab against: a box
quadrature, the integrand of the arctan-dictionary measure, whose mass
``lower_bounds.example2_tail_mass`` takes in closed form, a network's
value summed over its units' dense values, a periodization that samples
every node, and sphere distances from whole distance matrices."""

import math
from functools import reduce

import numpy as np

from barronlab.barron import from_arrays, mollified_cutoff
from barronlab.numerics import axis_rule, grid_rows, sigma_k, tensor_nodes
from barronlab.sphere_geom import uniform_sphere


def integrate(f, box, resolution: int):
    """Tensor Gauss-Legendre integral over ``box`` of ``f``, which maps the
    (N, d) node batch to N real or complex values."""
    pts, w = tensor_nodes(box, resolution)
    return w @ f(pts)


def plateau_weight(b, omega):
    """Bias weight (1 + max(0, |b| - 2|omega|))^-2; equals 1 on |b| <= 2|omega|."""
    b = np.asarray(b, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return (1.0 + np.maximum(0.0, np.abs(b) - 2.0 * np.abs(omega))) ** -2


def tail_density(omega, b, m: int):
    """Unnormalized joint density (1 + |omega|)^m h(b, omega) sqrt(pi) e^{-omega^2/4},
    with h the ``plateau_weight``."""
    omega = np.asarray(omega, dtype=float)
    return ((1.0 + np.abs(omega)) ** m * plateau_weight(b, omega) * math.sqrt(math.pi)
            * np.exp(-(omega**2) / 4.0))


def unit_sum(net, pts):
    """sum_i a_i sigma_k(omega_i . x + b_i) on the batch ``pts`` (N, d): the
    dense (N, units) values of each block of units times its outer weights,
    with blocks of about 2^20 values."""
    total = np.zeros(len(pts))
    step = max(1, 2**20 // max(1, len(pts)))
    for start in range(0, net.width, step):
        units = slice(start, start + step)
        total += sigma_k(pts @ net.directions[units].T + net.biases[units],
                         net.power) @ net.outer[units]
    return total


def periodize_every_node(f, L, a, z_box, support_bound):
    """``barron.periodize_expand`` without its window: the target sampled at
    all n^d Gauss-Legendre nodes on [-eps, L - eps]^d, times the full tensor
    cutoff, then contracted with the weighted phases one node axis at a time,
    on n = 32 ceil(L) nodes, and on 2n when the outermost index ring holds
    more than 1% of the l1 mass."""
    L, a = float(L), tuple(float(v) for v in a)
    d, eps = len(a), min(1.0, (L - support_bound) / 4.0)
    z = np.arange(-z_box, z_box + 1)
    index = grid_rows(z, d)
    ring = np.max(np.abs(index), axis=1) == z_box
    for resolution in (32 * math.ceil(L), 64 * math.ceil(L)):
        nodes, weights = axis_rule(-eps, L - eps, resolution)
        cutoff = reduce(np.multiply.outer,
                        [mollified_cutoff(nodes[:, None], L, eps, resolution)] * d)
        h = np.asarray(f(grid_rows(nodes, d)), dtype=complex).reshape(cutoff.shape) * cutoff
        for aj in a:
            phase = np.exp(-2j * np.pi * np.outer(aj + z / L, nodes)) * weights
            h = np.tensordot(h, phase, axes=([0], [1]))
        values = h.ravel() / L**d
        mags = np.abs(values)
        total = float(mags.sum())
        frac = float(mags[ring].sum()) / total if total else 0.0
        if frac <= 0.01:
            return from_arrays(d, L, a, index, values)
    return from_arrays(d, L, a, index, values, warnings=(
        f"truncation: outermost index ring at |z|={z_box} carries "
        f"{frac:.2%} of the l1 coefficient mass; increase z_box",))


def whole_matrix_covering_radius(points, probes=10000, seed=0, probe_points=None):
    """``sphere_geom.covering_radius`` on whole (batch, m) distance matrices,
    with every 4096-probe batch drawn before the first is used."""
    points = np.atleast_2d(points)
    d = points.shape[1]
    if probe_points is not None:
        batches = [np.atleast_2d(probe_points)]
    else:
        rng = np.random.default_rng(seed)
        batches = [uniform_sphere(rng, min(4096, probes - start), d)
                   for start in range(0, probes, 4096)]
    worst = 0.0
    for q in batches:
        sq = np.maximum(0.0, 2.0 - 2.0 * (q @ points.T))
        worst = max(worst, float(np.sqrt(sq.min(axis=1).max())))
    return worst


def whole_matrix_min_distance(points):
    """``sphere_geom._pairwise_min_distance`` on the whole (m, m) distance matrix."""
    if len(points) < 2:
        return math.inf
    sq = np.maximum(0.0, 2.0 - 2.0 * (points @ points.T))
    np.fill_diagonal(sq, np.inf)
    return float(np.sqrt(sq.min()))
