"""Reference computations that unit tests check barronlab against: a box
quadrature, the integrand of the arctan-dictionary measure, whose mass
``lower_bounds.example2_tail_mass`` takes in closed form, a network's
value summed unit by unit, and a periodization that samples every node."""

import math
from functools import reduce

import numpy as np

from barronlab.barron import from_arrays, mollified_cutoff
from barronlab.numerics import axis_rule, grid_rows, sigma_k, tensor_nodes


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
    """sum_i a_i sigma_k(omega_i . x + b_i) on the batch ``pts`` (N, d), one unit at a time."""
    total = np.zeros(len(pts))
    for a, omega, b in zip(net.outer, net.directions, net.biases):
        total += a * sigma_k(pts @ omega + b, net.power)
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
