"""Reference computations that unit tests check barronlab against: a box
quadrature, the integrand of the arctan-dictionary measure, whose mass
``lower_bounds.example2_tail_mass`` takes in closed form, and a network's
value summed unit by unit."""

import math

import numpy as np

from barronlab.numerics import sigma_k, tensor_nodes


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
