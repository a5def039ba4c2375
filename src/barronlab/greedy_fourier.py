"""Greedy n-term truncation of lattice Fourier sums and rate-exponent algebra.

Frequencies are ordered by the dictionary-weighted coefficient size
(1 + |xi|)^(2m - ks) |c_xi| and the top n are kept; because lattice modes are
orthogonal on the period cell, the H^m truncation error is exactly the
weighted l2 mass of the discarded tail.  The module also collects the
closed-form rate exponents used by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .barron import FourierSum, from_arrays
from .numerics import grid_rows, sobolev_weight

WEIGHTED_RULE = "weighted"
MODE_NORM_RULE = "mode-norm"


@dataclass(frozen=True, eq=False)
class GreedySelection:
    """Deterministic ordering of a FourierSum's support.

    ``order`` is a permutation of the rows of the expansion's ``index`` and
    ``values`` arrays, ``sorted_keys`` the ordering-key values in that order
    (nonincreasing), and ``ell1_prefix[n]`` the l1 coefficient mass of the
    first n rows, so ``ell1_prefix[-1]`` is the full mass.  ``ordering``
    (lattice index tuples) and ``keys`` (floats) are tuple views of the same
    order.
    """

    order: np.ndarray
    index: np.ndarray
    sorted_keys: np.ndarray
    ell1_prefix: np.ndarray
    m: float
    ks: float
    rule: str

    @cached_property
    def ordering(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.index[self.order].tolist()))

    @cached_property
    def keys(self) -> tuple[float, ...]:
        return tuple(self.sorted_keys.tolist())

    def selected(self, n: int) -> tuple[tuple[int, ...], ...]:
        return self.ordering[: max(0, int(n))]

    def ell1_mass(self, n: int) -> float:
        n = max(0, min(int(n), len(self.order)))
        return float(self.ell1_prefix[n])


def order_frequencies(fs: FourierSum, m: float, ks: float,
                      rule: str = WEIGHTED_RULE) -> GreedySelection:
    """Order the support by decreasing key, ties broken by lattice index.

    The default rule keys on (1 + |z/L|)^(2m - ks) |c_z|.  The alternative
    ``mode-norm`` rule keys on |c_z| sqrt(w_m(a + z/L)), which sorts modes by
    their exact H^m contribution; it is exposed for comparison and is not
    the ordering whose tail bound the experiments certify.
    """
    if not fs.support_size():
        raise ValueError("cannot order an empty expansion")
    if rule not in (WEIGHTED_RULE, MODE_NORM_RULE):
        raise ValueError(f"unknown ordering rule {rule!r}")
    mags = np.abs(fs.values)
    if rule == WEIGHTED_RULE:
        xi_norm = np.linalg.norm(fs.index.astype(float), axis=1) / fs.L
        keys = (1.0 + xi_norm) ** (2.0 * m - ks) * mags
    else:
        weight = sobolev_weight(fs.shifted_frequencies(), int(m))
        keys = mags * np.sqrt(np.atleast_1d(weight))
    # np.lexsort sorts by its last key first: descending key, then the index
    # columns in order, so ties go to the smallest lattice index.
    order = np.lexsort(tuple(fs.index.T[::-1]) + (-keys,))
    prefix = np.concatenate(([0.0], np.cumsum(mags[order])))
    return GreedySelection(order, fs.index, keys[order], prefix,
                           float(m), float(ks), rule)


def truncate_top_n(fs: FourierSum, sel: GreedySelection, n: int) -> FourierSum:
    """Keep the first min(n, support size) coefficients of the ordering."""
    if n < 0:
        raise ValueError(f"term count must be >= 0, got {n}")
    kept = sel.order[:n]
    return from_arrays(fs.d, fs.L, fs.a, fs.index[kept], fs.values[kept])


def tail_error_hm(fs: FourierSum, sel: GreedySelection, n: int, m: int) -> float:
    """Exact H^m([0, L]^d) error of dropping all but the first n modes.

    Orthogonality makes this the square root of
    L^d * sum_{discarded} |c_z|^2 w_m(a + z/L); it is nonincreasing in n and
    zero once n reaches the support size.
    """
    discarded = sel.order[max(0, int(n)):]
    if discarded.size == 0:
        return 0.0
    eta = np.asarray(fs.a) + fs.index[discarded] / fs.L
    w = np.atleast_1d(sobolev_weight(eta, m))
    mass = np.abs(fs.values[discarded]) ** 2
    return math.sqrt(fs.L**fs.d * float(np.dot(w, mass)))


@dataclass(frozen=True)
class ExponentTable:
    """Closed-form rate exponents for a parameter point (s, m, k, d).

    All decay exponents are stored as positive numbers p meaning an error
    bound of order n^(-p); ``relu_log_power`` is the extra log(n) power of
    the case-split rate.
    """

    greedy_fourier_exponent: float
    relu_rate_exponent: float
    relu_log_power: float
    smoothness_threshold: float
    uniform_entropy_exponent: float
    sobolev_exponent: float
    width_barrier_exponent: float


def smoothness_threshold(k: float, m: float, d: int) -> float:
    """Smoothness level above which the case-split rate saturates at k - m + 1."""
    return (d + 1) * (k - m + 0.5) + m + 0.5


def rate_exponents(s: float, m: float, k: float, d: int) -> ExponentTable:
    """Evaluate every closed-form exponent at one parameter point.

    ``greedy_fourier_exponent`` is 1/2 + (k s - m)/d, the weighted greedy
    truncation rate at smoothness index k*s.  The case-split pair
    (``relu_rate_exponent``, ``relu_log_power``) is continuous in s and
    capped at k - m + 1, reached exactly at ``smoothness_threshold``.
    ``uniform_entropy_exponent`` is 1/2 + (2k + 1)/(2d),
    ``sobolev_exponent`` s/d, and ``width_barrier_exponent`` (k + 1) - m.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")
    threshold = smoothness_threshold(k, m, d)
    if s < threshold:
        t = 0.5 + (2.0 * (s - m) - 1.0) / (2.0 * (d + 1))
        q = 0.0
    elif s > threshold:
        t = k - m + 1.0
        q = 1.0
    else:
        t = k - m + 1.0
        q = 1.0 + (k - m + 0.5)
    return ExponentTable(
        greedy_fourier_exponent=0.5 + (k * s - m) / d,
        relu_rate_exponent=t,
        relu_log_power=q,
        smoothness_threshold=threshold,
        uniform_entropy_exponent=0.5 + (2.0 * k + 1.0) / (2.0 * d),
        sobolev_exponent=s / d,
        width_barrier_exponent=(k + 1.0) - m,
    )


def synthetic_heavy_tail(d: int, ks: float, xi_max: float, seed: int,
                         L: float = 0.5) -> FourierSum:
    """Random-phase expansion with |c_z| = (1 + |z/L|)^-(ks + d + 0.1).

    The decay makes the weighted l1 mass finite as the support grows, while
    keeping the truncation tail the rate-limiting term, which is what a
    slope measurement needs.  The default lattice spacing 1/L = 2 keeps the
    (1 + |xi|) factor dominated by |xi| from the first shells on; at unit
    spacing the low shells sit in the additive-offset transient and drag
    finite-range slope fits off the asymptotic rate.
    """
    if d not in (1, 2):
        raise ValueError("synthetic inputs are generated for d in {1, 2}")
    rng = np.random.default_rng(seed)
    z_max = int(math.floor(xi_max * L))
    index = grid_rows(np.arange(-z_max, z_max + 1), d)
    radius = np.linalg.norm(index, axis=1)
    inside = radius <= xi_max * L
    index, radius = index[inside], radius[inside]
    phase = np.exp(2j * np.pi * rng.random(len(index)))
    values = phase * (1.0 + radius / L) ** (-(ks + d + 0.1))
    return from_arrays(d, L, (0.0,) * d, index, values)
