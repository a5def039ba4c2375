"""Dictionary-measure truncation and empirical subsampling of convex
combinations, with Hoeffding-style concentration certificates.

The subsampler realizes "a good subset exists" constructively: it draws
independent uniform multisets with replacement, keeps the one whose
per-monomial coefficient averages deviate least from the full average, and
certifies the measured deviation against the closed-form Hoeffding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import read_only


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite signed combination of dictionary atoms (omega, b): atom i is row i
    of the read-only arrays ``directions`` (N, d), ``biases`` (N,) and ``masses`` (N,)."""

    directions: np.ndarray
    biases: np.ndarray
    masses: np.ndarray

    @property
    def total_variation(self) -> float:
        return float(np.abs(self.masses).sum())


def atomic_measure(entries: Sequence[tuple]) -> AtomicMeasure:
    """Measure from (direction, bias, mass) triples; errors name the first atom
    whose direction is not a unit vector of the first atom's dimension."""
    entries = list(entries)
    rows = [np.atleast_1d(np.asarray(omega, dtype=float)) for omega, _, _ in entries]
    d = len(rows[0]) if rows else 0
    for i, omega in enumerate(rows):
        if omega.shape != (d,):
            raise ValueError(f"atom {i} has direction shape {omega.shape}, expected ({d},)")
        if abs(np.linalg.norm(omega) - 1.0) > 1e-12:
            raise ValueError(f"atom {i} direction must be a unit vector")
    return AtomicMeasure(*read_only(np.array(rows).reshape(len(rows), d),
                                    np.array([float(e[1]) for e in entries]),
                                    np.array([float(e[2]) for e in entries])))


def truncate_dictionary_measure(mu: AtomicMeasure, eps: float,
                                domain_bound: float, k: int
                                ) -> tuple[float, AtomicMeasure]:
    """Smallest bias cap whose discarded atoms cost less than eps in sup norm.

    On a domain with |omega . x| <= domain_bound, a discarded atom at bias b
    contributes at most (|b| + domain_bound)^k |mass| to the sup norm.  The
    cap is the smallest value c from {0} union {|b_i|} such that the atoms
    with |b| > c have total weighted contribution below eps; atoms at or
    under the cap are kept.  The contributions are summed per distinct cap
    and suffix-summed, so the rule costs O(N log N).  Requires total
    variation <= 1 (unit-ball setting) and eps > 0.
    """
    if eps <= 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    if mu.total_variation > 1.0 + 1e-12:
        raise ValueError("truncation assumes a unit-ball measure (|mu| <= 1)")
    size = np.abs(mu.biases)
    caps, slot = np.unique(np.append(size, 0.0), return_inverse=True)
    cost = np.bincount(slot[:-1], (size + domain_bound) ** k * np.abs(mu.masses), len(caps))
    # tail[c] sums the costs of the caps above c; the largest cap's tail is 0 < eps.
    tail = np.append(np.cumsum(cost[:0:-1])[::-1], 0.0)
    cap = float(caps[np.argmax(tail < eps)])
    kept = size <= cap
    return cap, AtomicMeasure(*read_only(mu.directions[kept], mu.biases[kept], mu.masses[kept]))


def hoeffding_delta(n: int, coeff_bound: float, n_monomials: int,
                    fail_prob: float) -> float:
    """Union-bound Hoeffding deviation level B sqrt(log(2M / p) / (2n))."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if not 0.0 < fail_prob < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {fail_prob}")
    if coeff_bound < 0:
        raise ValueError("coefficient bound must be nonnegative")
    if n_monomials < 1:
        raise ValueError("monomial count must be >= 1")
    return coeff_bound * math.sqrt(math.log(2.0 * n_monomials / fail_prob) / (2.0 * n))


@dataclass(frozen=True)
class MaureyResult:
    indices: tuple[int, ...]
    deviation: float
    deviations: tuple[float, ...]
    hoeffding_bound: float
    accepted: bool
    sup_bound: float


def maurey_subsample(terms, n: int, restarts: int = 64, seed: int = 0,
                     coeff_bound: float | None = None) -> MaureyResult:
    """Best-of-restarts uniform multiset whose average tracks the full average.

    ``terms`` is an (N, M) array of per-term monomial coefficient vectors.
    Rows are canonicalized (sorted lexicographically) before sampling so the
    selected rows are invariant under permuting the input list; ``indices``
    points into the caller's ``terms``, sorted, with repeats.  Sampling is
    with replacement; when n equals N the identity selection is included as
    restart 0 and wins with deviation zero.  The deviation is the max over
    monomials of |mean_selected - mean_all|; ``sup_bound`` converts it to a
    sup-norm bound M * deviation for a basis of sup norm 1, and ``accepted``
    compares it with the Hoeffding level at failure probability 0.05.
    """
    arr = np.asarray(terms, dtype=float)
    if arr.ndim != 2:
        raise ValueError("terms must be a 2-d array of coefficient vectors")
    big_n, n_monomials = arr.shape
    if n > big_n:
        raise ValueError(f"subsample size {n} exceeds term count {big_n}")
    if n < 1:
        raise ValueError("subsample size must be >= 1")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    bound = float(np.max(np.abs(arr))) if coeff_bound is None else float(coeff_bound)
    if np.max(np.abs(arr)) > bound + 1e-12:
        raise ValueError("coefficient magnitudes exceed the declared bound")
    order = np.lexsort(arr.T[::-1])
    canonical = arr[order]
    full_mean = canonical.mean(axis=0)
    rng = np.random.default_rng(seed)
    selections = []
    if n == big_n:
        selections.append(np.arange(big_n))
    selections.extend(rng.integers(0, big_n, size=n) for _ in range(restarts))
    deviations = np.array([
        float(np.max(np.abs(canonical[sel].mean(axis=0) - full_mean)))
        for sel in selections
    ])
    best = int(np.argmin(deviations))  # argmin takes the first, lowest restart wins ties
    level = hoeffding_delta(n, bound, n_monomials, 0.05)
    dev = float(deviations[best])
    return MaureyResult(
        indices=tuple(sorted(order[selections[best]].tolist())),
        deviation=dev,
        deviations=tuple(float(v) for v in deviations),
        hoeffding_bound=level,
        accepted=dev <= level,
        sup_bound=n_monomials * dev,
    )
