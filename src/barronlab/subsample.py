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


@dataclass(frozen=True)
class Atom:
    direction: tuple[float, ...]
    bias: float
    mass: float

    def __post_init__(self):
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-12:
            raise ValueError("atom direction must be a unit vector")


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite signed combination of dictionary atoms (omega, b)."""

    atoms: tuple[Atom, ...]

    @property
    def total_variation(self) -> float:
        return float(sum(abs(a.mass) for a in self.atoms))


def atomic_measure(entries: Sequence[tuple]) -> AtomicMeasure:
    return AtomicMeasure(tuple(
        Atom(tuple(float(w) for w in np.atleast_1d(omega)), float(b), float(mass))
        for omega, b, mass in entries
    ))


def truncate_dictionary_measure(mu: AtomicMeasure, eps: float,
                                domain_bound: float, k: int
                                ) -> tuple[float, AtomicMeasure]:
    """Smallest bias cap whose discarded atoms cost less than eps in sup norm.

    On a domain with |omega . x| <= domain_bound, a discarded atom at bias b
    contributes at most (|b| + domain_bound)^k |mass| to the sup norm.  The
    cap is the smallest value c from {0} union {|b_i|} such that the atoms
    with |b| > c have total weighted contribution below eps; atoms at or
    under the cap are kept.  Requires total variation <= 1 (unit-ball
    setting) and eps > 0.
    """
    if eps <= 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    if mu.total_variation > 1.0 + 1e-12:
        raise ValueError("truncation assumes a unit-ball measure (|mu| <= 1)")
    candidates = sorted({0.0} | {abs(a.bias) for a in mu.atoms})
    cap = candidates[-1] if candidates else 0.0
    for c in candidates:
        tail = sum(
            (abs(a.bias) + domain_bound) ** k * abs(a.mass)
            for a in mu.atoms
            if abs(a.bias) > c
        )
        if tail < eps:
            cap = c
            break
    kept = tuple(a for a in mu.atoms if abs(a.bias) <= cap)
    return cap, AtomicMeasure(kept)


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
                     coeff_bound: float | None = None, basis_sup: float = 1.0,
                     fail_prob: float = 0.05) -> MaureyResult:
    """Best-of-restarts uniform multiset whose average tracks the full average.

    ``terms`` is an (N, M) array of per-term monomial coefficient vectors.
    Rows are canonicalized (sorted lexicographically) before sampling so the
    selected rows are invariant under permuting the input list; ``indices``
    points into the caller's ``terms``, sorted, with repeats.  Sampling is
    with replacement; when n equals N the identity selection is included as
    restart 0 and wins with deviation zero.  The deviation is the max over
    monomials of |mean_selected - mean_all|; ``sup_bound`` converts it to a
    sup-norm bound M * basis_sup * deviation.
    """
    arr = np.asarray(terms, dtype=float)
    if arr.ndim != 2:
        raise ValueError("terms must be a 2-d array of coefficient vectors")
    big_n, n_monomials = arr.shape
    if n > big_n:
        raise ValueError(f"subsample size {n} exceeds term count {big_n}")
    if n < 1:
        raise ValueError("subsample size must be >= 1")
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
    level = hoeffding_delta(n, bound, n_monomials, fail_prob)
    dev = float(deviations[best])
    return MaureyResult(
        indices=tuple(sorted(order[selections[best]].tolist())),
        deviation=dev,
        deviations=tuple(float(v) for v in deviations),
        hoeffding_bound=level,
        accepted=dev <= level,
        sup_bound=n_monomials * basis_sup * dev,
    )
