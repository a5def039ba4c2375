"""Empirical subsampling of convex combinations, with Hoeffding-style
concentration certificates.

The subsampler realizes "a good subset exists" constructively: it draws
independent uniform multisets with replacement, keeps the one whose
per-monomial coefficient averages deviate least from the full average, and
certifies the measured deviation against the closed-form Hoeffding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def hoeffding_delta(n: int, coeff_bound: float, n_monomials: int,
                    fail_prob: float) -> float:
    """Union-bound Hoeffding deviation level B sqrt(log(2M / p) / (2n))."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if not 0.0 < fail_prob < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {fail_prob}")
    if not 0.0 <= coeff_bound < math.inf:
        raise ValueError(f"coefficient bound must be nonnegative and finite, got {coeff_bound}")
    if n_monomials < 1:
        raise ValueError("monomial count must be >= 1")
    return coeff_bound * math.sqrt(math.log(2.0 * n_monomials / fail_prob) / (2.0 * n))


# Most values one subsampling draws, as N * M terms or restarts * n indices: 512 MB.
MAX_DRAWS = 2**26


def check_draws(**sizes: int) -> None:
    """Refuse a draw of more than ``MAX_DRAWS`` values, the product of the ``sizes``."""
    if math.prod(int(size) for size in sizes.values()) > MAX_DRAWS:  # Python ints: no wrap
        raise ValueError(f"subsampling needs {' * '.join(sizes)} <= {MAX_DRAWS}, got "
                         + ", ".join(f"{key}={size}" for key, size in sizes.items()))


@dataclass(frozen=True)
class MaureyResult:
    indices: tuple[int, ...]
    deviation: float
    deviations: tuple[float, ...]
    hoeffding_bound: float
    accepted: bool


def maurey_subsample(terms, n: int, restarts: int = 64, seed: int = 0, *,
                     coeff_bound: float) -> MaureyResult:
    """Best-of-restarts uniform multiset whose average tracks the full average.

    ``terms`` is an (N, M) array of per-term monomial coefficient vectors.
    Rows are canonicalized (sorted lexicographically) before sampling so the
    selected rows are invariant under permuting the input list; ``indices``
    points into the caller's ``terms``, sorted, with repeats.  Sampling is
    with replacement; when n equals N the identity selection is included as
    restart 0 and wins with deviation zero.  The deviation is the max over
    monomials of |mean_selected - mean_all|, and ``accepted`` compares it
    with the Hoeffding level at failure probability 0.05 for the declared
    finite ``coeff_bound``, which every coefficient magnitude must respect;
    a NaN term is refused, as are restarts * n above ``MAX_DRAWS``.
    """
    arr = np.asarray(terms, dtype=float)
    if arr.ndim != 2:
        raise ValueError("terms must be a 2-d array of coefficient vectors")
    big_n, n_monomials = arr.shape
    if n_monomials < 1:
        raise ValueError(f"terms need at least one monomial column (M >= 1), got M={n_monomials}")
    if n > big_n:
        raise ValueError(f"subsample size {n} exceeds term count {big_n}")
    if n < 1:
        raise ValueError("subsample size must be >= 1")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    check_draws(restarts=restarts, n=n)
    level = hoeffding_delta(n, coeff_bound, n_monomials, 0.05)
    peak = np.max(np.abs(arr))
    if not peak <= coeff_bound + 1e-12:  # also refuses a NaN term
        raise ValueError(f"coefficient magnitude {peak} is not within the bound {coeff_bound}")
    order = np.lexsort(arr.T[::-1])
    canonical = arr[order]
    full_mean = canonical.mean(axis=0)
    rng = np.random.default_rng(seed)
    selections = []
    if n == big_n:
        selections.append(np.arange(big_n))
    selections.extend(rng.integers(0, big_n, size=n) for _ in range(restarts))
    deviations = np.array([np.max(np.abs(canonical[sel].mean(axis=0) - full_mean))
                           for sel in selections])
    best = int(np.argmin(deviations))  # argmin takes the first, lowest restart wins ties
    dev = float(deviations[best])
    return MaureyResult(
        indices=tuple(sorted(order[selections[best]].tolist())),
        deviation=dev,
        deviations=tuple(float(v) for v in deviations),
        hoeffding_bound=level,
        accepted=dev <= level,
    )
