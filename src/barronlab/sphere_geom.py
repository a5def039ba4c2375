"""Direction sets on the unit sphere: greedy farthest-point nets,
maximal separated subsets, and probed covering radii.

Both constructions work on one seeded pool of uniform unit vectors.  The net
is a farthest-point traversal of the pool (Gonzalez, 1985): a running
min-squared-distance array over the pool makes each step one matrix-vector
product.  The separated subset scans the pool in order and keeps each point at
distance >= delta from every point kept before it; blocks of the pool are
first filtered by one matrix product against the points already kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SphericalNet:
    """Unit vectors with separation and probed-covering metadata.

    ``min_sep`` is the smallest pairwise Euclidean distance (inf for a single
    point); ``cover_rad`` is a probe-based lower estimate of the covering
    radius (probing can only miss the worst gap, never overstate it).
    """

    d: int
    points: np.ndarray
    min_sep: float
    cover_rad: float

    def __post_init__(self):
        pts = np.atleast_2d(self.points)
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("net points must be unit vectors")

    @property
    def size(self) -> int:
        return len(self.points)


def uniform_sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Uniform unit vectors via normalized isotropic Gaussian draws."""
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _pairwise_min_distance(points: np.ndarray) -> float:
    if len(points) < 2:
        return math.inf
    gram = points @ points.T
    sq = np.maximum(0.0, 2.0 - 2.0 * gram)
    np.fill_diagonal(sq, np.inf)
    return float(np.sqrt(sq.min()))


def covering_radius(points: np.ndarray, probes: int = 10000,
                    seed: int = 0, probe_points: np.ndarray | None = None) -> float:
    """Probed covering radius of the unit vectors ``points`` (m, d): max over
    probes of the min distance to a point.

    A lower bound on the true covering radius; probing can only miss the
    worst gap.  Probes are seeded uniform draws (at least 10^4 so the
    estimate is meaningful) unless an explicit probe set is supplied.
    """
    points = np.atleast_2d(points)
    d = points.shape[1]
    if probe_points is not None:
        batches = [np.atleast_2d(probe_points)]
    else:
        if probes < 10000:
            raise ValueError(f"need at least 10000 probes, got {probes}")
        rng = np.random.default_rng(seed)
        batches = [uniform_sphere(rng, min(4096, probes - start), d)
                   for start in range(0, probes, 4096)]
    worst = 0.0
    for q in batches:
        sq = np.maximum(0.0, 2.0 - 2.0 * (q @ points.T))
        worst = max(worst, float(np.sqrt(sq.min(axis=1).max())))
    return worst


def _probed_net(points: np.ndarray, seed: int) -> SphericalNet:
    """Read-only net of the rows of points, its covering radius probed by
    ``covering_radius``'s default 10^4 probes from seed + 1."""
    points.setflags(write=False)
    return SphericalNet(d=points.shape[1], points=points, min_sep=_pairwise_min_distance(points),
                        cover_rad=covering_radius(points, seed=seed + 1))


# Largest m * candidate_pool that greedy_net takes: its time grows with the
# product (2^28 is m = 1024 at the default pool of 256 m).
MAX_NET_WORK = 2**28


def check_net_work(m: int, candidate_pool: int) -> None:
    """Refuse a greedy net whose m * candidate_pool exceeds ``MAX_NET_WORK``."""
    if int(m) * int(candidate_pool) > MAX_NET_WORK:
        raise ValueError(f"greedy net needs m * candidate pool <= {MAX_NET_WORK}, "
                         f"got m = {m} with a pool of {candidate_pool}")


def greedy_net(d: int, m: int, candidate_pool: int | None = None,
               seed: int = 0) -> SphericalNet:
    """Greedy farthest-point net of m directions on S^(d-1).

    The pool is ``uniform_sphere(default_rng(seed), candidate_pool, d)``,
    drawn once; ``candidate_pool`` is its total size (default 256 m, at least
    64 m).  Pool row 0, a seeded uniform draw, is the first point; each further
    point is the pool row that maximizes the minimum distance to the points
    already chosen, the lowest row index on ties.  O(m * pool) work, and an
    m * pool above ``MAX_NET_WORK`` is refused before the pool is drawn.  The
    covering radius is probed with 10^4 seeded probes.
    """
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    if m < 1:
        raise ValueError(f"point count must be >= 1, got {m}")
    if candidate_pool is None:
        candidate_pool = 256 * m
    if candidate_pool < 64 * m:
        raise ValueError(f"candidate pool {candidate_pool} below 64 * m = {64 * m}")
    check_net_work(m, candidate_pool)
    pool = uniform_sphere(np.random.default_rng(seed), candidate_pool, d)
    chosen = np.zeros(m, dtype=np.intp)
    min_sq = np.full(candidate_pool, np.inf)
    for i in range(1, m):
        sq = np.maximum(0.0, 2.0 - 2.0 * (pool @ pool[chosen[i - 1]]))
        chosen[i] = np.argmax(np.minimum(min_sq, sq, out=min_sq))
    return _probed_net(pool[chosen], seed)


# Pool rows per filtering product in separated_subset.
_SUBSET_BLOCK = 256


def separated_subset(d: int, delta: float, candidate_pool: int = 8192,
                     seed: int = 0) -> SphericalNet:
    """Greedy maximal delta-separated subset drawn from a seeded candidate pool.

    Pool rows are taken in order, and a row is kept when its distance to every
    row kept before it is >= delta.  Every kept pair is at distance >= delta;
    maximality is certified by the covering radius probed with 10^4 seeded
    probes, which for a truly maximal set cannot exceed delta.  delta >= 2
    (the chordal diameter) yields a single point almost surely.
    """
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    if delta <= 0:
        raise ValueError(f"separation must be positive, got {delta}")
    rng = np.random.default_rng(seed)
    pool = uniform_sphere(rng, candidate_pool, d)
    kept = np.empty_like(pool)  # the first n rows hold the accepted points
    n = 0
    # A row whose block-product squared distance to a kept row falls below
    # this limit is dropped unchecked.  The margin is far above the rounding
    # gap between the block product and the per-row product of the exact
    # check, so the filter drops only rows that check would reject.
    limit = delta * delta * (1.0 - 1e-9) - 1e-9
    for start in range(0, candidate_pool, _SUBSET_BLOCK):
        block = pool[start:start + _SUBSET_BLOCK]
        if n:
            block = block[np.min(2.0 - 2.0 * (block @ kept[:n].T), axis=1) >= limit]
        for cand in block:
            sq = np.maximum(0.0, 2.0 - 2.0 * (kept[:n] @ cand))
            if np.sqrt(sq.min(initial=np.inf)) >= delta:
                kept[n] = cand
                n += 1
    return _probed_net(kept[:n].copy(), seed)
