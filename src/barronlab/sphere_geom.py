"""Direction sets on the unit sphere: greedy farthest-point nets,
maximal separated subsets, and probed covering radii.

Both constructions work on one seeded pool of uniform unit vectors.  The net
is a farthest-point traversal of the pool (Gonzalez, 1985): a running
min-squared-distance array over the pool makes each step one matrix-vector
product.  The separated subset scans the pool in order and keeps each point at
distance >= delta from every point kept before it; blocks of the pool are
first filtered by one matrix product against the points already kept.

Minimum separations and probed covering radii go through one distance kernel
that writes a block of query rows' squared distances to the m points into one
reused (block, m) buffer, so their memory is block x m floats, not queries x m.
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


# Rows per block of the distance kernel, whose (block, m) squared distances
# are reduced before the next block is computed, and of separated_subset's
# filter.  512 was no faster for covering_radius and made separated_subset
# 10-20% slower (more rows reach its per-row check).
_BLOCK = 256


def _sq_distances(queries: np.ndarray, points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared chordal distances max(0, 2 - 2 q . p) of the rows of ``queries``
    to the rows of ``points``, computed in place in the first len(queries)
    rows of ``out`` (at least (len(queries), m)), which it returns."""
    out = out[:len(queries)]
    np.matmul(queries, points.T, out=out)
    out *= 2.0
    np.subtract(2.0, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _pairwise_min_distance(points: np.ndarray) -> float:
    """Smallest distance between two rows of ``points``, inf for one row.
    Row blocks go through the distance kernel, each with its own entries of
    the diagonal set to inf."""
    if len(points) < 2:
        return math.inf
    out = np.empty((min(_BLOCK, len(points)), len(points)))
    least = math.inf
    for start in range(0, len(points), _BLOCK):
        sq = _sq_distances(points[start:start + _BLOCK], points, out)
        np.fill_diagonal(sq[:, start:], np.inf)
        least = min(least, sq.min())
    return float(np.sqrt(least))


def covering_radius(points: np.ndarray, probes: int = 10000,
                    seed: int = 0, probe_points: np.ndarray | None = None) -> float:
    """Probed covering radius of the unit vectors ``points`` (m, d): max over
    probes of the min distance to a point.

    A lower bound on the true covering radius; probing can only miss the
    worst gap.  Probes are seeded uniform draws (at least 10^4 so the
    estimate is meaningful), made 4096 at a time as they are used, unless an
    explicit probe set is supplied.  Probes run through the distance kernel
    ``_BLOCK`` rows at a time, so beyond the points and the probes it holds
    one (_BLOCK, m) buffer and one 4096 x d draw.
    """
    points = np.atleast_2d(points)
    d = points.shape[1]
    if probe_points is not None:
        batches = [np.atleast_2d(probe_points)]
    else:
        if probes < 10000:
            raise ValueError(f"need at least 10000 probes, got {probes}")
        rng = np.random.default_rng(seed)
        batches = (uniform_sphere(rng, min(4096, probes - start), d)
                   for start in range(0, probes, 4096))
    out = np.empty((_BLOCK, len(points)))
    worst = 0.0
    for q in batches:
        for start in range(0, len(q), _BLOCK):
            worst = max(worst, _sq_distances(q[start:start + _BLOCK], points, out)
                        .min(axis=1).max())
    return float(np.sqrt(worst))


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
    covering radius is probed with 10^4 seeded probes.  Memory is the pool,
    its running minima and a few pool-length temporaries per step; min_sep
    and cover_rad add ``_BLOCK`` x m floats and one 4096 x d draw of probes.
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


def separated_subset(d: int, delta: float, candidate_pool: int = 8192,
                     seed: int = 0) -> SphericalNet:
    """Greedy maximal delta-separated subset drawn from a seeded candidate pool.

    Pool rows are taken in order, and a row is kept when its distance to every
    row kept before it is >= delta.  Every kept pair is at distance >= delta;
    maximality is certified by the covering radius probed with 10^4 seeded
    probes, which for a truly maximal set cannot exceed delta.  delta >= 2
    (the chordal diameter) yields a single point almost surely.  Memory is
    the pool, the kept rows and one ``_BLOCK`` x kept filtering product;
    min_sep and cover_rad add ``_BLOCK`` x kept floats and one 4096 x d draw
    of probes.
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
    for start in range(0, candidate_pool, _BLOCK):
        block = pool[start:start + _BLOCK]
        if n:
            block = block[np.min(2.0 - 2.0 * (block @ kept[:n].T), axis=1) >= limit]
        for cand in block:
            sq = np.maximum(0.0, 2.0 - 2.0 * (kept[:n] @ cand))
            if np.sqrt(sq.min(initial=np.inf)) >= delta:
                kept[n] = cand
                n += 1
    return _probed_net(kept[:n].copy(), seed)
