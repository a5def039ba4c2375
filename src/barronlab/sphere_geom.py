"""Direction sets on the unit sphere: greedy farthest-candidate nets,
maximal separated subsets, and probed covering radii.

The exact farthest-point step is set-theoretic, so each greedy step draws a
fresh seeded candidate pool and keeps the candidate farthest from the points
chosen so far; this preserves the covering behaviour up to a constant while
staying fully deterministic given the seed.
"""

from __future__ import annotations

import io
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


def covering_radius(net: SphericalNet | np.ndarray, probes: int = 10000,
                    seed: int = 0, probe_points: np.ndarray | None = None) -> float:
    """Probed covering radius: max over probes of min distance to the net.

    A lower bound on the true covering radius; probing can only miss the
    worst gap.  Probes are seeded uniform draws (at least 10^4 so the
    estimate is meaningful) unless an explicit probe set is supplied.
    """
    points = net.points if isinstance(net, SphericalNet) else np.atleast_2d(net)
    d = points.shape[1]
    if probe_points is not None:
        batches = [np.atleast_2d(probe_points)]
    else:
        if probes < 10000:
            raise ValueError(f"need at least 10000 probes, got {probes}")
        rng = np.random.default_rng(seed)
        batches = []
        remaining = probes
        while remaining > 0:
            take = min(4096, remaining)
            remaining -= take
            batches.append(uniform_sphere(rng, take, d))
    worst = 0.0
    for q in batches:
        sq = np.maximum(0.0, 2.0 - 2.0 * (q @ points.T))
        worst = max(worst, float(np.sqrt(sq.min(axis=1).max())))
    return worst


def _probed_net(points: np.ndarray, cover_probes: int, seed: int) -> SphericalNet:
    """Read-only net of the rows of points, its covering radius probed from seed + 1."""
    points.setflags(write=False)
    return SphericalNet(d=points.shape[1], points=points, min_sep=_pairwise_min_distance(points),
                        cover_rad=covering_radius(points, cover_probes, seed + 1))


def greedy_net(d: int, m: int, candidate_pool: int | None = None,
               seed: int = 0, cover_probes: int = 10000) -> SphericalNet:
    """Greedy farthest-candidate net of m directions on S^(d-1).

    The first point is a seeded uniform draw; each subsequent point is the
    candidate, from a fresh seeded uniform pool, that maximizes the minimum
    distance to the points already chosen.  Deterministic given the seed.
    """
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    if m < 1:
        raise ValueError(f"point count must be >= 1, got {m}")
    if candidate_pool is None:
        candidate_pool = 256 * m
    if candidate_pool < 64 * m:
        raise ValueError(f"candidate pool {candidate_pool} below 64 * m = {64 * m}")
    rng = np.random.default_rng(seed)
    points = np.empty((m, d))
    points[0] = uniform_sphere(rng, 1, d)[0]
    for i in range(1, m):
        pool = uniform_sphere(rng, candidate_pool, d)
        sq = np.maximum(0.0, 2.0 - 2.0 * (pool @ points[:i].T))
        best = int(np.argmax(sq.min(axis=1)))
        points[i] = pool[best]
    return _probed_net(points, cover_probes, seed)


def separated_subset(d: int, delta: float, candidate_pool: int = 8192,
                     seed: int = 0, cover_probes: int = 10000) -> SphericalNet:
    """Greedy maximal delta-separated subset drawn from a seeded candidate pool.

    Every kept pair is at distance >= delta; maximality is certified by the
    probed covering radius, which for a truly maximal set cannot exceed
    delta.  delta >= 2 (the chordal diameter) yields a single point almost
    surely.
    """
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    if delta <= 0:
        raise ValueError(f"separation must be positive, got {delta}")
    rng = np.random.default_rng(seed)
    pool = uniform_sphere(rng, candidate_pool, d)
    kept = np.empty_like(pool)  # the first n rows hold the accepted points
    n = 0
    for cand in pool:
        sq = np.maximum(0.0, 2.0 - 2.0 * (kept[:n] @ cand))
        if np.sqrt(sq.min(initial=np.inf)) >= delta:
            kept[n] = cand
            n += 1
    return _probed_net(kept[:n].copy(), cover_probes, seed)


def net_to_csv(net: SphericalNet) -> str:
    """One unit vector per row, 17-significant-digit components."""
    buf = io.StringIO()
    for row in net.points:
        buf.write(",".join(format(v, ".17g") for v in row))
        buf.write("\n")
    return buf.getvalue()


def net_from_csv(text: str) -> SphericalNet:
    rows = [
        [float(v) for v in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    points = np.array(rows)
    points.setflags(write=False)
    return SphericalNet(
        d=points.shape[1],
        points=points,
        min_sep=_pairwise_min_distance(points),
        cover_rad=float("nan"),
    )
