"""Witness constructions for approximation barriers: high-frequency gap
probes of low-pass exponential ridge atoms, dyadic frequency blocks,
oscillatory targets with growing Sobolev mass, sign-vector packing
families, and the closed-form tail masses of the arctan-dictionary measure.

Everything here produces measured quantities and closed-form reference
values; nothing claims a true infimum over a network class.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .barron import (MAX_BOX_ROWS, FourierSum, fourier_sum, from_arrays, hm_norm_exact,
                     mode_norm)
from .numerics import (as_batch, axis_rule, count_text, read_only, ridge_block, sigma_k,
                       unbatch)

if TYPE_CHECKING:  # the packing code imports sphere_geom when it runs
    from .sphere_geom import SphericalNet


# ----------------------------------------------------------------------
# exponential-decay ridge atoms and the high-frequency gap probe
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GapProbe:
    """Best least-squares error over random atom-parameter candidates.

    ``errors_by_width[j]`` is the best L2[-1, 1] error using the first j + 1
    atoms of each candidate set, so the sequence is nonincreasing; ``error``
    is the final entry.  An upper bound on the true best error.
    """

    error: float
    errors_by_width: tuple[float, ...]
    regularized: int


MAX_GAP_ATOMS = 2**20  # cap on candidates * n_units in ``highfreq_gap``
_GAP_BLOCK = 32  # most candidates per batched QR in ``highfreq_gap``
_GAP_BLOCK_FLOATS = 2**18  # most [A | b] floats per batched QR (2 MiB)
_GAP_NODES = 256  # Gauss-Legendre nodes on [-1, 1] in ``highfreq_gap``
_GAP_RANK_TOL = 1e-10  # deficient column: |QR pivot| <= tol * column norm


def highfreq_gap(alpha: float, omega0: float, n_units: int, candidates: int,
                 seed: int = 0) -> GapProbe:
    """Probe how well e^{i omega0 x} is approximated on [-1, 1] by n atoms.

    Errors are L2[-1, 1] norms on 256 Gauss-Legendre nodes, so n_units
    must lie in [1, 256].  Each candidate draws an atom-parameter sequence
    (omega_j, b_j) from a seeded generator and atoms
    e^{-alpha |omega_j x + b_j|}, so the decay rate alpha must be a
    positive finite number.  A block of candidates gets one batched
    R-only QR of the sqrt(w)-weighted [A | b], with A the n atoms and b the
    real and imaginary parts of the target.  Its leading n x n block is the
    R of A = QR, its top-right block is c = Q^T b, and the Frobenius square
    of its trailing block is ||b - Qc||^2.  The least-squares error of the
    first j atoms is ||b - Qc||^2 + sum_{i > j} |c_i|^2, a sum of
    nonnegative terms, so the per-width errors are nonincreasing and never
    cancel to zero.  A rank-deficient column (pivot below ``_GAP_RANK_TOL``
    of its norm) gets c_i = 0, its |c_i|^2 moves into the residual, and it
    is counted in ``regularized``.  One draw holds every candidate's
    parameters, and a loop solves its views of 32 candidates, fewer when
    n_units > 30 so that a block's [A | b] stays within 2^18 floats
    (2 MiB), one after another into one scratch buffer made for the call;
    minima and counts combine in block order, so the probe is bitwise the
    same for any block size.  omega0 must be finite, and
    candidates * n_units at most ``MAX_GAP_ATOMS`` = 2^20, refused before
    the draw.  At that cap a fresh process's peak RSS grows by 33 MB, to
    61 MB (the 16 MiB draw, the scratch and LAPACK's QR work), and the
    probe takes 10-12 s at n_units = 256 and 6-9 s at n_units = 1 (32768
    blocks) on one core of a 2-vCPU host.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"decay rate alpha must be a positive finite number, got {alpha}")
    if not math.isfinite(omega0):
        raise ValueError(f"frequency omega0 must be finite, got {omega0}")
    if not 1 <= n_units <= _GAP_NODES:
        raise ValueError(f"unit count must lie in [1, {_GAP_NODES}], the probe's "
                         f"quadrature nodes, got n_units={n_units}")
    if candidates < 1:
        raise ValueError(f"need at least one candidate, got {candidates}")
    if candidates * n_units > MAX_GAP_ATOMS:
        raise ValueError(f"candidates * n_units must be at most {MAX_GAP_ATOMS}, got "
                         f"candidates={candidates} * n_units={n_units} = {candidates * n_units}")
    nodes, weights = axis_rule(-1.0, 1.0, _GAP_NODES)
    lifted = np.stack([nodes, np.ones(_GAP_NODES)], axis=1)  # [x | 1] at the nodes
    root_w = np.sqrt(weights)
    # Real and imaginary parts of the target as two right-hand sides, weighted with the atoms.
    rhs = np.stack([np.cos(omega0 * nodes), np.sin(omega0 * nodes)])
    omega_scale = max(4.0, 2.0 * abs(omega0))

    def solve(params, scratch):
        """Per-width least error of one block's candidates, and its regularized count."""
        # cols[c, j] is column j of candidate c's [A | b], so each matrix is
        # already in the column-major order LAPACK reads.
        cols = scratch[:len(params)]
        atoms = cols[:, :n_units]
        ridge = np.swapaxes(params * (omega_scale, 2.0), 1, 2)  # [omega * scale; 2 b]
        ridge_block(lifted, ridge, np.swapaxes(atoms, 1, 2), alpha=alpha)
        cols[:, n_units:] = rhs
        cols *= root_w  # one pass over whole contiguous matrices
        r = np.linalg.qr(np.swapaxes(cols, 1, 2), mode="r")
        lead, coef = r[:, :n_units, :n_units], r[:, :n_units, n_units:]
        # Q is orthogonal, so column j of R has the norm of atom j.
        deficient = np.abs(np.diagonal(lead, axis1=1, axis2=2)) \
            <= _GAP_RANK_TOL * np.linalg.norm(lead, axis=1)
        sq = np.sum(coef**2, axis=2)
        base = np.sum(r[:, n_units:, n_units:] ** 2, axis=(1, 2)) + np.sum(sq * deficient, axis=1)
        sq[deficient] = 0.0
        tail = np.zeros(sq.shape)
        tail[:, :-1] = np.cumsum(sq[:, :0:-1], axis=1)[:, ::-1]
        return np.sqrt(base[:, None] + tail).min(axis=0), int(deficient.sum())

    params = np.random.default_rng(seed).standard_normal((candidates, n_units, 2))
    size = min(_GAP_BLOCK, max(1, _GAP_BLOCK_FLOATS // ((n_units + 2) * _GAP_NODES)))
    scratch = np.empty((min(size, candidates), n_units + 2, _GAP_NODES))
    solved = [solve(params[i:i + size], scratch) for i in range(0, candidates, size)]
    best = np.min([block_best for block_best, _ in solved], axis=0)
    return GapProbe(
        error=float(best[-1]),
        errors_by_width=tuple(float(v) for v in best),
        regularized=sum(count for _, count in solved),
    )


# ----------------------------------------------------------------------
# dyadic frequency blocks
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DyadicDecomposition:
    """Sharp annulus split of an expansion: level 0 holds |xi| < 2, level
    k >= 1 holds 2^k <= |xi| < 2^(k+1).  On atomic spectra the indicator
    split is an exact partition, so the blocks sum back to the split
    expansion and are pairwise orthogonal on the period cell.

    ``runs[k]`` holds level k's row runs, slices of the spectrum's sorted
    index, one at level 0 and two (negative xi, then positive) above, so
    the split stores no row twice.  ``sq_norms`` reads the runs; ``blocks``
    copies each level's rows into its own expansion, made when first read.
    """

    spectrum: FourierSum
    runs: tuple[tuple[slice, ...], ...]

    @cached_property
    def blocks(self) -> tuple[tuple[int, FourierSum], ...]:
        """(level, block expansion) per level, in level order."""
        # The runs are sorted and finite, and no block's peak exceeds the spectrum's,
        # so ``from_arrays`` would neither reorder nor drop a row: build blocks directly.
        fs = self.spectrum
        return tuple((k, FourierSum(1, fs.L, fs.a, *read_only(
            np.concatenate([fs.index[r] for r in runs]),
            np.concatenate([fs.values[r] for r in runs]))))
            for k, runs in enumerate(self.runs))

    @cached_property
    def sq_norms(self) -> tuple[float, ...]:
        """Squared L2 norm of each level's block, in level order, computed once:
        ``hm_norm_exact(block, 0) ** 2`` from the level's runs of |c_z|^2."""
        fs = self.spectrum
        power = np.abs(fs.values) ** 2
        return tuple(mode_norm(fs.L, fs.d, np.concatenate([power[r] for r in runs])) ** 2
                     for runs in self.runs)


def dyadic_blocks(spectrum: FourierSum) -> DyadicDecomposition:
    """Split a one-dimensional expansion into dyadic frequency annuli: the
    row runs of each level from 0 to the spectrum's top level."""
    if spectrum.d != 1:
        raise ValueError("dyadic blocks are implemented for d = 1")
    # The index is sorted, so xi = z / L ascends and each level is one run or two:
    # -2 < xi < 2 at level 0, -2^(k+1) < xi <= -2^k and 2^k <= xi < 2^(k+1) at k >= 1.
    xi = spectrum.index[:, 0] / spectrum.L
    top = max(0, int(np.frexp(np.abs(xi).max(initial=0.0))[1]) - 1)  # floor(log2 max |xi|)
    edges = 2.0 ** np.arange(1, top + 2)
    neg, pos = np.searchsorted(xi, -edges, side="right"), np.searchsorted(xi, edges)
    return DyadicDecomposition(spectrum, ((slice(neg[0], pos[0]),),) + tuple(
        (slice(neg[k], neg[k - 1]), slice(pos[k - 1], pos[k])) for k in range(1, top + 1)))


def decaying_spectrum(xi_max: float, decay: float) -> FourierSum:
    """Unit-period expansion with c_z = (1 + |z|)^-decay for |z| <= xi_max.

    Its 2 floor(xi_max) + 1 index rows are capped at ``MAX_BOX_ROWS``; a
    negative xi_max is refused.  The coefficients are computed in place in
    one float buffer.
    """
    if xi_max < 0:
        raise ValueError(f"xi_max must be >= 0, got xi_max = {xi_max}")
    rows = 2 * int(xi_max) + 1
    if rows > MAX_BOX_ROWS:
        raise ValueError(f"xi_max = {xi_max} needs {count_text(rows)} index rows, above the "
                         f"cap of {MAX_BOX_ROWS}; lower xi_max")
    z = np.arange(-int(xi_max), int(xi_max) + 1)
    values = np.abs(z, dtype=float)
    values += 1.0
    values **= -decay
    return from_arrays(1, 1.0, (0.0,), z[:, None], values)


def residual_tail_norm(decomp: DyadicDecomposition, from_level: int) -> float:
    """Exact L2 norm of the sum of all blocks at or above ``from_level``.

    Orthogonality reduces it to the root of the stored squared block norms,
    summed in ascending level order.
    """
    total = 0.0
    for sq in decomp.sq_norms[max(0, from_level):]:
        total += sq
    return math.sqrt(total)


# ----------------------------------------------------------------------
# oscillatory witnesses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OscillatoryWitness:
    """Single high mode e^{2 pi i K x_1} with K = n^((k+1)/d) and its exact
    H^m norm on the unit cube; the norm grows like (2 pi K)^m."""

    fs: FourierSum
    K: float
    hm_norm: float
    predicted_growth: float
    ratio_to_leading: float


def oscillatory_witness(n: int, k: int, d: int, m: int) -> OscillatoryWitness:
    """Build the single-mode witness and report its exact Sobolev mass; the
    power k must be a nonnegative integer, K below 2^63 and (2 pi K)^(2m)
    below 2^1023."""
    if n < 1:
        raise ValueError(f"width must be >= 1, got {n}")
    if k < 0 or int(k) != k:
        raise ValueError(f"power k must be a nonnegative integer, got k={k}")
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    # Below 2^64 the power is a finite float; the lattice index is int64.
    K = float(n) ** ((k + 1) / d) if (k + 1) / d * math.log2(n) < 64 else math.inf
    if K >= 2.0**63:
        raise ValueError(f"frequency K = n^((k+1)/d) must be below 2^63, "
                         f"got n={n}, k={k}, d={d}")
    # w_m sums m + 1 powers of (2 pi K)^2 >= 39: finite when the top one is below 2^1023.
    if 2 * m * math.log2(2.0 * math.pi * K) >= 1023:
        raise ValueError(f"squared-mode weight (2 pi K)^(2m) must be below 2^1023, "
                         f"got m={m} at K={K:g}")
    z1 = int(math.floor(K))
    offset = K - z1
    a = (offset,) + (0.0,) * (d - 1)
    index = (z1,) + (0,) * (d - 1)
    fs = fourier_sum(d, 1.0, a, {index: 1.0})
    norm = hm_norm_exact(fs, m)
    leading = (2.0 * math.pi * K) ** m
    return OscillatoryWitness(
        fs=fs,
        K=K,
        hm_norm=norm,
        predicted_growth=float(n) ** (m * (k + 1) / d),
        ratio_to_leading=norm / leading if leading > 0 else math.nan,
    )


# ----------------------------------------------------------------------
# sign-vector packing families
# ----------------------------------------------------------------------

FOURIER_KIND = "fourier"
RELU_KIND = "relu"
_SAMPLED_SIGNS = 4096  # sign rows drawn for m > 12 directions


@dataclass(frozen=True)
class PackingFamily:
    """Sign-indexed witness family over a separated direction set.

    ``fourier`` kind: f_sigma(x) = normalization * sum_j sigma_j
    e^{2 pi i R omega_j . x} with normalization 1 / (sqrt(m) R^s), for the
    smoothness s given to ``build_packing``.
    ``relu`` kind: f_sigma(x) = (1 / sqrt(m)) sum_j sigma_j
    sigma_k(R omega_j . x).
    """

    kind: str
    d: int
    m: int
    R: float
    k: int
    directions: SphericalNet
    signs: np.ndarray
    normalization: float
    delta: float

    def atoms(self, pts: np.ndarray) -> np.ndarray:
        """(N, m) values of the m unnormalized atoms at the rows of pts."""
        proj = pts @ self.directions.points[: self.m].T
        if self.kind == FOURIER_KIND:
            return np.exp(2j * np.pi * self.R * proj)
        return sigma_k(self.R * proj, self.k)

    def evaluate(self, sign_index: int, x):
        pts, single = as_batch(x, d=self.d)
        return unbatch(self.normalization * (self.atoms(pts) @ self.signs[sign_index]), single)


def validate_packing(kind: str, k_or_s: float) -> None:
    """Refuse an unknown packing kind, or a relu power k that is not an integer >= 1."""
    if kind not in (FOURIER_KIND, RELU_KIND):
        raise ValueError(f"unknown packing kind {kind!r}; use {FOURIER_KIND!r} or {RELU_KIND!r}")
    if kind == RELU_KIND and not (k_or_s >= 1 and float(k_or_s).is_integer()):
        raise ValueError(f"relu packing needs an integer power k >= 1, got k={k_or_s}")


def build_packing(kind: str, d: int, k_or_s: float, n: int, seed: int = 0) -> PackingFamily:
    """Construct a packing family at the scale dictated by the budget n.

    ``fourier``: m = floor(n^((d-1)/d)) directions, scale R = n^(1/d),
    separation delta = n^(-1/d), normalization 1/(sqrt(m) R^s).
    ``relu`` (integer power k >= 1): m = floor(n^(d/(2d + 2k + 1))),
    R = n^(1/2 + k/d), delta = c0 m^(-1/(d-1)) with the reference constant
    c0 = sqrt(1/(4k)).  d < 2 is refused first: the directions lie on S^(d-1).

    Sign row i has entry j = +1 where bit j of its code is set, else -1.  The
    codes are 0 .. 2^m - 1 for m <= 12, else 4096 distinct codes below 2^m
    drawn with a seed; m > 16 is refused as beyond desk scale, and so is a
    scale at which 2m R^|k_or_s| leaves the float range.
    """
    validate_packing(kind, k_or_s)
    if d < 2:
        raise ValueError(f"packing directions lie on S^(d-1): dimension d must be >= 2, got {d}")
    if n < 1:
        raise ValueError(f"packing budget n must be >= 1, got n={n}")
    if kind == FOURIER_KIND:
        s = float(k_or_s)
        k = 0
        m = max(1, int(math.floor(float(n) ** ((d - 1) / d))))
        scale = 1.0 / d
    else:
        k = int(k_or_s)
        s = float(k)
        m = max(1, int(math.floor(float(n) ** (d / (2.0 * d + 2.0 * k + 1.0)))))
        scale = 0.5 + k / d
    if m > 16:
        raise ValueError(
            f"direction count m = {m} at n={n} exceeds the desk-scale cap 16; lower n"
        )
    # A pair difference sums 2m relu atoms of size up to R^k, or 2m unit
    # fourier atoms scaled by R^-s; it and R^s stay finite while 2m R^|s| does.
    if abs(s) * scale * math.log2(n) + math.log2(2 * m) >= 1024:
        raise ValueError(f"R^{abs(s):g} with R = n^{scale:g} leaves the float range "
                         f"at n={n}, k={k_or_s}; lower n or k")
    R = float(n) ** scale
    if kind == FOURIER_KIND:
        delta = float(n) ** (-1.0 / d)
        normalization = 1.0 / (math.sqrt(m) * R**s)
    else:
        c0 = math.sqrt(1.0 / (4.0 * k))
        delta = c0 * m ** (-1.0 / (d - 1))
        normalization = 1.0 / math.sqrt(m)
    from .sphere_geom import separated_subset
    pool = max(8192, 512 * m)
    net = separated_subset(d, delta, candidate_pool=pool, seed=seed)
    if net.size < m:
        raise ValueError(
            f"could only place {net.size} of m = {m} directions at separation {delta} "
            f"at n={n}; lower n or the separation"
        )
    if m <= 12:
        codes = np.arange(2**m)
    else:
        codes = np.random.default_rng(seed + 1).choice(2**m, _SAMPLED_SIGNS, replace=False)
    signs = 2.0 * ((codes[:, None] >> np.arange(m)) & 1) - 1.0
    return PackingFamily(
        kind=kind, d=d, m=m, R=R, k=k,
        directions=net, signs=signs, normalization=normalization, delta=delta,
    )


@dataclass(frozen=True, eq=False)
class SeparationReport:
    """Measured pairwise separations with the main/cross split at witness points.

    Entry p of the read-only arrays compares sign rows i[p] < j[p].  At the
    witness point x_w = omega_w attaining the distance, f_sigma - f_sigma'
    splits into the diagonal (main) term (sigma_w - sigma'_w) * atom_w(x_w)
    and the off-diagonal cross term; ``identity_violation`` is the largest
    |main + cross - total|.  ``main_term_reference`` is the theoretical
    diagonal magnitude for a single differing sign.
    """

    min_distance: float
    pairs_evaluated: int
    i: np.ndarray
    j: np.ndarray
    distance: np.ndarray
    main_term: np.ndarray
    cross_term: np.ndarray
    identity_violation: float
    main_term_reference: float


def pairwise_separation(family: PackingFamily, pair_budget: int = 64,
                        seed: int = 0) -> SeparationReport:
    """Measure pairwise witness distances of a packing family, all pairs in
    one batch.

    A pair's distance is the largest |f_sigma - f_sigma'| over the family's
    own directions, used as witness points, with the exact main + cross
    decomposition there.
    """
    if pair_budget < 1:
        raise ValueError("pair budget must be >= 1")
    # Pair ranks c enumerate (i, j), i < j, row by row; row i starts at
    # i n - i (i + 1) / 2, so sampled ranks unrank without listing every pair.
    n_signs = len(family.signs)
    n_pairs = n_signs * (n_signs - 1) // 2
    if n_pairs > pair_budget:
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(n_pairs, size=pair_budget, replace=False))
    else:
        chosen = np.arange(n_pairs)
    row = np.arange(n_signs)
    starts = row * n_signs - row * (row + 1) // 2
    i = np.searchsorted(starts, chosen, side="right") - 1
    j = chosen - starts[i] + i + 1
    diff = family.signs[i] - family.signs[j]
    c = family.normalization

    atom_at_witness = family.atoms(family.directions.points[: family.m])
    diag_reference = 2.0 * c * (sigma_k(family.R, family.k)
                                if family.kind == RELU_KIND else 1.0)
    # Stacked matmuls and hypot (not np.abs) reproduce, bit for bit, the
    # per-pair matrix-vector products and scalar abs of a pair loop.
    totals = c * (atom_at_witness[None] @ diff[:, :, None])[:, :, 0]
    distance = np.max(np.abs(totals), axis=1)
    w = np.argmax(np.abs(totals), axis=1)
    pair = np.arange(len(w))
    own = diff[pair, w] * atom_at_witness[w, w]
    main = c * own
    cross = c * ((atom_at_witness[w][:, None, :] @ diff[:, :, None])[:, 0, 0] - own)
    gap = main + cross - totals[pair, w]
    worst_identity = float(np.hypot(gap.real, gap.imag).max(initial=0.0))
    main_term, cross_term = (np.hypot(z.real, z.imag) for z in (main, cross))
    read_only(i, j, distance, main_term, cross_term)
    return SeparationReport(
        min_distance=float(distance.min()),
        pairs_evaluated=len(i),
        i=i, j=j, distance=distance, main_term=main_term, cross_term=cross_term,
        identity_violation=worst_identity,
        main_term_reference=float(diag_reference),
    )


# ----------------------------------------------------------------------
# tail mass of the arctan-dictionary measure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TailMassReport:
    m: int
    A: float
    Z: float
    lambda_tail: float
    tail_bound: float
    refinement_rel_diff: float


def _omega_mass(m: int, lo: float) -> float:
    """Mass on {|omega| >= lo} of the unnormalized joint density
    (1 + |omega|)^m (1 + max(0, |b| - 2|omega|))^-2 sqrt(pi) e^{-omega^2/4}
    of (omega, b), in closed form.

    The b-integral is geometry: the plateau |b| <= 2|omega| has length
    4|omega|, and on each side of it the integral of (1 + u)^-2 over u >= 0
    is 1, so the omega-marginal is (4|omega| + 2)(1 + |omega|)^m sqrt(pi)
    e^{-omega^2/4}.  Expanding (1 + omega)^m binomially leaves positive
    multiples of the moments: with x = lo^2/4, the integral of
    omega^p e^{-omega^2/4} over [lo, inf) is 2^p Gamma((p + 1)/2, x)
    (Abramowitz & Stegun 6.5), from Gamma(1/2, x) = sqrt(pi) erfc(sqrt x),
    Gamma(1, x) = e^{-x} and Gamma(s + 1, x) = s Gamma(s, x) + x^s e^{-x}.
    Every term is positive, so nothing cancels; a mass past the float range
    is inf.
    """
    x = lo * lo / 4.0
    g_prev, g = math.sqrt(math.pi) * math.erfc(lo / 2.0), math.exp(-x)
    total = 0.0
    for j in range(m + 1):  # g_prev = Gamma((j + 1)/2, x), g = Gamma((j + 2)/2, x)
        try:
            total += math.comb(m, j) * 2.0**j * (8.0 * g + 2.0 * g_prev)
        except OverflowError:  # a binomial coefficient past the float range
            return math.inf
        if total == math.inf:
            return total
        s = (j + 1) / 2.0
        g_prev, g = g, s * g_prev + (math.exp(s * math.log(x) - x) if x > 0 else 0.0)
    return 2.0 * math.sqrt(math.pi) * total


def _omega_mass_rule(m: int, lo: float, hi: float) -> float:
    """``_omega_mass`` restricted to lo <= |omega| <= hi, by a 256-node
    Gauss-Legendre rule with the power taken in logarithms."""
    nodes, weights = axis_rule(lo, hi, 256)
    vals = (4.0 * nodes + 2.0) * np.exp(m * np.log1p(nodes) - nodes**2 / 4.0)
    return 2.0 * math.sqrt(math.pi) * float(np.dot(weights, vals))


def example2_tail_mass(m_smooth: int, A: float) -> TailMassReport:
    """Tail mass of the arctan-dictionary probability measure.

    Computes the normalization Z = ``_omega_mass(m, 0)``, the measure
    lambda_tail of {|omega| > A}, and the reference lower value
    4 sqrt(pi) e^{-A^2/4} / (Z A), all in closed form.  An m whose Z leaves
    the float range, and an A whose lambda_tail falls below the smallest
    normal float, are a ``ValueError``.  ``refinement_rel_diff`` is the
    larger relative gap between the closed forms of Z and of the tail mass
    and a 256-node Gauss-Legendre rule of the same integrals, run out to the
    first integer step past A where the closed-form remainder is below
    1e-17 of the tail mass.
    """
    if m_smooth < 0 or int(m_smooth) != m_smooth:
        raise ValueError("smoothness order must be a nonnegative integer")
    if A < 1.0:
        raise ValueError(f"cutoff must satisfy A >= 1, got {A}")
    m = int(m_smooth)
    z = _omega_mass(m, 0.0)
    if not math.isfinite(z):
        raise ValueError(f"smoothness order m={m}: the normalization Z leaves the float range")
    tail = _omega_mass(m, A)
    lam = tail / z
    if not lam >= sys.float_info.min:
        raise ValueError(f"cutoff A={A}: the tail mass {lam:.3g} at m={m} underflows the "
                         "float range")
    hi = A + 1.0
    while _omega_mass(m, hi) > 1e-17 * tail:
        hi += 1.0
    rel = max(abs(_omega_mass_rule(m, 0.0, hi) - z) / z,
              abs(_omega_mass_rule(m, A, hi) - tail) / tail)
    bound = 4.0 * math.sqrt(math.pi) * math.exp(-(A**2) / 4.0) / (z * A)
    return TailMassReport(m=m, A=float(A), Z=z, lambda_tail=lam, tail_bound=bound,
                          refinement_rel_diff=rel)
