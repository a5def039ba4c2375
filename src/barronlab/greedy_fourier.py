"""Greedy n-term truncation of lattice Fourier sums and rate-exponent algebra.

Frequencies are ordered by the dictionary-weighted coefficient size
(1 + |xi|)^(2m - ks) |c_xi| and the top n are kept; because lattice modes are
orthogonal on the period cell, the H^m truncation error is exactly the
weighted l2 mass of the discarded tail.  For the synthetic heavy-tail
spectrum with a radial weight that mass depends only on the lattice shells
|z|^2 = k, so its sweeps count modes per shell instead of building them.
The module also collects the closed-form rate exponents used by the
experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barron import COEFF_DROP_RELATIVE, MAX_BOX_ROWS, FourierSum, from_arrays
from .numerics import count_text, grid_rows, sobolev_weight

# Largest lattice-shell table heavy_tail_sweep builds: 2^21 rows, ~80 MB at d = 2, ~210 MB above.
MAX_SHELL_ROWS = 2**21
# Key exponents closer to 0 than this are ties: far above their rounding error.
KEY_TIE_MARGIN = 1e-9
# The heavy-tail law |c_z| = (1 + |z/L|)^-(ks + d + _TAIL_EXTRA), L = _TAIL_L, of
# ``synthetic_heavy_tail``'s box and ``heavy_tail_sweep``'s shells alike.
_TAIL_L, _TAIL_EXTRA = 0.5, 0.1


@dataclass(frozen=True, eq=False)
class GreedySelection:
    """Deterministic ordering of a FourierSum's support.

    ``order`` is a permutation of the rows of the expansion's ``index`` and
    ``values`` arrays, and ``sorted_keys`` the ordering-key values in that
    order (nonincreasing).
    """

    order: np.ndarray
    sorted_keys: np.ndarray


def order_frequencies(fs: FourierSum, m: float, ks: float) -> GreedySelection:
    """Order the support by decreasing key, ties broken by lattice index.

    The key of mode z is (1 + |z/L|)^(2m - ks) |c_z|.  The tie rule rests on
    ``FourierSum.index`` being sorted by lattice index, as ``from_arrays``
    leaves it: a stable sort on the key alone keeps tied rows in that order.
    """
    if not fs.support_size():
        raise ValueError("cannot order an empty expansion")
    mags = np.abs(fs.values)
    xi_norm = np.linalg.norm(fs.index.astype(float), axis=1) / fs.L
    keys = (1.0 + xi_norm) ** (2.0 * m - ks) * mags
    order = np.argsort(-keys, kind="stable")
    return GreedySelection(order, keys[order])


def truncate_top_n(fs: FourierSum, sel: GreedySelection, n: int) -> FourierSum:
    """Keep the first min(n, support size) coefficients of the ordering."""
    if n < 0:
        raise ValueError(f"term count must be >= 0, got {n}")
    kept = sel.order[:n]
    return from_arrays(fs.d, fs.L, fs.a, fs.index[kept], fs.values[kept])


def tail_errors_hm(fs: FourierSum, sel: GreedySelection, m: int):
    """The function n -> tail_error_hm(fs, sel, n, m) of one greedy sweep.

    Sobolev weights and squared magnitudes are gathered once, in greedy
    order; each n reads the dot product of their suffixes past n.
    """
    w = sobolev_weight(np.asarray(fs.a) + fs.index[sel.order] / fs.L, m)
    mass = np.abs(fs.values[sel.order]) ** 2

    def error(n: int) -> float:
        n = max(0, int(n))
        return math.sqrt(fs.L**fs.d * float(np.dot(w[n:], mass[n:]))) if n < len(mass) else 0.0

    return error


def tail_error_hm(fs: FourierSum, sel: GreedySelection, n: int, m: int) -> float:
    """Exact H^m([0, L]^d) error of dropping all but the first n modes.

    Orthogonality makes this the square root of
    L^d * sum_{discarded} |c_z|^2 w_m(a + z/L); it is nonincreasing in n and
    zero once n reaches the support size.  One value of the per-sweep
    ``tail_errors_hm``, which a sweep over many n builds once instead.
    """
    return tail_errors_hm(fs, sel, m)(n)


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
    Inputs at which any of them leaves the float range are a ``ValueError``
    naming the inputs and the exponents.
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
    table = ExponentTable(
        greedy_fourier_exponent=0.5 + (k * s - m) / d,
        relu_rate_exponent=t,
        relu_log_power=q,
        smoothness_threshold=threshold,
        uniform_entropy_exponent=0.5 + (2.0 * k + 1.0) / (2.0 * d),
        sobolev_exponent=s / d,
        width_barrier_exponent=(k + 1.0) - m,
    )
    overflowed = [name for name, value in vars(table).items() if not math.isfinite(value)]
    if overflowed:
        raise ValueError(f"closed forms at s={s}, m={m}, k={k}, d={d} leave the float range: "
                         f"{', '.join(overflowed)}")
    return table


def synthetic_heavy_tail(d: int, ks: float, xi_max: float, seed: int) -> FourierSum:
    """Random-phase expansion with |c_z| = (1 + |z/L|)^-(ks + d + 0.1), L = 0.5.

    The decay makes the weighted l1 mass finite as the support grows, while
    keeping the truncation tail the rate-limiting term, which is what a
    slope measurement needs.  The lattice spacing 1/L = 2 keeps the
    (1 + |xi|) factor dominated by |xi| from the first shells on; at unit
    spacing the low shells sit in the additive-offset transient and drag
    finite-range slope fits off the asymptotic rate.  The lattice box of
    (2 floor(xi_max L) + 1)^d rows is capped at ``MAX_BOX_ROWS``.
    """
    L = _TAIL_L
    z_max = int(math.floor(xi_max * L))
    rows = (2 * z_max + 1) ** d
    if d < 1 or rows > MAX_BOX_ROWS:
        raise ValueError(f"need d >= 1 and at most {MAX_BOX_ROWS} lattice box rows, got "
                         f"d={d} and (2*{count_text(z_max)} + 1)^{d} = {count_text(rows)} rows; "
                         "lower xi_max")
    rng = np.random.default_rng(seed)
    index = grid_rows(np.arange(-z_max, z_max + 1), d)
    radius = np.linalg.norm(index, axis=1)
    inside = radius <= xi_max * L
    index, radius = index[inside], radius[inside]
    phase = np.exp(2j * np.pi * rng.random(len(index)))
    values = phase * (1.0 + radius / L) ** (-(ks + d + _TAIL_EXTRA))
    return from_arrays(d, L, (0.0,) * d, index, values)


def lattice_shell_counts(d: int, z_max: int) -> np.ndarray:
    """r_d(k), the number of z in Z^d with |z|^2 = k, for 0 <= k < (z_max + 1)^2.

    The theta series theta(q)^d truncated at that k (Grosswald,
    *Representations of Integers as Sums of Squares*, 1985).  r_2 is exact,
    one weighted ``bincount`` of a^2 + b^2 over 0 <= a, b <= z_max.  The
    table starts from r_1 at odd d and from r_2 at even d, then takes
    floor((d - 1)/2) FFT convolutions with r_2, each truncated and rounded
    to integers; one power of the transform would alias.  Counts that
    float64 cannot carry exactly (a rounding gap above 1/4, or 2^53 modes
    or more) are a ``ValueError``.
    """
    rows = (z_max + 1) ** 2
    sq = np.arange(z_max + 1) ** 2
    signs = np.where(sq > 0, 2.0, 1.0)  # a nonzero a stands for +-a
    r1 = np.bincount(sq, signs, minlength=rows)
    r2 = np.bincount(np.add.outer(sq, sq).ravel(), np.outer(signs, signs).ravel(),
                     minlength=rows)[:rows]
    counts = r1 if d % 2 else r2
    size = 1 << (2 * rows - 1).bit_length()
    r2_hat = np.fft.rfft(r2, size) if d > 2 else None
    for _ in range((d - 1) // 2):
        spectrum = np.fft.rfft(counts, size)
        spectrum *= r2_hat
        raw = np.fft.irfft(spectrum, size)[:rows]
        counts = np.rint(raw)
        if not (np.abs(raw - counts).max() <= 0.25 and counts.sum() < 2.0**53):
            raise ValueError(f"lattice-shell counts at d={d} up to |z|^2 < {rows} are not "
                             "exact in float64; lower xi_max")
    return counts.astype(np.int64)


def heavy_tail_sweep(d: int, ks: float, m: int, xi_max: float, seed: int):
    """The pair (error, key) of one greedy sweep over ``synthetic_heavy_tail``.

    ``error(n)`` is ``tail_error_hm`` at n of the spectrum's order-m greedy
    selection, and ``key(n)``, for n >= 1, the key of the n-th kept mode,
    or of the last mode once n passes the support.

    Where w_m is radial (d = 1 or m <= 1) and the key exponent
    2m - 2ks - d - 0.1 is negative, the greedy order keeps whole lattice
    shells |z|^2 = k in ascending k, so both functions come from the shells
    and no mode is built; the seed does not enter.  Each shell carries its
    count, its modes' common |c_z|, w_m at (|z|/L, 0, ..., 0) and the drop
    rule of ``from_arrays``; the one partly kept shell is charged its
    remaining count times its per-mode mass.  The shell table has
    floor(xi_max L) + 1 rows at d = 1 (one per square) and
    (floor(xi_max L) + 1)^2 above, capped at ``MAX_SHELL_ROWS``: the exact
    r_2 table and floor((d - 1)/2) FFT convolutions with it, none at d = 2.

    Elsewhere both come from the box spectrum and its
    ``order_frequencies``.  That includes exponents within
    ``KEY_TIE_MARGIN`` of 0: rounding can leave the tie
    ks = m - (d + 0.1)/2 just below 0 (at d = 4, for one), and tied keys
    keep the box's lattice-index order.
    """
    if not ((d == 1 or m <= 1) and 2.0 * m - 2.0 * ks - d - _TAIL_EXTRA < -KEY_TIE_MARGIN):
        fs = synthetic_heavy_tail(d, ks, xi_max, seed)
        sel = order_frequencies(fs, m, ks)
        keys = sel.sorted_keys
        return tail_errors_hm(fs, sel, m), lambda n: float(keys[min(n, len(keys)) - 1])
    L = _TAIL_L
    z_max = int(math.floor(xi_max * L))
    rows = z_max + 1 if d == 1 else (z_max + 1) ** 2
    if d < 1 or rows > MAX_SHELL_ROWS:
        raise ValueError(f"need d >= 1 and at most {MAX_SHELL_ROWS} lattice-shell rows, got "
                         f"d={d} and {count_text(rows)} rows at xi_max={xi_max}; lower xi_max")
    sq = np.arange(z_max + 1) ** 2 if d == 1 else np.arange(rows)
    counts = np.where(sq == 0, 1, 2) if d == 1 else lattice_shell_counts(d, z_max)
    radius = np.sqrt(sq)
    inside = (radius <= xi_max * L) & (counts > 0)
    counts, radius = counts[inside], radius[inside]
    mags = (1.0 + radius / L) ** (-(ks + d + _TAIL_EXTRA))
    keep = (mags >= COEFF_DROP_RELATIVE * mags.max()) & (mags > 0.0)
    counts, radius, mags = counts[keep], radius[keep], mags[keep]
    keys = (1.0 + radius / L) ** (2.0 * m - ks) * mags
    eta = np.zeros((len(radius), d))
    eta[:, 0] = radius / L
    mode_mass = sobolev_weight(eta, m) * mags**2
    ends = np.cumsum(counts)
    suffix = np.append(np.cumsum((counts * mode_mass)[::-1])[::-1], 0.0)

    def error(n: int) -> float:
        n = max(0, int(n))
        if n >= ends[-1]:
            return 0.0
        j = int(np.searchsorted(ends, n, side="right"))
        return math.sqrt(L**d * float((ends[j] - n) * mode_mass[j] + suffix[j + 1]))

    def key(n: int) -> float:
        return float(keys[np.searchsorted(ends, min(n, ends[-1]) - 1, side="right")])

    return error, key
