"""Closed-form rate exponents: greedy truncation, the case-split dictionary
rate with its log power and smoothness threshold, the uniform entropy
exponent, the Sobolev rate s/d and the width barrier.

Plain float arithmetic: the module imports neither NumPy nor another
barronlab module, so ``barronlab exponents`` loads no array code.
"""

from __future__ import annotations

import math
from collections import namedtuple

# A namedtuple, not a dataclass: importing dataclasses costs a NumPy-free process ~10 ms.
ExponentTable = namedtuple("ExponentTable", "greedy_fourier_exponent relu_rate_exponent "
                           "relu_log_power smoothness_threshold uniform_entropy_exponent "
                           "sobolev_exponent width_barrier_exponent")
ExponentTable.__doc__ = """Closed-form rate exponents for a parameter point (s, m, k, d).

All decay exponents are stored as positive numbers p meaning an error
bound of order n^(-p); ``relu_log_power`` is the extra log(n) power of
the case-split rate.
"""


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
    overflowed = [name for name, value in table._asdict().items() if not math.isfinite(value)]
    if overflowed:
        raise ValueError(f"closed forms at s={s}, m={m}, k={k}, d={d} leave the float range: "
                         f"{', '.join(overflowed)}")
    return table
