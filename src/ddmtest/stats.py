"""One-tailed exact binomial tests, Holm step-down, and minimum sample size.

Success probabilities are exact rationals; conversion to floating point
happens only inside the tail computation. The production tail runs in log
space so p-values stay meaningful at corpus scale (m in the tens of
thousands); an exact big-integer oracle is shipped alongside for testing.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction

from ._record import FrozenRecord

_LOG_STOP = math.log(1e-18)  # geometric remainder below this of the sum: stop
_EXACT_COMB_LIMIT = 1024  # up to here, log C(m,f) comes from the exact integer
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split of a double into halves
# below this, an integer times a half of a split double is an exact double
_EXACT_PIECE_LIMIT = 1 << 26


class BinomialTestInput(FrozenRecord):
    """Successes g out of m trials with exact success probability p."""

    __slots__ = ("g", "m", "p", "alpha")

    def __init__(self, g: int, m: int, p: Fraction, alpha: float = 0.05):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "alpha", alpha)
        if not 0 <= g <= m:
            raise ValueError(f"need 0 <= g <= m, got g={g}, m={m}")
        if not 0 < self.p < 1:
            raise ValueError(f"need 0 < p < 1, got p={self.p}")
        if not 0 < alpha < 1:
            raise ValueError(f"need 0 < alpha < 1, got alpha={alpha}")


class AdjustedPValues(FrozenRecord):
    """Holm step-down output, in the input order."""

    __slots__ = ("raw", "adjusted", "rejected")

    def __init__(self, raw: tuple[float, ...], adjusted: tuple[float, ...],
                 rejected: tuple[bool, ...]):
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "adjusted", adjusted)
        object.__setattr__(self, "rejected", rejected)


def log_binomial_upper_tail(g: int, m: int, p: Fraction) -> float:
    """Natural log of P(X >= g) for X ~ Binomial(m, p), in log space.

    Terms are summed from f = g upward; once past the distribution mode the
    remainder is bounded by a geometric series and the sum stops when that
    bound is negligible, so large m stays cheap without losing accuracy.
    Each term is log C(m, f) + f log p + (m - f) log(1 - p), correctly
    rounded by ``math.fsum`` from exact parts: log p and log(1 - p) are each
    split into two 26-bit halves, and below m = 2**26 an integer times a
    half is exact, so the four products are summed as they are; from
    m = 2**26 on, each product is carried as a Dekker pair (the rounded
    product and its exact error) instead. Both forms hand ``fsum`` the same
    real sum. Up to m = 1024, log C(m, f) is the log of the exact integer,
    updated term by term; above, it comes from ``math.lgamma``. The loop
    carries f and m - f as floats, which stay exact integers below 2**53.
    """
    if g <= 0:
        return 0.0
    if g > m:
        return -math.inf
    p = Fraction(p)
    # float() of p, 1 - p and p / (1 - p): each is num / den in lowest terms
    num, den = p.numerator, p.denominator
    fp = num / den
    lp = math.log(fp)
    lq = math.log((den - num) / den)
    ratio = num / (den - num)
    mode = (m + 1) * fp
    c = _SPLIT * lp
    lp_hi = c - (c - lp)
    lp_lo = lp - lp_hi
    c = _SPLIT * lq
    lq_hi = c - (c - lq)
    lq_lo = lq - lq_hi
    log, log1p, exp, fsum, lgamma = (math.log, math.log1p, math.exp,
                                     math.fsum, math.lgamma)
    # The loop takes the term of f = g before it starts, then for each f
    # tests whether to stop after f, and adds the term of f + 1. Past the
    # mode, the terms after f fall at least as fast as a geometric series
    # of ratio r, so they sum to less than exp(lt) * r / (1 - r): the loop
    # stops once that is below exp(cut), 1e-18 of the sum so far. Where
    # 1/2 <= r < 1, 1 - r is exact and the log is >= 0, so while lt >= cut
    # the test is false and its log is not taken.
    a, b = float(g), float(m - g)     # f and m - f
    exact = m <= _EXACT_COMB_LIMIT
    pieces = m < _EXACT_PIECE_LIMIT
    if exact:
        comb = math.comb(m, g)
        lc = log(comb)
    else:
        lgamma_m = lgamma(m + 1)
        lc = lgamma_m - lgamma(a + 1.0) - lgamma(b + 1.0)
    acc = lt = (fsum((lc, a * lp_hi, a * lp_lo, b * lq_hi, b * lq_lo))
                if pieces else _dekker_sum(lc, a, b, lp, lp_hi, lp_lo,
                                           lq, lq_hi, lq_lo))
    for f in range(g, m):
        if a >= mode:
            r = b / (a + 1.0) * ratio
            if r < 1.0:
                cut = acc + _LOG_STOP
                if (r < 0.5 or lt < cut) and lt + log(r / (1.0 - r)) < cut:
                    break
        a += 1.0
        b -= 1.0
        if exact:
            comb = comb * (m - f) // (f + 1)
            lc = log(comb)
        else:
            lc = lgamma_m - lgamma(a + 1.0) - lgamma(b + 1.0)
        lt = (fsum((lc, a * lp_hi, a * lp_lo, b * lq_hi, b * lq_lo))
              if pieces else _dekker_sum(lc, a, b, lp, lp_hi, lp_lo,
                                         lq, lq_hi, lq_lo))
        if acc < lt:
            acc = lt + log1p(exp(acc - lt))
        else:
            acc = acc + log1p(exp(lt - acc))
    return min(acc, 0.0)


def _dekker_sum(lc: float, a: float, b: float, lp: float, lp_hi: float,
                lp_lo: float, lq: float, lq_hi: float, lq_lo: float) -> float:
    """fsum of lc, a * lp and b * lq, each product carried as a Dekker pair:
    the rounded product and its exact error, from 26-bit halves."""
    t1 = a * lp
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e1 = (((a_hi * lp_hi - t1) + a_hi * lp_lo + a_lo * lp_hi)
          + a_lo * lp_lo)
    t2 = b * lq
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    e2 = (((b_hi * lq_hi - t2) + b_hi * lq_lo + b_lo * lq_hi)
          + b_lo * lq_lo)
    return math.fsum((lc, t1, e1, t2, e2))


def binomial_upper_tail(test: BinomialTestInput) -> float:
    """P(X >= g), the p-value of the one-tailed test against 'at most chance'."""
    return math.exp(log_binomial_upper_tail(test.g, test.m, test.p))


def binomial_lower_tail(g: int, m: int, p: Fraction) -> float:
    """P(X <= g); the upper tail of the mirrored binomial."""
    if g < 0:
        return 0.0
    if g >= m:
        return 1.0
    return math.exp(log_binomial_upper_tail(m - g, m, 1 - Fraction(p)))


def binomial_upper_tail_exact(g: int, m: int, p: Fraction) -> Fraction:
    """Exact rational P(X >= g); the big-integer oracle for the log-space path."""
    if g <= 0:
        return Fraction(1)
    if g > m:
        return Fraction(0)
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    comp = den - num
    total = sum(math.comb(m, f) * num ** f * comp ** (m - f) for f in range(g, m + 1))
    return Fraction(total, den ** m)


def _holm_step_down(raw: Sequence[float], floor: float,
                    scale: Callable[[int, float], float]) -> list[float]:
    """Holm's step-down on any monotone p-value scale: in ascending order, the
    running maximum from ``floor`` of scale(count - rank, x), in input order."""
    lam = len(raw)
    adjusted = [0.0] * lam
    running = floor
    for rank, idx in enumerate(sorted(range(lam), key=raw.__getitem__)):
        running = max(running, scale(lam - rank, raw[idx]))
        adjusted[idx] = running
    return adjusted


def holm_adjust(raw, alpha: float = 0.05) -> AdjustedPValues:
    """Holm step-down adjustment, valid without independence assumptions.

    Sorted ascending, the i-th smallest p-value is multiplied by (count - i),
    capped at 1, and made monotone by a running maximum; results are mapped
    back to the input order. rejected[i] iff adjusted[i] <= alpha.
    """
    raw = tuple(float(x) for x in raw)
    if not raw:
        raise ValueError("need at least one p-value")
    for x in raw:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"p-value {x} outside [0, 1]")
    adjusted = _holm_step_down(raw, 0.0, lambda k, x: min(1.0, k * x))
    return AdjustedPValues(
        raw=raw,
        adjusted=tuple(adjusted),
        rejected=tuple(a <= alpha for a in adjusted),
    )


def holm_adjust_log10(raw_log10, alpha: float = 0.05) -> tuple[list[float], list[bool]]:
    """Holm step-down on log10 p-values; immune to float underflow.

    Returns (adjusted log10 p-values, rejected flags) in input order.
    """
    raw_log10 = [float(x) for x in raw_log10]
    if not raw_log10:
        raise ValueError("need at least one p-value")
    log_alpha = math.log10(alpha)
    adjusted = _holm_step_down(raw_log10, -math.inf,
                               lambda k, x: min(0.0, math.log10(k) + x))
    return adjusted, [a <= log_alpha for a in adjusted]


def min_sample_size(p: Fraction, alpha: float | Fraction = 0.05) -> int:
    """Smallest m where significance is attainable: p^m <= alpha.

    Seeded by ceil(log alpha / log p), then pinned down with exact rational
    power comparisons so boundary cases never fall to floating-point logs.
    A float alpha is compared at its exact binary value.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"need 0 < p < 1, got p={p}")
    a = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"need 0 < alpha < 1, got alpha={alpha}")
    m = max(1, math.ceil(math.log(float(a)) / math.log(float(p))))
    while p ** m > a:
        m += 1
    while m > 1 and p ** (m - 1) <= a:
        m -= 1
    return m
