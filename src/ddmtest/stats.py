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
# an integer below this times a half of a split double is exact
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
    rounded by ``math.fsum`` from exact products: log p and log(1 - p) are
    each split into two 26-bit halves, and an integer below 2**26 times a
    half is exact, so below m = 2**26 the four products are summed as they
    are; from there on, f and m - f are split at 2**26 too. Up to m = 1024,
    log C(m, f) is the log of the exact integer, updated term by term;
    above, it comes from ``math.lgamma``. The loop carries f and m - f as
    floats, which stay exact integers below 2**53.
    """
    if g <= 0:
        return 0.0
    if g > m:
        return -math.inf
    p = Fraction(p)
    # float() of p, 1 - p and p / (1 - p): each is num / den in lowest terms;
    # where p or 1 - p is below the least normal float, so has lost bits or
    # is 0, its log comes from the integers
    num, den = p.numerator, p.denominator
    fp, fq, tiny = num / den, (den - num) / den, 2.0 ** -1022
    lp = math.log(fp) if fp >= tiny else math.log(num) - math.log(den)
    lq = math.log(fq) if fq >= tiny else math.log(den - num) - math.log(den)
    mode = (m + 1) * fp
    # the odds p / (1 - p), which the loop reads only past the mode, so
    # only where the mode is below m; elsewhere they may overflow a float.
    # Odds below 2**-1000 are read as 2**-1000 (see the loop).
    ratio = max(num / (den - num), 2.0 ** -1000) if mode < m else math.inf
    c = _SPLIT * lp
    lp_hi = c - (c - lp)
    lp_lo = lp - lp_hi
    c = _SPLIT * lq
    lq_hi = c - (c - lq)
    lq_lo = lq - lq_hi
    log, log1p, exp, fsum, lgamma = (math.log, math.log1p, math.exp,
                                     math.fsum, math.lgamma)
    # The loop starts one step before f = g with an empty sum; at each f it
    # tests whether to stop after f, then adds the term of f + 1. Past the
    # mode, the terms after f fall at least as fast as a geometric series
    # of ratio r, so they sum to less than exp(lt) * r / (1 - r): the loop
    # stops once that is below exp(cut), 1e-18 of the sum so far. At the
    # first step the cut is -inf, so the test cannot fire, and the first
    # add leaves the term as it is. Where 1/2 <= r < 1, 1 - r is exact and
    # the log is >= 0, so while lt >= cut the test is false and its log is
    # not taken. Odds of 2**-1000 or less make r = b / (a + 1) * odds at
    # most 2**-947, as b < 2**53, whose log fires the test at every step
    # past the mode but the first, as lt <= acc; reading them as 2**-1000
    # keeps that, and keeps r above 0, so its log is finite.
    a, b = float(g - 1), float(m - g + 1)     # f and m - f
    exact = m <= _EXACT_COMB_LIMIT
    pieces = m < _EXACT_PIECE_LIMIT
    if exact:
        comb = math.comb(m, g - 1)
    else:
        lgamma_m = lgamma(m + 1)
    acc = lt = -math.inf
    for f in range(g - 1, m):
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
              if pieces else _split_sum(lc, a, b, lp_hi, lp_lo, lq_hi, lq_lo))
        if acc < lt:
            acc = lt + log1p(exp(acc - lt))
        else:
            acc = acc + log1p(exp(lt - acc))
    return min(acc, 0.0)


def _split_sum(lc: float, a: float, b: float, lp_hi: float, lp_lo: float,
               lq_hi: float, lq_lo: float) -> float:
    """fsum of lc, a * (lp_hi + lp_lo) and b * (lq_hi + lq_lo) for counts
    below 2**53, split at 2**26 into pieces whose products are exact."""
    a_lo = a % _EXACT_PIECE_LIMIT
    a_hi = a - a_lo
    b_lo = b % _EXACT_PIECE_LIMIT
    b_hi = b - b_lo
    return math.fsum((lc, a_hi * lp_hi, a_hi * lp_lo, a_lo * lp_hi,
                      a_lo * lp_lo, b_hi * lq_hi, b_hi * lq_lo, b_lo * lq_hi,
                      b_lo * lq_lo))


def binomial_upper_tail(test: BinomialTestInput) -> float:
    """P(X >= g), the p-value of the one-tailed test against 'at most chance'."""
    return math.exp(log_binomial_upper_tail(test.g, test.m, test.p))


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
