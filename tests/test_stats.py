import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddmtest import (
    AdjustedPValues,
    BinomialTestInput,
    binomial_upper_tail,
    binomial_upper_tail_exact,
    holm_adjust,
    min_sample_size,
)
from ddmtest.stats import (
    _split_sum,
    holm_adjust_log10,
    log_binomial_upper_tail,
)

PAPER_PS = [Fraction(1, 4), Fraction(5, 16), Fraction(1, 3), Fraction(3, 8),
            Fraction(1, 2), Fraction(2, 3)]


def enumerate_outcomes_tail(g, m, p):
    """Independent oracle for tiny m: walk all 2^m success/failure strings."""
    total = Fraction(0)
    for outcome in itertools.product((0, 1), repeat=m):
        k = sum(outcome)
        if k >= g:
            total += p ** k * (1 - p) ** (m - k)
    return total


class TestBinomialTestInput:
    @pytest.mark.parametrize("g,m,p,alpha", [
        (5, 4, Fraction(1, 2), 0.05),
        (-1, 4, Fraction(1, 2), 0.05),
        (0, 4, Fraction(0), 0.05),
        (0, 4, Fraction(1), 0.05),
        (0, 4, Fraction(1, 2), 0.0),
        (0, 4, Fraction(1, 2), 1.0),
    ])
    def test_invariants_enforced(self, g, m, p, alpha):
        with pytest.raises(ValueError):
            BinomialTestInput(g=g, m=m, p=p, alpha=alpha)

    def test_p_coerced_to_fraction(self):
        t = BinomialTestInput(g=1, m=2, p=Fraction(1, 3))
        assert isinstance(t.p, Fraction)


class TestExactOracle:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
    def test_against_outcome_enumeration(self, m, p):
        for g in range(m + 2):
            assert binomial_upper_tail_exact(g, m, p) == \
                enumerate_outcomes_tail(g, m, p)

    @pytest.mark.parametrize("p", PAPER_PS)
    def test_all_successes_is_p_to_the_m(self, p):
        for m in range(1, 65):
            assert binomial_upper_tail_exact(m, m, p) == p ** m

    def test_full_mass_at_zero(self):
        assert binomial_upper_tail_exact(0, 17, Fraction(1, 4)) == 1

    def test_empty_tail(self):
        assert binomial_upper_tail_exact(5, 4, Fraction(1, 2)) == 0


class TestLogSpaceTail:
    def test_spec_example_all_above(self):
        p = binomial_upper_tail(BinomialTestInput(g=8, m=8, p=Fraction(2, 3)))
        assert math.isclose(p, float(Fraction(256, 6561)), rel_tol=1e-12)
        assert round(p, 5) == 0.03902

    def test_g_zero_full_mass(self):
        assert binomial_upper_tail(BinomialTestInput(g=0, m=12,
                                                     p=Fraction(1, 3))) == 1.0

    def test_coin_run(self):
        p = binomial_upper_tail(BinomialTestInput(g=5, m=5, p=Fraction(1, 2)))
        assert math.isclose(p, 1 / 32, rel_tol=1e-13)

    @pytest.mark.parametrize("p", PAPER_PS)
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20, 50, 120, 200])
    def test_matches_oracle_to_1e12(self, m, p):
        for g in range(m + 1):
            exact = float(binomial_upper_tail_exact(g, m, p))
            got = binomial_upper_tail(BinomialTestInput(g=g, m=m, p=p))
            assert got == pytest.approx(exact, rel=1e-12)

    def test_large_m_lgamma_branch(self):
        m, p = 2000, Fraction(1, 2)
        for g in (900, 1000, 1040, 1100, 2000):
            exact = binomial_upper_tail_exact(g, m, p)
            got = binomial_upper_tail(BinomialTestInput(g=g, m=m, p=p))
            assert got == pytest.approx(float(exact), rel=1e-9)

    def test_deep_tail_stays_in_log_space(self):
        # (1/2)^4000 is ~1e-1204: the probability underflows but its log is fine
        log_p = log_binomial_upper_tail(4000, 4000, Fraction(1, 2))
        assert math.isclose(log_p, 4000 * math.log(0.5), rel_tol=1e-12)

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2)])
    def test_nonincreasing_in_g(self, p):
        m = 60
        values = [binomial_upper_tail(BinomialTestInput(g=g, m=m, p=p))
                  for g in range(m + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("p", PAPER_PS)
    def test_complement_identity(self, p):
        m = 80
        for g in range(1, m + 1):
            upper = binomial_upper_tail(BinomialTestInput(g=g, m=m, p=p))
            # P(X <= g - 1), the upper tail of the mirrored binomial
            lower = math.exp(log_binomial_upper_tail(m - g + 1, m, 1 - p))
            assert upper == pytest.approx(1.0 - lower, abs=1e-12)

    def test_m_zero(self):
        assert binomial_upper_tail(BinomialTestInput(g=0, m=0,
                                                     p=Fraction(1, 2))) == 1.0


def _two_prod(a, b):
    # Dekker: a*b as a rounded product plus its exact rounding error
    prod = a * b
    c = 134217729.0 * a
    ahi = c - (c - a)
    alo = a - ahi
    c = 134217729.0 * b
    bhi = c - (c - b)
    blo = b - bhi
    err = ((ahi * bhi - prod) + ahi * blo + alo * bhi) + alo * blo
    return prod, err


def _log_add(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _log_comb(m, f):
    if m <= 1024:
        return math.log(math.comb(m, f))
    return math.lgamma(m + 1) - math.lgamma(f + 1) - math.lgamma(m - f + 1)


def reference_log_upper_tail(g, m, p):
    """The log-space tail one helper call at a time: the arithmetic that
    ``log_binomial_upper_tail`` must reproduce bit for bit."""
    if g <= 0:
        return 0.0
    if g > m:
        return -math.inf
    p = Fraction(p)
    lp = math.log(float(p))
    lq = math.log(float(1 - p))
    ratio = float(p / (1 - p))
    mode = (m + 1) * float(p)
    acc = -math.inf
    for f in range(g, m + 1):
        t1, e1 = _two_prod(float(f), lp)
        t2, e2 = _two_prod(float(m - f), lq)
        lt = math.fsum((_log_comb(m, f), t1, e1, t2, e2))
        acc = _log_add(acc, lt)
        if f >= mode and f < m:
            r = (m - f) / (f + 1) * ratio
            if r < 1.0 and lt + math.log(r / (1.0 - r)) < acc + math.log(1e-18):
                break
    return min(acc, 0.0)


def single_loop_log_upper_tail(g: int, m: int, p: Fraction) -> float:
    """The tail as one loop over every form, as it ran before its loops
    were specialised: kept verbatim as the reference that
    ``log_binomial_upper_tail`` must reproduce bit for bit."""
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
    c = 134217729.0 * lp
    lp_hi = c - (c - lp)
    lp_lo = lp - lp_hi
    c = 134217729.0 * lq
    lq_hi = c - (c - lq)
    lq_lo = lq - lq_hi
    exact = m <= 1024
    if exact:
        comb = math.comb(m, g)
    else:
        lgamma = math.lgamma
        lgamma_m = lgamma(m + 1)
    pieces = m < (1 << 26)
    log, log1p, exp, fsum = math.log, math.log1p, math.exp, math.fsum
    acc = ninf = -math.inf
    for f in range(g, m + 1):
        if exact:
            lc = log(comb)
            comb = comb * (m - f) // (f + 1)
        else:
            lc = lgamma_m - lgamma(f + 1) - lgamma(m - f + 1)
        a, b = float(f), float(m - f)
        if pieces:
            # finite: lc >= 0, the rest finite
            lt = fsum((lc, a * lp_hi, a * lp_lo, b * lq_hi, b * lq_lo))
        else:
            t1 = a * lp
            c = 134217729.0 * a
            a_hi = c - (c - a)
            a_lo = a - a_hi
            e1 = (((a_hi * lp_hi - t1) + a_hi * lp_lo + a_lo * lp_hi)
                  + a_lo * lp_lo)
            t2 = b * lq
            c = 134217729.0 * b
            b_hi = c - (c - b)
            b_lo = b - b_hi
            e2 = (((b_hi * lq_hi - t2) + b_hi * lq_lo + b_lo * lq_hi)
                  + b_lo * lq_lo)
            lt = fsum((lc, t1, e1, t2, e2))
        if acc == ninf:
            acc = lt
        elif acc < lt:
            acc = lt + log1p(exp(acc - lt))
        else:
            acc = acc + log1p(exp(lt - acc))
        if f >= mode and f < m:
            r = (m - f) / (f + 1) * ratio
            if r < 1.0 and lt + log(r / (1.0 - r)) < acc + math.log(1e-18):
                break
    return min(acc, 0.0)


def assert_bit_identical(g, m, p):
    got = log_binomial_upper_tail(g, m, p)
    for reference in (reference_log_upper_tail, single_loop_log_upper_tail):
        want = reference(g, m, p)
        assert got == want, (reference.__name__, g, m, p)
        assert math.copysign(1.0, got) == math.copysign(1.0, want), \
            (reference.__name__, g, m, p)


@st.composite
def tail_arguments(draw):
    """(g, m, p) with m on both sides of 1024, p near 0, near 1 or
    anywhere, and g at the edges, around the mode or anywhere; from g at
    or below the mode, the stop test meets r on both sides of 1/2."""
    m = draw(st.integers(1, 1024) | st.integers(1025, 5000))
    den = draw(st.integers(2, 10 ** 15))
    k = draw(st.integers(1, min(den - 1, 50))
             | st.integers(max(1, den - 50), den - 1)
             | st.integers(1, den - 1))
    p = Fraction(k, den)
    mode = math.floor((m + 1) * p)
    g = draw(st.sampled_from([0, 1, mode - 1, mode + 1, m, m + 1])
             | st.integers(0, m + 1))
    return g, m, p


class TestTailMatchesReference:
    """Bit-identical to the per-term reference on both log C(m, f) branches
    (m <= 1024 exact integers, above that lgamma)."""

    @staticmethod
    def grid_ps():
        rng = random.Random(20190614)
        ps = PAPER_PS + [Fraction(5, 8)]  # PAPER_PS holds 3/8 already
        ps += [(Fraction(rng.randint(0, 97), 97) + 1) / 4 for _ in range(2)]
        for _ in range(2):
            den = rng.randint(2, 10 ** rng.randint(1, 12))
            ps.append(Fraction(rng.randint(1, den - 1), den))
        return ps

    @staticmethod
    def grid_gs(m, p):
        mode = math.floor((m + 1) * p)
        return sorted({0, 1, mode - 1, mode, mode + 1, m, m + 1})

    def test_small_m(self):
        for p in self.grid_ps():
            for m in range(1, 151):
                for g in self.grid_gs(m, p):
                    assert_bit_identical(g, m, p)

    @pytest.mark.parametrize("m", [1023, 1024, 1025, 4000, 15000])
    def test_large_m(self, m):
        for p in self.grid_ps():
            for g in self.grid_gs(m, p):
                assert_bit_identical(g, m, p)

    @pytest.mark.parametrize("m", [(1 << 26) - 1, 1 << 26, (1 << 26) + 5,
                                   1 << 40])
    def test_exact_piece_limit(self, m):
        # below m = 2**26 the tail sums the products of f and the halves of
        # log p as they are; from there on, with f split at 2**26 as well
        for p in self.grid_ps():
            for g in (m - 2, m - 1, m):
                assert_bit_identical(g, m, p)

    def test_large_products_carry_their_errors(self):
        # past the mode the stop rule ends each of these after a few terms,
        # in which f, m - f or both have more than 26 bits
        m = (1 << 40) + 12345
        for g, p in [(2000, Fraction(1, 1 << 30)),
                     (m - 900, 1 - Fraction(1, 1 << 30)),
                     (1 << 27, Fraction(1, 1 << 14))]:
            assert_bit_identical(g, m, p)

    @given(tail_arguments())
    # each of these stops where r is just below 1/2 and the term is within
    # log((1 - r) / r) of the cut: there the stop test must be taken
    @example((1, 392, Fraction(1, 3)))
    @example((1, 431, Fraction(3, 8)))
    @example((1, 2654, Fraction(1, 50)))
    @example((36, 4608, Fraction(17, 1000)))
    @settings(max_examples=300, deadline=None)
    def test_drawn_tails(self, args):
        assert_bit_identical(*args)

    @given(st.integers(1, 400), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_rational(self, m, data):
        den = data.draw(st.integers(2, 10 ** 9))
        p = Fraction(data.draw(st.integers(1, den - 1)), den)
        assert_bit_identical(data.draw(st.integers(0, m + 1)), m, p)


def log_exact_tail(g, m, p):
    """The log of ``binomial_upper_tail_exact``: the log of its numerator
    minus the log of its denominator, so no float of the tail is taken."""
    tail = binomial_upper_tail_exact(g, m, p)
    return math.log(tail.numerator) - math.log(tail.denominator)


def assert_near_exact(g, m, p):
    got = log_binomial_upper_tail(g, m, p)
    want = log_exact_tail(g, m, p)
    assert got == pytest.approx(want, rel=1e-12, abs=0 if want else 1e-12)
    assert binomial_upper_tail(BinomialTestInput(g, m, p)) == math.exp(got)


class TestExtremeP:
    """p so near 0 or 1 that p, 1 - p or the odds p / (1 - p) leave the
    normal floats: the tail still matches the exact oracle."""

    @pytest.mark.parametrize("g, m, p, want", [
        # odds so small that r would underflow to 0 after the first term
        (3, 4, Fraction(1, 2 ** 1074), -2231.934),
        (4, 4, Fraction(1, 2 ** 1074), -2977.760),
        # p is 0 as a float
        (1, 2, Fraction(1, 2 ** 1100), -761.769),
        # 1 - p is 0 as a float, and the odds overflow
        (1, 2, 1 - Fraction(1, 2 ** 1100), 0.0),
        # p and 1 - p subnormal: their floats have lost bits
        (1, 2, Fraction(3, 2 ** 1075), -743.341),
        (2, 3, Fraction(3, 2 ** 1075), -1486.971),
        (2, 2, 1 - Fraction(3, 2 ** 1075), 0.0),
    ])
    def test_matches_exact_log(self, g, m, p, want):
        assert round(log_exact_tail(g, m, p), 3) == want
        assert_near_exact(g, m, p)

    @given(st.integers(1, 40), st.integers(1, 50), st.integers(1020, 1200),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_drawn_tiny_p(self, m, k, e, data):
        assert_near_exact(data.draw(st.integers(1, m)), m,
                          Fraction(k, 2 ** e))


@st.composite
def split_sum_arguments(draw):
    """(a, b, lc, num, den): integer counts below 2**53, at least one of
    them at or above 2**26, a log term >= 0 and p = num / den in (0, 1)."""
    counts = st.integers(0, (1 << 53) - 1)
    big = st.integers(1 << 26, (1 << 53) - 1)
    a, b = draw(st.tuples(big, counts) | st.tuples(counts, big))
    lc = draw(st.floats(0.0, 1e16))
    den = draw(st.integers(2, 10 ** 15))
    num = draw(st.integers(1, min(den - 1, 50))
               | st.integers(max(1, den - 50), den - 1)
               | st.integers(1, den - 1))
    return a, b, lc, num, den


class TestSplitSum:
    @given(split_sum_arguments())
    @example((1 << 26, 0, 0.0, 1, 3))
    @example(((1 << 53) - 1, (1 << 53) - 1, 1e16, 1, 10 ** 15))
    @settings(max_examples=500, deadline=None)
    def test_equals_dekker_pairs(self, args):
        # counts split at 2**26 give exact products, so fsum sees the same
        # real sum as from each product and its Dekker rounding error
        a, b, lc, num, den = args
        a, b = float(a), float(b)
        lp = math.log(num / den)
        lq = math.log((den - num) / den)
        halves = []
        for x in (lp, lq):  # 26-bit halves, as the tail splits them
            c = 134217729.0 * x
            hi = c - (c - x)
            halves += [hi, x - hi]
        got = _split_sum(lc, a, b, *halves)
        want = math.fsum((lc, *_two_prod(a, lp), *_two_prod(b, lq)))
        assert got.hex() == want.hex(), args


def direct_stepdown_reject(raw, alpha):
    lam = len(raw)
    order = sorted(range(lam), key=raw.__getitem__)
    rejected = [False] * lam
    for rank, idx in enumerate(order):
        if (lam - rank) * raw[idx] <= alpha:
            rejected[idx] = True
        else:
            break
    return rejected


class TestHolmAdjust:
    def test_single_value_identity(self):
        out = holm_adjust([0.04])
        assert out.adjusted == (0.04,)
        assert out.rejected == (True,)

    def test_two_values(self):
        out = holm_adjust([0.01, 0.04], alpha=0.05)
        assert out.adjusted == (0.02, 0.04)
        assert out.rejected == (True, True)

    def test_three_way_tie(self):
        out = holm_adjust([0.03, 0.03, 0.03], alpha=0.05)
        assert out.adjusted == (0.09, 0.09, 0.09)
        assert out.rejected == (False, False, False)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            holm_adjust([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            holm_adjust([0.2, 1.3])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_adjusted_at_least_raw(self, raw):
        out = holm_adjust(raw)
        assert all(a >= r for a, r in zip(out.adjusted, out.raw))
        assert all(0 <= a <= 1 for a in out.adjusted)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_monotone_in_sorted_order(self, raw):
        out = holm_adjust(raw)
        pairs = sorted(zip(raw, out.adjusted))
        adj_sorted = [a for _, a in pairs]
        assert all(x <= y for x, y in zip(adj_sorted, adj_sorted[1:]))

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, raw, rnd):
        out = holm_adjust(raw)
        idx = list(range(len(raw)))
        rnd.shuffle(idx)
        permuted = holm_adjust([raw[i] for i in idx])
        assert permuted.adjusted == tuple(out.adjusted[i] for i in idx)
        assert permuted.rejected == tuple(out.rejected[i] for i in idx)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12),
           st.sampled_from([0.01, 0.05, 0.1]))
    def test_rejections_equal_direct_stepdown(self, raw, alpha):
        out = holm_adjust(raw, alpha)
        assert list(out.rejected) == direct_stepdown_reject(raw, alpha)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_dominates_bonferroni(self, raw):
        lam = len(raw)
        bonferroni = [min(1.0, lam * p) <= 0.05 for p in raw]
        holm = holm_adjust(raw, 0.05).rejected
        assert all(h or not b for h, b in zip(holm, bonferroni))

    @given(st.lists(st.floats(1e-280, 1.0), min_size=1, max_size=10))
    def test_log10_variant_agrees(self, raw):
        out = holm_adjust(raw, 0.05)
        adj_log, rej_log = holm_adjust_log10([math.log10(p) for p in raw], 0.05)
        for a, al in zip(out.adjusted, adj_log):
            assert 10 ** al == pytest.approx(a, rel=1e-9)
        assert list(out.rejected) == rej_log

    def test_log10_underflow_regime(self):
        # probabilities of 1e-400 and 1e-500 are equal as floats (both 0.0)
        # but stay ordered in log10 space
        adj, rej = holm_adjust_log10([-400.0, -500.0, -1.0], alpha=0.05)
        assert rej == [True, True, False]
        assert adj[1] <= adj[0] < adj[2]


class TestMinSampleSize:
    @pytest.mark.parametrize("p,expected", [
        (Fraction(1, 3), 3),
        (Fraction(2, 3), 8),
        (Fraction(3, 8), 4),
        (Fraction(5, 16), 3),
        (Fraction(1, 2), 5),
        (Fraction(1, 4), 3),
    ])
    def test_reference_table(self, p, expected):
        assert min_sample_size(p, 0.05) == expected

    @given(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50)),
           st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 2)))
    @settings(max_examples=300)
    def test_defining_inequality(self, p, alpha):
        m = min_sample_size(p, alpha)
        assert p ** m <= alpha
        if m > 1:
            assert p ** (m - 1) > alpha

    def test_exact_boundary(self):
        # alpha exactly p^k: k already suffices, floating logs must not push to k+1
        p = Fraction(1, 3)
        assert min_sample_size(p, p ** 4) == 4
        assert min_sample_size(p, p ** 4 + Fraction(1, 10 ** 30)) == 4
        assert min_sample_size(p, p ** 4 - Fraction(1, 10 ** 30)) == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            min_sample_size(Fraction(0), 0.05)
        with pytest.raises(ValueError):
            min_sample_size(Fraction(1, 2), 1.5)

    def test_p_near_one(self):
        m = min_sample_size(Fraction(99, 100), 0.05)
        assert Fraction(99, 100) ** m <= Fraction(0.05)
        assert m == 299


class TestAdjustedPValuesShape:
    def test_fields_aligned(self):
        out = holm_adjust([0.5, 0.01])
        assert isinstance(out, AdjustedPValues)
        assert len(out.raw) == len(out.adjusted) == len(out.rejected) == 2
