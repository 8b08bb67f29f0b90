import csv
import inspect
import io
import itertools
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_distribution, path_tree, star_tree
from ddmtest import (
    Direction,
    LevelCounts,
    LevelSpec,
    LinearizedTree,
    TreeShape,
    analyze_collection,
    binomial_upper_tail_exact,
    classify,
    count_crossings,
    emit_report,
    load_families,
    run_tests,
    sum_of_distances,
    tally_level,
)
import ddmtest
from ddmtest import _pool, pipeline, stats
from ddmtest.nullmodels import EnsembleSpec, null_probability
from ddmtest.pipeline import LanguageTally, _csv_quote, _neglog10, \
    analyze_tallies, fold_trees, success_probability

N3_HIGH = LinearizedTree(3, [(1, 2), (1, 3)])     # D = 3
N3_LOW = path_tree(3)                             # D = 2
STAR_END = star_tree(4, hub=1)                    # D = 6
STAR_MID = star_tree(4, hub=2)                    # D = 4
LIN_TIE = LinearizedTree(4, [(1, 3), (2, 3), (2, 4)])  # D = 5
LIN_LOW = path_tree(4)                            # D = 3
LIN_HIGH = LinearizedTree(4, [(2, 4), (1, 4), (1, 3)])  # D = 7


def random_collection(seed, n_languages=4, n_sentences=60):
    rng = np.random.default_rng(seed)
    pool = [N3_HIGH, N3_LOW, STAR_END, STAR_MID, LIN_TIE, LIN_LOW, LIN_HIGH,
            path_tree(2), path_tree(5)]
    return {
        f"lang{idx}": [pool[k] for k in rng.integers(0, len(pool), n_sentences)]
        for idx in range(n_languages)
    }


class TestTallyLevel:
    def test_n3_counts(self):
        counts = tally_level([N3_HIGH, N3_HIGH, N3_LOW], LevelSpec.N3_ALL, "xx")
        assert (counts.m, counts.g_above, counts.g_below, counts.ties) == (3, 2, 1, 0)

    def test_n4_linear_tie(self):
        counts = tally_level([LIN_TIE], LevelSpec.N4_LINEAR)
        assert counts.ties == 1 and counts.g_above == counts.g_below == 0

    def test_p_star_fraction(self):
        trees = [STAR_END] * 10 + [LIN_LOW] * 30
        counts = tally_level(trees, LevelSpec.N4_ALL_REAL)
        assert counts.p_star_real == Fraction(1, 4)
        assert counts.m == 40

    def test_p_star_only_for_real_level(self):
        assert tally_level([STAR_END], LevelSpec.N4_STAR).p_star_real is None

    def test_level_filters(self):
        trees = [N3_HIGH, STAR_END, LIN_LOW, path_tree(5), path_tree(2)]
        assert tally_level(trees, LevelSpec.N3_ALL).m == 1
        assert tally_level(trees, LevelSpec.N4_ALL_REAL).m == 2
        assert tally_level(trees, LevelSpec.N4_STAR).m == 1
        assert tally_level(trees, LevelSpec.N4_LINEAR).m == 1

    def test_empty_input(self):
        counts = tally_level([], LevelSpec.N3_ALL)
        assert counts.m == 0 and counts.p_star_real is None

    def test_no_ties_possible_at_n3_and_star_levels(self):
        # D_rla is unattainable there: 8/3 for n=3, and stars only reach 4 or 6
        trees = [N3_HIGH, N3_LOW, STAR_END, STAR_MID] * 25
        assert tally_level(trees, LevelSpec.N3_ALL).ties == 0
        assert tally_level(trees, LevelSpec.N4_STAR).ties == 0

    def test_unlabelled_and_labelled_share_filter(self):
        trees = [STAR_END, LIN_TIE, LIN_HIGH]
        for level in (LevelSpec.N4_UNLABELLED, LevelSpec.N4_LABELLED):
            counts = tally_level(trees, level)
            assert (counts.m, counts.g_above, counts.ties) == (3, 2, 1)

    @pytest.mark.parametrize("level", list(LevelSpec))
    def test_matches_direct_recount(self, level):
        trees = random_collection(7, 1, 200)["lang0"]
        counts = tally_level(trees, level, "lang0")
        target_n = 3 if level is LevelSpec.N3_ALL else 4
        eligible = [t for t in trees if t.n == target_n]
        if level is LevelSpec.N4_STAR:
            eligible = [t for t in eligible if classify(t) is TreeShape.STAR]
        if level is LevelSpec.N4_LINEAR:
            eligible = [t for t in eligible if classify(t) is TreeShape.LINEAR]
        threshold = Fraction(target_n ** 2 - 1, 3)
        assert counts.m == len(eligible)
        assert counts.g_above == sum(sum_of_distances(t) > threshold
                                     for t in eligible)
        assert counts.g_below == sum(sum_of_distances(t) < threshold
                                     for t in eligible)

    def test_counts_invariant_enforced(self):
        with pytest.raises(ValueError):
            LevelCounts(language="x", level=LevelSpec.N3_ALL, m=3,
                        g_above=1, g_below=1, ties=0)


@st.composite
def shuffled_trees(draw, sizes=st.integers(3, 5)):
    """A tree with n = 3, 4 or 5 words (or n drawn from ``sizes``) in a
    random arrangement."""
    n = draw(sizes)
    parents = [draw(st.integers(1, i - 1)) for i in range(2, n + 1)]
    place = draw(st.permutations(range(1, n + 1)))
    return LinearizedTree(n, [(place[p - 1], place[i - 1])
                              for i, p in zip(range(2, n + 1), parents)])


def brute_force_counts(trees, level, language):
    """One level's tally recounted directly: degrees, D and its mean."""
    n = 3 if level is LevelSpec.N3_ALL else 4
    counted = []
    for tree in trees:
        if tree.n != n:
            continue
        degree = [sum(v in edge for edge in tree.edges) for v in range(1, n + 1)]
        star = max(degree) == n - 1
        if level is LevelSpec.N4_STAR and not star:
            continue
        if level is LevelSpec.N4_LINEAR and star:
            continue
        counted.append((sum(abs(u - v) for u, v in tree.edges), star))
    mean = Fraction(n * n - 1, 3)
    m = len(counted)
    above = sum(d > mean for d, _ in counted)
    below = sum(d < mean for d, _ in counted)
    p_star = None
    if level is LevelSpec.N4_ALL_REAL and m:
        p_star = Fraction(sum(star for _, star in counted), m)
    return LevelCounts(language, level, m, above, below, m - above - below,
                       p_star)


class TestLanguageTally:
    @given(st.lists(shuffled_trees(), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_six_levels_match_brute_force(self, trees):
        tally = fold_trees(trees)
        assert tally.trees == len(trees)
        for level in LevelSpec:
            assert (tally.level_counts(level, "xx")
                    == brute_force_counts(trees, level, "xx"))

    def test_edges_in_any_orientation(self):
        tally = LanguageTally()
        tally.add(4, [(2, 1), (3, 1), (1, 4)])      # star, hub first: D = 6
        tally.add(4, [(4, 3), (1, 2), (3, 2)])      # path in order: D = 3
        assert tally.level_counts(LevelSpec.N4_STAR) == LevelCounts(
            "", LevelSpec.N4_STAR, 1, 1, 0, 0)
        assert tally.level_counts(LevelSpec.N4_LINEAR) == LevelCounts(
            "", LevelSpec.N4_LINEAR, 1, 0, 1, 0)

    @given(st.lists(shuffled_trees(), max_size=30),
           st.lists(shuffled_trees(), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_folding_the_concatenation(self, first, second):
        merged = fold_trees(first)
        merged.merge(fold_trees(second))
        whole = fold_trees(first + second)
        assert merged.trees == whole.trees == len(first) + len(second)
        for level in LevelSpec:
            assert merged.level_counts(level) == whole.level_counts(level)

    def test_pickle_round_trip_keeps_every_level(self):
        tally = fold_trees(random_collection(3, 1, 200)["lang0"])
        back = pickle.loads(pickle.dumps(tally))
        assert back.trees == tally.trees
        for level in LevelSpec:
            assert back.level_counts(level) == tally.level_counts(level)

    @given(st.lists(shuffled_trees(st.integers(1, 6)), min_size=1,
                    max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_fold_equals_adding_each_tree(self, distinct, data):
        picks = data.draw(st.lists(st.sampled_from(distinct), max_size=80))
        # equal trees, built anew from their edges in another order
        trees = [LinearizedTree(t.n, t.edges[::-1]) for t in picks]
        each = LanguageTally()
        for tree in trees:
            each.add(tree.n, tree.edges)
        folded = fold_trees(trees)
        assert (folded.cells, folded.trees) == (each.cells, each.trees)
        assert folded.trees == len(trees)

    def test_other_lengths_only_count_as_trees(self):
        tally = LanguageTally()
        tally.add(1, [])
        tally.add(2, [(1, 2)])
        tally.add(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert tally.trees == 3
        for level in LevelSpec:
            assert tally.level_counts(level) == LevelCounts(
                "", level, 0, 0, 0, 0)


class TestRunTests:
    def test_n3_all_above_eight_of_eight(self):
        counts = LevelCounts("xx", LevelSpec.N3_ALL, 8, 8, 0, 0)
        result = run_tests(counts, Direction.ABOVE)
        assert result.p == Fraction(2, 3)
        assert result.p_value == pytest.approx(float(Fraction(2, 3) ** 8),
                                               rel=1e-12)
        assert result.adequately_sampled  # m* is exactly 8

    def test_n4_star_four_of_four_undersampled(self):
        counts = LevelCounts("xx", LevelSpec.N4_STAR, 4, 4, 0, 0)
        result = run_tests(counts, Direction.ABOVE)
        assert result.p == Fraction(1, 2)
        assert result.p_value == pytest.approx(1 / 16, rel=1e-12)
        assert result.p_value > 0.05
        assert not result.adequately_sampled  # m* = 5

    def test_empty_tally_gives_unit_p(self):
        counts = LevelCounts("xx", LevelSpec.N4_LABELLED, 0, 0, 0, 0)
        result = run_tests(counts, Direction.BELOW)
        assert result.p_value == 1.0
        assert not result.adequately_sampled

    @pytest.mark.parametrize("level,expected", [
        (LevelSpec.N4_STAR, Fraction(1, 2)),
        (LevelSpec.N4_LINEAR, Fraction(1, 4)),
        (LevelSpec.N4_UNLABELLED, Fraction(3, 8)),
        (LevelSpec.N4_LABELLED, Fraction(5, 16)),
    ])
    def test_level_probabilities(self, level, expected):
        counts = LevelCounts("xx", level, 5, 3, 1, 1)
        for direction in Direction:
            assert run_tests(counts, direction).p == expected

    def test_real_level_uses_star_fraction(self):
        counts = LevelCounts("xx", LevelSpec.N4_ALL_REAL, 4, 2, 2, 0,
                             p_star_real=Fraction(1, 4))
        assert run_tests(counts, Direction.ABOVE).p == Fraction(5, 16)

    def test_direction_picks_g(self):
        counts = LevelCounts("xx", LevelSpec.N3_ALL, 10, 7, 3, 0)
        assert run_tests(counts, Direction.ABOVE).g == 7
        assert run_tests(counts, Direction.BELOW).g == 3

    def test_n3_direction_asymmetry(self):
        counts = LevelCounts("xx", LevelSpec.N3_ALL, 10, 7, 3, 0)
        assert run_tests(counts, Direction.ABOVE).p == Fraction(2, 3)
        assert run_tests(counts, Direction.BELOW).p == Fraction(1, 3)

    def test_noncrossing_probabilities(self):
        lin = LevelCounts("xx", LevelSpec.N4_LINEAR, 5, 3, 1, 1)
        assert run_tests(lin, Direction.ABOVE, noncrossing=True).p == Fraction(5, 8)
        assert run_tests(lin, Direction.BELOW, noncrossing=True).p == Fraction(3, 8)
        star = LevelCounts("xx", LevelSpec.N4_STAR, 5, 3, 2, 0)
        assert run_tests(star, Direction.ABOVE, noncrossing=True).p == Fraction(1, 2)
        n3 = LevelCounts("xx", LevelSpec.N3_ALL, 5, 3, 2, 0)
        assert run_tests(n3, Direction.ABOVE, noncrossing=True).p == Fraction(2, 3)

    def test_n3_minimum_sample_direction_dependent(self):
        counts = LevelCounts("xx", LevelSpec.N3_ALL, 5, 5, 0, 0)
        assert not run_tests(counts, Direction.ABOVE).adequately_sampled  # m*=8
        assert run_tests(counts, Direction.BELOW).adequately_sampled      # m*=3


# each level's share of n = 3 trees, n = 4 stars and n = 4 paths under the
# null; n4_all_real's star fraction is that of STAR_LANGUAGE
LEVEL_SHAPES = {
    LevelSpec.N3_ALL: (1, 0, 0),
    LevelSpec.N4_ALL_REAL: (0, Fraction(2, 5), Fraction(3, 5)),
    LevelSpec.N4_UNLABELLED: (0, Fraction(1, 2), Fraction(1, 2)),
    LevelSpec.N4_LABELLED: (0, Fraction(1, 4), Fraction(3, 4)),
    LevelSpec.N4_STAR: (0, 1, 0),
    LevelSpec.N4_LINEAR: (0, 0, 1),
}
STAR_LANGUAGE = [STAR_END, STAR_MID, LIN_LOW, LIN_TIE, LIN_HIGH]


def arranged(tree, d):
    """The edges of an arrangement of ``tree`` whose D is ``d``."""
    for perm in itertools.permutations(range(1, tree.n + 1)):
        edges = [(perm[u - 1], perm[v - 1]) for u, v in tree.edges]
        if sum(abs(u - v) for u, v in edges) == d:
            return edges
    raise ValueError(f"no arrangement with D = {d}")


def placed(n, edges, count):
    """A tally of ``count`` copies of one tree on positions 1..n, each
    placed where ``LanguageTally.add`` places it. Self-contained, so that
    the subprocess scripts below can run its source."""
    from ddmtest.pipeline import LanguageTally

    tally = LanguageTally()
    tally.add(n, edges)
    tally.cells = [count * c for c in tally.cells]
    tally.trees = count
    return tally


PLACED = inspect.getsource(placed)
# the D values each counted tree takes: the n = 3 path, then the n = 4
# star and path
COUNTED_D = [(path_tree(3), (2, 3)), (star_tree(4), (4, 6)),
             (path_tree(4), (3, 4, 5, 6, 7))]


class TestNullCalibration:
    @pytest.mark.parametrize("noncrossing", [False, True])
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("level", list(LevelSpec))
    def test_counted_successes_carry_the_null_probability(
            self, level, direction, noncrossing):
        """Under the null (crossing-free under the diagnostic), the
        arrangements a level counts as successes hold exactly its success
        probability."""
        counts = fold_trees(STAR_LANGUAGE).level_counts(level, "",
                                                        noncrossing)
        mass = Fraction(0)
        for weight, tree in zip(LEVEL_SHAPES[level],
                                [path_tree(3), star_tree(4), path_tree(4)]):
            if not weight:
                continue
            dist = brute_force_distribution(tree, noncrossing)
            total = sum(dist.values())
            for d, count in dist.items():
                one = LanguageTally()
                one.add(tree.n, arranged(tree, d))
                cell = one.level_counts(level, "", noncrossing)
                g = (cell.g_above if direction is Direction.ABOVE
                     else cell.g_below)
                mass += weight * Fraction(count * g, total)
        assert mass == success_probability(counts, direction, noncrossing)

    @given(st.just(Fraction(0)) | st.just(Fraction(1))
           | st.fractions(0, 1, max_denominator=10 ** 9),
           st.sampled_from(Direction), st.booleans())
    def test_real_level_p_is_the_real_ensemble_mixture(
            self, p_star, direction, noncrossing):
        """n4_all_real's p, taken term by term, is the null probability of
        the real ensemble at the language's star fraction."""
        counts = LevelCounts("x", LevelSpec.N4_ALL_REAL, 1, 1, 0, 0, p_star)
        got = success_probability(counts, direction, noncrossing)
        want = null_probability(EnsembleSpec.real(p_star).weights, direction,
                                noncrossing)
        assert type(got) is type(want) is Fraction
        assert got == want

    @pytest.mark.parametrize("noncrossing", [False, True])
    @pytest.mark.parametrize("level", list(LevelSpec))
    def test_simulated_size(self, level, noncrossing):
        """Languages drawn from the level's null are rejected, in each
        direction, at the test's exact size, within 3 standard errors; at
        n4_all_real, which plugs in each language's star fraction, at no
        more than alpha. Each sentence draws its shape by ``LEVEL_SHAPES``
        and a uniformly random arrangement, redrawn while it has a crossing
        under the diagnostic, and is tallied by ``LanguageTally.add``."""
        alpha, languages, m = 0.05, 3000, 30
        rng = np.random.default_rng(
            [20261019, list(LevelSpec).index(level), noncrossing])
        trees = (path_tree(3), star_tree(4), path_tree(4))
        # each tree's 24 arrangements (the 6 of the n = 3 path 4 times),
        # as edges, and whether each one has a crossing
        arrangements = [
            [tuple((perm[u - 1], perm[v - 1]) for u, v in tree.edges)
             for perm in itertools.permutations(range(1, tree.n + 1))]
            * (24 // math.factorial(tree.n)) for tree in trees]
        crossing = np.array([[count_crossings(LinearizedTree(tree.n, edges))
                              > 0 for edges in row]
                             for tree, row in zip(trees, arrangements)])
        shapes = rng.choice(3, (languages, m),
                            p=[float(w) for w in LEVEL_SHAPES[level]])
        picks = rng.integers(0, 24, (languages, m))
        while noncrossing and (redraw := crossing[shapes, picks]).any():
            picks[redraw] = rng.integers(0, 24, redraw.sum())
        tallies = []
        for row, picked in zip(shapes.tolist(), picks.tolist()):
            tally = LanguageTally()
            for k, j in zip(row, picked):
                tally.add(trees[k].n, arrangements[k][j])
            tallies.append(tally)
        for direction in Direction:
            results = {}        # by LevelCounts: many languages share one
            rejected = 0
            for tally in tallies:
                counts = tally.level_counts(level, "", noncrossing)
                if counts not in results:
                    results[counts] = run_tests(counts, direction, alpha,
                                                noncrossing)
                rejected += results[counts].p_value <= alpha
            rate = rejected / languages
            if level is LevelSpec.N4_ALL_REAL:
                size = alpha
            else:
                p = next(iter(results.values())).p
                g = next(g for g in range(m + 2)
                         if binomial_upper_tail_exact(g, m, p) <= alpha)
                size = float(binomial_upper_tail_exact(g, m, p))
            bound = 3 * math.sqrt(size * (1 - size) / languages)
            assert rate <= size + bound, (direction, rate, size)
            if level is not LevelSpec.N4_ALL_REAL:
                assert rate >= size - bound, (direction, rate, size)

    def test_diagnostic_can_reject_where_the_default_cannot(self):
        """8 paths at D = 5 at n4_linear above: p-value 1 by default, but
        g = 8, p = 5/8 and p-value (5/8)^8 < 0.05 under the diagnostic."""
        for noncrossing, g, p in ((False, 0, Fraction(1, 4)),
                                  (True, 8, Fraction(5, 8))):
            report = analyze_collection(
                {"xx": [LIN_TIE] * 8}, levels=[LevelSpec.N4_LINEAR],
                directions=[Direction.ABOVE], noncrossing=noncrossing)
            (result,) = report.results
            assert (result.g, result.p) == (g, p)
            assert result.p_value == pytest.approx(float(p ** g), rel=1e-12)
            assert result.significant is noncrossing
        assert float(Fraction(5, 8) ** 8) == pytest.approx(0.0233, abs=1e-4)

    def test_diagnostic_counts_a_path_at_five_above(self):
        normal = tally_level([LIN_TIE], LevelSpec.N4_LINEAR)
        diagnostic = tally_level([LIN_TIE], LevelSpec.N4_LINEAR,
                                 noncrossing=True)
        assert (normal.g_above, normal.ties) == (0, 1)
        assert (diagnostic.g_above, diagnostic.ties) == (1, 0)
        assert tally_level([STAR_END, STAR_MID], LevelSpec.N4_STAR,
                           noncrossing=True) == tally_level(
            [STAR_END, STAR_MID], LevelSpec.N4_STAR)


class TestAnalyzeCollection:
    def test_planted_star_signal(self):
        treebanks = {f"L{i}": [STAR_END] * 50 for i in range(5)}
        report = analyze_collection(treebanks, levels=[LevelSpec.N4_STAR],
                                    directions=[Direction.ABOVE])
        (summary,) = report.summaries
        assert (summary.l0, summary.l, summary.f, summary.f_holm) == (5, 5, 5, 5)

    def test_single_language_holm_is_identity(self):
        report = analyze_collection({"xx": [N3_HIGH] * 10},
                                    levels=[LevelSpec.N3_ALL],
                                    directions=[Direction.ABOVE])
        (result,) = report.results
        assert result.p_holm == pytest.approx(result.p_value, rel=1e-12)
        assert result.significant == (result.p_value <= 0.05)

    def test_language_order_invariance(self):
        collection = random_collection(3)
        a = analyze_collection(collection)
        b = analyze_collection(dict(reversed(list(collection.items()))))
        assert a.summaries == b.summaries
        assert a.results == b.results

    def test_f_holm_never_exceeds_f_and_l0(self):
        for seed in range(5):
            report = analyze_collection(random_collection(seed))
            for s in report.summaries:
                assert s.f_holm <= s.f <= s.l <= s.l0

    def test_report_results_match_freestanding_run_tests(self):
        collection = random_collection(11)
        report = analyze_collection(collection, levels=[LevelSpec.N4_ALL_REAL],
                                    directions=[Direction.BELOW])
        for result in report.results:
            counts = tally_level(collection[result.language],
                                 LevelSpec.N4_ALL_REAL, result.language)
            fresh = run_tests(counts, Direction.BELOW)
            assert result.p_value == fresh.p_value
            assert result.m == fresh.m and result.g == fresh.g

    def test_min_sample_size_once_per_p_and_call(self, monkeypatch):
        collection = random_collection(12, n_languages=6)
        calls = []
        real = stats.min_sample_size

        def spy(p, alpha):
            calls.append((p, alpha))
            return real(p, alpha)

        monkeypatch.setattr(stats, "min_sample_size", spy)
        first = analyze_collection(collection, alpha=0.01)
        assert len(first.results) == 6 * 12
        assert len(calls) == len(set(calls)) < len(first.results)
        second = analyze_collection(collection, alpha=0.01)
        assert calls[len(calls) // 2:] == calls[:len(calls) // 2]
        assert second == first
        for result in first.results:
            counts = tally_level(collection[result.language], result.level,
                                 result.language)
            fresh = run_tests(counts, result.direction, alpha=0.01)
            assert result.adequately_sampled == fresh.adequately_sampled

    def test_families_attached_and_missing_warned(self, caplog):
        collection = {"aa": [N3_HIGH], "bb": [N3_LOW]}
        with caplog.at_level("WARNING", logger="ddmtest.pipeline"):
            report = analyze_collection(collection, families={"aa": "F1"},
                                        levels=[LevelSpec.N3_ALL],
                                        directions=[Direction.ABOVE])
        by_lang = {r.language: r.family for r in report.results}
        assert by_lang == {"aa": "F1", "bb": "Unknown"}
        assert "bb" in caplog.text

    def test_per_family_correction(self):
        # 40 above out of 40 at n4_star: p = (1/2)^40 per language
        treebanks = {"a1": [STAR_END] * 40, "a2": [STAR_END] * 40,
                     "a3": [STAR_END] * 40, "b1": [STAR_END] * 40}
        families = {"a1": "A", "a2": "A", "a3": "A", "b1": "B"}
        args = dict(families=families, levels=[LevelSpec.N4_STAR],
                    directions=[Direction.ABOVE])
        global_run = analyze_collection(treebanks, **args)
        per_family = analyze_collection(treebanks, per_family=True, **args)
        raw = {r.language: r.p_value for r in global_run.results}
        holm_global = {r.language: r.p_holm for r in global_run.results}
        holm_family = {r.language: r.p_holm for r in per_family.results}
        for lang in treebanks:
            assert holm_global[lang] == pytest.approx(4 * raw[lang], rel=1e-9)
        for lang in ("a1", "a2", "a3"):
            assert holm_family[lang] == pytest.approx(3 * raw[lang], rel=1e-9)
        assert holm_family["b1"] == pytest.approx(raw["b1"], rel=1e-9)

    def test_exclude_undersampled_from_correction(self):
        treebanks = {"big": [STAR_END] * 50, "tiny": [STAR_END] * 2}
        args = dict(levels=[LevelSpec.N4_STAR], directions=[Direction.ABOVE])
        kept = analyze_collection(treebanks, **args)
        dropped = analyze_collection(treebanks, include_undersampled=False,
                                     **args)
        assert {r.language: r.p_holm is None for r in dropped.results} == \
            {"big": False, "tiny": True}
        big_kept = next(r for r in kept.results if r.language == "big")
        big_dropped = next(r for r in dropped.results if r.language == "big")
        # Holm factor shrinks from 2 to 1 when the tiny language leaves
        assert big_dropped.p_holm == pytest.approx(big_kept.p_holm / 2, rel=1e-9)
        assert kept.summaries[0].l0 == dropped.summaries[0].l0 == 2

    def test_empty_collection(self):
        assert analyze_collection({}).is_empty
        assert analyze_collection({"xx": []}).is_empty

    def test_level_with_no_languages_keeps_zero_summary(self):
        report = analyze_collection({"xx": [path_tree(5)]},
                                    levels=[LevelSpec.N3_ALL],
                                    directions=[Direction.ABOVE])
        (summary,) = report.summaries
        assert (summary.l0, summary.l, summary.f, summary.f_holm) == (0, 0, 0, 0)
        assert report.results == []
        assert not report.is_empty

    def test_metadata_and_exclusions_passthrough(self):
        report = analyze_collection({"xx": [N3_HIGH]},
                                    exclusions={"cycle": 2},
                                    metadata={"seed": 7})
        assert report.exclusions == {"cycle": 2}
        assert report.metadata == {"seed": 7}


@st.composite
def tallies(draw):
    """Count tables of up to six languages, some with m = 0 at every level
    or no n = 4 tree (so no star fraction), and some with large cells."""
    out = {}
    for name in draw(st.lists(st.sampled_from("ABCDEFGH"), unique=True,
                              max_size=6)):
        tally = LanguageTally()
        counts = st.integers(0, 8) | st.integers(0, 400)
        # drop the n = 3 trees, the n = 4 trees, both or neither
        dropped = {n for n in (3, 4) if draw(st.booleans())}
        for tree, ds in COUNTED_D:
            if tree.n not in dropped:
                for d in ds:
                    tally.merge(placed(tree.n, arranged(tree, d),
                                       draw(counts)))
        tally.trees += draw(st.integers(0, 3))
        out[name] = tally
    return out


def spy_forks(mp):
    """The pids of the children forked while ``mp`` is in place."""
    pids = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "fork", spy)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestPooledTests:
    """The test stage on the fork pool: one item per language, dealt by
    its m over the requested levels, from ``FORK_MIN_M`` on."""

    @given(tallies(), st.dictionaries(st.sampled_from("ABCDEFGH"),
                                      st.sampled_from(["F1", "F2"])),
           st.lists(st.sampled_from(LevelSpec), unique=True, max_size=6),
           st.lists(st.sampled_from(Direction), unique=True, max_size=2),
           st.booleans(), st.booleans(), st.booleans(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_pooled_report_equals_one_worker(self, tallies, families, levels,
                                             directions, per_family,
                                             include_undersampled,
                                             noncrossing, cpus):
        def analyze(cpus):
            """The report, and the pids forked, with ``cpus`` usable CPUs
            and no threshold."""
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "FORK_MIN_M", 0)
                mp.setattr(_pool, "_usable_cpus", lambda: cpus)
                forks = spy_forks(mp)
                return analyze_tallies(
                    tallies, families=families, levels=levels,
                    directions=directions, per_family=per_family,
                    include_undersampled=include_undersampled,
                    noncrossing=noncrossing, collection="c"), forks

        (alone, none), (pooled, forks) = analyze(1), analyze(cpus)
        assert none == []
        assert pooled == alone
        if any(t.trees for t in tallies.values()):
            assert len(forks) == min(cpus, len(tallies)) - 1
        assert_reaped(forks)
        assert emit_report(pooled, "json") == emit_report(alone, "json")

    @given(st.lists(st.integers(0, 3) | st.integers(0, 10**6), min_size=1,
                    max_size=30), st.integers(1, 8))
    def test_deal_fills_every_share(self, weights, workers):
        """Each item in one share, in index order, and no share empty while
        another holds two items, even where the weights are 0."""
        workers = min(workers, len(weights))
        shares = _pool.deal(weights, workers)
        assert len(shares) == workers and all(shares)
        assert sorted(sum(shares, [])) == list(range(len(weights)))
        assert all(share == sorted(share) for share in shares)

    def test_below_the_threshold_nothing_forks(self):
        """Just below ``FORK_MIN_M`` the stage forks nothing and imports no
        pickle; at it, it forks one child for each worker but this one."""
        code = PLACED + """if True:
            import os, sys
            from ddmtest import _pool, pipeline
            _pool._usable_cpus = lambda: 3
            forks, fork = [], os.fork
            os.fork = lambda: forks.append(1) or fork()
            before = set(sys.modules)

            def tallies(total):
                out = {}
                for i, name in enumerate("ABC"):
                    # an n = 3 tree counts at one level, a star at four
                    m = total // 3 + (i < total % 3)
                    tally = out[name] = placed(3, ((1, 2), (1, 3)), m % 4)
                    tally.merge(placed(4, ((1, 2), (1, 3), (1, 4)), m // 4))
                return out

            threshold = pipeline.FORK_MIN_M
            pipeline.analyze_tallies(tallies(threshold - 1))
            print(len(forks), "pickle" in set(sys.modules) - before)
            pipeline.analyze_tallies(tallies(threshold))
            print(len(forks), "pickle" in set(sys.modules) - before)
            """
        result = subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True,
                                env=self.env(), timeout=120)
        assert result.stdout == "0 False\n2 True\n"

    def test_another_thread_forks_nothing(self, monkeypatch):
        collection = random_collection(5, n_languages=4)
        alone = analyze_collection(collection)
        monkeypatch.setattr(pipeline, "FORK_MIN_M", 0)
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 3)
        forks = spy_forks(monkeypatch)
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait, args=(60,))
        waiter.start()
        try:
            assert analyze_collection(collection) == alone
        finally:
            stop.set()
            waiter.join(10)
        assert not waiter.is_alive()
        assert forks == []
        assert analyze_collection(collection) == alone
        assert len(forks) == 2
        assert_reaped(forks)

    @pytest.mark.parametrize("death, how", [
        ("os.kill(os.getpid(), signal.SIGKILL)",
         f"killed by signal {int(signal.SIGKILL)}"),
        ("os._exit(3)", "exit status 3")])
    def test_worker_that_dies_is_an_error(self, tmp_path, death, how):
        """A test worker that dies before sending its results raises an
        error that names it, from ``analyze_tallies`` and as ``ddmtest
        analyze``'s error line, and leaves no child."""
        for name, copies in (("Big", 40), ("Mid", 20), ("Low", 10)):
            (tmp_path / f"{name}.conllu").write_text(
                "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"
                "2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_\n"
                "3\tc\tc\tNOUN\t_\t_\t1\tdep\t_\t_\n\n" * copies,
                encoding="utf-8")
        # three workers, one language each, heaviest first: Low is tested
        # by the last child
        script = PLACED + f"""if True:
            import os, signal, sys
            from ddmtest import _pool, cli, pipeline
            _pool._usable_cpus = lambda: 3
            pipeline.FORK_MIN_M = 0
            parent, test = os.getpid(), pipeline.run_tests

            def dying(counts, *how, **more):
                if os.getpid() != parent and counts.language == "Low":
                    {death}
                return test(counts, *how, **more)

            pipeline.run_tests = dying
            tallies = {{}}
            for name, m in (("Big", 40), ("Mid", 20), ("Low", 10)):
                tallies[name] = placed(3, ((1, 2), (1, 3)), m)
            try:
                pipeline.analyze_tallies(tallies)
            except ChildProcessError as exc:
                print(exc)
            code = cli.main(["analyze", "--input", {str(tmp_path)!r}])
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left")
            sys.exit(code)
            """
        result = subprocess.run([sys.executable, "-c", script],
                                env=self.env(), capture_output=True,
                                timeout=120)
        message = (f"the worker testing Low died before sending its results "
                   f"({how})")
        assert result.returncode == 1
        assert result.stdout == f"{message}\nno child left\n".encode()
        assert result.stderr == f"ddmtest: error: {message}\n".encode()

    def test_interrupt_leaves_no_child(self, monkeypatch):
        """An interrupt in this process kills and reaps the test workers at
        once."""
        collection = random_collection(6, n_languages=3)
        parent, test = os.getpid(), pipeline.run_tests

        def test_or_stop(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)      # a child is killed long before
            return test(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_tests", test_or_stop)
        monkeypatch.setattr(pipeline, "FORK_MIN_M", 0)
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 3)
        forks = spy_forks(monkeypatch)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            analyze_collection(collection)
        assert time.monotonic() - start < 30
        assert len(forks) == 2
        assert_reaped(forks)

    @staticmethod
    def env():
        return dict(os.environ, PYTHONPATH=str(
            Path(ddmtest.__file__).resolve().parents[1]))


NAMES = st.text(st.sampled_from(',"\r\n| ab'), min_size=1, max_size=6)


def quote_every_cell(report):
    """The CSV report as emitted when every cell went through
    ``_csv_quote``: the oracle for the emitter, which quotes only names."""
    lines = [pipeline._CSV_HEADER]
    for r in report.results:
        cells = [_csv_quote(c) for c in pipeline._result_cells(report, r)]
        lines.append(",".join(cells + [""] * 4))
    for s in report.summaries:
        head = pipeline._summary_cells(report, s)
        row = ([_csv_quote(c) for c in head[:3]] + [""] * 10 + head[3:])
        lines.append(",".join(row))
    lines.append("")
    return "\n".join(lines)


class TestEmitReport:
    def test_csv_empty_report_is_header_only(self):
        payload = emit_report(analyze_collection({}), "csv")
        lines = payload.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("collection,level,direction,language")
        assert lines[0].endswith("l0,l,f,f_H")

    def test_csv_has_language_and_summary_rows(self):
        report = analyze_collection({"xx": [N3_HIGH] * 10},
                                    collection="demo",
                                    levels=[LevelSpec.N3_ALL],
                                    directions=[Direction.ABOVE])
        lines = emit_report(report, "csv").decode().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("demo,n3_all,above,xx,Unknown,10,")
        assert lines[2].startswith("demo,n3_all,above,,")
        assert lines[2].endswith("1,1,1,1")

    def test_csv_p_used_is_fraction_text(self):
        report = analyze_collection({"xx": [STAR_END] * 3},
                                    levels=[LevelSpec.N4_LABELLED],
                                    directions=[Direction.ABOVE])
        lines = emit_report(report, "csv").decode().splitlines()
        assert ",5/16," in lines[1]

    def test_byte_determinism(self):
        collection = random_collection(5)
        for fmt in ("csv", "markdown", "json"):
            a = emit_report(analyze_collection(collection), fmt)
            b = emit_report(analyze_collection(collection), fmt)
            assert a == b

    def test_json_roundtrip(self):
        report = analyze_collection({"xx": [N3_HIGH] * 10, "yy": [N3_LOW] * 4},
                                    collection="demo",
                                    exclusions={"malformed": 1},
                                    metadata={"seed": 0})
        doc = json.loads(emit_report(report, "json"))
        assert doc["collection"] == "demo"
        assert doc["exclusions"] == {"malformed": 1}
        assert len(doc["results"]) == len(report.results)
        summary = doc["summaries"][0]
        assert set(summary) == {"level", "direction", "l0", "l", "f", "f_H"}

    def test_markdown_sections(self):
        report = analyze_collection({"xx": [N3_HIGH] * 3},
                                    exclusions={"cycle": 1})
        text = emit_report(report, "markdown").decode()
        assert "## Per-language tests" in text
        assert "## Level summaries" in text
        assert "## Excluded sentences" in text
        assert "| cycle | 1 |" in text

    def test_markdown_escapes_a_bar_in_a_name(self):
        """A "|" in a language or family name is escaped in a markdown
        cell, so each row keeps the header's 12 cells; CSV and JSON keep
        the name as it is."""
        report = analyze_collection({"x|y": [N3_HIGH] * 10, "z": [N3_LOW]},
                                    families={"x|y": "F|G", "z": "H"},
                                    levels=[LevelSpec.N3_ALL])
        text = emit_report(report, "markdown").decode()
        rows = text.split("\n\n")[2].splitlines()     # the per-language table
        assert len(rows) == 2 + 2 * 2
        for row in rows:
            cells = row.replace(r"\|", "").split("|")
            assert cells[0] == cells[-1] == "" and len(cells) == 12 + 2
        assert rows[2].startswith(r"| n3_all | above | x\|y | F\|G | 10 |")
        assert ",x|y,F|G,10," in emit_report(report, "csv").decode()
        doc = json.loads(emit_report(report, "json"))
        assert {(r["language"], r["family"]) for r in doc["results"]} == {
            ("x|y", "F|G"), ("z", "H")}

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_emit_holds_one_copy_of_the_report(self, fmt):
        """Emitting holds the report's lines and at most one copy of the
        report: the peak above what is kept stays under twice its size.
        (A JSON report's peak is that of the encoder's pieces.)"""
        report = analyze_collection(random_collection(3, n_languages=150))
        emit_report(report, fmt)
        tracemalloc.start()
        try:
            payload = emit_report(report, fmt)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(payload) > 100_000
        assert peak - kept < 2 * len(payload)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(analyze_collection({}), "xml")

    def test_neglog10_of_alpha_boundary(self):
        assert _neglog10(math.log10(0.05)) == 1.3

    def test_neglog10_of_unit_p(self):
        assert _neglog10(0.0) == 0.0
        assert str(_neglog10(0.0)) == "0.0"  # never -0.0

    @given(st.text(st.sampled_from(',"\n\r a\u2028') | st.characters()))
    def test_csv_quote_matches_the_character_rule(self, value):
        quoted = '"' + value.replace('"', '""') + '"'
        assert _csv_quote(value) == (
            quoted if any(c in value for c in ',"\r\n') else value)

    @given(st.dictionaries(NAMES, NAMES, min_size=1, max_size=3), NAMES)
    @settings(max_examples=50, deadline=None)
    def test_csv_names_read_back(self, families, collection):
        """Names holding a comma, quote, line end or bar read back through
        ``csv.reader`` as they were, in the bytes of the emitter that
        quoted every cell."""
        report = analyze_collection(
            {lang: [N3_HIGH] * 3 for lang in families}, families=families,
            collection=collection, levels=[LevelSpec.N3_ALL])
        payload = emit_report(report, "csv")
        assert payload == quote_every_cell(report).encode()
        rows = list(csv.reader(io.StringIO(payload.decode(), newline="")))
        assert [row[:5] for row in rows[1:-2]] == [
            [collection, "n3_all", direction, lang, families[lang]]
            for direction in ("above", "below") for lang in sorted(families)]
        assert [row[:3] for row in rows[-2:]] == [
            [collection, "n3_all", "above"], [collection, "n3_all", "below"]]

    def test_csv_name_with_a_carriage_return_reads_back(self):
        """A bare carriage return in a name is quoted, so ``csv.reader``
        reads the header, two test rows and two summary rows."""
        report = analyze_collection({"a\rb": [N3_HIGH] * 3},
                                    levels=[LevelSpec.N3_ALL])
        payload = emit_report(report, "csv").decode()
        rows = list(csv.reader(io.StringIO(payload, newline="")))
        assert len(rows) == 5
        assert [row[3] for row in rows[1:3]] == ["a\rb", "a\rb"]

    def test_csv_quotes_awkward_names(self):
        report = analyze_collection({'we,ird "name"': [N3_HIGH]},
                                    levels=[LevelSpec.N3_ALL],
                                    directions=[Direction.ABOVE])
        lines = emit_report(report, "csv").decode().splitlines()
        assert '"we,ird ""name"""' in lines[1]


class TestLoadFamilies:
    def test_basic(self, tmp_path):
        path = tmp_path / "families.tsv"
        path.write_text("# comment\nJapanese\tJaponic\nKorean\tKoreanic\n\n",
                        encoding="utf-8")
        assert load_families(path) == {"Japanese": "Japonic",
                                       "Korean": "Koreanic"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "families.tsv"
        path.write_text("Japanese Japonic\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_families(path)

    def test_byte_order_mark_is_not_part_of_the_first_language(self,
                                                               tmp_path):
        path = tmp_path / "families.tsv"
        path.write_text("\ufeffBengali\tIndo-Aryan\nKorean\tKoreanic\n",
                        encoding="utf-8")
        assert load_families(path) == {"Bengali": "Indo-Aryan",
                                       "Korean": "Koreanic"}

    def test_byte_order_mark_before_a_comment(self, tmp_path):
        path = tmp_path / "families.tsv"
        path.write_bytes("# language\tfamily\nBengali\tIndo-Aryan\n"
                         .encode("utf-8-sig"))
        assert load_families(path) == {"Bengali": "Indo-Aryan"}
