import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_distribution, caterpillar_tree, path_tree, star_tree
from ddmtest import trees as trees_module
from ddmtest import (
    DistanceDistribution,
    EnumerationCapError,
    LinearizedTree,
    TreeShape,
    classify,
    count_crossings,
    enumerate_arrangements,
    min_d_formula,
    sum_of_distances,
)
from ddmtest.treebank import RawSentence, RawToken, preprocess


@st.composite
def random_trees(draw, min_n=2, max_n=7):
    # random recursive tree: attach each new vertex to an earlier one
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    return LinearizedTree(n, edges)


class TestLinearizedTree:
    def test_edges_normalized_and_sorted(self):
        t = LinearizedTree(3, [(3, 2), (2, 1)])
        assert t.edges == ((1, 2), (2, 3))

    def test_single_vertex(self):
        t = LinearizedTree(1, [])
        assert t.n == 1 and t.hub_degree == 0

    @pytest.mark.parametrize("n,edges", [
        (3, [(1, 2)]),                      # too few edges
        (3, [(1, 2), (2, 3), (1, 3)]),      # too many edges
        (4, [(1, 2), (1, 2), (3, 4)]),      # duplicate
        (4, [(1, 2), (2, 3), (3, 1)]),      # cycle (and 4 isolated)
        (3, [(1, 2), (2, 5)]),              # vertex out of range
        (2, [(1, 1)]),                      # self-loop
        (0, []),
    ])
    def test_invalid_trees_rejected(self, n, edges):
        with pytest.raises(ValueError):
            LinearizedTree(n, edges)

    def test_degrees_and_hub(self):
        t = star_tree(5, hub=3)
        assert t.degrees == [1, 1, 4, 1, 1]
        assert t.hub_degree == 4


def labelled_trees(n: int) -> list[LinearizedTree]:
    """Every labelled tree on vertices 1..n, as each (n - 1)-subset of the
    possible edges that builds."""
    built = []
    pairs = itertools.combinations(range(1, n + 1), 2)
    for edges in itertools.combinations(pairs, n - 1):
        try:
            built.append(LinearizedTree(n, edges))
        except ValueError:
            pass
    return built


class TestSharedEdges:
    """Equal trees on at most five vertices with plain int endpoints share
    one ``edges`` tuple, from a table that only valid trees enter."""

    @pytest.fixture
    def table(self, monkeypatch):
        """An empty sharing table in place of the module's."""
        table = {}
        monkeypatch.setattr(trees_module, "_shared_edges", table)
        return table

    def test_equal_trees_share_whatever_the_order_or_orientation(self):
        path = LinearizedTree(4, ((1, 2), (2, 3), (3, 4)))
        for order in itertools.permutations(path.edges):
            for flips in itertools.product((False, True), repeat=3):
                edges = [(v, u) if flip else (u, v)
                         for (u, v), flip in zip(order, flips)]
                assert LinearizedTree(4, edges).edges is path.edges
                assert LinearizedTree(4, tuple(edges)).edges is path.edges
                assert LinearizedTree(4, [list(e) for e in edges]
                                      ).edges is path.edges

    def test_every_short_tree_enters_once(self, table):
        for _ in range(2):
            built = {n: labelled_trees(n) for n in range(1, 6)}
            assert [len(built[n]) for n in built] == [1, 1, 3, 16, 125]
        assert len(table) == 146    # n^(n-2) summed over n = 1..5
        assert all(table[t.edges] is t.edges
                   for short in built.values() for t in short)
        assert len(labelled_trees(6)) == 6 ** 4
        LinearizedTree(7, [(i, i + 1) for i in range(1, 7)])
        assert len(table) == 146

    def test_rejected_trees_add_nothing(self, table):
        cases = next(m for m in TestLinearizedTree.test_invalid_trees_rejected
                     .pytestmark if m.name == "parametrize").args[1]
        for n, edges in cases:
            with pytest.raises(ValueError):
                LinearizedTree(n, edges)
        assert table == {}

    @pytest.mark.parametrize("first_plain", [True, False])
    def test_bool_endpoints_keep_their_tuple(self, table, first_plain):
        def plain():
            return LinearizedTree(2, [(1, 2)])

        if first_plain:
            plain()
        odd = LinearizedTree(2, [(True, 2)])
        tree = plain()
        assert odd == tree and odd.edges is not tree.edges
        assert repr(odd.edges) == "((True, 2),)"
        assert repr(tree.edges) == "((1, 2),)"
        assert list(table) == [((1, 2),)]

    def test_numpy_endpoints_keep_their_tuple(self, table):
        np = pytest.importorskip("numpy")
        one, two, three = np.int64(1), np.int64(2), np.int64(3)
        odd = LinearizedTree(3, [(three, two), (two, one)])
        mixed = LinearizedTree(3, [(1, two), (2, 3)])
        tree = LinearizedTree(3, [(1, 2), (2, 3)])
        assert odd == mixed == tree
        assert odd.edges is not tree.edges and mixed.edges is not tree.edges
        assert odd.edges == ((one, two), (two, three))
        assert all(type(v) is np.int64 for e in odd.edges for v in e)
        assert type(mixed.edges[0][1]) is np.int64
        assert repr(tree) == "LinearizedTree(n=3, edges=((1, 2), (2, 3)))"
        assert list(table) == [((1, 2), (2, 3))]

    def test_preprocess_shares(self):
        def sentence():
            return RawSentence([RawToken(1, 2, "a", "NOUN", "nsubj"),
                                RawToken(2, 0, "b", "VERB", "root"),
                                RawToken(3, 2, "c", "NOUN", "obj")], "s")

        first, second = preprocess(sentence()), preprocess(sentence())
        assert first.edges is second.edges == ((1, 2), (2, 3))

    def test_pickle_round_trip_shares(self):
        tree = star_tree(5, hub=2)
        assert pickle.loads(pickle.dumps(tree)).edges is tree.edges

    def test_short_trees_hold_under_100_bytes_each(self):
        rng = random.Random(22)
        shapes = {n: labelled_trees(n) for n in (3, 4, 5)}
        inputs = []
        for _ in range(50_000):
            n = rng.choice((3, 4, 5))
            edges = [e[::rng.choice((1, -1))]
                     for e in rng.choice(shapes[n]).edges]
            rng.shuffle(edges)
            inputs.append((n, edges))
        tracemalloc.start()
        try:
            built = [LinearizedTree(n, edges) for n, edges in inputs]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / len(built) < 100


class TestClassify:
    def test_n3_is_both_linear_and_star(self):
        assert classify(path_tree(3)) is TreeShape.BOTH

    def test_n4_star(self):
        assert classify(star_tree(4)) is TreeShape.STAR
        assert classify(star_tree(4, hub=2)) is TreeShape.STAR

    def test_n5_path_is_linear(self):
        assert classify(path_tree(5)) is TreeShape.LINEAR

    def test_n4_path_is_linear(self):
        assert classify(path_tree(4)) is TreeShape.LINEAR

    def test_n2_is_both(self):
        assert classify(path_tree(2)) is TreeShape.BOTH

    def test_n5_spider_is_other(self):
        assert classify(caterpillar_tree(5)) is TreeShape.OTHER

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            classify(LinearizedTree(1, []))

    def test_both_only_up_to_n3(self):
        for n in (2, 3):
            assert classify(path_tree(n)) is TreeShape.BOTH
        for n in (4, 5, 6):
            assert classify(path_tree(n)) is not TreeShape.BOTH
            assert classify(star_tree(n)) is not TreeShape.BOTH


class TestSumOfDistances:
    def test_hub_at_center_n3(self):
        assert sum_of_distances(LinearizedTree(3, [(1, 2), (2, 3)])) == 2

    def test_path_in_order_n4(self):
        assert sum_of_distances(path_tree(4)) == 3

    def test_star_hub_next_to_end_n4(self):
        assert sum_of_distances(star_tree(4, hub=2)) == 4

    def test_star_hub_at_end_n4(self):
        assert sum_of_distances(star_tree(4, hub=1)) == 6

    @given(random_trees())
    def test_reversal_invariance(self, tree):
        flipped = LinearizedTree(
            tree.n, [(tree.n + 1 - u, tree.n + 1 - v) for u, v in tree.edges])
        assert sum_of_distances(flipped) == sum_of_distances(tree)

    @given(random_trees())
    def test_range(self, tree):
        d = sum_of_distances(tree)
        assert tree.n - 1 <= d <= (tree.n - 1) ** 2


class TestCountCrossings:
    def test_single_edge(self):
        assert count_crossings(path_tree(2)) == 0

    def test_interleaved_path(self):
        # path a-b-c-d laid out as a,c,b,d: spans (1,3),(2,3),(2,4)
        tree = LinearizedTree(4, [(1, 3), (3, 2), (2, 4)])
        assert count_crossings(tree) == 1

    @pytest.mark.parametrize("n", range(3, 8))
    def test_star_never_crosses(self, n):
        for hub in range(1, n + 1):
            assert count_crossings(star_tree(n, hub)) == 0

    @pytest.mark.parametrize("n", range(3, 8))
    def test_exhaustive_star_arrangements(self, n):
        # all n! arrangements of the star: crossings are impossible
        for perm in itertools.permutations(range(1, n + 1)):
            edges = [(perm[0], perm[v - 1]) for v in range(2, n + 1)]
            assert count_crossings(LinearizedTree(n, edges)) == 0

    @given(random_trees())
    def test_matches_quadratic_recount(self, tree):
        spans = tree.edges
        expected = sum(
            1
            for (a, b), (c, d) in itertools.combinations(spans, 2)
            if a < c < b < d or c < a < d < b)
        assert count_crossings(tree) == expected


class TestEnumerateArrangements:
    def test_n3_distribution(self):
        dist = enumerate_arrangements(path_tree(3))
        assert dist.counts == {2: 2, 3: 4}
        assert dist.total == 6
        assert dist.probability(3) == Fraction(2, 3)

    def test_n4_star_distribution(self):
        dist = enumerate_arrangements(star_tree(4))
        assert dist.counts == {4: 12, 6: 12}
        assert dist.probability(4) == Fraction(1, 2)

    def test_n4_linear_distribution(self):
        dist = enumerate_arrangements(path_tree(4))
        assert dist.counts == {3: 2, 4: 4, 5: 12, 6: 4, 7: 2}
        assert dist.probability(3) == dist.probability(7) == Fraction(1, 12)

    def test_n4_linear_noncrossing(self):
        dist = enumerate_arrangements(path_tree(4), restrict_noncrossing=True)
        assert dist.total == 16
        assert dist.counts == {3: 2, 4: 4, 5: 6, 6: 4}
        assert dist.counts.get(7, 0) == 0

    def test_n4_linear_symmetry(self):
        dist = enumerate_arrangements(path_tree(4))
        assert dist.counts[3] == dist.counts[7]
        assert dist.counts[4] == dist.counts[6]

    @pytest.mark.parametrize("maker", [path_tree, star_tree])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_against_brute_force(self, maker, n):
        tree = maker(n)
        dist = enumerate_arrangements(tree)
        assert dist.counts == dict(brute_force_distribution(tree))

    @pytest.mark.parametrize("n", range(4, 7))
    def test_noncrossing_against_brute_force(self, n):
        for tree in (path_tree(n), star_tree(n, hub=2)):
            dist = enumerate_arrangements(tree, restrict_noncrossing=True)
            assert dist.counts == dict(brute_force_distribution(tree, True))

    def test_mixed_tree_against_brute_force(self):
        tree = caterpillar_tree(6)
        assert enumerate_arrangements(tree).counts == \
            dict(brute_force_distribution(tree))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_mean_matches_closed_form(self, n):
        for tree in (path_tree(n), star_tree(n)):
            assert enumerate_arrangements(tree).mean() == Fraction(n * n - 1, 3)

    def test_total_is_factorial(self):
        for n in range(2, 7):
            assert enumerate_arrangements(path_tree(n)).total == math.factorial(n)

    @pytest.mark.parametrize("noncrossing", [False, True])
    @pytest.mark.parametrize("maker,n", [
        (path_tree, 3), (path_tree, 5), (path_tree, 7),
        (star_tree, 4), (star_tree, 6),
        (caterpillar_tree, 5), (caterpillar_tree, 7),
    ])
    def test_histogram_matches_brute_force(self, maker, n, noncrossing):
        tree = maker(n)
        dist = enumerate_arrangements(tree, noncrossing)
        assert dist.counts == dict(brute_force_distribution(tree, noncrossing))

    def test_single_vertex(self):
        assert enumerate_arrangements(LinearizedTree(1, ())).counts == {0: 1}

    @given(random_trees(max_n=8), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_random_trees_against_brute_force(self, tree, noncrossing):
        dist = enumerate_arrangements(tree, noncrossing)
        assert dist.counts == dict(brute_force_distribution(tree, noncrossing))

    @pytest.mark.parametrize("tree", [
        path_tree(10), star_tree(10),
        LinearizedTree(10, [(1, 2), (1, 3), (1, 8), (2, 4), (3, 5), (3, 6),
                            (5, 10), (6, 7), (8, 9)]),
    ], ids=["path", "star", "random"])
    def test_closed_forms_at_n10(self, tree):
        # brute force is too slow here: the total is n!, the mean is
        # (n^2 - 1)/3, and n * prod(deg(v)!) arrangements are crossing-free
        full = enumerate_arrangements(tree)
        assert full.total == math.factorial(10)
        assert full.mean() == Fraction(10 * 10 - 1, 3)
        crossing_free = enumerate_arrangements(tree, restrict_noncrossing=True)
        assert crossing_free.total == \
            10 * math.prod(map(math.factorial, tree.degrees))

    def test_crossing_free_paths_and_stars_at_n10(self):
        path = enumerate_arrangements(path_tree(10), restrict_noncrossing=True)
        assert path.total == 2_560
        star = star_tree(10)
        assert enumerate_arrangements(star, restrict_noncrossing=True) == \
            enumerate_arrangements(star)

    def test_cap_refusal(self):
        big = path_tree(11)
        with pytest.raises(EnumerationCapError, match="Monte Carlo"):
            enumerate_arrangements(big)

    def test_cap_override(self):
        with pytest.raises(EnumerationCapError):
            enumerate_arrangements(path_tree(4), cap=3)
        assert enumerate_arrangements(path_tree(4), cap=4).total == 24

    @given(random_trees(max_n=6))
    @settings(max_examples=25, deadline=None)
    def test_mean_property_random_trees(self, tree):
        dist = enumerate_arrangements(tree)
        assert dist.mean() == Fraction(tree.n ** 2 - 1, 3)


class TestMinDFormula:
    def test_linear_n4(self):
        assert min_d_formula(TreeShape.LINEAR, 4) == 3

    def test_star_n4(self):
        assert min_d_formula(TreeShape.STAR, 4) == 4

    def test_both_n3(self):
        assert min_d_formula(TreeShape.BOTH, 3) == 2
        assert min_d_formula(TreeShape.STAR, 3) == 2  # formulas agree at n=3

    def test_other_unsupported(self):
        with pytest.raises(ValueError):
            min_d_formula(TreeShape.OTHER, 5)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_enumeration_support(self, n):
        assert enumerate_arrangements(path_tree(n)).support_min() == \
            min_d_formula(TreeShape.LINEAR, n)
        assert enumerate_arrangements(star_tree(n)).support_min() == \
            min_d_formula(TreeShape.STAR, n)


class TestDistanceDistribution:
    def test_counts_must_sum_to_total(self):
        with pytest.raises(ValueError):
            DistanceDistribution(counts={2: 2, 3: 4}, total=7)

    def test_mass_splits(self):
        dist = enumerate_arrangements(path_tree(4))
        assert dist.mass_above(5) == Fraction(1, 4)
        assert dist.mass_below(5) == Fraction(1, 4)
        assert dist.mass_above(5) + dist.mass_below(5) + dist.probability(5) == 1

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            DistanceDistribution(counts={}, total=0).mean()
