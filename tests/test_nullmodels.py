import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import classify, degrees, path_tree, star_tree, \
    sum_of_distances
from ddmtest import nullmodels
from ddmtest import (
    Direction,
    DistanceDistribution,
    EnsembleKind,
    EnsembleSpec,
    LinearizedTree,
    TreeShape,
    binomial_upper_tail_exact,
    enumerate_arrangements,
    expected_d_from_distribution,
    expected_d_random_arrangement,
    mixture_probability,
    noncrossing_mixture_probability,
    sample_distance_sums,
    sample_random_arrangement,
)
from ddmtest.nullmodels import null_probability

P_STAR_GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
               Fraction(3, 4), Fraction(1)]


class TestExpectedD:
    @pytest.mark.parametrize("n,expected", [
        (2, Fraction(1)),
        (3, Fraction(8, 3)),
        (4, Fraction(5)),
        (1, Fraction(0)),
    ])
    def test_closed_form(self, n, expected):
        assert expected_d_random_arrangement(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            expected_d_random_arrangement(0)

    def test_from_distribution_star(self):
        dist = DistanceDistribution(counts={4: 12, 6: 12}, total=24)
        assert expected_d_from_distribution(dist) == 5

    def test_from_distribution_noncrossing_linear(self):
        dist = enumerate_arrangements(path_tree(4), restrict_noncrossing=True)
        assert expected_d_from_distribution(dist) == Fraction(19, 4)

    def test_from_point_mass(self):
        assert expected_d_from_distribution(
            DistanceDistribution(counts={7: 1}, total=1)) == 7

    @pytest.mark.parametrize("n", range(2, 8))
    def test_closed_form_equals_enumeration(self, n):
        for tree in (path_tree(n), star_tree(n)):
            dist = enumerate_arrangements(tree)
            assert expected_d_from_distribution(dist) == \
                expected_d_random_arrangement(n)


# the weights that put all of a tree's mass on one counted tree
SHAPE_WEIGHTS = {TreeShape.BOTH: (1, 0, 0), TreeShape.STAR: (0, 1, 0),
                 TreeShape.LINEAR: (0, 0, 1)}


def shape_tail(shape, direction):
    """P(D beyond its mean) for the counted tree of ``shape``, by the
    product's route."""
    return null_probability(SHAPE_WEIGHTS[shape], direction)


class TestShapeTailProbability:
    @pytest.mark.parametrize("shape,n,direction,expected", [
        (TreeShape.BOTH, 3, Direction.ABOVE, Fraction(2, 3)),
        (TreeShape.BOTH, 3, Direction.BELOW, Fraction(1, 3)),
        (TreeShape.STAR, 4, Direction.ABOVE, Fraction(1, 2)),
        (TreeShape.STAR, 4, Direction.BELOW, Fraction(1, 2)),
        (TreeShape.LINEAR, 4, Direction.ABOVE, Fraction(1, 4)),
        (TreeShape.LINEAR, 4, Direction.BELOW, Fraction(1, 4)),
    ])
    def test_table(self, shape, n, direction, expected):
        assert nullmodels.COUNTED_TREES[shape].n == n
        assert shape_tail(shape, direction) == expected

    @pytest.mark.parametrize("shape", list(TreeShape))
    def test_counted_tree_has_its_shape(self, shape):
        assert classify(nullmodels.COUNTED_TREES[shape]) is shape

    @pytest.mark.parametrize("direction", list(Direction))
    def test_agrees_with_enumeration(self, direction):
        cases = [
            (path_tree(3), TreeShape.BOTH, 3),
            (star_tree(4), TreeShape.STAR, 4),
            (path_tree(4), TreeShape.LINEAR, 4),
        ]
        for tree, shape, n in cases:
            dist = enumerate_arrangements(tree)
            mean = expected_d_random_arrangement(n)
            mass = (dist.mass_above(mean) if direction is Direction.ABOVE
                    else dist.mass_below(mean))
            assert shape_tail(shape, direction) == mass


class TestEnsembleSpec:
    def test_real_requires_p_star(self):
        with pytest.raises(ValueError):
            EnsembleSpec(EnsembleKind.REAL)

    def test_real_bounds(self):
        with pytest.raises(ValueError):
            EnsembleSpec.real(Fraction(3, 2))

    def test_uniform_star_fractions(self):
        assert EnsembleSpec.uniform_unlabelled().star_fraction == Fraction(1, 2)
        assert EnsembleSpec.uniform_labelled().star_fraction == Fraction(1, 4)

    def test_uniform_rejects_contradictory_p_star(self):
        with pytest.raises(ValueError):
            EnsembleSpec(EnsembleKind.UNIFORM_LABELLED, p_star=Fraction(1, 2))


class TestMixtureProbability:
    def test_uniform_labelled(self):
        assert mixture_probability(EnsembleSpec.uniform_labelled(),
                                   Direction.ABOVE) == Fraction(5, 16)

    def test_uniform_unlabelled(self):
        assert mixture_probability(EnsembleSpec.uniform_unlabelled(),
                                   Direction.ABOVE) == Fraction(3, 8)

    def test_pure_star(self):
        assert mixture_probability(EnsembleSpec.real(Fraction(1)),
                                   Direction.ABOVE) == Fraction(1, 2)

    def test_pure_linear(self):
        assert mixture_probability(EnsembleSpec.real(Fraction(0)),
                                   Direction.BELOW) == Fraction(1, 4)

    @pytest.mark.parametrize("p_s", P_STAR_GRID)
    def test_symmetric_in_direction(self, p_s):
        ens = EnsembleSpec.real(p_s)
        assert mixture_probability(ens, Direction.ABOVE) == \
            mixture_probability(ens, Direction.BELOW) == (p_s + 1) / 4

    @pytest.mark.parametrize("p_s", P_STAR_GRID)
    @pytest.mark.parametrize("direction", list(Direction))
    def test_is_shape_weighted_average(self, p_s, direction):
        star = shape_tail(TreeShape.STAR, direction)
        linear = shape_tail(TreeShape.LINEAR, direction)
        assert mixture_probability(EnsembleSpec.real(p_s), direction) == \
            p_s * star + (1 - p_s) * linear

    @pytest.mark.parametrize("direction", list(Direction))
    def test_plug_in_test_is_conservative_given_the_shapes(self, direction):
        """n4_all_real tests s stars and l paths against Bin(s + l, p), p =
        (s / (s + l) + 1) / 4. Given the shapes the null count is Bin(s,
        1/2) + Bin(l, 1/4), which has less variance: its exact tail at the
        smallest g of nominal size <= 1/20 is <= 1/20 too."""
        alpha = Fraction(1, 20)
        star = shape_tail(TreeShape.STAR, direction)
        linear = shape_tail(TreeShape.LINEAR, direction)

        def weights(k, q):      # k + 1 binomial masses, times q.denominator^k
            hit, miss = q.numerator, q.denominator - q.numerator
            return [math.comb(k, i) * hit ** i * miss ** (k - i)
                    for i in range(k + 1)]

        for s, l in itertools.product(range(25), repeat=2):
            m = s + l
            if not m:
                continue
            p = mixture_probability(EnsembleSpec.real(Fraction(s, m)),
                                    direction)
            g = next(g for g in range(m + 2)
                     if binomial_upper_tail_exact(g, m, p) <= alpha)
            tail = sum(a * b for i, a in enumerate(weights(s, star))
                       for j, b in enumerate(weights(l, linear))
                       if i + j >= g)
            size = Fraction(tail, star.denominator ** s
                            * linear.denominator ** l)
            assert size <= alpha, (s, l, g, float(size))


class TestNoncrossingMixture:
    def test_pure_linear_above(self):
        assert noncrossing_mixture_probability(
            EnsembleSpec.real(Fraction(0)), Direction.ABOVE) == Fraction(5, 8)

    def test_pure_linear_below(self):
        assert noncrossing_mixture_probability(
            EnsembleSpec.real(Fraction(0)), Direction.BELOW) == Fraction(3, 8)

    def test_pure_star_unaffected(self):
        ens = EnsembleSpec.real(Fraction(1))
        for direction in Direction:
            assert noncrossing_mixture_probability(ens, direction) == Fraction(1, 2)

    @pytest.mark.parametrize("p_s", P_STAR_GRID)
    @pytest.mark.parametrize("direction", list(Direction))
    def test_ban_is_conservative(self, p_s, direction):
        ens = EnsembleSpec.real(p_s)
        assert noncrossing_mixture_probability(ens, direction) >= \
            mixture_probability(ens, direction)

    @pytest.mark.parametrize("p_s", [Fraction(0), Fraction(1, 4),
                                     Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_matches_enumeration_weighted_recount(self, p_s, direction):
        # each shape's tail is taken against its own crossing-free mean
        parts = {}
        for shape, tree in ((TreeShape.STAR, star_tree(4)),
                            (TreeShape.LINEAR, path_tree(4))):
            dist = enumerate_arrangements(tree, restrict_noncrossing=True)
            mean = expected_d_from_distribution(dist)
            parts[shape] = (dist.mass_above(mean)
                            if direction is Direction.ABOVE
                            else dist.mass_below(mean))
        weighted = p_s * parts[TreeShape.STAR] + (1 - p_s) * parts[TreeShape.LINEAR]
        assert noncrossing_mixture_probability(
            EnsembleSpec.real(p_s), direction) == weighted


class TestSampleRandomArrangement:
    def test_single_vertex_unchanged(self):
        t = LinearizedTree(1, [])
        assert sample_random_arrangement(t, 3) == t

    def test_seed_determinism(self):
        tree = star_tree(6, hub=2)
        assert sample_random_arrangement(tree, 11) == \
            sample_random_arrangement(tree, 11)

    def test_structure_preserved(self):
        tree = path_tree(7)
        shuffled = sample_random_arrangement(tree, 123)
        assert shuffled.n == tree.n
        assert sorted(degrees(shuffled)) == sorted(degrees(tree))

    def test_generator_advances(self):
        rng = np.random.default_rng(0)
        tree = path_tree(6)
        a = sample_random_arrangement(tree, rng)
        b = sample_random_arrangement(tree, rng)
        assert a != b  # 1/6! chance of collision under a fresh seed

    def test_star_frequency_three_sigma(self):
        # n=4 star: P(D=6) = 1/2 exactly
        tree = star_tree(4)
        size = 100_000
        rng = np.random.default_rng(20240301)
        hits = sum(sum_of_distances(sample_random_arrangement(tree, rng)) == 6
                   for _ in range(2000))
        se = math.sqrt(0.25 / 2000)
        assert abs(hits / 2000 - 0.5) <= 3 * se
        # the batched sampler gets the tight bound at full size
        d = sample_distance_sums(tree, size, 20240301)
        se = math.sqrt(0.25 / size)
        assert abs((d == 6).mean() - 0.5) <= 3 * se

    def test_batched_matches_support(self):
        d = sample_distance_sums(path_tree(4), 20_000, 9)
        assert set(np.unique(d)) == {3, 4, 5, 6, 7}

    def test_batched_frequencies_match_enumeration(self):
        dist = enumerate_arrangements(path_tree(4))
        d = sample_distance_sums(path_tree(4), 200_000, 31)
        for value, count in dist.counts.items():
            p = count / dist.total
            se = math.sqrt(p * (1 - p) / len(d))
            assert abs((d == value).mean() - p) <= 4 * se


class TestSampleDistanceSums:
    def test_seed_reproducible(self):
        tree = star_tree(4)
        a = sample_distance_sums(tree, 1000, np.random.default_rng(5))
        b = sample_distance_sums(tree, 1000, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_chunking_transparent(self, monkeypatch):
        tree = path_tree(5)
        monkeypatch.setattr(nullmodels, "_SAMPLE_CHUNK", 100)
        a = sample_distance_sums(tree, 777, np.random.default_rng(1))
        monkeypatch.setattr(nullmodels, "_SAMPLE_CHUNK", 10_000)
        b = sample_distance_sums(tree, 777, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_values_in_support(self):
        d = sample_distance_sums(star_tree(4), 5000, np.random.default_rng(2))
        assert set(np.unique(d)) <= {4, 6}

    def test_single_vertex(self):
        d = sample_distance_sums(LinearizedTree(1, []), 5, 0)
        assert d.tolist() == [0] * 5
