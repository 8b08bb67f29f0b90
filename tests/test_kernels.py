import numpy as np
import pytest

from conftest import brute_force_distribution, caterpillar_tree, path_tree, star_tree
from ddmtest import kernels


@pytest.mark.parametrize("noncrossing", [False, True])
@pytest.mark.parametrize("maker,n", [
    (path_tree, 3), (path_tree, 5), (path_tree, 7),
    (star_tree, 4), (star_tree, 6),
    (caterpillar_tree, 5), (caterpillar_tree, 7),
])
def test_histogram_matches_brute_force(maker, n, noncrossing):
    tree = maker(n)
    eu, ev = tree.edge_arrays()
    hist = kernels.distance_histogram(eu, ev, n, noncrossing)
    expected = brute_force_distribution(tree, noncrossing)
    assert {d: int(c) for d, c in enumerate(hist) if c} == dict(expected)


def test_single_vertex_histogram():
    eu = np.empty(0, np.int64)
    hist = kernels.distance_histogram(eu, eu, 1)
    assert hist.tolist() == [1]


class TestSampleDistanceSums:
    def test_seed_reproducible(self):
        eu, ev = star_tree(4).edge_arrays()
        a = kernels.sample_distance_sums(eu, ev, 4, 1000, np.random.default_rng(5))
        b = kernels.sample_distance_sums(eu, ev, 4, 1000, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_chunking_transparent(self):
        eu, ev = path_tree(5).edge_arrays()
        a = kernels.sample_distance_sums(eu, ev, 5, 777, np.random.default_rng(1),
                                         chunk=100)
        b = kernels.sample_distance_sums(eu, ev, 5, 777, np.random.default_rng(1),
                                         chunk=10_000)
        assert np.array_equal(a, b)

    def test_values_in_support(self):
        eu, ev = star_tree(4).edge_arrays()
        d = kernels.sample_distance_sums(eu, ev, 4, 5000, np.random.default_rng(2))
        assert set(np.unique(d)) <= {4, 6}
