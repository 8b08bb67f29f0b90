"""Success probabilities of the one-tailed tests under the two null models.

The core null model keeps each sentence's tree fixed and draws a uniformly
random permutation of its word positions; the second one additionally draws
the tree from an ensemble (observed trees, uniform labelled trees, or uniform
unlabelled trees). Every probability is an exact ``Fraction`` read from one
table, built on first use: the distribution of D over the arrangements of
each counted tree. The seeded Monte Carlo samplers of the core model are
the only functions of the package that need numpy (the ``sim`` extra).
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import FrozenRecord
from .trees import DistanceDistribution, LinearizedTree, TreeShape, \
    enumerate_arrangements

# numpy (the "sim" extra) is imported, through _numpy, only by the samplers:
# the analysis and the enumeration run without it, and importing it would
# double the command line's start-up time.
if TYPE_CHECKING:
    import numpy as np

_SAMPLE_CHUNK = 250_000     # arrangements drawn at once by sample_distance_sums
# the counted trees by shape, in the order of pipeline.LanguageTally's rows
COUNTED_TREES = {
    TreeShape.BOTH: LinearizedTree(3, ((1, 2), (2, 3))),
    TreeShape.STAR: LinearizedTree(4, ((1, 2), (1, 3), (1, 4))),
    TreeShape.LINEAR: LinearizedTree(4, ((1, 2), (2, 3), (3, 4))),
}


class Direction(Enum):
    """Tail being tested: ABOVE = D > its random-arrangement mean, BELOW = D < it."""

    ABOVE = "above"
    BELOW = "below"


class EnsembleKind(Enum):
    REAL = "real"
    UNIFORM_LABELLED = "uniform_labelled"
    UNIFORM_UNLABELLED = "uniform_unlabelled"


# n = 4 tree census: 16 labelled trees of which 4 are stars; 2 unlabelled trees.
_STAR_FRACTION = {
    EnsembleKind.UNIFORM_LABELLED: Fraction(1, 4),
    EnsembleKind.UNIFORM_UNLABELLED: Fraction(1, 2),
}


class EnsembleSpec(FrozenRecord):
    """Tree ensemble fixing the star-tree fraction p_star (n = 4)."""

    __slots__ = ("kind", "p_star")

    def __init__(self, kind: EnsembleKind, p_star: Fraction | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p_star", p_star)
        if kind is EnsembleKind.REAL:
            if p_star is None:
                raise ValueError("real ensemble requires p_star")
            if not 0 <= p_star <= 1:
                raise ValueError("p_star must lie in [0, 1]")
        elif p_star is not None and p_star != _STAR_FRACTION[kind]:
            raise ValueError(f"{kind.value} fixes p_star = "
                             f"{_STAR_FRACTION[kind]}")

    @classmethod
    def real(cls, p_star: Fraction) -> "EnsembleSpec":
        return cls(EnsembleKind.REAL, Fraction(p_star))

    @classmethod
    def uniform_labelled(cls) -> "EnsembleSpec":
        return cls(EnsembleKind.UNIFORM_LABELLED)

    @classmethod
    def uniform_unlabelled(cls) -> "EnsembleSpec":
        return cls(EnsembleKind.UNIFORM_UNLABELLED)

    @property
    def star_fraction(self) -> Fraction:
        if self.kind is EnsembleKind.REAL:
            return self.p_star
        return _STAR_FRACTION[self.kind]

    @property
    def weights(self) -> tuple[Fraction | int, ...]:
        """The n = 4 tree's weights over the shapes of ``COUNTED_TREES``."""
        return 0, self.star_fraction, 1 - self.star_fraction


def expected_d_random_arrangement(n: int) -> Fraction:
    """Mean of D under a uniformly random arrangement: (n^2 - 1) / 3."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return Fraction(n * n - 1, 3)


def expected_d_from_distribution(dist: DistanceDistribution) -> Fraction:
    """Mean of D from an explicit arrangement distribution."""
    return dist.mean()


@functools.cache
def null_distribution(shape: TreeShape,
                      noncrossing: bool = False) -> DistanceDistribution:
    """The exact D distribution of ``shape``'s counted tree, over crossing-
    free arrangements only with ``noncrossing``: one shared, read-only copy."""
    return enumerate_arrangements(COUNTED_TREES[shape], noncrossing)


@functools.cache
def _tail(shape: TreeShape, direction: Direction,
          noncrossing: bool) -> Fraction:
    dist = null_distribution(shape, noncrossing)
    side = dist.mass_above if direction is Direction.ABOVE else dist.mass_below
    return side(dist.mean())


def null_probability(weights: tuple[Fraction | int, ...], direction: Direction,
                     noncrossing: bool = False) -> Fraction:
    """P(D beyond the mean of its shape) for a tree drawn from
    ``COUNTED_TREES`` with these weights, in a random arrangement."""
    return sum(w * _tail(shape, direction, noncrossing)
               for w, shape in zip(weights, COUNTED_TREES) if w)


def mixture_probability(ensemble: EnsembleSpec, direction: Direction) -> Fraction:
    """P(D beyond its mean) for an n = 4 tree drawn from the ensemble."""
    return null_probability(ensemble.weights, direction)


def noncrossing_mixture_probability(ensemble: EnsembleSpec,
                                    direction: Direction) -> Fraction:
    """Same mixture over crossing-free arrangements (diagnostic only)."""
    return null_probability(ensemble.weights, direction, True)


def sample_random_arrangement(tree: LinearizedTree,
                              seed: int | np.random.Generator) -> LinearizedTree:
    """The same tree with its positions permuted uniformly at random.

    Accepts a seed or a ``numpy.random.Generator``; passing the same seed
    always yields the same arrangement.
    """
    np = _numpy()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    perm = rng.permutation(tree.n)  # perm[v-1] + 1 is the new position of v
    edges = tuple((int(perm[u - 1]) + 1, int(perm[v - 1]) + 1) for u, v in tree.edges)
    return LinearizedTree(n=tree.n, edges=edges)


def sample_distance_sums(tree: LinearizedTree, size: int,
                         seed: int | np.random.Generator) -> np.ndarray:
    """D values of ``size`` independent uniform random arrangements.

    Row-wise Fisher-Yates shuffles via ``Generator.permuted``, one chunk of
    arrangements at a time.
    """
    np = _numpy()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    edges = np.asarray(tree.edges, np.int64).reshape(-1, 2) - 1
    out = np.empty(size, np.int64)
    done = 0
    base = np.arange(tree.n, dtype=np.int64)
    while done < size:
        b = min(_SAMPLE_CHUNK, size - done)
        posmat = rng.permuted(np.tile(base, (b, 1)), axis=1)
        d = np.zeros(b, np.int64)
        for u, v in edges:
            d += np.abs(posmat[:, u] - posmat[:, v])
        out[done:done + b] = d
        done += b
    return out


def _numpy():
    """numpy, or an ImportError that says how to install it."""
    try:
        import numpy
    except ImportError as exc:      # the "sim" extra
        raise ImportError("sampling needs numpy: "
                          "pip install 'ddmtest[sim]'") from exc
    return numpy
