"""Success probabilities of the one-tailed tests under the two null models.

The core null model keeps each sentence's tree fixed and draws a uniformly
random permutation of its word positions; the second one additionally draws
the tree from an ensemble (observed trees, uniform labelled trees, or uniform
unlabelled trees). For n = 3 and n = 4 every probability is an exact small
rational, kept as ``Fraction`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .trees import DistanceDistribution, LinearizedTree, TreeShape

# numpy is imported only by the samplers, for the reason given in trees.py
if TYPE_CHECKING:
    import numpy as np


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


@dataclass(frozen=True)
class EnsembleSpec:
    """Tree ensemble fixing the star-tree fraction p_star (n = 4)."""

    kind: EnsembleKind
    p_star: Fraction | None = None

    def __post_init__(self):
        if self.kind is EnsembleKind.REAL:
            if self.p_star is None:
                raise ValueError("real ensemble requires p_star")
            if not 0 <= self.p_star <= 1:
                raise ValueError("p_star must lie in [0, 1]")
        elif self.p_star is not None and self.p_star != _STAR_FRACTION[self.kind]:
            raise ValueError(f"{self.kind.value} fixes p_star = "
                             f"{_STAR_FRACTION[self.kind]}")

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


def expected_d_random_arrangement(n: int) -> Fraction:
    """Mean of D under a uniformly random arrangement: (n^2 - 1) / 3."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return Fraction(n * n - 1, 3)


def expected_d_from_distribution(dist: DistanceDistribution) -> Fraction:
    """Mean of D from an explicit arrangement distribution."""
    return dist.mean()


def shape_tail_probability(shape: TreeShape, n: int, direction: Direction) -> Fraction:
    """P(D beyond its random-arrangement mean) for one tree shape.

    Supported cases are the sentence lengths under study: the single n = 3
    shape, and star or linear trees with n = 4.
    """
    if n == 3 and shape is TreeShape.BOTH:
        return Fraction(2, 3) if direction is Direction.ABOVE else Fraction(1, 3)
    if n == 4 and shape is TreeShape.STAR:
        return Fraction(1, 2)
    if n == 4 and shape is TreeShape.LINEAR:
        return Fraction(1, 4)
    raise ValueError(f"unsupported combination: shape={shape.value!r}, n={n}")


def mixture_probability(ensemble: EnsembleSpec, direction: Direction) -> Fraction:
    """P(D beyond its mean) for an n = 4 tree drawn from the ensemble.

    Mixing the star (1/2) and linear (1/4) tail probabilities with star
    fraction p_s gives (p_s + 1) / 4, identical for both tails by symmetry.
    """
    del direction  # symmetric
    return (ensemble.star_fraction + 1) / 4


def noncrossing_mixture_probability(ensemble: EnsembleSpec,
                                    direction: Direction) -> Fraction:
    """Same mixture when crossing arrangements are banned (diagnostic only).

    The ban leaves star trees untouched but lifts the linear-tree tails to
    5/8 (above) and 3/8 (below), giving (5 - p_s)/8 and (p_s + 3)/8.
    """
    p_s = ensemble.star_fraction
    if direction is Direction.ABOVE:
        return (5 - p_s) / 8
    return (p_s + 3) / 8


def sample_random_arrangement(tree: LinearizedTree,
                              seed: int | np.random.Generator) -> LinearizedTree:
    """The same tree with its positions permuted uniformly at random.

    Accepts a seed or a ``numpy.random.Generator``; passing the same seed
    always yields the same arrangement.
    """
    import numpy as np

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    perm = rng.permutation(tree.n)  # perm[v-1] + 1 is the new position of v
    edges = tuple((int(perm[u - 1]) + 1, int(perm[v - 1]) + 1) for u, v in tree.edges)
    return LinearizedTree(n=tree.n, edges=edges)


def sample_distance_sums(tree: LinearizedTree, size: int,
                         seed: int | np.random.Generator) -> np.ndarray:
    """D values of ``size`` independent uniform random arrangements (batched)."""
    import numpy as np

    from . import kernels

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    eu, ev = tree.edge_arrays()
    return kernels.sample_distance_sums(eu, ev, tree.n, size, rng)
