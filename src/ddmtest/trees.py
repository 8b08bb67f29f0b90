"""Linearized dependency trees and exact arrangement distributions.

A sentence's tree is stored over vertices 1..n where the vertex number is the
word's position in the sentence, so the tree object carries the observed
linear arrangement. Edges are undirected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

# numpy and the kernels are imported inside the functions that use them:
# the analysis never enumerates, and importing numpy would double the
# command line's start-up time.
if TYPE_CHECKING:
    import numpy as np

ENUMERATION_CAP = 10


class TreeShape(Enum):
    STAR = "star"
    LINEAR = "linear"
    BOTH = "both"
    OTHER = "other"


class EnumerationCapError(ValueError):
    """Exhaustive enumeration refused; use Monte Carlo sampling instead."""


@dataclass(frozen=True)
class LinearizedTree:
    """Undirected tree on vertices {1..n}; vertex number = sentence position."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        norm = tuple(sorted((u, v) if u < v else (v, u) for u, v in self.edges))
        object.__setattr__(self, "edges", norm)
        if len(norm) != n - 1:
            raise ValueError(f"expected {n - 1} edges, got {len(norm)}")
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        neighbours: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in norm:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            if u == v:
                raise ValueError("self-loop")
            neighbours[u].append(v)
            neighbours[v].append(u)
        # n - 1 distinct edges form a tree iff a walk from vertex 1 over
        # them reaches every vertex
        reached, stack = {1}, [1]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            raise ValueError("not a tree: disconnected, with a cycle")

    @property
    def degrees(self) -> list[int]:
        deg = [0] * (self.n + 1)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg[1:]

    @property
    def hub_degree(self) -> int:
        return max(self.degrees) if self.n > 1 else 0

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based endpoint arrays for the kernels."""
        import numpy as np

        if not self.edges:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        arr = np.asarray(self.edges, np.int64) - 1
        return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


@dataclass(frozen=True)
class DistanceDistribution:
    """Exact counts of the distance sum D over a set of linear arrangements."""

    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not add up to total")

    def mean(self) -> Fraction:
        if self.total == 0:
            raise ValueError("empty distribution")
        return Fraction(sum(d * c for d, c in self.counts.items()), self.total)

    def probability(self, d: int) -> Fraction:
        return Fraction(self.counts.get(d, 0), self.total)

    def mass_above(self, threshold: Fraction | int) -> Fraction:
        return Fraction(sum(c for d, c in self.counts.items() if d > threshold),
                        self.total)

    def mass_below(self, threshold: Fraction | int) -> Fraction:
        return Fraction(sum(c for d, c in self.counts.items() if d < threshold),
                        self.total)

    def support_min(self) -> int:
        return min(self.counts)

    def support_max(self) -> int:
        return max(self.counts)


def classify(tree: LinearizedTree) -> TreeShape:
    """Classify by maximum degree: path vs star, coinciding for n <= 3."""
    if tree.n < 2:
        raise ValueError("shape is defined for n >= 2")
    if tree.n <= 3:
        return TreeShape.BOTH
    hub = tree.hub_degree
    if hub == tree.n - 1:
        return TreeShape.STAR
    if hub == 2:
        return TreeShape.LINEAR
    return TreeShape.OTHER


def sum_of_distances(tree: LinearizedTree) -> int:
    """Total edge length of the observed arrangement: sum of |pos(u)-pos(v)|."""
    return sum(v - u for u, v in tree.edges)


def count_crossings(tree: LinearizedTree) -> int:
    """Number of edge pairs whose position spans strictly interleave."""
    spans = tree.edges  # already (lo, hi) sorted pairs
    crossings = 0
    for i in range(len(spans)):
        a, b = spans[i]
        for j in range(i + 1, len(spans)):
            c, d = spans[j]
            if a < c < b < d or c < a < d < b:
                crossings += 1
    return crossings


def enumerate_arrangements(tree: LinearizedTree,
                           restrict_noncrossing: bool = False,
                           cap: int = ENUMERATION_CAP) -> DistanceDistribution:
    """Exact distribution of D over all n! arrangements of the tree.

    With ``restrict_noncrossing`` only crossing-free arrangements are counted,
    so the total drops below n!. Refuses n above ``cap`` (n! blowup); sample
    with ``nullmodels.sample_distance_sums`` instead.
    """
    if tree.n > cap:
        raise EnumerationCapError(
            f"n={tree.n} exceeds the enumeration cap ({cap}); "
            "use Monte Carlo sampling for larger trees")
    from . import kernels

    eu, ev = tree.edge_arrays()
    hist = kernels.distance_histogram(eu, ev, tree.n, restrict_noncrossing)
    counts = {int(d): int(c) for d, c in enumerate(hist) if c}
    return DistanceDistribution(counts=counts, total=int(hist.sum()))


def min_d_formula(shape: TreeShape, n: int) -> int:
    """Closed-form minimum of D: n-1 for paths, (n^2 - n mod 2)/4 for stars."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if shape in (TreeShape.LINEAR, TreeShape.BOTH):
        return n - 1
    if shape is TreeShape.STAR:
        return (n * n - (n % 2)) // 4
    raise ValueError(f"no closed form for shape {shape.value!r}")
