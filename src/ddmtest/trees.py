"""Linearized dependency trees and exact arrangement distributions.

A sentence's tree is stored over vertices 1..n where the vertex number is the
word's position in the sentence, so the tree object carries the observed
linear arrangement. Edges are undirected.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import FrozenRecord

# numpy (the "sim" extra) is imported, through _numpy, only by the samplers:
# the analysis and the enumeration run without it, and importing it would
# double the command line's start-up time.
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


# The one ``edges`` tuple of each distinct tree on at most _SHARED_MAX_N
# vertices whose endpoints are all plain ints. By Cayley's formula there are
# n^(n-2) labelled trees on n vertices, so the table never holds more than
# 1 + 1 + 3 + 16 + 125 = 146 tuples, and it is never cleared.
_SHARED_MAX_N = 5
_shared_edges: dict[tuple, tuple] = {}


class LinearizedTree(FrozenRecord):
    """Undirected tree on vertices {1..n}; vertex number = sentence position.

    ``edges`` is kept normalised: each edge as (lower, higher), sorted. Equal
    trees on at most five vertices whose endpoints are all plain ints share
    one ``edges`` tuple, so a collection of short sentences holds each
    distinct tree's edges once, not once per sentence. Endpoints of another
    type (``True``, ``numpy.int64``) compare equal to ints but keep their own
    tuple, and with it their ``repr``.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "n", n)
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        norm = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
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
        if n <= _SHARED_MAX_N and all(type(u) is int is type(v)
                                      for u, v in norm):
            norm = _shared_edges.setdefault(norm, norm)
        object.__setattr__(self, "edges", norm)

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
        """0-based endpoint arrays for the sampler."""
        np = _numpy()
        if not self.edges:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        arr = np.asarray(self.edges, np.int64) - 1
        return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


class DistanceDistribution(FrozenRecord):
    """Exact counts of the distance sum D over a set of linear arrangements."""

    __slots__ = ("counts", "total")

    def __init__(self, counts: dict[int, int], total: int):
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)
        if sum(counts.values()) != total:
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
    so the total drops below n!. Refuses n above ``cap``; sample with
    ``nullmodels.sample_distance_sums`` instead.
    """
    if tree.n > cap:
        raise EnumerationCapError(
            f"n={tree.n} exceeds the enumeration cap ({cap}); "
            "use Monte Carlo sampling for larger trees")
    # The vertices are placed from left to right. D is the sum, over the
    # n - 1 gaps, of the edges that cross each gap, and that number depends
    # only on the set already placed. So the arrangements are counted by
    # placed set, 2^n of them, not one by one.
    # Crossing-free, the state also holds the open groups: for each placed
    # vertex that still has unplaced neighbours, the set of those neighbours,
    # in placement order. x may come next only if every group after the
    # first one that holds x is exactly {x}: then the edges that close at x
    # nest. Those groups close, x leaves the first one, and x's own unplaced
    # neighbours open a group at the end. A state from which no vertex may
    # come next never finishes, so it is not stored.
    # A histogram is one integer whose d-th digit, base 2^width, counts
    # D = d. No count exceeds n!, so digits never carry: adding integers
    # adds histograms, and a shift by width * c adds c to every D.
    n = tree.n
    neighbours = [0] * n                # bitmasks over 0-based vertices
    for u, v in tree.edges:
        neighbours[u - 1] |= 1 << v - 1
        neighbours[v - 1] |= 1 << u - 1
    width = math.factorial(n).bit_length()
    full = (1 << n) - 1
    states = {(0, ()): 1}               # (placed, open groups) -> histogram
    free = {(0, ()): full}              # crossing-free: -> who may go next
    for _ in range(n):
        after, after_free = {}, {}
        for (placed, groups), hist in states.items():
            # add the edges that cross the gap after the placed vertices
            hist <<= width * sum((neighbours[v] & ~placed).bit_count()
                                 for v in range(n) if placed >> v & 1)
            if not restrict_noncrossing:
                for x in range(n):
                    if not placed >> x & 1:
                        key = placed | 1 << x, ()
                        after[key] = after.get(key, 0) + hist
                continue
            rest = free[placed, groups]
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = next((i for i, g in enumerate(groups) if g & bit),
                         len(groups))
                left = [g & ~bit for g in groups[i:i + 1]]
                near = neighbours[bit.bit_length() - 1] & ~placed
                kept = groups[:i] + tuple(g for g in left + [near] if g)
                key = placed | bit, kept
                if key in after:
                    after[key] += hist
                    continue
                allowed = _next_vertices(full & ~key[0], kept)
                if allowed or key[0] == full:
                    after[key] = hist
                    after_free[key] = allowed
        states, free = after, after_free
    (hist,) = states.values()
    digit = (1 << width) - 1
    counts = {d: c for d in range((n - 1) ** 2 + 1)
              if (c := hist >> width * d & digit)}
    return DistanceDistribution(counts=counts, total=sum(counts.values()))


def _next_vertices(unplaced: int, groups: tuple[int, ...]) -> int:
    """The vertices of ``unplaced`` that may come next crossing-free, as a
    bitmask: each one in no open group, and each one of the last group
    whose groups after the first that holds it are each exactly itself
    (any other vertex has the last group after its first). A last group of
    two or more vertices passes only those in no earlier group."""
    if not groups:
        return unplaced
    *earlier, last = groups
    opened = 0
    for g in earlier:
        opened |= g
    allowed = unplaced & ~(opened | last)
    if last & (last - 1):
        return allowed | last & ~opened
    i = next(i for i, g in enumerate(groups) if g & last)
    if all(g == last for g in groups[i + 1:]):
        allowed |= last
    return allowed


def min_d_formula(shape: TreeShape, n: int) -> int:
    """Closed-form minimum of D: n-1 for paths, (n^2 - n mod 2)/4 for stars."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if shape in (TreeShape.LINEAR, TreeShape.BOTH):
        return n - 1
    if shape is TreeShape.STAR:
        return (n * n - (n % 2)) // 4
    raise ValueError(f"no closed form for shape {shape.value!r}")


def _numpy():
    """numpy, or an ImportError that says how to install it."""
    try:
        import numpy
    except ImportError as exc:      # the "sim" extra
        raise ImportError("sampling needs numpy: "
                          "pip install 'ddmtest[sim]'") from exc
    return numpy
