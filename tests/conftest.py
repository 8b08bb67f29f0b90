"""Shared builders for small trees used across the suite, plain-Python
references that recount a tree's degrees, shape, D and crossings, the
benchmark's generated collections at seed 401, and a guard against child
processes a test leaves behind."""

from __future__ import annotations

import itertools
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from ddmtest import LinearizedTree, TreeShape

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402


@pytest.fixture(scope="session")
def ud_mixed(tmp_path_factory):
    """The benchmark's ``ud_mixed`` collection at seed 401, written once a
    session: its directory and its ``corpus.Collection``. Tests only read
    it."""
    path = tmp_path_factory.mktemp("ud_mixed")
    return path, corpus.ud_mixed(401, path)


@pytest.fixture(scope="session")
def dirty_conllx(tmp_path_factory):
    """The benchmark's ``dirty_conllx`` collection at seed 401 (its files
    under ``hamledt/``, and ``families.tsv``), as ``ud_mixed`` gives it."""
    path = tmp_path_factory.mktemp("dirty_conllx")
    return path, corpus.dirty_conllx(401, path)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process of this one, running or not
    yet reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:       # no child at all
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


def path_tree(n: int) -> LinearizedTree:
    return LinearizedTree(n, [(i, i + 1) for i in range(1, n)])


def star_tree(n: int, hub: int = 1) -> LinearizedTree:
    return LinearizedTree(n, [(hub, v) for v in range(1, n + 1) if v != hub])


def caterpillar_tree(n: int) -> LinearizedTree:
    """A mixed-shape tree for n >= 5: a path with one extra leaf on vertex 2."""
    if n < 5:
        raise ValueError("needs n >= 5")
    edges = [(i, i + 1) for i in range(1, n - 1)] + [(2, n)]
    return LinearizedTree(n, edges)


def degrees(tree: LinearizedTree) -> list[int]:
    """Each vertex's degree, in vertex order."""
    deg = [0] * (tree.n + 1)
    for u, v in tree.edges:
        deg[u] += 1
        deg[v] += 1
    return deg[1:]


def classify(tree: LinearizedTree) -> TreeShape | None:
    """Classify by maximum degree: path vs star, coinciding for n <= 3;
    None for any other shape."""
    if tree.n < 2:
        raise ValueError("shape is defined for n >= 2")
    if tree.n <= 3:
        return TreeShape.BOTH
    hub = max(degrees(tree))
    if hub == tree.n - 1:
        return TreeShape.STAR
    if hub == 2:
        return TreeShape.LINEAR
    return None


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


def brute_force_distribution(tree: LinearizedTree,
                             noncrossing: bool = False) -> Counter:
    """Oracle: walk the n! arrangements with plain Python, no package code."""
    counts: Counter[int] = Counter()
    verts = range(1, tree.n + 1)
    for perm in itertools.permutations(range(1, tree.n + 1)):
        pos = {v: perm[v - 1] for v in verts}
        spans = [(min(pos[u], pos[v]), max(pos[u], pos[v]))
                 for u, v in tree.edges]
        if noncrossing:
            crossing = any(
                a < c < b < d or c < a < d < b
                for i, (a, b) in enumerate(spans)
                for (c, d) in spans[i + 1:])
            if crossing:
                continue
        counts[sum(b - a for a, b in spans)] += 1
    return counts
