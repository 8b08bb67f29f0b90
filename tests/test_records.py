"""The records are plain classes with ``__slots__``; each must behave as the
dataclass it replaces. Every record is checked against a twin built by
``dataclasses.make_dataclass`` with the same fields, defaults and ``frozen``
flag, and, where the record validates its fields, the dataclass's
``__post_init__`` as it read before the records became plain classes."""

import dataclasses
import math
import pickle
import re
from fractions import Fraction

import pytest

from ddmtest import (
    AdjustedPValues,
    BinomialTestInput,
    Direction,
    DistanceDistribution,
    EnsembleKind,
    EnsembleSpec,
    LevelCounts,
    LevelSpec,
    LevelSummary,
    LinearizedTree,
    ParseError,
    PreprocessConfig,
    RawSentence,
    RawToken,
    Report,
    Scheme,
    preprocess,
)
from ddmtest import pipeline   # TestResult by name would be collected

REQUIRED = dataclasses.MISSING


# The __post_init__ of each validating dataclass, as it was.

def _tree_post_init(self):
    n = self.n
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    norm = tuple(sorted((u, v) if u < v else (v, u) for u, v in self.edges))
    object.__setattr__(self, "edges", norm)
    if len(norm) != n - 1:
        raise ValueError(f"expected {n - 1} edges, got {len(norm)}")
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate edge")
    neighbours = [[] for _ in range(n + 1)]
    for u, v in norm:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            raise ValueError("self-loop")
        neighbours[u].append(v)
        neighbours[v].append(u)
    reached, stack = {1}, [1]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != n:
        raise ValueError("not a tree: disconnected, with a cycle")


def _distribution_post_init(self):
    if sum(self.counts.values()) != self.total:
        raise ValueError("counts do not add up to total")


_STAR_FRACTION = {EnsembleKind.UNIFORM_LABELLED: Fraction(1, 4),
                  EnsembleKind.UNIFORM_UNLABELLED: Fraction(1, 2)}


def _ensemble_post_init(self):
    if self.kind is EnsembleKind.REAL:
        if self.p_star is None:
            raise ValueError("real ensemble requires p_star")
        if not 0 <= self.p_star <= 1:
            raise ValueError("p_star must lie in [0, 1]")
    elif self.p_star is not None and self.p_star != _STAR_FRACTION[self.kind]:
        raise ValueError(f"{self.kind.value} fixes p_star = "
                         f"{_STAR_FRACTION[self.kind]}")


def _binomial_post_init(self):
    object.__setattr__(self, "p", Fraction(self.p))
    if not 0 <= self.g <= self.m:
        raise ValueError(f"need 0 <= g <= m, got g={self.g}, m={self.m}")
    if not 0 < self.p < 1:
        raise ValueError(f"need 0 < p < 1, got p={self.p}")
    if not 0 < self.alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got alpha={self.alpha}")


def _counts_post_init(self):
    if self.g_above + self.g_below + self.ties != self.m:
        raise ValueError("g_above + g_below + ties must equal m")


TOKEN = RawToken(1, 0, "a", "NOUN", "root")
SUMMARY = LevelSummary(LevelSpec.N3_ALL, Direction.ABOVE, 3, 2, 1, 1)
RESULT_ARGS = ("Alpha", "Greek", LevelSpec.N4_STAR, Direction.BELOW, 9, 7,
               Fraction(1, 2), 0.08984375, -1.04651, True, 0.1797, False, 0.7)
RESULT = pipeline.TestResult(*RESULT_ARGS)


class Spec:
    """A record class, its dataclass fields as (name, default), whether it
    is frozen, its ``__post_init__``, two argument tuples giving unequal
    records and argument tuples that fail validation."""

    def __init__(self, cls, fields, frozen, samples, post_init=None,
                 invalid=()):
        self.cls, self.fields, self.frozen = cls, fields, frozen
        self.samples, self.invalid = samples, invalid
        namespace = {"__post_init__": post_init} if post_init else {}
        self.twin = dataclasses.make_dataclass(
            cls.__name__,
            [(name, object) if default is REQUIRED
             else (name, object, dataclasses.field(default=default))
             for name, default in fields],
            namespace=namespace, frozen=frozen)

    def __repr__(self):
        return self.cls.__name__

    @property
    def names(self):
        return [name for name, _ in self.fields]

    @property
    def required(self):
        return sum(default is REQUIRED for _, default in self.fields)


SPECS = [
    Spec(LinearizedTree, [("n", REQUIRED), ("edges", REQUIRED)], True,
         [(3, [(2, 1), (2, 3)]), (4, ((1, 2), (1, 3), (1, 4)))],
         _tree_post_init,
         [(0, []), (3, [(1, 2)]), (3, [(1, 2), (2, 1)]), (2, [(1, 3)]),
          (2, [(1, 1)]), (4, [(1, 2), (2, 3), (1, 3)])]),
    Spec(DistanceDistribution, [("counts", REQUIRED), ("total", REQUIRED)],
         True, [({2: 2, 3: 4}, 6), ({1: 1}, 1)], _distribution_post_init,
         [({2: 2}, 3)]),
    Spec(EnsembleSpec, [("kind", REQUIRED), ("p_star", None)], True,
         [(EnsembleKind.REAL, Fraction(1, 3)),
          (EnsembleKind.UNIFORM_LABELLED, None)], _ensemble_post_init,
         [(EnsembleKind.REAL, None), (EnsembleKind.REAL, Fraction(3, 2)),
          (EnsembleKind.UNIFORM_UNLABELLED, Fraction(1, 4))]),
    Spec(BinomialTestInput, [("g", REQUIRED), ("m", REQUIRED),
                             ("p", REQUIRED), ("alpha", 0.05)], True,
         [(3, 9, "1/2", 0.01), (0, 4, 0.25, 0.5)], _binomial_post_init,
         [(5, 4, Fraction(1, 2)), (-1, 4, Fraction(1, 2)), (1, 4, 0),
          (1, 4, 1), (1, 4, 1.5), (1, 4, Fraction(1, 2), 0.0),
          (1, 4, Fraction(1, 2), 1),
          (1, 4, "one half")]),
    Spec(AdjustedPValues, [("raw", REQUIRED), ("adjusted", REQUIRED),
                           ("rejected", REQUIRED)], True,
         [((0.01, 0.5), (0.02, 0.5), (True, False)), ((1.0,), (1.0,), (False,))]),
    Spec(RawSentence, [("tokens", REQUIRED), ("source_id", REQUIRED),
                       ("treebank_id", "")], False,
         [([TOKEN], "s1", "tb"), ([], "2", "")]),
    Spec(ParseError, [("line_no", REQUIRED), ("message", REQUIRED),
                      ("source", "")], True,
         [(7, "invalid UTF-8", "a.conllu"), (1, "token ids", "")]),
    Spec(PreprocessConfig, [("scheme", Scheme.UD)], True,
         [(Scheme.PRAGUE,), (Scheme.UD,)]),
    Spec(LevelCounts, [("language", REQUIRED), ("level", REQUIRED),
                       ("m", REQUIRED), ("g_above", REQUIRED),
                       ("g_below", REQUIRED), ("ties", REQUIRED),
                       ("p_star_real", None)], True,
         [("Alpha", LevelSpec.N4_ALL_REAL, 10, 6, 3, 1, Fraction(2, 5)),
          ("Beta", LevelSpec.N3_ALL, 2, 1, 1, 0, None)], _counts_post_init,
         [("Alpha", LevelSpec.N3_ALL, 10, 6, 3, 0)]),
    Spec(pipeline.TestResult, [("language", REQUIRED), ("family", REQUIRED),
                      ("level", REQUIRED), ("direction", REQUIRED),
                      ("m", REQUIRED), ("g", REQUIRED), ("p", REQUIRED),
                      ("p_value", REQUIRED), ("log10_p_value", REQUIRED),
                      ("adequately_sampled", REQUIRED), ("p_holm", None),
                      ("significant", False), ("neglog10_holm", None)], True,
         [RESULT_ARGS,
          ("Beta", "Unknown", LevelSpec.N3_ALL, Direction.ABOVE, 0, 0, None,
           math.nan, 0.0, False, None, True, -0.0)]),
    Spec(LevelSummary, [("level", REQUIRED), ("direction", REQUIRED),
                        ("l0", REQUIRED), ("l", REQUIRED), ("f", REQUIRED),
                        ("f_holm", REQUIRED)], True,
         [(LevelSpec.N3_ALL, Direction.ABOVE, 3, 2, 1, 1),
          (LevelSpec.N4_LINEAR, Direction.BELOW, 0, 0, 0, 0)]),
    Spec(Report, [("collection", REQUIRED), ("alpha", REQUIRED),
                  ("summaries", REQUIRED), ("results", REQUIRED),
                  ("exclusions", REQUIRED), ("metadata", REQUIRED)], False,
         [("toy", 0.05, [SUMMARY], [RESULT], {"cycle": 1}, {"format": "csv"}),
          ("empty", 0.01, [], [], {}, {})]),
]


def test_every_public_record_is_covered():
    assert len({spec.cls for spec in SPECS}) == 12
    for spec in SPECS:
        assert spec.cls.__slots__ == tuple(spec.names)
        assert not hasattr(spec.cls(*spec.samples[0]), "__dict__")


@pytest.mark.parametrize("spec", SPECS, ids=repr)
class TestDataclassParity:
    def test_repr_and_equality(self, spec):
        (a, b), (ta, tb) = ([cls(*args) for args in spec.samples]
                            for cls in (spec.cls, spec.twin))
        a2, ta2 = spec.cls(*spec.samples[0]), spec.twin(*spec.samples[0])
        assert repr(a) == repr(ta) and repr(b) == repr(tb)
        for x, y, tx, ty in ((a, a, ta, ta), (a, a2, ta, ta2),
                             (a, b, ta, tb), (b, a, tb, ta)):
            assert (x == y) is (tx == ty)
            assert (x != y) is (tx != ty)
        assert a == a2 and a != b
        other = SUMMARY if spec.cls is not LevelSummary else RESULT
        for x, tx in ((a, ta), (b, tb)):
            assert (x == other) is (tx == other) is False
            assert (x != other) is (tx != other) is True
            assert x.__eq__(other) is tx.__eq__(other) is NotImplemented
            # a record is never equal to its twin, as no two classes are
            assert (x == tx) is False and (x != tx) is True

    def test_hash(self, spec):
        for args in spec.samples:
            record, twin = spec.cls(*args), spec.twin(*args)
            try:
                expected = hash(twin)
            except TypeError as exc:
                with pytest.raises(TypeError) as caught:
                    hash(record)
                assert str(caught.value) == str(exc)
            else:
                assert spec.frozen and hash(record) == expected

    def test_frozen_or_mutable(self, spec):
        record, twin = spec.cls(*spec.samples[0]), spec.twin(*spec.samples[0])
        name, value = spec.names[-1], spec.samples[1][-1]
        if spec.frozen:
            for obj in (record, twin):
                with pytest.raises(AttributeError,
                                   match=f"cannot assign to field '{name}'"):
                    setattr(obj, name, value)
                with pytest.raises(AttributeError,
                                   match=f"cannot delete field '{name}'"):
                    delattr(obj, name)
            assert repr(record) == repr(twin)
        else:
            setattr(record, name, value)
            setattr(twin, name, value)
            assert repr(record) == repr(twin)
            assert getattr(record, name) is value

    def test_construction(self, spec):
        for args in spec.samples:
            by_keyword = dict(zip(spec.names, args))
            expected = repr(spec.twin(*args))
            assert repr(spec.cls(*args)) == expected
            assert repr(spec.cls(**by_keyword)) == expected
            assert repr(spec.twin(**by_keyword)) == expected
            required = args[:spec.required]     # the rest by default
            try:
                expected = repr(spec.twin(*required))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    spec.cls(*required)
            else:
                assert repr(spec.cls(*required)) == expected
        with pytest.raises(TypeError):
            spec.cls(*spec.samples[0], None)
        with pytest.raises(TypeError):
            spec.cls(*spec.samples[0][:spec.required], bogus=1)
        if spec.required:
            with pytest.raises(TypeError):
                spec.cls(*spec.samples[0][:spec.required - 1])

    def test_validation(self, spec):
        for args in spec.invalid:
            with pytest.raises(ValueError) as expected:
                spec.twin(*args)
            with pytest.raises(ValueError) as caught:
                spec.cls(*args)
            assert str(caught.value) == str(expected.value)

    def test_pickle_round_trip(self, spec):
        for args in spec.samples:
            record = spec.cls(*args)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(record, protocol))
                assert type(copy) is spec.cls
                assert repr(copy) == repr(record)
                if not any(isinstance(v, float) and math.isnan(v)
                           for v in args):
                    assert copy == record


def test_init_replaced_on_the_class_is_called(monkeypatch):
    """A wrapper set as ``LinearizedTree.__init__`` sees every tree built,
    with n as its second positional or its keyword argument."""
    seen = []
    init = LinearizedTree.__init__

    def traced(*args, **kwargs):
        seen.append(args[1] if len(args) > 1 else kwargs["n"])
        return init(*args, **kwargs)

    monkeypatch.setattr(LinearizedTree, "__init__", traced)
    tree = LinearizedTree(2, [(2, 1)])
    cleaned = preprocess(RawSentence([TOKEN, RawToken(2, 1, "b", "NOUN",
                                                      "dep")], "s"))
    assert seen == [2, 2]
    assert cleaned == tree and tree.edges == ((1, 2),)
