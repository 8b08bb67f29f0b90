"""Per-language analysis at the six levels, correction, and report tables.

For every language we count, per level, how many sentences fall above and
below the random-arrangement mean of D, run the one-tailed binomial tests in
both directions, and Holm-correct jointly across all languages tested at the
same (level, direction). Holm runs in log10 space so corrected p-values stay
meaningful far below float underflow.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from pathlib import Path

from . import _pool, stats
from ._record import FrozenRecord, Record
from .nullmodels import COUNTED_TREES, Direction, EnsembleSpec, \
    null_distribution, null_probability
from .trees import LinearizedTree

_LN10 = math.log(10.0)
UNKNOWN_FAMILY = "Unknown"
# the total m (over languages and levels) from which analyze_collection runs
# the tests on the fork pool; README "Performance" gives the measured crossover
FORK_MIN_M = 100_000


class LevelSpec(Enum):
    """The six levels of analysis; enum order is the report order."""

    N3_ALL = "n3_all"
    N4_ALL_REAL = "n4_all_real"
    N4_UNLABELLED = "n4_unlabelled"
    N4_LABELLED = "n4_labelled"
    N4_STAR = "n4_star"
    N4_LINEAR = "n4_linear"


class LevelCounts(FrozenRecord):
    """Tallies of one language's sentences against the random-arrangement mean."""

    __slots__ = ("language", "level", "m", "g_above", "g_below", "ties",
                 "p_star_real")

    def __init__(self, language: str, level: LevelSpec, m: int, g_above: int,
                 g_below: int, ties: int, p_star_real: Fraction | None = None):
        put = object.__setattr__
        put(self, "language", language)
        put(self, "level", level)
        put(self, "m", m)
        put(self, "g_above", g_above)
        put(self, "g_below", g_below)
        put(self, "ties", ties)
        put(self, "p_star_real", p_star_real)
        if g_above + g_below + ties != m:
            raise ValueError("g_above + g_below + ties must equal m")


class TestResult(FrozenRecord):
    __slots__ = ("language", "family", "level", "direction", "m", "g", "p",
                 "p_value", "log10_p_value", "adequately_sampled", "p_holm",
                 "significant", "neglog10_holm")

    def __init__(self, language: str, family: str, level: LevelSpec,
                 direction: Direction, m: int, g: int, p: Fraction | None,
                 p_value: float, log10_p_value: float,
                 adequately_sampled: bool, p_holm: float | None = None,
                 significant: bool = False,
                 neglog10_holm: float | None = None):
        put = object.__setattr__
        put(self, "language", language)
        put(self, "family", family)
        put(self, "level", level)
        put(self, "direction", direction)
        put(self, "m", m)
        put(self, "g", g)
        put(self, "p", p)
        put(self, "p_value", p_value)
        put(self, "log10_p_value", log10_p_value)
        put(self, "adequately_sampled", adequately_sampled)
        put(self, "p_holm", p_holm)
        put(self, "significant", significant)
        put(self, "neglog10_holm", neglog10_holm)


class LevelSummary(FrozenRecord):
    __slots__ = ("level", "direction", "l0", "l", "f", "f_holm")

    def __init__(self, level: LevelSpec, direction: Direction, l0: int, l: int,
                 f: int, f_holm: int):
        put = object.__setattr__
        put(self, "level", level)
        put(self, "direction", direction)
        put(self, "l0", l0)
        put(self, "l", l)
        put(self, "f", f)
        put(self, "f_holm", f_holm)


class Report(Record):
    __slots__ = ("collection", "alpha", "summaries", "results", "exclusions",
                 "metadata")

    def __init__(self, collection: str, alpha: float,
                 summaries: list[LevelSummary], results: list[TestResult],
                 exclusions: dict[str, int], metadata: dict[str, object]):
        self.collection = collection
        self.alpha = alpha
        self.summaries = summaries
        self.results = results
        self.exclusions = exclusions
        self.metadata = metadata

    @property
    def is_empty(self) -> bool:
        return not self.summaries and not self.results


# each level's null weights on the rows of LanguageTally.cells, whose trees
# it counts; None for n4_all_real, weighed by the language's star fraction
_LEVEL_WEIGHTS = {
    LevelSpec.N3_ALL: (1, 0, 0),
    LevelSpec.N4_ALL_REAL: None,
    LevelSpec.N4_UNLABELLED: EnsembleSpec.uniform_unlabelled().weights,
    LevelSpec.N4_LABELLED: EnsembleSpec.uniform_labelled().weights,
    LevelSpec.N4_STAR: (0, 1, 0),
    LevelSpec.N4_LINEAR: (0, 0, 1),
}
_ROW = 8        # cells a row: D runs up to 7, the longest n = 4 path


def _cell(n: int, edges) -> int:
    """The index in ``LanguageTally.cells`` of a tree on positions 1..n, for
    n = 3 or 4, with the given edges in any order and orientation."""
    if n == 3:
        row = 0
    else:
        (a, b), e2, e3 = edges        # a star's three edges share a vertex
        row = 1 if (a in e2 and a in e3) or (b in e2 and b in e3) else 2
    d = 0
    for u, v in edges:
        d += abs(u - v)
    return _ROW * row + d


@functools.cache
def _split(level: LevelSpec, noncrossing: bool) -> tuple[tuple[int, ...], ...]:
    """The indices in ``LanguageTally.cells`` of the trees ``level`` counts
    above, below and on the mean of their shape's ``null_distribution``."""
    above, below, ties = [], [], []
    weights = _LEVEL_WEIGHTS[level] or (0, 1, 1)  # n4_all_real's n = 4 rows
    for row, (weight, shape) in enumerate(zip(weights, COUNTED_TREES)):
        if weight:
            mean = null_distribution(shape, noncrossing).mean()
            for d in range(_ROW):
                side = above if d > mean else below if d < mean else ties
                side.append(_ROW * row + d)
    return tuple(above), tuple(below), tuple(ties)


class LanguageTally:
    """One language's trees, reduced to what the six levels need.

    ``cells`` counts the n = 3 trees, the n = 4 stars and the n = 4 paths
    by D, in rows of ``_ROW``. ``trees`` counts every tree, of any length;
    in a CSV run of ``ddmtest analyze``, which leaves long blocks unchecked,
    it means only "at least one" (see ``cli._fold_stream``).
    """

    def __init__(self):
        self.cells = [0] * (3 * _ROW)
        self.trees = 0

    def add(self, n: int, edges) -> None:
        """Fold in one tree on positions 1..n with the given edges."""
        self.trees += 1
        if n == 3 or n == 4:
            self.cells[_cell(n, edges)] += 1

    def merge(self, other: LanguageTally) -> None:
        """Fold in another tally of the same language."""
        self.cells = [x + y for x, y in zip(self.cells, other.cells)]
        self.trees += other.trees

    def level_counts(self, level: LevelSpec, language: str = "",
                     noncrossing: bool = False) -> LevelCounts:
        """The tally of one level in one mode, as ``tally_level`` gives it."""
        above, below, ties = (sum(map(self.cells.__getitem__, side))
                              for side in _split(level, noncrossing))
        m = above + below + ties
        p_star = None
        if level is LevelSpec.N4_ALL_REAL and m > 0:
            p_star = Fraction(sum(self.cells[_ROW:2 * _ROW]), m)
        return LevelCounts(language=language, level=level, m=m, g_above=above,
                           g_below=below, ties=ties, p_star_real=p_star)


def fold_trees(trees: Iterable[LinearizedTree]) -> LanguageTally:
    """One language's trees folded into a tally, each distinct n = 3 or 4
    tree classified once: a tree's ``edges`` are normalised, so equal trees
    have equal edges, n - 1 of them, and equal short trees built from plain
    ints share one ``edges`` tuple, so most lookups match by identity
    without comparing the edges. Longer trees are only counted, not
    hashed, so a collection of long sentences folds no slower than one
    ``LanguageTally.add`` per tree."""
    total = 0
    counted: dict[tuple, int] = {}
    get = counted.get
    for tree in trees:
        total += 1
        n = tree.n
        if n == 3 or n == 4:
            edges = tree.edges
            counted[edges] = get(edges, 0) + 1
    tally = LanguageTally()
    tally.trees = total
    for edges, count in counted.items():
        tally.cells[_cell(len(edges) + 1, edges)] += count
    return tally


def tally_level(trees: Sequence[LinearizedTree], level: LevelSpec,
                language: str = "", *, noncrossing: bool = False
                ) -> LevelCounts:
    """Count how one language's trees fall against the mean at one level."""
    return fold_trees(trees).level_counts(level, language, noncrossing)


def success_probability(counts: LevelCounts, direction: Direction,
                        noncrossing: bool = False) -> Fraction | None:
    """Null success probability for one (level, direction) tally.

    None only for the real-ensemble level of a language with no n = 4 trees
    (the star fraction is undefined there).
    """
    weights = _LEVEL_WEIGHTS[counts.level]
    if weights is None:
        p_star = counts.p_star_real
        if p_star is None:
            return None
        weights = (0, p_star, 1 - p_star)
    return null_probability(weights, direction, noncrossing)


def run_tests(counts: LevelCounts, direction: Direction, alpha: float = 0.05,
              noncrossing: bool = False, family: str = UNKNOWN_FAMILY,
              min_sizes: dict | None = None,
              p: Fraction | None = None) -> TestResult:
    """One pre-Holm binomial test for one language at one (level, direction).

    A caller that runs many tests may pass ``p``, the
    ``success_probability`` of this test, and ``min_sizes``, which memoises
    ``stats.min_sample_size`` by p for this ``alpha``.
    """
    if p is None:
        p = success_probability(counts, direction, noncrossing)
    g = counts.g_above if direction is Direction.ABOVE else counts.g_below
    log10_p, adequate = 0.0, False      # untestable: p-value 1
    if counts.m and p is not None:
        log10_p = stats.log_binomial_upper_tail(g, counts.m, p) / _LN10
        memo = {} if min_sizes is None else min_sizes
        min_size = memo.get(p)
        if min_size is None:
            min_size = memo[p] = stats.min_sample_size(p, alpha)
        adequate = counts.m >= min_size
    return TestResult(language=counts.language, family=family,
                      level=counts.level, direction=direction,
                      m=counts.m, g=g, p=p, p_value=10.0 ** log10_p,
                      log10_p_value=log10_p, adequately_sampled=adequate)


def _neglog10(log10_value: float) -> float:
    return round(-log10_value, 1) + 0.0


def analyze_collection(
        treebanks: Mapping[str, Iterable[LinearizedTree] | LanguageTally],
        families: Mapping[str, str] | None = None,
        alpha: float = 0.05,
        levels: Sequence[LevelSpec] | None = None,
        directions: Sequence[Direction] | None = None,
        collection: str = "collection",
        per_family: bool = False,
        noncrossing: bool = False,
        include_undersampled: bool = True,
        exclusions: Mapping[str, int] | None = None,
        metadata: Mapping[str, object] | None = None) -> Report:
    """Run every requested (level, direction) over each language, each
    once, in the order of first mention. A language is given as its trees,
    folded once by ``fold_trees``, or as its ``LanguageTally``.

    The Holm correction is applied globally across all languages tested at a
    (level, direction), or within each family when ``per_family`` is set.
    Languages too small to ever reach significance still enter the correction
    unless ``include_undersampled`` is false (they can never reject either
    way, but the Holm factor changes).

    The tests of one language are one item of work. Once the m of every
    language over the requested levels adds up to ``FORK_MIN_M``, the
    languages are tested on the fork pool (``_pool.map``), weighed by that
    sum; the results come back in language order, so the report does not
    depend on the worker count. A worker that dies raises its
    ``ChildProcessError``; no child outlives the call.
    """
    levels = list(dict.fromkeys(levels or LevelSpec))
    directions = list(dict.fromkeys(directions or Direction))
    families = dict(families) if families else {}
    tallies = {lang: value if isinstance(value, LanguageTally)
               else fold_trees(value) for lang, value in treebanks.items()}
    languages = sorted(tallies)
    missing = [lang for lang in languages if lang not in families]
    if missing and families:
        import logging  # here, as only this warning uses it

        logging.getLogger(__name__).warning(
            "no family for %d language(s): %s; using %r", len(missing),
            ", ".join(missing), UNKNOWN_FAMILY)
    report = Report(collection=collection, alpha=alpha, summaries=[],
                    results=[], exclusions=dict(exclusions or {}),
                    metadata=dict(metadata or {}))
    if not any(tallies[lang].trees for lang in languages):
        return report

    min_sizes: dict = {}    # this call's min_sample_size answers
    plan = []               # (level, direction, counts and p by language)
    weights = [0] * len(languages)      # each language's m, over the levels
    for level in levels:
        counts = {lang: tallies[lang].level_counts(level, lang, noncrossing)
                  for lang in languages}
        weights = [w + counts[lang].m for w, lang in zip(weights, languages)]
        for direction in directions:
            if level is LevelSpec.N4_ALL_REAL:  # p from each star fraction
                ps = {lang: success_probability(counts[lang], direction,
                                                noncrossing)
                      for lang in languages}
            else:
                ps = dict.fromkeys(languages, success_probability(
                    counts[languages[0]], direction, noncrossing))
            plan.append((level, direction, counts, ps))

    def test_language(i: int) -> list[tuple[float, float, bool] | None]:
        """Language ``i``'s tests in ``plan`` order, None where m = 0, each
        as its p-value, log10 p-value and whether it is adequately sampled:
        plain numbers, cheap to send down a pipe."""
        lang = languages[i]
        out = []
        for _, direction, counts, ps in plan:
            if counts[lang].m:
                r = run_tests(counts[lang], direction, alpha, noncrossing,
                              min_sizes=min_sizes, p=ps[lang])
                out.append((r.p_value, r.log10_p_value, r.adequately_sampled))
            else:
                out.append(None)
        return out

    workers = (_pool.workers(len(languages)) if sum(weights) >= FORK_MIN_M
               else 1)
    tested = _pool.map(test_language, weights, workers,
                       lambda i: f"testing {languages[i]}")
    for tests in tested:
        if isinstance(tests, Exception):
            raise tests

    for k, (level, direction, counts, ps) in enumerate(plan):
        pre = [(lang, tests[k]) for lang, tests in zip(languages, tested)
               if tests[k] is not None]
        groups: dict[str | None, list] = {}     # what Holm corrects
        for lang, (_, log10_p, adequate) in pre:
            if include_undersampled or adequate:
                family = families.get(lang, UNKNOWN_FAMILY)
                groups.setdefault(family if per_family else None,
                                  []).append((lang, log10_p))
        holm = {}       # each corrected language's p_holm, verdict, -log10
        for group in groups.values():
            langs, raw = zip(*group)
            adjusted, rejected = stats.holm_adjust_log10(raw, alpha)
            for lang, adj, rej in zip(langs, adjusted, rejected):
                holm[lang] = (10.0 ** adj, rej, _neglog10(adj))
        results = []
        for lang, (p_value, log10_p, adequate) in pre:
            c = counts[lang]
            p_holm, significant, neglog10_holm = holm.get(lang,
                                                          (None, False, None))
            results.append(TestResult(
                language=lang, family=families.get(lang, UNKNOWN_FAMILY),
                level=level, direction=direction, m=c.m,
                g=c.g_above if direction is Direction.ABOVE else c.g_below,
                p=ps[lang], p_value=p_value, log10_p_value=log10_p,
                adequately_sampled=adequate, p_holm=p_holm,
                significant=significant, neglog10_holm=neglog10_holm))
        report.summaries.append(LevelSummary(
            level=level, direction=direction, l0=len(pre),
            l=sum(r.adequately_sampled for r in results),
            f=sum(r.p_value <= alpha for r in results),
            f_holm=sum(r.significant for r in results)))
        report.results.extend(results)
    return report


_CSV_HEADER = ("collection,level,direction,language,family,m,g,p_used,"
               "p_value,p_holm,significant,adequately_sampled,neglog10_holm,"
               "l0,l,f,f_H")


_CSV_SPECIAL_RE = re.compile('[,"\r\n]')


def _csv_quote(value: str) -> str:
    if _CSV_SPECIAL_RE.search(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _fmt_opt(x, fmt=str) -> str:
    return "" if x is None else fmt(x)


def _result_cells(report: Report, r: TestResult) -> list[str]:
    return [
        report.collection, r.level.value, r.direction.value, r.language,
        r.family, str(r.m), str(r.g), _fmt_opt(r.p), str(r.p_value),
        _fmt_opt(r.p_holm), _fmt_bool(r.significant),
        _fmt_bool(r.adequately_sampled),
        _fmt_opt(r.neglog10_holm, lambda v: f"{v:.1f}"),
    ]


def _summary_cells(report: Report, s: LevelSummary) -> list[str]:
    return [report.collection, s.level.value, s.direction.value,
            str(s.l0), str(s.l), str(s.f), str(s.f_holm)]


def _emit_csv(report: Report) -> str:
    lines = [_CSV_HEADER]
    for r in report.results:
        cells = _result_cells(report, r)
        # only the first five, the names, can hold a comma, quote or line end
        lines.append(",".join([*map(_csv_quote, cells[:5]), *cells[5:]])
                     + ",,,,")
    for s in report.summaries:
        head = _summary_cells(report, s)
        row = ([_csv_quote(c) for c in head[:3]] + [""] * 10 + head[3:])
        lines.append(",".join(row))
    lines.append("")    # the last line end, without a copy of the report
    return "\n".join(lines)


# a name in markdown: a line end would end its row or heading, a "|" its cell
_MD_LINE_ENDS = str.maketrans({"\r": r"\r", "\n": r"\n"})
_MD_CELL = str.maketrans({"\r": r"\r", "\n": r"\n", "|": r"\|"})


def _emit_markdown(report: Report) -> str:
    out = [f"# Report: {report.collection.translate(_MD_LINE_ENDS)}", ""]
    out.append("## Per-language tests")
    out.append("")
    cols = ("| level | direction | language | family | m | g | p_used "
            "| p_value | p_holm | significant | adequately_sampled "
            "| neglog10_holm |")
    out.append(cols)
    out.append("|" + "---|" * 12)
    for r in report.results:
        cells = _result_cells(report, r)[1:]
        out.append("| " + " | ".join(c.translate(_MD_CELL) or "-"
                                     for c in cells) + " |")
    out.append("")
    out.append("## Level summaries")
    out.append("")
    out.append("| level | direction | l0 | l | f | f_H |")
    out.append("|" + "---|" * 6)
    for s in report.summaries:
        out.append("| " + " | ".join(_summary_cells(report, s)[1:]) + " |")
    if report.exclusions:
        out.append("")
        out.append("## Excluded sentences")
        out.append("")
        out.append("| reason | count |")
        out.append("|---|---|")
        for reason in sorted(report.exclusions):
            out.append(f"| {reason} | {report.exclusions[reason]} |")
    out.append("")      # the last line end, without a copy of the report
    return "\n".join(out)


def _emit_json(report: Report) -> str:
    import json  # here, as the other formats do not need it

    doc = {
        "collection": report.collection,
        "alpha": report.alpha,
        "summaries": [{
            "level": s.level.value, "direction": s.direction.value,
            "l0": s.l0, "l": s.l, "f": s.f, "f_H": s.f_holm,
        } for s in report.summaries],
        "results": [{
            "level": r.level.value, "direction": r.direction.value,
            "language": r.language, "family": r.family, "m": r.m, "g": r.g,
            "p_used": _fmt_opt(r.p) or None, "p_value": r.p_value,
            "log10_p_value": r.log10_p_value, "p_holm": r.p_holm,
            "significant": r.significant,
            "adequately_sampled": r.adequately_sampled,
            "neglog10_holm": r.neglog10_holm,
        } for r in report.results],
        "exclusions": {k: report.exclusions[k]
                       for k in sorted(report.exclusions)},
        "metadata": report.metadata,
    }
    # json.dumps, with the last line end added before the join, not after
    return "".join([*json.JSONEncoder(indent=2).iterencode(doc), "\n"])


def emit_report(report: Report, fmt: str = "csv") -> bytes:
    """Serialize a report; byte-stable for identical inputs."""
    if fmt == "csv":
        text = _emit_csv(report)
    elif fmt == "markdown":
        text = _emit_markdown(report)
    elif fmt == "json":
        text = _emit_json(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return text.encode("utf-8")


def load_families(path: str | Path) -> dict[str, str]:
    """Read a language-to-family map: two tab-separated columns, '#' comments.

    A leading UTF-8 byte order mark is ignored. A line that is not UTF-8
    (read as lone surrogates, which ``encode`` refuses), or that maps a
    language already mapped to another family, raises ValueError."""
    families: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode()
            except UnicodeEncodeError:
                raise ValueError(
                    f"{path}: line {line_no}: invalid UTF-8") from None
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("\t") if p.strip()]
            if len(parts) != 2:
                raise ValueError(
                    f"{path}: line {line_no}: expected 'language<TAB>family'")
            language, family = parts
            known = families.setdefault(language, family)
            if known != family:
                raise ValueError(
                    f"{path}: line {line_no}: {language!r} is already in "
                    f"family {known!r} (line {first_lines[language]})")
            first_lines.setdefault(language, line_no)
    return families
