"""Per-language analysis at the six levels, correction, and report tables.

For every language we count, per level, how many sentences fall above and
below the random-arrangement mean of D, run the one-tailed binomial tests in
both directions, and Holm-correct jointly across all languages tested at the
same (level, direction). Holm runs in log10 space so corrected p-values stay
meaningful far below float underflow.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

from . import stats
from .nullmodels import Direction, EnsembleSpec, \
    expected_d_random_arrangement, mixture_probability, \
    noncrossing_mixture_probability, shape_tail_probability
from .trees import LinearizedTree, TreeShape

logger = logging.getLogger(__name__)

_LN10 = math.log(10.0)
UNKNOWN_FAMILY = "Unknown"


class LevelSpec(Enum):
    """The six levels of analysis; enum order is the report order."""

    N3_ALL = "n3_all"
    N4_ALL_REAL = "n4_all_real"
    N4_UNLABELLED = "n4_unlabelled"
    N4_LABELLED = "n4_labelled"
    N4_STAR = "n4_star"
    N4_LINEAR = "n4_linear"

    @property
    def sentence_length(self) -> int:
        return 3 if self is LevelSpec.N3_ALL else 4


@dataclass(frozen=True)
class LevelCounts:
    """Tallies of one language's sentences against the random-arrangement mean."""

    language: str
    level: LevelSpec
    m: int
    g_above: int
    g_below: int
    ties: int
    p_star_real: Fraction | None = None

    def __post_init__(self):
        if self.g_above + self.g_below + self.ties != self.m:
            raise ValueError("g_above + g_below + ties must equal m")


@dataclass(frozen=True)
class TestResult:
    language: str
    family: str
    level: LevelSpec
    direction: Direction
    m: int
    g: int
    p: Fraction | None
    p_value: float
    log10_p_value: float
    adequately_sampled: bool
    p_holm: float | None = None
    significant: bool = False
    neglog10_holm: float | None = None


@dataclass(frozen=True)
class LevelSummary:
    level: LevelSpec
    direction: Direction
    l0: int
    l: int
    f: int
    f_holm: int


@dataclass
class Report:
    collection: str
    alpha: float
    summaries: list[LevelSummary]
    results: list[TestResult]
    exclusions: dict[str, int]
    metadata: dict[str, object]

    @property
    def is_empty(self) -> bool:
        return not self.summaries and not self.results


# (numerator, denominator) of the random-arrangement mean of D, per counted n
_MEAN_D = {n: expected_d_random_arrangement(n).as_integer_ratio()
           for n in (3, 4)}
# the rows of LanguageTally.cells each level adds up
_LEVEL_ROWS = {
    LevelSpec.N3_ALL: (0,),
    LevelSpec.N4_ALL_REAL: (1, 2),
    LevelSpec.N4_UNLABELLED: (1, 2),
    LevelSpec.N4_LABELLED: (1, 2),
    LevelSpec.N4_STAR: (1,),
    LevelSpec.N4_LINEAR: (2,),
}


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
    num, den = _MEAN_D[n]
    diff = d * den - num
    return 3 * row + (0 if diff > 0 else 1 if diff < 0 else 2)


class LanguageTally:
    """One language's trees, reduced to what the six levels need.

    ``cells`` is a flat list of nine counts, row by row: the n = 3 trees, the
    n = 4 stars and the n = 4 paths, each split into the trees whose D lies
    above, below and on its random-arrangement mean (columns 0, 1 and 2).
    ``trees`` counts every tree, of any length.
    """

    def __init__(self):
        self.cells = [0] * 9
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
        """The tally of one level, as ``tally_level`` gives it; with
        ``noncrossing`` a path at D = 5 is above its crossing-free mean 19/4."""
        cells = self.cells
        rows = _LEVEL_ROWS[level]
        above, below, ties = (sum(cells[3 * row + col] for row in rows)
                              for col in range(3))
        if noncrossing and 2 in rows:   # cell 8: the paths' ties
            above, ties = above + cells[8], ties - cells[8]
        m = above + below + ties
        p_star = None
        if level is LevelSpec.N4_ALL_REAL and m > 0:
            p_star = Fraction(sum(cells[3:6]), m)
        return LevelCounts(language=language, level=level, m=m, g_above=above,
                           g_below=below, ties=ties, p_star_real=p_star)


def fold_trees(trees: Iterable[LinearizedTree]) -> LanguageTally:
    """One language's trees folded into a tally, each distinct n = 3 or 4
    tree classified once: a tree's ``edges`` are normalised, so equal trees
    have equal edges, n - 1 of them. Longer trees are only counted, not
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


def _level_ensemble(counts: LevelCounts) -> EnsembleSpec | None:
    if counts.level is LevelSpec.N4_STAR:
        return EnsembleSpec.real(Fraction(1))
    if counts.level is LevelSpec.N4_LINEAR:
        return EnsembleSpec.real(Fraction(0))
    if counts.level is LevelSpec.N4_UNLABELLED:
        return EnsembleSpec.uniform_unlabelled()
    if counts.level is LevelSpec.N4_LABELLED:
        return EnsembleSpec.uniform_labelled()
    if counts.p_star_real is None:
        return None
    return EnsembleSpec.real(counts.p_star_real)


def success_probability(counts: LevelCounts, direction: Direction,
                        noncrossing: bool = False) -> Fraction | None:
    """Null success probability for one (level, direction) tally.

    None only for the real-ensemble level of a language with no n = 4 trees
    (the star fraction is undefined there).
    """
    if counts.level is LevelSpec.N3_ALL:
        return shape_tail_probability(TreeShape.BOTH, 3, direction)
    ensemble = _level_ensemble(counts)
    if ensemble is None:
        return None
    if noncrossing:
        return noncrossing_mixture_probability(ensemble, direction)
    return mixture_probability(ensemble, direction)


def run_tests(counts: LevelCounts, direction: Direction, alpha: float = 0.05,
              noncrossing: bool = False, family: str = UNKNOWN_FAMILY,
              min_sizes: dict | None = None) -> TestResult:
    """One pre-Holm binomial test for one language at one (level, direction).

    ``min_sizes`` memoises ``stats.min_sample_size`` by (p, alpha) for a
    caller that runs many tests.
    """
    p = success_probability(counts, direction, noncrossing)
    g = counts.g_above if direction is Direction.ABOVE else counts.g_below
    if counts.m == 0 or p is None:
        return TestResult(language=counts.language, family=family,
                          level=counts.level, direction=direction,
                          m=counts.m, g=g, p=p, p_value=1.0,
                          log10_p_value=0.0, adequately_sampled=False)
    log10_p = stats.log_binomial_upper_tail(g, counts.m, p) / _LN10
    memo = {} if min_sizes is None else min_sizes
    min_size = memo.get((p, alpha))
    if min_size is None:
        min_size = memo[p, alpha] = stats.min_sample_size(p, alpha)
    adequate = counts.m >= min_size
    return TestResult(language=counts.language, family=family,
                      level=counts.level, direction=direction,
                      m=counts.m, g=g, p=p, p_value=10.0 ** log10_p,
                      log10_p_value=log10_p, adequately_sampled=adequate)


def _neglog10(log10_value: float) -> float:
    return round(-log10_value, 1) + 0.0


def _holm_finalize(pre: list[TestResult], alpha: float) -> list[TestResult]:
    adjusted, rejected = stats.holm_adjust_log10(
        [r.log10_p_value for r in pre], alpha)
    return [TestResult(language=r.language, family=r.family, level=r.level,
                       direction=r.direction, m=r.m, g=r.g, p=r.p,
                       p_value=r.p_value, log10_p_value=r.log10_p_value,
                       adequately_sampled=r.adequately_sampled,
                       p_holm=10.0 ** adj, significant=rej,
                       neglog10_holm=_neglog10(adj))
            for r, adj, rej in zip(pre, adjusted, rejected)]


def analyze_collection(treebanks: Mapping[str, Sequence[LinearizedTree]],
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
    """``analyze_tallies`` over each language's trees, folded once."""
    return analyze_tallies(
        {lang: fold_trees(trees) for lang, trees in treebanks.items()},
        families=families, alpha=alpha, levels=levels, directions=directions,
        collection=collection, per_family=per_family, noncrossing=noncrossing,
        include_undersampled=include_undersampled, exclusions=exclusions,
        metadata=metadata)


def analyze_tallies(tallies: Mapping[str, LanguageTally],
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
    """Run every requested (level, direction) over each language's tally.

    The Holm correction is applied globally across all languages tested at a
    (level, direction), or within each family when ``per_family`` is set.
    Languages too small to ever reach significance still enter the correction
    unless ``include_undersampled`` is false (they can never reject either
    way, but the Holm factor changes).
    """
    levels = list(levels) if levels else list(LevelSpec)
    directions = list(directions) if directions else list(Direction)
    families = dict(families) if families else {}
    languages = sorted(tallies)
    missing = [lang for lang in languages if lang not in families]
    if missing and families:
        logger.warning("no family for %d language(s): %s; using %r",
                       len(missing), ", ".join(missing), UNKNOWN_FAMILY)
    report = Report(collection=collection, alpha=alpha, summaries=[],
                    results=[], exclusions=dict(exclusions or {}),
                    metadata=dict(metadata or {}))
    if not any(tallies[lang].trees for lang in languages):
        return report

    min_sizes: dict = {}    # this call's min_sample_size answers
    for level in levels:
        counts = {lang: tallies[lang].level_counts(level, lang, noncrossing)
                  for lang in languages}
        for direction in directions:
            pre = [run_tests(counts[lang], direction, alpha, noncrossing,
                             family=families.get(lang, UNKNOWN_FAMILY),
                             min_sizes=min_sizes)
                   for lang in languages if counts[lang].m >= 1]
            l0 = len(pre)
            l = sum(r.adequately_sampled for r in pre)
            f = sum(r.p_value <= alpha for r in pre)
            in_family = [r for r in pre
                         if include_undersampled or r.adequately_sampled]
            out_family = [r for r in pre
                          if not (include_undersampled or r.adequately_sampled)]
            finalized: list[TestResult] = []
            if in_family:
                if per_family:
                    by_family: dict[str, list[TestResult]] = {}
                    for r in in_family:
                        by_family.setdefault(r.family, []).append(r)
                    for group in by_family.values():
                        finalized.extend(_holm_finalize(group, alpha))
                else:
                    finalized.extend(_holm_finalize(in_family, alpha))
            finalized.extend(out_family)
            finalized.sort(key=lambda r: r.language)
            f_holm = sum(r.significant for r in finalized)
            report.summaries.append(LevelSummary(
                level=level, direction=direction, l0=l0, l=l, f=f,
                f_holm=f_holm))
            report.results.extend(finalized)
    return report


_CSV_HEADER = ("collection,level,direction,language,family,m,g,p_used,"
               "p_value,p_holm,significant,adequately_sampled,neglog10_holm,"
               "l0,l,f,f_H")


_CSV_SPECIAL_RE = re.compile('[,"\n]')


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
        cells = [_csv_quote(c) for c in _result_cells(report, r)]
        lines.append(",".join(cells + [""] * 4))
    for s in report.summaries:
        head = _summary_cells(report, s)
        row = ([_csv_quote(c) for c in head[:3]] + [""] * 10 + head[3:])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _emit_markdown(report: Report) -> str:
    out = [f"# Report: {report.collection}", ""]
    out.append("## Per-language tests")
    out.append("")
    cols = ("| level | direction | language | family | m | g | p_used "
            "| p_value | p_holm | significant | adequately_sampled "
            "| neglog10_holm |")
    out.append(cols)
    out.append("|" + "---|" * 12)
    for r in report.results:
        cells = _result_cells(report, r)[1:]
        out.append("| " + " | ".join(c or "-" for c in cells) + " |")
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
    return "\n".join(out) + "\n"


def _emit_json(report: Report) -> str:
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
    return json.dumps(doc, indent=2) + "\n"


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
    """Read a language-to-family map: two tab-separated columns, '#' comments."""
    families: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("\t") if p.strip()]
            if len(parts) != 2:
                raise ValueError(
                    f"{path}: line {line_no}: expected 'language<TAB>family'")
            families[parts[0]] = parts[1]
    return families
