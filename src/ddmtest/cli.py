"""Command line interface: ``ddmtest analyze``.

Reads treebank files (or stdin) in one streaming pass that folds each
cleaned sentence into its language's tally, then runs the six-level
analysis and writes the report. The files are folded on the fork pool
(``_pool.map``), one worker per usable CPU up to one per file and at most
eight, and merged in file order, so the report and stderr do not depend on
the worker count. With one file or one usable CPU, in a process that runs
other threads, or where the platform cannot fork, nothing is forked. The
test stage (``pipeline.analyze_tallies``) runs on the same pool once its
tests are large enough to repay a fork. Stderr shows at most 20 parse
errors per input, then a count of the rest. A CSV report shows no
exclusion counts, so its run does not check the tree of a block that keeps
more than four words, once its input has given a tree: the report, stderr
and exit code are the same. Exit codes: 0 success, 1 argument/format error
or a worker that died, 2 empty collection (nothing survived
preprocessing).
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

from . import _pool, pipeline, treebank
from .nullmodels import Direction
from .pipeline import LevelSpec
from .treebank import ParseError, PreprocessConfig, Scheme

_UD_DIR_RE = re.compile(r"UD_([A-Za-z_]+?)(?:-|$)")
MAX_ERRORS_SHOWN = 20   # parse errors printed per input; the rest are counted


class _Parser(argparse.ArgumentParser):
    # spec'd exit codes: argument errors are 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def infer_language(path: Path) -> str:
    """Language name for a treebank file.

    A parent directory named like UD_Japanese-GSD wins (underscores become
    spaces); otherwise the file stem up to the first '-' is used, so
    Japanese-train.conllu and Japanese.conllu both map to 'Japanese'.
    """
    m = _UD_DIR_RE.match(path.parent.name)
    if m:
        return m.group(1).replace("_", " ")
    return path.stem.split("-")[0]


def _parse_levels(value: str) -> list[LevelSpec]:
    if value.strip() == "all":
        return list(LevelSpec)
    by_value = {lv.value: lv for lv in LevelSpec}
    out = []
    for name in value.split(","):
        name = name.strip()
        if name not in by_value:
            raise ValueError(
                f"unknown level {name!r}; valid: all, " + ", ".join(by_value))
        out.append(by_value[name])
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddmtest",
                     description="Binomial tests for dependency distance "
                                 "minimization in short sentences")
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="analyze a treebank collection")
    an.add_argument("--input", nargs="+", required=True, metavar="PATH",
                    help="treebank file(s), director(ies), or - for stdin")
    an.add_argument("--format", choices=["conllu", "conllx"], default="conllu")
    an.add_argument("--collection", default="collection",
                    help="collection name used in the report")
    an.add_argument("--families", metavar="TSV",
                    help="language<TAB>family map; missing languages get "
                         "family 'Unknown'")
    an.add_argument("--alpha", type=float, default=0.05)
    an.add_argument("--levels", default="all",
                    help="all or a comma list of: " +
                         ", ".join(lv.value for lv in LevelSpec))
    an.add_argument("--direction", choices=["both", "above", "below"],
                    default="both")
    an.add_argument("--noncrossing-diagnostic", action="store_true",
                    help="diagnostic mode: each shape against its crossing-"
                         "free arrangements (paths at D = 5 count as above)")
    an.add_argument("--per-family", action="store_true",
                    help="apply the Holm correction within each family "
                         "instead of globally")
    an.add_argument("--exclude-undersampled", action="store_true",
                    help="drop languages below the minimum sample size from "
                         "the Holm correction")
    an.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    an.add_argument("--report", choices=["csv", "markdown", "json"],
                    default="csv")
    an.add_argument("--scheme", choices=[s.value for s in Scheme],
                    help="annotation scheme for punctuation/null-node "
                         "detection (default: ud for conllu, generic for "
                         "conllx)")
    an.add_argument("--language", metavar="NAME",
                    help="assign all input to one language instead of "
                         "inferring from file names")
    return parser


class _ErrorLog:
    """An input's parse errors: the first ``MAX_ERRORS_SHOWN`` and a count."""

    def __init__(self):
        self.shown: list[ParseError] = []
        self.count = 0

    def append(self, error: ParseError) -> None:
        self.count += 1
        if self.count <= MAX_ERRORS_SHOWN:
            self.shown.append(error)


def _fold_stream(stream, fmt: str, cfg: PreprocessConfig, tag: str,
                 skip_long: bool = False):
    """Fold one input's sentences into a tally, one at a time.

    Returns the tally, the exclusion counts (parse errors under
    ``"parse_error"``) and the stderr lines that report the parse errors:
    the first ``MAX_ERRORS_SHOWN``, then one line counting the rest. With
    ``skip_long`` the blocks ``clean_treebank`` leaves unchecked are
    dropped: the cells and parse errors stay the same, but the exclusions
    and ``trees`` leave out each long block after the first tree.
    """
    tally = pipeline.LanguageTally()
    exclusions: Counter[str] = Counter()
    errors = _ErrorLog()
    for result in treebank.clean_treebank(stream, fmt, cfg, tag, errors,
                                          skip_long=skip_long):
        if type(result) is tuple:
            tally.add(*result)
        elif result is not treebank.UNCHECKED:
            exclusions[result.value] += 1
    if errors.count:
        exclusions["parse_error"] += errors.count
    shown = [f"ddmtest: skipped sentence ({err})" for err in errors.shown]
    if errors.count > MAX_ERRORS_SHOWN:
        shown.append(f"ddmtest: {tag}: {errors.count - MAX_ERRORS_SHOWN} "
                     "more skipped sentences not shown")
    return tally, exclusions, shown


def _fold_file(path: Path, fmt: str, cfg: PreprocessConfig,
               skip_long: bool):
    """``_fold_stream`` over one file."""
    with open(path, "rb") as fh:
        return _fold_stream(fh, fmt, cfg, str(path), skip_long)


def _load_inputs(args, cfg: PreprocessConfig):
    """Fold every input into its language's tally, printing parse errors.

    The files are folded on the fork pool (``_pool.map``), weighed by
    size, and merged in ``gather_files`` order, stdin after them, so the
    report and stderr do not depend on how many workers folded the files.
    The first file that fails raises its error once the files before it
    are merged.
    """
    skip_long = args.report == "csv"     # the one report without exclusions
    tallies: dict[str, pipeline.LanguageTally] = {}
    exclusions: Counter[str] = Counter()

    def merge(language: str, folded) -> None:
        tally, excluded, shown = folded
        tallies.setdefault(language, pipeline.LanguageTally()).merge(tally)
        exclusions.update(excluded)
        for line in shown:
            print(line, file=sys.stderr)

    paths = treebank.gather_files(p for p in args.input if p != "-")
    sizes = []
    for path in paths:
        try:
            sizes.append(path.stat().st_size)
        except OSError:         # the fold reports it in order
            sizes.append(0)
    folded = _pool.map(
        lambda i: _fold_file(paths[i], args.format, cfg, skip_long), sizes,
        _pool.workers(len(paths)), lambda i: f"folding {paths[i]}")
    for path, result in zip(paths, folded):
        if isinstance(result, Exception):
            raise result
        merge(args.language or infer_language(path), result)
    if "-" in args.input:
        merge(args.language or "stdin",
              _fold_stream(sys.stdin.buffer, args.format, cfg, "<stdin>",
                           skip_long))
    return tallies, dict(exclusions)


def _run_analyze(args) -> int:
    if not 0 < args.alpha < 1:
        print("ddmtest: error: --alpha must be in (0, 1)", file=sys.stderr)
        return 1
    try:
        levels = _parse_levels(args.levels)
    except ValueError as exc:
        print(f"ddmtest: error: {exc}", file=sys.stderr)
        return 1
    directions = {"both": list(Direction),
                  "above": [Direction.ABOVE],
                  "below": [Direction.BELOW]}[args.direction]
    scheme = Scheme(args.scheme) if args.scheme else (
        Scheme.UD if args.format == "conllu" else Scheme.GENERIC)
    cfg = PreprocessConfig(scheme=scheme)

    families = {}
    if args.families:
        try:
            families = pipeline.load_families(args.families)
        except (OSError, ValueError) as exc:
            print(f"ddmtest: error: {exc}", file=sys.stderr)
            return 1
    try:
        tallies, exclusions = _load_inputs(args, cfg)
    except (OSError, ValueError) as exc:
        print(f"ddmtest: error: {exc}", file=sys.stderr)
        return 1

    try:
        report = pipeline.analyze_tallies(
            tallies, families=families, alpha=args.alpha, levels=levels,
            directions=directions, collection=args.collection,
            per_family=args.per_family,
            noncrossing=args.noncrossing_diagnostic,
            include_undersampled=not args.exclude_undersampled,
            exclusions=exclusions,
            metadata={"format": args.format,
                      "scheme": scheme.value,
                      "noncrossing_diagnostic": args.noncrossing_diagnostic,
                      "per_family": args.per_family})
    except ChildProcessError as exc:    # a test worker died
        print(f"ddmtest: error: {exc}", file=sys.stderr)
        return 1
    payload = pipeline.emit_report(report, args.report)
    if args.out:
        try:
            Path(args.out).write_bytes(payload)
        except OSError as exc:
            print(f"ddmtest: error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    if report.is_empty:
        print("ddmtest: empty collection: no sentence survived "
              "preprocessing", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "analyze":
        return _run_analyze(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
