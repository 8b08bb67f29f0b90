"""Command line interface: ``ddmtest analyze``.

Reads treebank files (or stdin) in one streaming pass that folds each
cleaned sentence into its language's tally, then runs the six-level
analysis and writes the report. Exit codes: 0 success, 1 argument/format
error, 2 empty collection (nothing survived preprocessing).
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

from . import pipeline, treebank
from .nullmodels import Direction
from .pipeline import LevelSpec
from .treebank import ExclusionReason, ParseError, PreprocessConfig, Scheme

_UD_DIR_RE = re.compile(r"UD_([A-Za-z_]+?)(?:-|$)")


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
                    help="diagnostic mode: success probabilities conditioned "
                         "on crossing-free arrangements (more conservative)")
    an.add_argument("--per-family", action="store_true",
                    help="apply the Holm correction within each family "
                         "instead of globally")
    an.add_argument("--exclude-undersampled", action="store_true",
                    help="drop languages below the minimum sample size from "
                         "the Holm correction")
    an.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    an.add_argument("--report", choices=["csv", "markdown", "json"],
                    default="csv")
    an.add_argument("--seed", type=int, default=0,
                    help="recorded in the report metadata; the analysis "
                         "itself is deterministic")
    an.add_argument("--scheme", choices=[s.value for s in Scheme],
                    help="annotation scheme for punctuation/null-node "
                         "detection (default: ud for conllu, generic for "
                         "conllx)")
    an.add_argument("--language", metavar="NAME",
                    help="assign all input to one language instead of "
                         "inferring from file names")
    return parser


def _load_inputs(args, cfg: PreprocessConfig):
    """Fold every input sentence into its language's tally, one at a time."""
    tallies: dict[str, pipeline.LanguageTally] = {}
    exclusions: Counter[str] = Counter()

    def consume(stream, language: str, tag: str):
        tally = tallies.setdefault(language, pipeline.LanguageTally())
        errors: list[ParseError] = []
        for sentence in treebank.parse_treebank(stream, args.format,
                                                treebank_id=tag,
                                                errors=errors):
            result = treebank.clean_sentence(sentence, cfg)
            if isinstance(result, ExclusionReason):
                exclusions[result.value] += 1
            else:
                tally.add(*result)
        if errors:
            exclusions["parse_error"] += len(errors)
            for err in errors:
                print(f"ddmtest: skipped sentence ({err})", file=sys.stderr)

    stdin_requested = [p for p in args.input if p == "-"]
    file_paths = treebank.gather_files(p for p in args.input if p != "-")
    for path in file_paths:
        language = args.language or infer_language(path)
        with open(path, "rb") as fh:
            consume(fh, language, str(path))
    if stdin_requested:
        consume(sys.stdin.buffer, args.language or "stdin", "<stdin>")
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

    report = pipeline.analyze_tallies(
        tallies, families=families, alpha=args.alpha, levels=levels,
        directions=directions, collection=args.collection,
        per_family=args.per_family,
        noncrossing=args.noncrossing_diagnostic,
        include_undersampled=not args.exclude_undersampled,
        exclusions=exclusions,
        metadata={"seed": args.seed, "format": args.format,
                  "scheme": scheme.value,
                  "noncrossing_diagnostic": args.noncrossing_diagnostic,
                  "per_family": args.per_family})
    payload = pipeline.emit_report(report, args.report)
    if args.out:
        Path(args.out).write_bytes(payload)
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
