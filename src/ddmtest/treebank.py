"""CoNLL treebank parsing and sentence preprocessing.

Reads CoNLL-U / CoNLL-X blocks (10 tab-separated columns, blank-line sentence
boundaries, '#' comments), then cleans each sentence: multiword range lines
are dropped, punctuation and non-word nodes are deleted, and orphaned tokens
are reattached to their nearest surviving ancestor. A sentence that is not a
single tree afterwards is excluded with a reason, never silently dropped.
"""

from __future__ import annotations

import io
import itertools
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .trees import LinearizedTree

_RANGE_RE = re.compile(r"([0-9]+)-[0-9]+")
_DECIMAL_RE = re.compile(r"([0-9]+)\.[0-9]+")
_N_COLUMNS = 10
_BOM = "\ufeff"

# loose tag patterns seen across annotation schemes (PTB ".", Prague "Z:...",
# UD "PUNCT", assorted "Punc"/"PU" variants, or the character itself as tag)
_GENERIC_PUNCT_RE = re.compile(r"PUNCT|PUNC|Punc|punc|PU|Z\S*|[^\w\s]+")


class Scheme(Enum):
    UD = "ud"
    PRAGUE = "prague"
    STANFORD = "stanford"
    GENERIC = "generic"


class ExclusionReason(Enum):
    CYCLE = "cycle"
    DISCONNECTED = "disconnected"
    MULTIPLE_ROOTS = "multiple_roots"
    EMPTY_AFTER_PREPROCESSING = "empty_after_preprocessing"
    MALFORMED = "malformed"


class RawToken(NamedTuple):
    id: int
    head: int
    form: str
    pos: str
    deprel: str
    is_empty_node: bool = False
    is_range_token: bool = False


@dataclass
class RawSentence:
    tokens: list[RawToken]
    source_id: str
    treebank_id: str = ""


@dataclass(frozen=True)
class ParseError:
    line_no: int
    message: str
    source: str = ""

    def __str__(self):
        where = f"{self.source}: " if self.source else ""
        return f"{where}line {self.line_no}: {self.message}"


def _ud_punct(token: RawToken) -> bool:
    return token.pos == "PUNCT"


def _prague_punct(token: RawToken) -> bool:
    # Prague positional tags put punctuation in main class Z
    return token.pos.startswith("Z")


def _generic_punct(token: RawToken) -> bool:
    return _GENERIC_PUNCT_RE.fullmatch(token.pos) is not None


def _hamledt_null(token: RawToken) -> bool:
    # null elements in the Bengali/Hindi/Telugu HamleDT corpora surface as
    # tokens whose form is the literal string NULL
    return token.form == "NULL"


_DEFAULT_PUNCT: dict[Scheme, Callable[[RawToken], bool]] = {
    Scheme.UD: _ud_punct,
    Scheme.PRAGUE: _prague_punct,
    Scheme.STANFORD: _generic_punct,
    Scheme.GENERIC: _generic_punct,
}

_DEFAULT_EMPTY: dict[Scheme, Callable[[RawToken], bool] | None] = {
    Scheme.UD: None,
    Scheme.PRAGUE: _hamledt_null,
    Scheme.STANFORD: _hamledt_null,
    Scheme.GENERIC: None,
}


@dataclass(frozen=True)
class PreprocessConfig:
    """Deletion rules applied before any analysis.

    ``punct_predicate`` / ``empty_node_predicate`` override the per-scheme
    defaults; both must be pure functions of a single token. CoNLL-U nodes
    with decimal ids are always recognized as non-word nodes regardless of
    the predicate.
    """

    scheme: Scheme = Scheme.UD
    punct_predicate: Callable[[RawToken], bool] | None = None
    empty_node_predicate: Callable[[RawToken], bool] | None = None
    remove_empty_nodes: bool = True

    def predicates(self) -> tuple[Callable[[RawToken], bool],
                                  Callable[[RawToken], bool] | None]:
        """The (punctuation, non-word node) predicates in effect."""
        return (self.punct_predicate or _DEFAULT_PUNCT[self.scheme],
                self.empty_node_predicate or _DEFAULT_EMPTY[self.scheme])


def _decoded(lines: Iterable[bytes]) -> Iterator[str | None]:
    for raw in lines:
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError:
            yield None


def _iter_lines(stream) -> Iterator[str | None]:
    """The input's lines without a leading BOM; None for a line that is not
    valid UTF-8. Lines read from a stream keep their line terminator."""
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    lines = iter(stream.splitlines() if isinstance(stream, str) else stream)
    first = next(lines, None)
    if first is None:
        return iter(())
    if isinstance(first, bytes):
        lines = _decoded(lines)
        first = next(_decoded([first]))
    if first is not None and first.startswith(_BOM):
        first = first[1:]
    return itertools.chain([first], lines)


def _parse_token(cols: list[str]) -> RawToken:
    """One token from a line's columns; ValueError names what is wrong."""
    if len(cols) != _N_COLUMNS:
        raise ValueError(f"expected {_N_COLUMNS} columns, got {len(cols)}")
    idc = cols[0]
    # isascii: str.isdigit also accepts non-ASCII digits, which int() reads
    if not (idc.isdigit() and idc.isascii()):
        if _RANGE_RE.fullmatch(idc):
            return RawToken(int(idc.split("-", 1)[0]), 0, cols[1], cols[3],
                            cols[7], is_range_token=True)
        if _DECIMAL_RE.fullmatch(idc):
            return RawToken(int(idc.split(".", 1)[0]), 0, cols[1], cols[3],
                            cols[7], is_empty_node=True)
        raise ValueError(f"non-numeric token id {idc!r}")
    tid = int(idc)
    if tid < 1:
        raise ValueError(f"token id must be >= 1, got {tid}")
    head_c = cols[6]
    if not (head_c.isdigit() and head_c.isascii()):
        raise ValueError(f"non-numeric head {head_c!r}")
    head = int(head_c)
    if head == tid:
        raise ValueError(f"token {tid} is its own head")
    return RawToken(tid, head, cols[1], cols[3], cols[7])


def parse_treebank(stream, fmt: str = "conllu", treebank_id: str = "",
                   errors: list[ParseError] | None = None) -> Iterator[RawSentence]:
    """Yield one RawSentence per blank-line-separated block.

    ``stream`` may be a text or binary file object, an iterable of lines, or
    the file content itself (``str`` or ``bytes``); it is read line by line.
    A leading UTF-8 byte order mark is ignored. A malformed sentence,
    including one with a line that is not valid UTF-8, is recorded in
    ``errors`` (one entry, naming ``treebank_id`` and the first offending
    line) and skipped; parsing continues with the next sentence.
    """
    if fmt not in ("conllu", "conllx"):
        raise ValueError(f"unknown treebank format {fmt!r}")
    tokens: list[RawToken] = []
    sent_id: str | None = None
    bad: ParseError | None = None
    last_id = 0          # last regular token id, for the increasing-id check
    ordered = True
    ordinal = 0

    def flush():
        nonlocal tokens, sent_id, bad, last_id, ordered, ordinal
        out = None
        if tokens or bad is not None:
            ordinal += 1
            if bad is None and not ordered:
                bad = ParseError(line_no, "token ids not strictly increasing",
                                 treebank_id)
            if bad is None:
                out = RawSentence(tokens=tokens,
                                  source_id=sent_id or str(ordinal),
                                  treebank_id=treebank_id)
            elif errors is not None:
                errors.append(bad)
            tokens = []
            bad = None
            last_id = 0
            ordered = True
        sent_id = None
        return out

    line_no = 0
    for line_no, line in enumerate(_iter_lines(stream), start=1):
        if not line or line.isspace():
            if line is None:            # not valid UTF-8
                if bad is None:
                    bad = ParseError(line_no, "invalid UTF-8", treebank_id)
                continue
            sentence = flush()
            if sentence is not None:
                yield sentence
            continue
        if line[0] == "#":
            if line[1:].split("=", 1)[0].strip() == "sent_id":
                sent_id = line.split("=", 1)[1].strip()
            continue
        if bad is not None:
            continue
        try:
            token = _parse_token(line.split("\t"))
        except ValueError as exc:
            bad = ParseError(line_no, str(exc), treebank_id)
            continue
        if not (token.is_range_token or token.is_empty_node):
            if token.id <= last_id:
                ordered = False
            last_id = token.id
        tokens.append(token)
    sentence = flush()
    if sentence is not None:
        yield sentence


def clean_sentence(sentence: RawSentence,
                   cfg: PreprocessConfig = PreprocessConfig()
                   ) -> tuple[int, list[tuple[int, int]]] | ExclusionReason:
    """Clean one sentence into ``(n, edges)``, or say why it cannot be a tree.

    Range lines are dropped; non-word nodes and punctuation are deleted;
    survivors whose head chain runs through deleted tokens are reattached to
    the nearest non-deleted ancestor (the root if there is none); survivors
    are renumbered 1..n in surface order, and ``edges`` holds one
    (dependent, head) position pair per non-root survivor.
    """
    tokens = [t for t in sentence.tokens if not t.is_range_token]
    n_all = len(tokens)
    if n_all == 0:
        return ExclusionReason.EMPTY_AFTER_PREPROCESSING

    by_id = {t.id: i for i, t in enumerate(tokens) if not t.is_empty_node}
    has_empty = len(by_id) != n_all     # empty nodes or duplicate ids
    if has_empty:
        if len(by_id) != sum(not t.is_empty_node for t in tokens):
            return ExclusionReason.MALFORMED
        for i, t in enumerate(tokens):
            by_id.setdefault(t.id, i)

    is_punct, is_null = cfg.predicates()
    if is_null is None and not has_empty:
        deleted = list(map(is_punct, tokens))
    else:
        remove_empty = cfg.remove_empty_nodes
        deleted = [remove_empty if t.is_empty_node
                   or (is_null is not None and is_null(t)) else is_punct(t)
                   for t in tokens]

    get = by_id.get
    head = [get(t.head, -2) if t.head else -1 for t in tokens]
    if -2 in head:
        return ExclusionReason.MALFORMED

    survivors = [i for i, gone in enumerate(deleted) if not gone]
    if not survivors:
        return ExclusionReason.EMPTY_AFTER_PREPROCESSING

    # point each survivor's head at its nearest surviving ancestor; a walk
    # through more than n_all deleted tokens runs in a cycle
    for i in survivors:
        j, steps = head[i], 0
        while j >= 0 and deleted[j]:
            j = head[j]
            steps += 1
            if steps > n_all:
                return ExclusionReason.CYCLE
        head[i] = j
    if sum(head[i] == -1 for i in survivors) > 1:
        return ExclusionReason.MULTIPLE_ROOTS

    # every survivor's head chain must reach the root: a walk from a token
    # not yet known to reach it, longer than n_all steps, runs in a cycle
    # (as it must when no survivor is the root)
    reaches_root = [False] * n_all
    for i in survivors:
        j, steps = i, 0
        while j != -1 and not reaches_root[j]:
            j = head[j]
            steps += 1
            if steps > n_all:
                return ExclusionReason.CYCLE
        j = i
        while j != -1 and not reaches_root[j]:
            reaches_root[j] = True
            j = head[j]

    position = [0] * n_all
    for p, i in enumerate(survivors, start=1):
        position[i] = p
    return len(survivors), [(position[i], position[head[i]])
                            for i in survivors if head[i] != -1]


def preprocess(sentence: RawSentence,
               cfg: PreprocessConfig = PreprocessConfig()
               ) -> LinearizedTree | ExclusionReason:
    """``clean_sentence`` as a ``LinearizedTree``, or the exclusion reason."""
    result = clean_sentence(sentence, cfg)
    if isinstance(result, ExclusionReason):
        return result
    n, edges = result
    return LinearizedTree(n=n, edges=edges)


def gather_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted list of treebank files.

    Directories are searched recursively for *.conllu and *.conll.
    """
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            found = sorted(q for pat in ("*.conllu", "*.conll")
                           for q in p.rglob(pat))
            out.extend(found)
        elif p.is_file():
            out.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
    return out
