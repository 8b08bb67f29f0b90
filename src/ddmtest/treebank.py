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
import operator
import re
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from ._record import FrozenRecord, Record
from .trees import LinearizedTree

_RANGE_RE = re.compile(r"([0-9]+)-[0-9]+")
_DECIMAL_RE = re.compile(r"([0-9]+)\.[0-9]+")
_N_COLUMNS = 10
_BOM = "\ufeff"
_CHUNK_BYTES = 1 << 18      # clean_treebank reads about this much at a time
_MAX_CARRY_BYTES = 1 << 20  # a longer run without a blank line is read by line
_MAX_BLOCK_TOKENS = 1 << 14  # a block with more token lines is a parse error

# loose tag patterns seen across annotation schemes (PTB ".", Prague "Z:...",
# UD "PUNCT", assorted "Punc"/"PU" variants, or the character itself as tag)
_GENERIC_PUNCT_RE = re.compile(r"PUNCT|PUNC|Punc|punc|PU|Z\S*|[^\w\s]+")
# the column reader's view of UTF-8 bytes: the comment lines and the lines
# blank by _BLANK_BYTES_RE's rule that open a block, the id of a range line
# or an empty node, a block's regular ids (a block longer than this is read
# by line)
_OPENING_RE = re.compile(rb"(?:#[^\n]*(?:\n|\Z)|[\t-\r\x1c-\x1f ]*\n)*")
_OTHER_ID_RE = re.compile(
    f"{_RANGE_RE.pattern}|{_DECIMAL_RE.pattern}".encode())
_IDS = [b"%d" % i for i in range(1, 1025)]
_BOM_BYTES = _BOM.encode()
_MEMO_CELLS = 1 << 14   # the most POS cells clean_treebank keeps judged
_MEMO_CELL_BYTES = 32   # and the longest it keeps (tags are a few bytes)

# a line end and the whole run of lines after it that hold only the ASCII
# characters str.isspace accepts (the class holds "\n" too): such lines end
# a block, as for the line reader. A line blank by a character above ASCII
# (U+0085, U+2028, U+3000, ...) stays in its group; its id cell is not an
# id, so the column reader refuses the group and the line reader ends the
# sentence at that line
_BLANK_BYTES_RE = re.compile(rb"(\n[\t-\r\x1c-\x1f ]*\n)")


class Scheme(Enum):
    UD = "ud"
    PRAGUE = "prague"
    STANFORD = "stanford"
    GENERIC = "generic"


class ExclusionReason(Enum):
    CYCLE = "cycle"
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


class RawSentence(Record):
    __slots__ = ("tokens", "source_id", "treebank_id")

    def __init__(self, tokens: list[RawToken], source_id: str,
                 treebank_id: str = ""):
        self.tokens = tokens
        self.source_id = source_id
        self.treebank_id = treebank_id


class ParseError(FrozenRecord):
    __slots__ = ("line_no", "message", "source")

    def __init__(self, line_no: int, message: str, source: str = ""):
        object.__setattr__(self, "line_no", line_no)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "source", source)

    def __str__(self):
        where = f"{self.source}: " if self.source else ""
        return f"{where}line {self.line_no}: {self.message}"


def _generic_punct(pos: str) -> bool:
    return _GENERIC_PUNCT_RE.fullmatch(pos) is not None


# The deletion rules of each scheme, on column text: a predicate for
# punctuation on the POS column, and the FORM of a null element (None under
# a scheme without them). Prague positional tags put punctuation in class
# Z; the null elements of the Bengali/Hindi/Telugu HamleDT corpora are
# tokens whose form is the literal string NULL.
_RULES = {Scheme.UD: ("PUNCT".__eq__, None),
          Scheme.PRAGUE: (operator.methodcaller("startswith", "Z"), "NULL"),
          Scheme.STANFORD: (_generic_punct, "NULL"),
          Scheme.GENERIC: (_generic_punct, None)}


class PreprocessConfig(FrozenRecord):
    """Deletion rules applied before any analysis: those of ``scheme``
    (``_RULES``). CoNLL-U empty nodes (decimal ids) are always deleted."""

    __slots__ = ("scheme",)

    def __init__(self, scheme: Scheme = Scheme.UD):
        object.__setattr__(self, "scheme", scheme)


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
    elif isinstance(stream, str):
        stream = io.StringIO(stream)    # breaks lines at "\n" only
    lines = iter(stream)
    first = next(lines, None)
    if first is None:
        return iter(())
    if isinstance(first, bytes):
        lines = _decoded(lines)
        first = next(_decoded([first]))
    if first is not None and first.startswith(_BOM):
        first = first[1:]
    return itertools.chain([first], lines)


def _parse_token(line: str) -> RawToken:
    """One token from a line; ValueError names what is wrong."""
    # count before splitting, so that a long line of many tabs is not split
    tabs = line.count("\t")
    if tabs != _N_COLUMNS - 1:
        raise ValueError(f"expected {_N_COLUMNS} columns, got {tabs + 1}")
    cols = line.split("\t")
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


def parse_treebank(stream, *, treebank_id: str = "",
                   errors: list[ParseError] | None = None) -> Iterator[RawSentence]:
    """Yield one RawSentence per blank-line-separated block.

    ``stream`` may be a text or binary file object, an iterable of lines, or
    the file content itself (``str`` or ``bytes``); it is read line by line.
    A leading UTF-8 byte order mark is ignored. A malformed sentence,
    including one with a line that is not valid UTF-8, with more than
    ``_MAX_BLOCK_TOKENS`` token lines or whose regular token ids do not
    strictly increase, is recorded in ``errors`` (one entry, naming
    ``treebank_id`` and the first offending line) and skipped; parsing
    continues with the next sentence. CoNLL-U and CoNLL-X are read alike.
    """
    for item in _parse_lines(_iter_lines(stream), treebank_id):
        if type(item) is not ParseError:
            yield item
        elif errors is not None:
            errors.append(item)


def _parse_lines(lines: Iterable[str | None], treebank_id: str,
                 first_line: int = 1) -> Iterator[RawSentence | ParseError]:
    """``parse_treebank`` over decoded lines (None for a line that is not
    UTF-8), the first of which is line ``first_line`` of the input, with
    each ``ParseError`` yielded in its block's place and naming the
    block's first offending line."""
    tokens: list[RawToken] = []
    sent_id: str | None = None
    bad: ParseError | None = None
    last_id = 0          # last regular token id, for the increasing-id check
    ordinal = 0
    cap = _MAX_BLOCK_TOKENS
    # the end of the input ends its last sentence as a blank line does
    for line_no, line in enumerate(itertools.chain(lines, ("",)), first_line):
        if not line or line.isspace():
            if line is None:            # not valid UTF-8
                if bad is None:
                    bad = ParseError(line_no, "invalid UTF-8", treebank_id)
                continue
            if tokens or bad is not None:
                ordinal += 1
                yield bad or RawSentence(tokens=tokens,
                                         source_id=sent_id or str(ordinal),
                                         treebank_id=treebank_id)
                tokens = []
                bad = None
                last_id = 0
            sent_id = None
            continue
        if line[0] == "#":
            key, eq, value = line[1:].partition("=")
            if eq and key.strip() == "sent_id":
                sent_id = value.strip()
            continue
        if bad is not None:
            continue
        if len(tokens) >= cap:
            bad = ParseError(line_no, f"more than {cap} tokens", treebank_id)
            tokens = []
            continue
        try:
            token = _parse_token(line)
        except ValueError as exc:
            bad = ParseError(line_no, str(exc), treebank_id)
            continue
        if not (token.is_range_token or token.is_empty_node):
            if token.id <= last_id:
                bad = ParseError(line_no, "token ids not strictly increasing",
                                 treebank_id)
                continue
            last_id = token.id
        tokens.append(token)


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

    by_id = {t.id: i for i, t in enumerate(tokens, 1)
             if not t.is_empty_node}
    has_empty = len(by_id) != n_all     # empty nodes or duplicate ids
    if has_empty:
        if len(by_id) != sum(not t.is_empty_node for t in tokens):
            return ExclusionReason.MALFORMED
        for i, t in enumerate(tokens, 1):
            by_id.setdefault(t.id, i)

    punct, null = _RULES[cfg.scheme]
    deleted = [t.is_empty_node or t.form == null or punct(t.pos)
               for t in tokens]

    get = by_id.get
    head = [get(t.head, -1) if t.head else 0 for t in tokens]
    if -1 in head:
        return ExclusionReason.MALFORMED
    return _tree_check(head, deleted)


def _tree_check(head: list[int], deleted: list[bool]
                ) -> tuple[int, list[tuple[int, int]]] | ExclusionReason:
    """``clean_sentence`` once each token's head is known, for one token or
    more: ``head[i]`` is the number (1 + index) of token i's head, 0 for
    the root, and ``deleted[i]`` says whether token i goes. Overwrites
    both lists."""
    n_all = len(head)
    head.insert(0, 0)           # number 0 is the root, its own head
    deleted.insert(0, False)
    survivors = [i for i, gone in enumerate(deleted) if not gone]
    n = len(survivors) - 1
    if not n:
        return ExclusionReason.EMPTY_AFTER_PREPROCESSING
    # number the survivors 1..n in surface order, point each one's head at
    # its nearest surviving ancestor and count those left at the root; a
    # walk through more than n_all deleted tokens runs in a cycle
    position = [0] * (n_all + 1)
    roots = -1                  # the root's own head is 0 too
    for p, i in enumerate(survivors):
        position[i] = p
        j = head[i]
        if deleted[j]:
            steps = 0
            while deleted[j]:
                j = head[j]
                steps += 1
                if steps > n_all:
                    return ExclusionReason.CYCLE
            head[i] = j
        if not j:
            roots += 1
    if roots != 1:
        return ExclusionReason.MULTIPLE_ROOTS if roots else \
            ExclusionReason.CYCLE

    # every survivor's head chain must reach the root. Walk up from each,
    # stamping what it passes with where the walk began, to the root or to
    # a token an earlier walk reached (and so reaches the root); a walk
    # that comes back to its own stamp runs in a cycle
    reached = [0] * len(head)
    reached[0] = -1
    for p in survivors:
        j = p
        while not reached[j]:
            reached[j] = p
            j = head[j]
        if reached[j] == p:
            return ExclusionReason.CYCLE
    return n, [(position[i], position[head[i]]) for i in survivors
               if head[i]]


def preprocess(sentence: RawSentence,
               cfg: PreprocessConfig = PreprocessConfig()
               ) -> LinearizedTree | ExclusionReason:
    """``clean_sentence`` as a ``LinearizedTree``, or the exclusion reason."""
    result = clean_sentence(sentence, cfg)
    if isinstance(result, ExclusionReason):
        return result
    n, edges = result
    return LinearizedTree(n=n, edges=edges)


def clean_treebank(stream, cfg: PreprocessConfig = PreprocessConfig(),
                   treebank_id: str = "", *, skip_long: bool = False
                   ) -> Iterator[tuple[int, list[tuple[int, int]]]
                                 | ExclusionReason | ParseError | object]:
    """One item for each block of ``stream``, in input order: what
    ``clean_sentence(s, cfg)`` gives for each ``s`` of
    ``parse_treebank(stream, treebank_id=treebank_id)``, and in its
    block's place each ``ParseError`` that ``parse_treebank`` records.

    ``stream`` is a binary file object or the content itself as ``bytes``;
    text raises ``TypeError`` (read it with ``parse_treebank`` and
    ``clean_sentence``). Bytes are read a chunk of whole lines at a time,
    split into blocks at runs of empty or ASCII-whitespace lines and
    checked to be UTF-8, not decoded. Every block is taken apart by
    columns, under the scheme's rules. A block the column reader cannot
    vouch for, such as one that holds a byte that is not UTF-8, a line
    blank by other whitespace, a comment after its first token line or
    only comments, goes through the line reader by itself, with its real
    line numbers. So does the rest of an input after a long run with no
    blank line.

    With ``skip_long``, once the column reader has given a tree, a block it
    vouches for that keeps more than four words after deletion yields
    ``UNCHECKED`` instead of a tree with n > 4 or an exclusion: such a
    block lands in no cell of a tally, so only its fate is left unknown.
    """
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)

    def read():                 # the next chunk of whole lines
        return stream.read(_CHUNK_BYTES) + stream.readline()

    def by_line(lines, first_line):
        for item in _parse_lines(lines, treebank_id, first_line):
            yield item if type(item) is ParseError else \
                clean_sentence(item, cfg)

    chunk = stream if isinstance(stream, str) else read()
    if isinstance(chunk, str):      # a str, or a text stream's first read
        raise TypeError("clean_treebank reads bytes; read text with "
                        "parse_treebank and clean_sentence")
    punct, null = _RULES[cfg.scheme]
    punct = _Judged(punct).__getitem__      # each POS cell judged once
    if null is not None:
        null = null.encode()
    skip = False                    # skip_long, once a tree is out
    text, line_no = chunk.removeprefix(_BOM_BYTES), 1  # text starts on line_no
    while True:
        escaped = _holds_bad_byte(text)
        parts = _BLANK_BYTES_RE.split(text)    # block, blank lines, ..., block
        rest = parts.pop() if chunk else b""    # the last block may go on
        done, first = 0, line_no        # parts[done] starts on line first
        for i, block in enumerate(parts[0::2]):     # block i is parts[2 * i]
            if not block:               # blank lines open or end the text
                continue
            result = None if escaped and _holds_bad_byte(block) else \
                _clean_block(block, punct, null, skip)
            if result is None:
                first += b"".join(parts[done:2 * i]).count(b"\n")
                done = 2 * i
                try:
                    lines = io.StringIO(block.decode())
                except UnicodeDecodeError:
                    lines = _decoded(io.BytesIO(block))
                yield from by_line(lines, first)
            else:
                skip = skip or (skip_long and type(result) is tuple)
                yield result
        if not chunk:
            return
        line_no = first + b"".join(parts[done:]).count(b"\n")
        if len(rest) > _MAX_CARRY_BYTES:
            # no blank line in sight: read the rest line by line
            lines = itertools.chain(io.BytesIO(rest),
                                    iter(stream.readline, b""))
            yield from by_line(_decoded(lines), line_no)
            return
        chunk = read()
        text = rest + chunk


def _holds_bad_byte(data: bytes) -> bool:
    """Whether ``data`` is not UTF-8 (it is checked, and the text dropped)."""
    if data.isascii():
        return False
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


class _HeadNumbers(dict):
    """Each plain head cell's token number, 0 for the root, and for any
    other cell a number past every block's last id."""

    def __missing__(self, cell: bytes) -> int:
        return len(_IDS) + 1


_HEAD_NUMBER = _HeadNumbers(zip([b"0"] + _IDS, range(len(_IDS) + 1)))


# clean_treebank's answer, under skip_long, for a block of more than four
# words whose tree was not checked
UNCHECKED = object()


def _clean_block(group: bytes, punct: Callable, null: bytes | None,
                 skip_long: bool):
    """``clean_sentence``'s result for the block in ``group``, UTF-8 lines
    with no ASCII blank line among them, under the rules ``punct`` (on the
    POS column) and ``null`` (the FORM of a null element). None, for the
    line reader to read it, unless the opening comment and empty lines are
    followed by at most ``_MAX_BLOCK_TOKENS`` lines, each of ten columns,
    the regular ids are 1..k, the other ids are ranges or empty nodes, and
    each head is one of 0..k, written plainly, but not its own id. With
    ``skip_long``, ``UNCHECKED`` for a block that keeps more than four
    words.
    """
    if not group[:1].isdigit():     # comment or blank lines come first
        group = group[_OPENING_RE.match(group).end():]
    body = group.rstrip(b"\n")
    # one cell per column, and a line-end cell between lines: then every
    # line has ten columns if the line-end cells fall every eleventh
    k = body.count(b"\n") + 1
    if k > _MAX_BLOCK_TOKENS:
        return None
    cells = body.replace(b"\n", b"\t\n\t").split(b"\t")
    if len(cells) != 11 * k - 1 or cells[10::11].count(b"\n") != k - 1:
        return None
    ids = cells[0::11]
    heads, pos, forms = cells[6::11], cells[3::11], cells[1::11]
    if ids != _IDS[:k]:
        # drop range lines and empty nodes; the ids left must be 1..k
        regular = list(map(bytes.isdigit, ids))
        for c in itertools.compress(ids, map(operator.not_, regular)):
            if not _OTHER_ID_RE.fullmatch(c):
                return None
        ids = list(itertools.compress(ids, regular))
        k = len(ids)
        if ids != _IDS[:k]:
            return None
        if not k:
            return ExclusionReason.EMPTY_AFTER_PREPROCESSING
        heads = list(itertools.compress(heads, regular))
        pos = list(itertools.compress(pos, regular))
        forms = list(itertools.compress(forms, regular))
    head = list(map(_HEAD_NUMBER.__getitem__, heads))
    if max(head) > k or any(map(operator.eq, head, range(1, k + 1))):
        return None
    deleted = list(map(punct, pos))
    if null is not None and null in forms:
        deleted = list(map(operator.or_, map(null.__eq__, forms), deleted))
    if skip_long and k - sum(deleted) > 4:
        return UNCHECKED
    return _tree_check(head, deleted)


class _Judged(dict):
    """A rule on the text of UTF-8 column cells that judges each distinct
    cell once: its ``__getitem__`` decodes the cell and applies the rule.
    It holds at most ``_MEMO_CELLS`` cells of at most ``_MEMO_CELL_BYTES``
    bytes each, and forgets them all to take one more; a longer cell is
    decoded and judged each time it comes."""

    __slots__ = ("rule",)

    def __init__(self, rule: Callable[[str], bool]):
        super().__init__()
        self.rule = rule

    def __missing__(self, cell: bytes) -> bool:
        judged = self.rule(cell.decode())
        if len(cell) <= _MEMO_CELL_BYTES:
            if len(self) >= _MEMO_CELLS:
                self.clear()
            self[cell] = judged
        return judged


def gather_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted list of treebank files.

    Directories are searched recursively for files named *.conllu and
    *.conll. A file reached twice, as compared by ``Path.resolve``, is kept
    only where it first appears, as it was given.
    """
    out: dict[Path, Path] = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            found = sorted(q for pat in ("*.conllu", "*.conll")
                           for q in p.rglob(pat) if q.is_file())
        elif p.is_file():
            found = [p]
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
        for q in found:
            out.setdefault(q.resolve(), q)
    return list(out.values())
