import io
import itertools
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmtest import (
    ExclusionReason,
    LinearizedTree,
    ParseError,
    PreprocessConfig,
    RawSentence,
    RawToken,
    Scheme,
    gather_files,
    parse_treebank,
    preprocess,
)
from ddmtest import cli, treebank
from ddmtest.pipeline import LanguageTally
from ddmtest.treebank import clean_sentence, clean_treebank

DATA = Path(__file__).parent / "data"


def tok(i, head, form="w", pos="X", deprel="dep", **kw):
    return RawToken(id=i, head=head, form=form, pos=pos, deprel=deprel, **kw)


def sentence(*tokens):
    return RawSentence(tokens=list(tokens), source_id="t")


def conllu_line(i, form="w", pos="X", head=0, deprel="dep"):
    return f"{i}\t{form}\t_\t{pos}\t_\t_\t{head}\t{deprel}\t_\t_"


class TestParse:
    def test_three_token_sentence(self):
        text = "\n".join([
            conllu_line(1, "A", head=2),
            conllu_line(2, "B", head=0),
            conllu_line(3, "C", head=2),
        ]) + "\n"
        (sent,) = parse_treebank(text)
        assert [t.id for t in sent.tokens] == [1, 2, 3]
        assert [t.head for t in sent.tokens] == [2, 0, 2]

    def test_range_line_flagged(self):
        text = "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n" + \
            conllu_line(1, head=2) + "\n" + conllu_line(2, head=0) + "\n"
        (sent,) = parse_treebank(text)
        assert sent.tokens[0].is_range_token
        assert not sent.tokens[1].is_range_token

    def test_two_blocks_two_sentences(self):
        text = conllu_line(1) + "\n\n" + conllu_line(1) + "\n"
        assert len(list(parse_treebank(text))) == 2

    def test_empty_node_flagged(self):
        text = "\n".join([
            conllu_line(1, head=0),
            "1.1\tE\t_\t_\t_\t_\t_\t_\t_\t_",
        ])
        (sent,) = parse_treebank(text)
        assert sent.tokens[1].is_empty_node
        assert sent.tokens[1].head == 0

    def test_sent_id_comment(self):
        text = "# sent_id = abc-42\n" + conllu_line(1)
        (sent,) = parse_treebank(text)
        assert sent.source_id == "abc-42"

    def test_sent_id_comment_without_value(self):
        text = "# sent_id = a\n# sent_id\n" + conllu_line(1) + "\n\n" + \
            "# sent_id\n" + conllu_line(1)
        errors: list[ParseError] = []
        ids = [s.source_id for s in parse_treebank(text, errors=errors)]
        assert ids == ["a", "2"]
        assert errors == []

    def test_ordinal_when_no_sent_id(self):
        text = conllu_line(1) + "\n\n" + conllu_line(1)
        ids = [s.source_id for s in parse_treebank(text)]
        assert ids == ["1", "2"]

    def test_accepts_binary_stream(self):
        stream = io.BytesIO((conllu_line(1) + "\n").encode("utf-8"))
        assert len(list(parse_treebank(stream))) == 1

    def test_crlf_lines(self):
        text = conllu_line(1) + "\r\n\r\n" + conllu_line(1) + "\r\n"
        assert len(list(parse_treebank(text))) == 2

    @pytest.mark.parametrize("bad_line", [
        "1\tonly\tthree",                       # wrong column count
        conllu_line("x"),                       # non-numeric id
        conllu_line(1, head="y"),               # non-numeric head
        conllu_line(0, head=2),                 # id < 1
        conllu_line(3, head=3),                 # own head
    ])
    def test_malformed_sentence_skipped_and_counted(self, bad_line):
        text = bad_line + "\n\n" + conllu_line(1) + "\n"
        errors: list[ParseError] = []
        sentences = list(parse_treebank(text, errors=errors))
        assert len(sentences) == 1  # the good one survives
        assert len(errors) == 1
        assert errors[0].line_no == 1

    @pytest.mark.parametrize("read", [parse_treebank, clean_treebank])
    def test_line_of_many_tabs_is_counted_not_split(self, read):
        """A 2.1 MB line of 700,001 columns is one parse error that gives
        its column count, and reading it holds less than four times the
        line: its columns are counted before the line is split."""
        line = b"1" + b"\tab" * 700_000
        data = line + b"\n\n" + conllu_line(1).encode()
        errors: list[ParseError] = []
        tracemalloc.start()
        try:
            read_back = list(read(data, "conllu", errors=errors))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read_back) == 1
        assert [(e.line_no, e.message) for e in errors] == [
            (1, "expected 10 columns, got 700001")]
        assert peak < 4 * len(line)

    def test_error_names_line_number(self):
        text = conllu_line(1, head=2) + "\n" + "1\tbad\n\n" + conllu_line(1)
        errors: list[ParseError] = []
        list(parse_treebank(text, errors=errors))
        assert errors[0].line_no == 2
        assert "column" in str(errors[0])

    def test_ids_must_increase(self):
        text = conllu_line(2, head=0) + "\n" + conllu_line(1, head=2)
        errors: list[ParseError] = []
        assert list(parse_treebank(text, errors=errors)) == []
        assert len(errors) == 1

    def test_one_error_per_bad_sentence(self):
        text = "junk\nmore junk\n\n" + conllu_line(1)
        errors: list[ParseError] = []
        assert len(list(parse_treebank(text, errors=errors))) == 1
        assert len(errors) == 1

    def test_str_breaks_lines_at_newline_only(self):
        text = conllu_line(1, form="a\u2028b\x0bc\x85") + "\n" + \
            conllu_line(2, head=1, form="\x1c") + "\n"
        errors: list[ParseError] = []
        (sent,) = parse_treebank(text, errors=errors)
        assert errors == []
        assert [t.form for t in sent.tokens] == ["a\u2028b\x0bc\x85", "\x1c"]

    @given(st.lists(st.text(st.sampled_from(
        "1\t_#=X \r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff"), max_size=40),
        max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_str_and_bytes_give_the_same_sentences(self, lines):
        text = "\n".join(lines)
        parsed = []
        for data in (text, text.encode("utf-8")):
            errors: list[ParseError] = []
            parsed.append((list(parse_treebank(data, errors=errors)), errors))
        assert parsed[0] == parsed[1]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            list(parse_treebank("", fmt="tsv"))

    @pytest.mark.parametrize("kind", ["file", "str", "bytes"])
    def test_bom_prefixed_input_first_block_parses(self, kind, tmp_path):
        text = "\ufeff" + conllu_line(1) + "\n\n" + conllu_line(1) + "\n"
        p = tmp_path / "bom.conllu"
        p.write_text(text, encoding="utf-8")
        errors: list[ParseError] = []
        if kind == "file":
            with open(p, "rb") as fh:
                sentences = list(parse_treebank(fh, errors=errors))
        else:
            data = text if kind == "str" else p.read_bytes()
            sentences = list(parse_treebank(data, errors=errors))
        assert errors == []
        assert [s.tokens[0].id for s in sentences] == [1, 1]

    def test_bom_only_stripped_at_start(self):
        text = conllu_line(1) + "\n\n\ufeff" + conllu_line(1) + "\n"
        errors: list[ParseError] = []
        assert len(list(parse_treebank(text, errors=errors))) == 1
        assert errors[0].line_no == 3

    def test_invalid_utf8_line_is_one_parse_error(self):
        data = (conllu_line(1).encode() + b"\n\n"
                + conllu_line(1, form="\xff").encode("latin-1") + b"\n"
                + b"2\t\xc3(\t_\tX\t_\t_\t1\tdep\t_\t_\n\n"
                + conllu_line(1).encode() + b"\n")
        errors: list[ParseError] = []
        sentences = list(parse_treebank(io.BytesIO(data), errors=errors))
        assert len(sentences) == 2
        assert [(e.line_no, e.message) for e in errors] == [(3, "invalid UTF-8")]

    def test_error_names_its_source(self):
        errors: list[ParseError] = []
        list(parse_treebank("junk\n", treebank_id="a/b.conllu", errors=errors))
        assert errors == [ParseError(1, "expected 10 columns, got 1",
                                     "a/b.conllu")]
        assert str(errors[0]) == "a/b.conllu: line 1: expected 10 columns, got 1"
        assert str(ParseError(4, "bad")) == "line 4: bad"

    @pytest.mark.parametrize("idc", ["\u0661", "1_0", " 1", "+1", "\u00b2"])
    def test_only_ascii_digits_are_ids(self, idc):
        errors: list[ParseError] = []
        text = conllu_line(idc) + "\n"
        assert list(parse_treebank(text, errors=errors)) == []
        assert errors[0].message == f"non-numeric token id {idc!r}"

    @pytest.mark.parametrize("head", ["\u0661", "1_0", " 1", "-1"])
    def test_only_ascii_digits_are_heads(self, head):
        errors: list[ParseError] = []
        text = conllu_line(1, head=head) + "\n"
        assert list(parse_treebank(text, errors=errors)) == []
        assert errors[0].message == f"non-numeric head {head!r}"

    def test_conllx_uses_coarse_pos_column(self):
        line = "1\tform\tlemma\tZ:\tZZ\t_\t0\tdep\t_\t_"
        (sent,) = parse_treebank(line, fmt="conllx")
        assert sent.tokens[0].pos == "Z:"

    def test_realistic_mixed_block(self):
        text = "\n".join([
            "# sent_id = mixed-1",
            "# text = Don't go!",
            "1-2\tDon't\t_\t_\t_\t_\t_\t_\t_\t_",
            "1\tDo\tdo\tAUX\tVBP\t_\t3\taux\t_\t_",
            "2\tn't\tnot\tPART\tRB\t_\t3\tadvmod\t_\t_",
            "3\tgo\tgo\tVERB\tVB\t_\t0\troot\t_\t_",
            "3.1\tE\t_\t_\t_\t_\t_\t_\t3:dep\t_",
            "4\t!\t!\tPUNCT\t.\t_\t3\tpunct\t_\t_",
        ])
        (sent,) = parse_treebank(text)
        assert sent.source_id == "mixed-1"
        flags = [(t.is_range_token, t.is_empty_node) for t in sent.tokens]
        assert flags == [(True, False), (False, False), (False, False),
                         (False, False), (False, True), (False, False)]
        tree = preprocess(sent)
        assert tree == LinearizedTree(3, [(1, 3), (2, 3)])


class TestPreprocess:
    def test_identity_tree(self):
        s = sentence(tok(1, 2), tok(2, 0), tok(3, 2))
        tree = preprocess(s)
        assert tree == LinearizedTree(3, [(1, 2), (2, 3)])

    def test_punct_reattachment(self):
        s = sentence(tok(1, 0, form="A"),
                     tok(2, 1, form=",", pos="PUNCT"),
                     tok(3, 2, form="B"))
        tree = preprocess(s)
        assert tree == LinearizedTree(2, [(1, 2)])

    def test_two_cycle(self):
        s = sentence(tok(1, 2), tok(2, 1))
        assert preprocess(s) is ExclusionReason.CYCLE

    def test_chained_reattachment(self):
        s = sentence(tok(1, 0), tok(2, 1, pos="PUNCT"), tok(3, 2, pos="PUNCT"),
                     tok(4, 3))
        assert preprocess(s) == LinearizedTree(2, [(1, 2)])

    def test_deleted_root_single_child_becomes_root(self):
        s = sentence(tok(1, 2), tok(2, 0, pos="PUNCT"))
        assert preprocess(s) == LinearizedTree(1, [])

    def test_deleted_root_two_children_multiple_roots(self):
        s = sentence(tok(1, 2), tok(2, 0, pos="PUNCT"), tok(3, 2))
        assert preprocess(s) is ExclusionReason.MULTIPLE_ROOTS

    def test_all_punct_empty(self):
        s = sentence(tok(1, 0, pos="PUNCT"))
        assert preprocess(s) is ExclusionReason.EMPTY_AFTER_PREPROCESSING

    def test_no_tokens_empty(self):
        assert preprocess(sentence()) is ExclusionReason.EMPTY_AFTER_PREPROCESSING

    def test_head_outside_sentence_malformed(self):
        s = sentence(tok(1, 9), tok(2, 0))
        assert preprocess(s) is ExclusionReason.MALFORMED

    def test_duplicate_ids_malformed(self):
        s = sentence(tok(1, 0), tok(1, 0))
        assert preprocess(s) is ExclusionReason.MALFORMED

    def test_cycle_among_deleted_ancestors(self):
        s = sentence(tok(1, 2, pos="PUNCT"), tok(2, 1, pos="PUNCT"), tok(3, 1))
        assert preprocess(s) is ExclusionReason.CYCLE

    def test_empty_node_removed_by_default(self):
        s = sentence(tok(1, 2), tok(2, 0),
                     tok(2, 0, is_empty_node=True), tok(3, 2))
        assert preprocess(s) == LinearizedTree(3, [(1, 2), (2, 3)])

    def test_hamledt_null_removed_under_prague_scheme(self):
        cfg = PreprocessConfig(scheme=Scheme.PRAGUE)
        s = sentence(tok(1, 0), tok(2, 1, form="NULL"), tok(3, 2))
        assert preprocess(s, cfg) == LinearizedTree(2, [(1, 2)])

    def test_prague_punct_tag(self):
        cfg = PreprocessConfig(scheme=Scheme.PRAGUE)
        s = sentence(tok(1, 0), tok(2, 1, pos="Z:-------------"))
        assert preprocess(s, cfg) == LinearizedTree(1, [])

    def test_generic_scheme_matches_bare_punct_form_tags(self):
        cfg = PreprocessConfig(scheme=Scheme.GENERIC)
        for tag in (",", ".", "PUNCT", "Punc"):
            s = sentence(tok(1, 0), tok(2, 1, pos=tag))
            assert preprocess(s, cfg) == LinearizedTree(1, [])

    def test_custom_punct_predicate(self):
        cfg = PreprocessConfig(punct_predicate=lambda t: t.deprel == "punct")
        s = sentence(tok(1, 0), tok(2, 1, deprel="punct"), tok(3, 1))
        assert preprocess(s, cfg) == LinearizedTree(2, [(1, 2)])

    def test_custom_predicates_are_read_for_truth(self):
        """A custom predicate may give any value: a match object deletes
        its token as True does, and None keeps it as False does."""
        s = sentence(tok(1, 0), tok(2, 1, pos="Z:"), tok(3, 2, form="NULL"),
                     tok(4, 3))
        by_match = PreprocessConfig(
            punct_predicate=lambda t: re.match("Z", t.pos),
            empty_node_predicate=lambda t: re.fullmatch("NULL", t.form))
        by_bool = PreprocessConfig(
            punct_predicate=lambda t: t.pos.startswith("Z"),
            empty_node_predicate=lambda t: t.form == "NULL")
        assert clean_sentence(s, by_match) == (2, [(2, 1)])
        assert clean_sentence(s, by_bool) == (2, [(2, 1)])

    def test_direction_is_discarded(self):
        # reversing every dependency yields the same undirected tree
        down = sentence(tok(1, 2), tok(2, 0), tok(3, 2))
        up = sentence(tok(1, 0), tok(2, 1), tok(3, 2))
        assert preprocess(down) == preprocess(up)


def render_conllu(tree: LinearizedTree) -> str:
    """Orient the undirected tree from vertex 1 and print it as CoNLL-U."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(1, tree.n + 1)}
    for u, v in tree.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    heads = {1: 0}
    stack = [1]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in heads:
                heads[v] = u
                stack.append(v)
    return "\n".join(conllu_line(v, head=heads[v]) for v in range(1, tree.n + 1))


@st.composite
def random_sentences(draw):
    """Random single-rooted head assignment with random punctuation marks."""
    n = draw(st.integers(1, 9))
    heads = [0] + [draw(st.integers(1, i)) for i in range(1, n)]
    punct = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    tokens = [tok(i + 1, heads[i], pos="PUNCT" if punct[i] else "X")
              for i in range(n)]
    return sentence(*tokens)


class TestPreprocessProperties:
    @given(random_sentences())
    @settings(max_examples=200)
    def test_acyclic_input_never_cycles(self, s):
        result = preprocess(s)
        assert result is not ExclusionReason.CYCLE
        assert result is not ExclusionReason.MALFORMED

    @given(random_sentences())
    @settings(max_examples=200)
    def test_vertex_count_arithmetic(self, s):
        result = preprocess(s)
        deleted = sum(1 for t in s.tokens if t.pos == "PUNCT")
        if isinstance(result, LinearizedTree):
            assert result.n == len(s.tokens) - deleted

    @given(random_sentences())
    @settings(max_examples=100)
    def test_idempotent_through_rendering(self, s):
        result = preprocess(s)
        if not isinstance(result, LinearizedTree):
            return
        (again,) = parse_treebank(render_conllu(result))
        assert preprocess(again) == result

    def test_surface_order_preserved(self):
        # survivors keep their relative order: token 1 < token 4 before and after
        s = sentence(tok(1, 4), tok(2, 1, pos="PUNCT"), tok(3, 4, pos="PUNCT"),
                     tok(4, 0), tok(5, 4))
        tree = preprocess(s)
        assert tree == LinearizedTree(3, [(1, 2), (2, 3)])


def reference_tree_check(head: list[int], deleted: list[bool]):
    """``treebank._tree_check`` as it was before it walked each token once:
    ``head[i]`` is the index of token i's head (-1 for the root) and
    ``deleted[i]`` says whether token i goes. Overwrites ``head``. Kept as
    the reference the check is compared with."""
    n_all = len(head)
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


def assert_agrees_with_reference(head: tuple[int, ...],
                                 deleted: tuple[bool, ...]):
    """``_tree_check`` gives what the reference gives, of the same types:
    the reason, or n and the edges in order."""
    got = treebank._tree_check([h + 1 for h in head], list(deleted))
    want = reference_tree_check(list(head), list(deleted))
    assert repr(got) == repr(want), (head, deleted)


@st.composite
def head_arrays(draw, max_tokens=16):
    """A head index for each token, -1 (the root) or another token's, and
    whether each token is deleted."""
    n = draw(st.integers(1, max_tokens))
    head = tuple(h + (h >= i) for i, h in enumerate(
        draw(st.lists(st.integers(-1, n - 2), min_size=n, max_size=n))))
    return head, tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))


class TestTreeCheck:
    def test_every_small_input_agrees_with_reference(self):
        for n in range(1, 6):
            for head in itertools.product(range(-1, n), repeat=n):
                if any(h == i for i, h in enumerate(head)):
                    continue
                for deleted in itertools.product((False, True), repeat=n):
                    assert_agrees_with_reference(head, deleted)

    @given(head_arrays())
    @settings(max_examples=2000, deadline=None)
    def test_agrees_with_reference(self, drawn):
        assert_agrees_with_reference(*drawn)


def count_blocks(lines: list[bytes]) -> int:
    """Blocks of an input, counted without the parser: runs of non-blank
    lines holding a line that is not a comment (an undecodable line counts)."""
    blocks, in_block = 0, False
    for k, raw in enumerate(lines):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        if text is not None:
            if k == 0:
                text = text.removeprefix("\ufeff")
            if not text.strip():
                in_block = False
                continue
            if text.startswith("#"):
                continue
        if not in_block:
            blocks += 1
            in_block = True
    return blocks


token_lines = st.builds(
    lambda i, head, pos: conllu_line(i, pos=pos, head=head).encode(),
    st.integers(0, 9), st.integers(0, 9), st.sampled_from(["X", "PUNCT"]))
noise_lines = st.binary(max_size=30).map(lambda b: b.replace(b"\n", b""))
input_lines = st.lists(st.one_of(
    token_lines, token_lines, st.just(b""), st.just(b"# sent_id = s"),
    st.just(b"# sent_id"),
    st.just(b"1-2\t_\t_\t_\t_\t_\t_\t_\t_\t_"), noise_lines), max_size=40)


class TestTotality:
    @given(input_lines, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_block_has_one_fate(self, lines, bom):
        if bom and lines:
            lines = [b"\xef\xbb\xbf" + lines[0]] + lines[1:]
        errors: list[ParseError] = []
        sentences = list(parse_treebank(b"\n".join(lines), errors=errors))
        fates = [preprocess(s) for s in sentences]
        trees = sum(isinstance(f, LinearizedTree) for f in fates)
        exclusions = sum(isinstance(f, ExclusionReason) for f in fates)
        assert trees + exclusions == len(sentences)
        assert count_blocks(lines) == trees + exclusions + len(errors)


class TestFixtureFile:
    def test_twelve_sentences(self):
        with open(DATA / "preproc_fixture.conllu", encoding="utf-8") as fh:
            sentences = list(parse_treebank(fh))
        assert len(sentences) == 12

    def test_expected_outcomes(self):
        expected = {
            "s01-plain-three-words": LinearizedTree(3, [(1, 2), (2, 3)]),
            "s02-punct-leaf-deleted": LinearizedTree(3, [(1, 2), (2, 3)]),
            "s03-reattach-through-punct": LinearizedTree(2, [(1, 2)]),
            "s04-chained-reattachment": LinearizedTree(2, [(1, 2)]),
            "s05-empty-node-deleted": LinearizedTree(3, [(1, 2), (2, 3)]),
            "s06-range-token-dropped": LinearizedTree(3, [(1, 2), (2, 3)]),
            "s07-two-cycle": ExclusionReason.CYCLE,
            "s08-two-roots": ExclusionReason.MULTIPLE_ROOTS,
            "s09-only-punctuation": ExclusionReason.EMPTY_AFTER_PREPROCESSING,
            "s10-deleted-root-single-child": LinearizedTree(1, []),
            "s11-cycle-beside-valid-root": ExclusionReason.CYCLE,
            "s12-punct-subtree-reattached": LinearizedTree(3, [(1, 2), (1, 3)]),
        }
        with open(DATA / "preproc_fixture.conllu", encoding="utf-8") as fh:
            got = {s.source_id: preprocess(s) for s in parse_treebank(fh)}
        assert got == expected


class TestGatherFiles:
    def test_recursive_directory(self, tmp_path):
        (tmp_path / "sub").mkdir()
        a = tmp_path / "a.conllu"
        b = tmp_path / "sub" / "b.conll"
        c = tmp_path / "ignored.txt"
        for p in (a, b, c):
            p.write_text("", encoding="utf-8")
        assert gather_files([tmp_path]) == [a, b]

    def test_explicit_file_any_extension(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("", encoding="utf-8")
        assert gather_files([p]) == [p]

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            gather_files([tmp_path / "nope"])

    def test_file_reached_twice_kept_once(self, tmp_path):
        (tmp_path / "sub").mkdir()
        a = tmp_path / "a.conllu"
        b = tmp_path / "b.conllu"
        for p in (a, b):
            p.write_text("", encoding="utf-8")
        again = tmp_path / "sub" / ".." / "a.conllu"
        assert gather_files([b, tmp_path, again, tmp_path]) == [b, a]
        assert gather_files([again, tmp_path]) == [again, b]


def reference_clean(data, fmt="conllu", cfg=PreprocessConfig()):
    """Each sentence's fate and the parse errors, read line by line."""
    errors: list[ParseError] = []
    fates = [clean_sentence(s, cfg)
             for s in parse_treebank(data, fmt, "t", errors)]
    return fates, errors


def block_clean(data, fmt="conllu", cfg=PreprocessConfig()):
    errors: list[ParseError] = []
    fates = list(clean_treebank(data, fmt, cfg, "t", errors))
    return fates, errors


INPUT_KINDS = ["binary stream", "bytes", "str", "text stream"]


def as_input(data: bytes, kind: str):
    """``data`` as one of the ``INPUT_KINDS``, and the content that input
    holds: a ``str`` gets each byte that is not UTF-8 as a lone surrogate."""
    content = data if kind in ("binary stream", "bytes") else \
        data.decode("utf-8", "surrogateescape")
    if kind == "binary stream":
        return io.BytesIO(content), content
    if kind == "text stream":
        return io.StringIO(content), content
    return content, content


class TextLines:
    """A text stream that is not an ``io.TextIOBase``: ``read``,
    ``readline`` and iteration over ``lines``, each made only once the
    reading gets to it."""

    def __init__(self, lines):
        self.lines, self.held = iter(lines), ""   # held: part of a line

    def readline(self):
        line, self.held = self.held or next(self.lines, ""), ""
        return line

    def read(self, size):
        pieces = [self.held]
        while sum(map(len, pieces)) < size:
            pieces.append(next(self.lines, ""))
            if not pieces[-1]:
                break
        text = "".join(pieces)
        self.held = text[size:]
        return text[:size]

    def __iter__(self):
        return iter(self.readline, "")


def token_line(i, head, form="w", pos="X"):
    return f"{i}\t{form}\t_\t{pos}\t_\t_\t{head}\tdep\t_\t_"


EXTRA_LINES = [
    "# sent_id = s", "# sent_id", "# text = a b",
    "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_", "0.1\tE\t_\t_\t_\t_\t_\t_\t_\t_",
    "1\tonly\tthree", " ", "\t" * 9,
    "\x0c", "\u2028", "\ufeff" + token_line(1, 0), token_line(1, "_"),
    token_line("x", 0), token_line("01", 0), token_line(0, 1),
    token_line(1, 1), token_line(1, 9), token_line(1, "01"),
]


@st.composite
def noisy_blocks(draw):
    """One block's lines: ids 1..k with heads in 0..k, then a few edits
    (a head that is the token itself, above k or not plain digits; extra
    lines; a last empty node k.1; duplicated or swapped lines)."""
    k = draw(st.integers(0, 6))
    forms = st.sampled_from(["w", "NULL", ",", "x"])
    tags = st.sampled_from(["X", "PUNCT", "Z:", "Zx", ",", "Punc", "N"])
    heads = [draw(st.integers(0, k)) for _ in range(k)]
    heads = [0 if h == i else h for i, h in enumerate(heads, start=1)]
    if heads and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(1, k))
        heads[i - 1] = draw(st.sampled_from([i, k + 1, "_", "01", "00"]))
    lines = [token_line(i, h, draw(forms), draw(tags))
             for i, h in enumerate(heads, start=1)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        edit = draw(st.sampled_from(["extra", "empty", "copy", "swap"]))
        at = draw(st.integers(0, len(lines)))
        if edit == "extra":
            lines.insert(at, draw(st.sampled_from(EXTRA_LINES)))
        elif edit == "empty":
            lines.insert(at, f"{k}.1\tE\t_\t_\t_\t_\t_\t_\t_\t_")
        elif lines and edit == "copy":
            lines.insert(at, lines[at - 1])
        elif len(lines) > 1:
            lines[at - 1], lines[at - 2] = lines[at - 2], lines[at - 1]
    return [line.encode() for line in lines]


@st.composite
def tree_blocks(draw):
    """One block's lines: a tree on ids 1..k, 5 <= k <= 8, each token's head
    drawn from the tokens before it in a random order."""
    k = draw(st.integers(5, 8))
    order = draw(st.permutations(range(1, k + 1)))
    heads = {order[0]: 0}
    for j in range(1, k):
        heads[order[j]] = order[draw(st.integers(0, j - 1))]
    tags = st.sampled_from(["X", "X", "PUNCT", "Z:", "N"])
    return [token_line(i, heads[i], pos=draw(tags)).encode()
            for i in range(1, k + 1)]


@st.composite
def noisy_inputs(draw, blocks=noisy_blocks()):
    """Blocks between separator lines, in LF or CRLF, with an optional BOM,
    stray bytes, invalid UTF-8 and no final newline."""
    blocks = draw(st.lists(blocks, max_size=8))
    separators = st.sampled_from(
        [b""] * 12 + [b"\r", b" \t", b"\x0b", "\u2029".encode(), b"\xff"])
    noise = st.binary(max_size=12).map(lambda b: b.replace(b"\n", b""))
    eol = b"\r\n" if draw(st.integers(0, 4)) == 0 else b"\n"
    lines: list[bytes] = []
    for block in blocks:
        if draw(st.integers(0, 9)) == 0:
            block = block + [draw(noise)]
        lines += block + [draw(separators)]
    data = eol.join(lines)
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data


# read and carry sizes small enough that chunk cuts land anywhere
chunk_sizes = st.tuples(st.integers(1, 80), st.integers(1, 400))


class TestCleanTreebank:
    @given(noisy_inputs(), st.sampled_from(list(Scheme)),
           st.sampled_from(["conllu", "conllx"]), chunk_sizes,
           st.sampled_from(INPUT_KINDS))
    @settings(max_examples=400, deadline=None)
    def test_matches_line_by_line(self, data, scheme, fmt, sizes, kind):
        cfg = PreprocessConfig(scheme=scheme)
        stream, content = as_input(data, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treebank, "_CHUNK_BYTES", sizes[0])
            mp.setattr(treebank, "_MAX_CARRY_BYTES", sizes[1])
            got = block_clean(stream, fmt, cfg)
        assert got == reference_clean(content, fmt, cfg)

    @given(noisy_inputs(), st.sampled_from(list(Scheme)),
           st.sampled_from(INPUT_KINDS))
    @settings(max_examples=100, deadline=None)
    def test_matches_line_by_line_at_full_size(self, data, scheme, kind):
        cfg = PreprocessConfig(scheme=scheme)
        stream, content = as_input(data, kind)
        assert block_clean(stream, cfg=cfg) == reference_clean(content,
                                                               cfg=cfg)

    @given(noisy_inputs(), st.sampled_from(list(Scheme)), chunk_sizes,
           st.sampled_from(INPUT_KINDS))
    @settings(max_examples=100, deadline=None)
    def test_cli_fold_matches_line_by_line_fold(self, data, scheme, sizes,
                                                kind):
        cfg = PreprocessConfig(scheme=scheme)
        stream, content = as_input(data, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treebank, "_CHUNK_BYTES", sizes[0])
            mp.setattr(treebank, "_MAX_CARRY_BYTES", sizes[1])
            tally, exclusions, shown = cli._fold_stream(
                stream, "conllu", cfg, "t")
        fates, errors = reference_clean(content, cfg=cfg)
        reference = LanguageTally()
        for fate in fates:
            if not isinstance(fate, ExclusionReason):
                reference.add(*fate)
        assert (tally.cells, tally.trees) == (reference.cells, reference.trees)
        expected = Counter(f.value for f in fates
                           if isinstance(f, ExclusionReason))
        if errors:
            expected["parse_error"] = len(errors)
        assert exclusions == expected
        assert shown == [f"ddmtest: skipped sentence ({e})" for e in errors]

    @pytest.fixture
    def by_line(self, monkeypatch):
        """The first lines of the pieces the line-by-line parser reads."""
        starts = []
        real = treebank._parse_lines

        def spy(lines, treebank_id, errors, first_line=1):
            starts.append(first_line)
            return real(lines, treebank_id, errors, first_line)

        monkeypatch.setattr(treebank, "_parse_lines", spy)
        return starts

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_well_formed_blocks_take_no_line_reader(self, scheme, by_line):
        # blank lines are empty or whitespace-only, as for the line reader
        text = "\ufeff# sent_id = a\n# text = a b\n" + "\n".join([
            "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_", token_line(1, 3),
            "0.1\tE\t_\t_\t_\t_\t_\t_\t_\t_", token_line(2, 3, pos="PUNCT"),
            token_line(3, 0, form="NULL"), token_line(4, 3),
            "4.1\tE\t_\t_\t_\t_\t_\t_\t_\t_", "", "",
            token_line(1, 2), token_line(2, 0), token_line(3, 2), " \t",
            token_line(1, 0), "", token_line(1, 0), token_line(2, 1)])
        # a run of blank lines ends a block, and an input may end in one
        one, two = [token_line(1, 0)], [token_line(1, 2), token_line(2, 0)]
        three = [token_line(1, 0), token_line(2, 1), token_line(3, 1)]
        texts = {text: 4}
        for end in ("\n", "\r\n"):
            for blank_run in (["", "", ""], ["", ""], ["", " "]):
                texts[end.join(one + blank_run + two) + end] = 2
            texts[end.join(one + [""] + two + [""]) + end] = 2
            # and so may a blank line open the input
            for opening in (" ", "\t", "\x0b\x0c\x1c\x1f"):
                texts[end.join([opening] + three + [""] + three) + end] = 2
        cfg = PreprocessConfig(scheme=scheme)
        # 22 bytes, a token line and its end: token_line(1, 0) + "\n\n \n"
        # + token_line(1, 0) + "\n" gives a chunk that opens with " \n"
        texts["\n".join(one + ["", " "] + one) + "\n"] = 2
        for chunk_bytes in (treebank._CHUNK_BYTES, 22):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(treebank, "_CHUNK_BYTES", chunk_bytes)
                for text, sentences in texts.items():
                    for kind in INPUT_KINDS:
                        stream, content = as_input(text.encode(), kind)
                        by_line.clear()     # the reference reads by line
                        fates, errors = block_clean(stream, cfg=cfg)
                        if kind in ("binary stream", "bytes"):
                            assert by_line == [], (text, kind, chunk_bytes)
                        assert (fates, errors) == reference_clean(content,
                                                                  cfg=cfg)
                        assert errors == [] and len(fates) == sentences

    @pytest.mark.parametrize("lines", [
        [token_line(1, 0), "1\tonly\tthree"],
        [token_line(1, 0) + "\t_", token_line(2, 1)[:-2]],   # 11 + 9
        [token_line(1, 0)[:-2], "2\t2\t_\tX\tX\t_\t1\t1\t_\t_\t_"],  # 9 + 11
        [token_line("x1", 0)],
        [token_line(1, 0), token_line(3, 1)],                # a gap
        [token_line(1, 0), token_line(1, 0)],                # duplicate
        [token_line(2, 0), token_line(1, 2)],                # order
        [token_line("01", 0)],
        [token_line(0, 1)],
        [token_line(1, "_")],
        [token_line(1, "\u0661")],
        [token_line(1, "01")],
        [token_line(1, 0), token_line(2, 3)],                # above k
        [token_line(1, 0), token_line(2, 2)],                # own head
        [token_line(1, "0\r")],                              # "\r" in HEAD
        [token_line(1, 0), "\ufeff" + token_line(2, 1)],
        [token_line(1, 0), "# c", token_line(2, 1)],         # comment
        [token_line(1, 0), "\u2028", token_line(1, 0)],      # non-ASCII blank
        [token_line(i, i - 1) for i in range(1, 1026)],      # 1,025 ids
    ])
    def test_each_fallback_reads_by_line(self, lines, by_line):
        data = ("\n".join([token_line(1, 0), ""] + lines
                          + ["", token_line(1, 0)])).encode()
        got = block_clean(data)
        assert by_line == [3]
        assert got == reference_clean(data)

    def test_invalid_utf8_chunk_reads_by_line(self, by_line):
        # only the blocks holding a byte that is not UTF-8, in a token line
        # or in a comment, go to the line reader
        data = "\n".join([token_line(1, 0), "", "1\t\udcff" + token_line(
            1, 0)[1:], "", token_line(1, 0), "", "# \udcff", token_line(1, 0)]
        ).encode("utf-8", "surrogateescape")
        fates, errors = block_clean(data)
        assert by_line == [3, 7]
        assert (fates, errors) == reference_clean(data)
        assert fates == [(1, [])] * 2
        assert [(e.line_no, e.message) for e in errors] == [
            (3, "invalid UTF-8"), (7, "invalid UTF-8")]

    def test_crlf_takes_column_reader(self, by_line):
        data = ("# sent_id = a\r\n" + token_line(1, 0) + "\r\n\r\n"
                + token_line(1, 0) + "\r\n" + token_line(2, 1)
                + "\r\n").encode()
        got = block_clean(data)
        assert by_line == []
        assert got == reference_clean(data) == ([(1, []), (2, [(2, 1)])], [])

    def test_bom_only_stripped_at_input_start(self, monkeypatch):
        monkeypatch.setattr(treebank, "_CHUNK_BYTES", 1)   # a line a chunk
        text = "\ufeff" + token_line(1, 0) + "\n \n\ufeff" + token_line(1, 0)
        for kind in INPUT_KINDS:
            stream, content = as_input(text.encode(), kind)
            fates, errors = block_clean(stream)
            assert (fates, errors) == reference_clean(content)
            assert fates == [(1, [])] and errors[0].line_no == 3, kind

    def test_run_without_blank_line_reads_rest_by_line(self, by_line,
                                                       monkeypatch):
        monkeypatch.setattr(treebank, "_CHUNK_BYTES", 16)
        monkeypatch.setattr(treebank, "_MAX_CARRY_BYTES", 64)
        lines = [token_line(1, 0), "", token_line(1, 0)] + [
            token_line(i, i - 1) for i in range(2, 9)] + [token_line(8, 0)]
        data = "\n".join(lines).encode()
        fates, errors = block_clean(data)
        assert by_line == [3]
        assert (fates, errors) == reference_clean(data)
        assert [e.line_no for e in errors] == [11]

    @pytest.mark.parametrize("limit", [None, 1 << 40],
                             ids=["carry limit", "no carry limit"])
    def test_run_without_blank_line_keeps_memory_flat(self, limit,
                                                      monkeypatch):
        """The peak for an 8 MiB run with no blank line is that of a 2 MiB
        run. A broken first line makes the line reader skip the rest, so
        only the reading loop can hold the run; with no carry limit
        (``limit``) it holds all of it."""
        if limit is not None:
            monkeypatch.setattr(treebank, "_MAX_CARRY_BYTES", limit)
        line = token_line(1, 0, form="w" * 1000) + "\n"

        def peak(mib):
            data = ("1\tbroken\n" + line * (mib * 1024 * 1024 // len(line))
                    ).encode()
            tracemalloc.start()
            try:
                fates, errors = block_clean(data)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (fates, len(errors)) == ([], 1)
            return top

        grows = peak(8) - peak(2)
        if limit is None:
            assert grows < 1 << 20
        else:
            assert grows > 1 << 20      # the check sees a loop without it

    @given(noisy_inputs(), st.sampled_from(list(Scheme)), chunk_sizes,
           st.integers(0, 8), st.sampled_from(INPUT_KINDS))
    @settings(max_examples=200, deadline=None)
    def test_matches_line_by_line_under_small_block_cap(self, data, scheme,
                                                        sizes, cap, kind):
        cfg = PreprocessConfig(scheme=scheme)
        stream, content = as_input(data, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treebank, "_CHUNK_BYTES", sizes[0])
            mp.setattr(treebank, "_MAX_CARRY_BYTES", sizes[1])
            mp.setattr(treebank, "_MAX_BLOCK_TOKENS", cap)
            got = block_clean(stream, cfg=cfg)
            want = reference_clean(content, cfg=cfg)
        assert got == want

    @pytest.mark.parametrize("sizes", [None, (16, 16)],
                             ids=["by block", "rest by line"])
    def test_block_past_token_cap_is_one_parse_error(self, sizes,
                                                     monkeypatch):
        monkeypatch.setattr(treebank, "_MAX_BLOCK_TOKENS", 4)
        if sizes is not None:
            monkeypatch.setattr(treebank, "_CHUNK_BYTES", sizes[0])
            monkeypatch.setattr(treebank, "_MAX_CARRY_BYTES", sizes[1])
        lines = ([token_line(1, 0), "", "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_"]
                 + [token_line(i, i - 1) for i in range(1, 7)]  # lines 4-9
                 + ["# comment", token_line(7, 6), "",
                    token_line(1, 0), token_line(2, 1)])
        for kind in INPUT_KINDS:
            stream, content = as_input("\n".join(lines).encode(), kind)
            fates, errors = block_clean(stream)
            assert (fates, errors) == reference_clean(content), kind
            assert fates == [(1, []), (2, [(2, 1)])], kind
            # the range line is the first of the four tokens held
            assert [(e.line_no, e.message) for e in errors] == [
                (7, "more than 4 tokens")], kind

    @pytest.mark.parametrize("cap", [1024, 1 << 40],
                             ids=["block cap", "no block cap"])
    def test_run_of_token_lines_keeps_memory_flat(self, cap, monkeypatch):
        """The peak for a run of 40,000 valid token lines with no blank
        line is that of a run of 10,000: the line reader drops a block's
        tokens at the cap. With no cap it holds every one of them."""
        monkeypatch.setattr(treebank, "_MAX_BLOCK_TOKENS", cap)
        monkeypatch.setattr(treebank, "_MAX_CARRY_BYTES", 1 << 12)

        def peak(tokens):
            data = "".join(token_line(i, i - 1) + "\n"
                           for i in range(1, tokens + 1))
            data = (data + "\n" + token_line(1, 0)).encode()
            tracemalloc.start()
            try:
                fates, errors = block_clean(data)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if cap < tokens:
                assert fates == [(1, [])]
                assert [(e.line_no, e.message) for e in errors] == [
                    (cap + 1, f"more than {cap} tokens")]
            else:
                assert len(fates) == 2 and errors == []
            return top

        grows = peak(40_000) - peak(10_000)
        if cap < 10_000:
            assert grows < 1 << 20
        else:
            assert grows > 1 << 20      # the check sees a reader without it

    def test_custom_rules_read_by_line(self, by_line):
        text = (token_line(1, 0) + "\n" + token_line(2, 1, pos="P") + "\n\n"
                + token_line(1, 0) + "\n")
        cfg = PreprocessConfig(punct_predicate=lambda t: t.pos == "P")
        assert block_clean(text.encode(), cfg=cfg) == ([(1, []), (1, [])], [])
        assert by_line == [1, 4]


    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_str_with_lone_surrogates_reads_as_text(self, scheme, by_line):
        # a lone surrogate is text in a str, not a byte that is not UTF-8
        text = "\n".join([
            "# text = \udcff", token_line(1, 0, form="\ud800"),
            token_line(2, 1, pos="PUNCT\udfff"),
            token_line(3, 1, form="NULL", pos="\udc80"), "",
            token_line(1, 0, pos="Z\udcff"), "\udcff", "",
            token_line(1, 0)])
        cfg = PreprocessConfig(scheme=scheme)
        for stream in (text, io.StringIO(text)):
            by_line.clear()
            fates, errors = block_clean(stream, cfg=cfg)
            assert by_line == [1]       # text is read by line
            assert (fates, errors) == reference_clean(text, cfg=cfg)
            assert [(e.line_no, e.message) for e in errors] == [
                (7, "expected 10 columns, got 1")]
            assert len(fates) == 2

    @given(noisy_inputs(), st.sampled_from(list(Scheme)), st.integers(1, 80))
    @settings(max_examples=100, deadline=None)
    def test_text_stream_matches_line_by_line(self, data, scheme, size):
        cfg = PreprocessConfig(scheme=scheme)
        _, content = as_input(data, "str")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treebank, "_CHUNK_BYTES", size)     # the first read
            got = block_clean(TextLines(io.StringIO(content)), cfg=cfg)
        assert got == reference_clean(content, cfg=cfg)

    def test_text_stream_is_read_not_slurped(self):
        """The peak for 8 MiB of text read from a stream is that of 2 MiB.
        A broken first line makes the line reader skip the rest, so only
        the reading can hold the text."""
        line = token_line(1, 0, form="w" * 1000) + "\n"

        def peak(mib):
            lines = itertools.chain(["1\tbroken\n"], itertools.repeat(
                line, mib * 1024 * 1024 // len(line)))
            tracemalloc.start()
            try:
                fates, errors = block_clean(TextLines(lines))
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (fates, len(errors)) == ([], 1)
            return top

        assert peak(8) - peak(2) < 1 << 20


TAGS = ["PUNCT", "PUNC", "Punc", "PU", "Z", "Z:", "Zx", "Z　", "NULL",
        ",", "...", "«", "…", "、", "x\x1c", "\x85", " ",
        "N", "é", "١", "_", "", "﻿", "ＮＵＬＬ"]


def skip_clean(data, fmt="conllu", cfg=PreprocessConfig()):
    """``block_clean`` with the blocks of more than four words after the
    first tree left unchecked."""
    errors: list[ParseError] = []
    fates = list(clean_treebank(data, fmt, cfg, "t", errors, skip_long=True))
    return fates, errors


def path_block(k, root=1, **kw):
    """Token lines of a path 1..k whose root is ``root`` (0 for a cycle);
    each line's ``kw`` overrides by id."""
    return [token_line(i, kw.get(f"h{i}", 0 if i == root else
                                 i - 1 if i > root else i + 1),
                       pos=kw.get(f"p{i}", "X"))
            for i in range(1, k + 1)]


# noisy blocks, and trees long enough to go unchecked
with_trees = st.one_of(noisy_blocks(), noisy_blocks(), tree_blocks())


class TestSkipLong:
    def test_long_blocks_after_first_tree_go_unchecked(self):
        blocks = [
            path_block(5, root=0, h1=5),            # a cycle, checked
            path_block(5),                          # the first tree
            path_block(5, h3=0),                    # two roots
            path_block(6, p2="PUNCT", p6="PUNCT"),  # four words left
            path_block(5, h4=0)[:4] + [token_line(6, 0)],   # read by line
            path_block(5, root=0, h1=5),            # a cycle
            path_block(3),
        ]
        data = "\n\n".join("\n".join(b) for b in blocks).encode()
        full, errors = block_clean(data)
        assert full[0] is ExclusionReason.CYCLE and full[1][0] == 5
        assert full[2:] == [ExclusionReason.MULTIPLE_ROOTS, full[3],
                            ExclusionReason.MULTIPLE_ROOTS,
                            ExclusionReason.CYCLE, full[6]]
        assert full[3][0] == 4 and full[6][0] == 3 and errors == []
        assert skip_clean(data) == (
            full[:2] + [treebank.UNCHECKED] + full[3:5]
            + [treebank.UNCHECKED, full[6]], [])

    @given(noisy_inputs(with_trees), st.sampled_from(list(Scheme)),
           st.sampled_from(["conllu", "conllx"]), chunk_sizes,
           st.sampled_from(INPUT_KINDS))
    @settings(max_examples=300, deadline=None)
    def test_changes_only_long_fates(self, data, scheme, fmt, sizes, kind):
        """Each unchecked block stands where the full check gives a tree of
        more than four words or an exclusion, after the first tree; the
        parse errors are the same, and every block has one fate."""
        cfg = PreprocessConfig(scheme=scheme)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treebank, "_CHUNK_BYTES", sizes[0])
            mp.setattr(treebank, "_MAX_CARRY_BYTES", sizes[1])
            full, full_errors = block_clean(as_input(data, kind)[0], fmt, cfg)
            fates, errors = skip_clean(as_input(data, kind)[0], fmt, cfg)
        assert errors == full_errors
        assert len(fates) == len(full)
        assert [f if s is treebank.UNCHECKED else s
                for s, f in zip(fates, full)] == full
        trees = [i for i, f in enumerate(full) if type(f) is tuple]
        for i, (s, f) in enumerate(zip(fates, full)):
            if s is treebank.UNCHECKED:
                assert isinstance(f, ExclusionReason) or f[0] > 4
                assert trees[0] < i
        assert count_blocks(data.split(b"\n")) == (
            sum(type(s) is tuple for s in fates)
            + fates.count(treebank.UNCHECKED)
            + sum(isinstance(s, ExclusionReason) for s in fates)
            + len(errors))

    @given(noisy_inputs(with_trees), st.sampled_from(list(Scheme)),
           chunk_sizes, st.sampled_from(INPUT_KINDS))
    @settings(max_examples=100, deadline=None)
    def test_cli_fold_keeps_cells_errors_and_emptiness(self, data, scheme,
                                                       sizes, kind):
        cfg = PreprocessConfig(scheme=scheme)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treebank, "_CHUNK_BYTES", sizes[0])
            mp.setattr(treebank, "_MAX_CARRY_BYTES", sizes[1])
            full = cli._fold_stream(as_input(data, kind)[0], "conllu", cfg,
                                    "t")
            skipped = cli._fold_stream(as_input(data, kind)[0], "conllu",
                                       cfg, "t", skip_long=True)
        assert skipped[0].cells == full[0].cells
        assert (skipped[0].trees > 0) == (full[0].trees > 0)
        assert skipped[0].trees <= full[0].trees
        assert skipped[1]["parse_error"] == full[1]["parse_error"]
        assert skipped[2] == full[2]


class TestBytesReader:
    def test_blank_line_rule_agrees_with_isspace(self):
        """A line of one or two copies of an ASCII character ends a block of
        the bytes reader exactly when the line reader calls it blank; a line
        blank by a character above ASCII makes the column reader refuse its
        group, which the line reader then splits there."""
        for code in set(range(128)) - {ord("\n")}:
            for line in (chr(code), chr(code) * 2):
                blank = treebank._BLANK_BYTES_RE.fullmatch(
                    f"\n{line}\n".encode()) is not None
                assert blank is line.isspace(), code
        others = [chr(code) for code in range(128, sys.maxunicode + 1)
                  if chr(code).isspace()]
        assert len(others) > 15
        punct, null = (rules.get(Scheme.UD)
                       for rules in treebank._BYTES_RULES)
        for c in others:
            for line in (c, c * 2):
                data = "\n".join([token_line(1, 0), line, token_line(1, 0)]
                                  ).encode()
                assert treebank._clean_block(data, punct, null, False) is None
                fates, errors = block_clean(data)
                assert (fates, errors) == reference_clean(data)
                assert fates == [(1, [])] * 2, hex(ord(c))

    @given(st.one_of(st.sampled_from(TAGS),
                     st.text(st.characters(blacklist_categories=("Cs",)),
                             max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_bytes_rules_agree_with_text_rules(self, tag):
        for scheme in Scheme:
            text_punct, text_null = (rules.get(scheme)
                                     for rules in treebank._TEXT_RULES)
            bytes_punct, bytes_null = (rules.get(scheme)
                                       for rules in treebank._BYTES_RULES)
            judged = treebank._Judged(bytes_punct)
            # the rule, and its memo judging the tag, then recalling it
            for punct in (bytes_punct, judged.__getitem__, judged.__getitem__):
                assert punct(tag.encode()) is text_punct(tag), scheme
            assert (text_null is None) == (bytes_null is None)
            if text_null is not None:
                assert (tag.encode() == bytes_null) is (tag == text_null), \
                    scheme

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_memo_keeps_no_long_cell(self, scheme, monkeypatch):
        """Blocks with a new 4 kB POS cell each read as by line, the memo
        keeps no cell longer than its cell bound, and reading 2,000 such
        blocks (8 MB of cells) peaks under 2 MiB."""
        memos = []

        class Spy(treebank._Judged):
            __slots__ = ()

            def __init__(self, rule):
                super().__init__(rule)
                memos.append(self)

        monkeypatch.setattr(treebank, "_Judged", Spy)
        tags = [f"{'NZ'[t % 2]}{t:04}" + "x" * 4000 for t in range(2000)]
        data = "\n\n".join(token_line(1, 0, pos=tag) for tag in tags
                            ).encode()
        cfg = PreprocessConfig(scheme=scheme)
        tracemalloc.start()
        try:
            fates, errors = block_clean(data, cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (fates, errors) == reference_clean(data, cfg=cfg)
        assert len(memos) == 1
        assert max(map(len, memos[0]), default=0) <= treebank._MEMO_CELL_BYTES
        assert peak < 2 * 1024 * 1024, peak

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_memo_holds_at_most_its_bound(self, scheme, monkeypatch):
        """Blocks with a new POS tag on every token read as by line, and
        the memo of the POS rule never holds more cells than its bound."""
        monkeypatch.setattr(treebank, "_MEMO_CELLS", 8)
        held = []

        class Spy(treebank._Judged):
            __slots__ = ()

            def __missing__(self, cell):
                judged = super().__missing__(cell)
                held.append(len(self))
                return judged

        monkeypatch.setattr(treebank, "_Judged", Spy)
        marks = ["".join(m) for m in itertools.product(".,;:!?", repeat=3)]
        tags = [[f"Z{t}", marks[t], f"N{t}", f"PUNCT{t}"][t % 4]
                for t in range(len(marks))]
        blocks = ["\n".join(token_line(i, (i + 1) % 6, pos=tags[t + i - 1])
                            for i in range(1, 6))
                  for t in range(0, len(tags) - 5, 5)]
        data = "\n\n".join(blocks).encode()
        cfg = PreprocessConfig(scheme=scheme)
        assert block_clean(data, cfg=cfg) == reference_clean(data, cfg=cfg)
        assert len(held) == len(blocks) * 5
        assert max(held) == 8
