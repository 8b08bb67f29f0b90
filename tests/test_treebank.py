import io
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

    def test_keep_empty_nodes_flag(self):
        cfg = PreprocessConfig(scheme=Scheme.PRAGUE, remove_empty_nodes=False)
        s = sentence(tok(1, 0), tok(2, 1, form="NULL"), tok(3, 2))
        assert preprocess(s, cfg) == LinearizedTree(3, [(1, 2), (2, 3)])

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
