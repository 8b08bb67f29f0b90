"""Seeded synthetic inputs for the benchmark, with their ground truth.

Every generator draws from ``random.Random`` seeded by (workload, seed), so
one seed always gives the same bytes. Alongside the inputs it records the
fate each input block must have in the report, derived here without calling
``ddmtest``:

* ``("counted", language, n, shape, sign)``: a tree with n = 3 or 4 words
  after preprocessing, whose distance sum D lies above, below or on
  (``tie``) the random-arrangement mean (8/3 for n = 3, 5 for n = 4);
* ``("excluded", reason)``: an exclusion reason, ``parse_error`` included;
* ``("uncounted",)``: a tree of any other length, which no level counts.

Preprocessing follows the README: range lines and empty nodes are dropped,
punctuation and null nodes are deleted, survivors are reattached to their
nearest surviving ancestor, and a sentence that is not a single tree is
excluded. The checks run in this order: head missing (``malformed``), no
survivor (``empty_after_preprocessing``), a head chain looping through
deleted tokens (``cycle``), several roots (``multiple_roots``), then a loop
among the survivors (``cycle``).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

UNCOUNTED = ("uncounted",)
PARSE_ERROR = ("excluded", "parse_error")


def excluded(reason: str) -> tuple:
    return ("excluded", reason)


def tree_fate(language: str, n: int, edges) -> tuple:
    """Fate of a tree on positions 1..n with the given (undirected) edges."""
    if n not in (3, 4):
        return UNCOUNTED
    d = sum(abs(u - v) for u, v in edges)
    if n == 3:
        # the mean is 8/3 and D is 2 or 3, so there are no ties
        return ("counted", language, 3, "both", "above" if 3 * d > 8 else "below")
    degree = Counter(itertools.chain.from_iterable(edges))
    shape = "star" if max(degree.values()) == 3 else "linear"
    sign = "above" if d > 5 else "below" if d < 5 else "tie"
    return ("counted", language, 4, shape, sign)


@dataclass
class Collection:
    """What a generator produced: the inputs' size and their ground truth."""

    truth: Counter = field(default_factory=Counter)
    blocks: int = 0
    tokens: int = 0
    files: int = 0
    bytes: int = 0
    # true fates of the first block of each BOM-prefixed file (known defect)
    bom_blocks: list = field(default_factory=list)

    def truth_with_bom_defect(self) -> Counter:
        """The truth as the BOM defect bends it: each BOM file's first block
        comes back as a parse error."""
        bent = Counter(self.truth)
        for fate in self.bom_blocks:
            bent[fate] -= 1
            bent[PARSE_ERROR] += 1
        return +bent


# ---------------------------------------------------------------- sentences

BAD_HEAD = "bad-head"  # marker: the token's HEAD names no token of the sentence


class Token:
    __slots__ = ("form", "pos", "head", "deleted", "broken", "up", "k")

    def __init__(self, form, pos, head=None, deleted=False):
        self.form = form
        self.pos = pos
        self.head = head        # Token, None for the root, or BAD_HEAD
        self.deleted = deleted  # punctuation / null node under the scheme
        self.broken = None      # "cols" | "id" | "head": unparseable line
        self.up = None          # nearest surviving ancestor, while judging
        self.k = 0              # 1-based position, while rendering or judging


def sentence_fate(language: str, tokens: list) -> tuple:
    """Ground-truth fate of one sentence (tokens in surface order)."""
    if any(t.broken for t in tokens):
        return PARSE_ERROR
    if any(t.head is BAD_HEAD for t in tokens):
        return excluded("malformed")
    survivors = [t for t in tokens if not t.deleted]
    if not survivors:
        return excluded("empty_after_preprocessing")
    roots = 0
    for t in survivors:
        h, passed = t.head, []
        while h is not None and h.deleted:
            if h in passed:
                return excluded("cycle")
            passed.append(h)
            h = h.head
        t.up = h
        roots += h is None
    if roots > 1:
        return excluded("multiple_roots")
    n = len(survivors)
    for t in survivors:
        steps = 0
        while t is not None:
            t = t.up
            steps += 1
            if steps > n:
                return excluded("cycle")
    for k, t in enumerate(survivors, start=1):
        t.k = k
    return tree_fate(language, n, [(t.k, t.up.k) for t in survivors
                                   if t.up is not None])


def word_tree(rng: random.Random, n: int, ddm: float) -> list:
    """Parent array (root -1) of a random recursive tree, listed in surface order.

    With probability ``ddm`` the words are laid out projectively (each
    subtree contiguous, children on random sides), which keeps dependencies
    short; otherwise the order is a uniform permutation (the null model).
    """
    parent = [-1] + [int(rng.random() * i) for i in range(1, n)]
    if rng.random() < ddm:
        kids = [[] for _ in range(n)]
        for v in range(1, n):
            kids[parent[v]].append(v)
        order = []

        def place(v):
            left = [c for c in kids[v] if rng.random() < 0.5]
            right = [c for c in kids[v] if c not in left]
            for c in reversed(left):
                place(c)
            order.append(v)
            for c in right:
                place(c)

        place(0)
    else:
        order = list(range(n))
        rng.shuffle(order)
    rank = {v: k for k, v in enumerate(order)}
    return [rank[parent[v]] if parent[v] >= 0 else -1 for v in order]


def _vocabulary(rng: random.Random, size: int = 300) -> list:
    syllables = ["ka", "lo", "mi", "tu", "ne", "ra", "so", "vi", "de", "pa",
                 "zé", "ün", "ša", "ği", "ør", "日", "本", "д", "ом"]
    return ["".join(rng.choice(syllables) for _ in range(rng.randint(1, 4)))
            for _ in range(size)]


@dataclass
class Language:
    name: str
    ddm: float          # share of sentences laid out projectively
    vocab: list


def _lognormal_length(rng, median, sigma):
    return max(1, round(rng.lognormvariate(math.log(median), sigma)))


def _zipf_sizes(total: int, parts: int) -> list:
    h = sum(1 / r for r in range(1, parts + 1))
    return [max(1, round(total / (r * h))) for r in range(1, parts + 1)]


# ----------------------------------------------------------------- ud_mixed

UD_LANGUAGES = [
    "Japanese", "Czech", "German", "Russian", "Spanish", "French", "Hindi",
    "Arabic", "Finnish", "Turkish", "Korean", "Basque", "Estonian", "Latin",
    "Ancient_Greek", "Polish", "Italian", "Dutch", "Persian", "Hebrew",
    "Chinese", "Catalan", "Urdu", "Norwegian", "Wolof",
]
_UD_WORD_TAGS = ["NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "AUX",
                 "CCONJ", "PROPN", "NUM"]
_DEPREL = {"NOUN": "nsubj", "VERB": "conj", "ADJ": "amod", "ADV": "advmod",
           "PRON": "obj", "DET": "det", "ADP": "case", "AUX": "aux",
           "CCONJ": "cc", "PROPN": "nmod", "NUM": "nummod", "PUNCT": "punct"}


def _ud_sentence(rng, lang: Language):
    """One UD-like sentence: tokens in surface order plus its extra lines.

    Returns (tokens, ranges, empties): ``ranges`` holds surface indices that
    open a two-token multiword range line, ``empties`` indices after which
    an empty node line follows.
    """
    if rng.random() < 0.001:  # punctuation only
        return [Token(".", "PUNCT", None, True)], [], []
    n = _lognormal_length(rng, 10.5, 0.55)
    words = _words(rng, lang, n, _UD_WORD_TAGS)
    tokens = list(words)
    for _ in range(rng.choice((0, 1, 1, 1, 1, 2, 2, 3))):
        punct = Token(rng.choice(".,;:!?"), "PUNCT", rng.choice(words), True)
        if rng.random() < 0.5:
            tokens.append(punct)
        else:
            tokens.insert(rng.randrange(len(tokens) + 1), punct)
    _plant_defect(rng, words, tokens, 0.0025, 0.0025, 0.0002)
    if rng.random() < 0.001:
        rng.choice(words).head = BAD_HEAD
    r = rng.random()
    ranges = [rng.randrange(len(tokens) - 1)] if r < 0.2 and len(tokens) > 1 else []
    empties = [rng.randrange(len(tokens))] if r > 0.9 else []
    return tokens, ranges, empties


def _words(rng, lang: Language, n: int, tags: list) -> list:
    """n words of a random tree laid out by ``word_tree``, in surface order."""
    words = [Token(form, pos) for form, pos in
             zip(rng.choices(lang.vocab, k=n), rng.choices(tags, k=n))]
    for w, p in zip(words, word_tree(rng, n, lang.ddm)):
        w.head = words[p] if p >= 0 else None
    return words


def _plant_defect(rng, words, tokens, p_cycle, p_roots, p_line):
    """Plant at most one of: a 2-cycle, a second root, or one unparseable
    token line (as likely as any line breaking at ``p_line`` per line)."""
    non_root = [w for w in words if w.head is not None]
    r = rng.random()
    if r < p_cycle and len(non_root) >= 2:
        a, b = rng.sample(non_root, 2)
        a.head, b.head = b, a
    elif r < p_cycle + p_roots and non_root:
        rng.choice(non_root).head = None
    elif rng.random() < 1 - (1 - p_line) ** len(tokens):
        rng.choice(tokens).broken = rng.choice(("cols", "id", "head"))


def _conll_line(tok, n_tokens, fmt):
    head = tok.head
    head_col = ("0" if head is None else
                str(n_tokens + 3) if head is BAD_HEAD else str(head.k))
    id_col = str(tok.k)
    if tok.broken == "id":
        id_col = "x" + id_col
    elif tok.broken == "head":
        head_col = "_"
    rel = "root" if head is None else _DEPREL.get(tok.pos, "dep")
    if fmt == "conllu":
        cols = [id_col, tok.form, tok.form, tok.pos, "_", "_", head_col, rel, "_", "_"]
    else:
        cols = [id_col, tok.form, tok.form, tok.pos, tok.pos + ":-------", "_",
                head_col, rel, "_", "_"]
    if tok.broken == "cols":
        cols.pop()
    return "\t".join(cols)


def _render_block(tokens, fmt, sent_id=None, ranges=(), empties=()):
    for k, tok in enumerate(tokens, start=1):
        tok.k = k
    lines = []
    if sent_id is not None:
        lines.append(f"# sent_id = {sent_id}")
        lines.append("# text = " + " ".join(t.form for t in tokens))
    ranges, empties = set(ranges), set(empties)
    for k, tok in enumerate(tokens):
        if k in ranges:
            lines.append(f"{k + 1}-{k + 2}\t{tok.form}{tokens[k + 1].form}"
                         "\t_\t_\t_\t_\t_\t_\t_\t_")
        lines.append(_conll_line(tok, len(tokens), fmt))
        if k in empties:
            lines.append(f"{k + 1}.1\t{tok.form}\t_\t_\t_\t_\t_\t_\t{k + 1}:dep\t_")
    return lines


def _write(path: Path, lines: list, bom: bool = False) -> int:
    data = ("\ufeff" if bom else "") + "\n".join(lines) + "\n"
    raw = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(raw)
    return len(raw)


def ud_mixed(seed: int, outdir: Path, sentences: int = 18_000) -> Collection:
    """UD-like CoNLL-U, 25 languages in 30 Zipf-sized treebank files."""
    rng = random.Random(f"ud_mixed:{seed}")
    langs = [Language(name, 0.0 if rng.random() < 0.2 else rng.uniform(0.3, 0.9),
                      _vocabulary(rng))
             for name in UD_LANGUAGES]
    treebanks = [(lang, "GSD") for lang in langs]
    treebanks += [(lang, "PUD") for lang in rng.sample(langs, 5)]
    sizes = _zipf_sizes(sentences, len(treebanks))
    rng.shuffle(sizes)
    coll = Collection()
    for (lang, tb), size in zip(treebanks, sizes):
        lines = []
        for k in range(size):
            tokens, ranges, empties = _ud_sentence(rng, lang)
            coll.truth[sentence_fate(lang.name.replace("_", " "), tokens)] += 1
            coll.tokens += len(tokens)
            lines += _render_block(tokens, "conllu", f"{tb.lower()}-{k + 1}",
                                   ranges, empties)
            lines.append("")
        stem = lang.name[:2].lower()
        path = outdir / f"UD_{lang.name}-{tb}" / f"{stem}_{tb.lower()}-ud-train.conllu"
        coll.bytes += _write(path, lines[:-1])
        coll.blocks += size
        coll.files += 1
    return coll


# ------------------------------------------------------------- dirty_conllx

HAMLEDT_LANGUAGES = [
    "Bengali", "Hindi", "Telugu", "Czech", "Slovak", "Tamil", "Greek",
    "Romanian", "Slovenian", "Croatian", "Latvian", "Bulgarian",
]
FAMILIES = ["Indo-European", "Dravidian", "Uralic", "Afro-Asiatic"]
_PRAGUE_WORD_TAGS = ["N", "V", "A", "D", "P", "R", "C", "J", "T", "I"]


def _prague_sentence(rng, lang: Language) -> list:
    """A short CoNLL-X sentence with Prague ``Z`` punctuation that can head
    words and ``NULL`` null nodes, both deleted under ``--scheme prague``."""
    n = _lognormal_length(rng, 6, 0.5)
    words = _words(rng, lang, n, _PRAGUE_WORD_TAGS)
    tokens = list(words)
    for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
        r = rng.random()
        if r < 0.25:  # null node
            tok = Token("NULL", rng.choice(_PRAGUE_WORD_TAGS), None, True)
        else:
            tok = Token(rng.choice(".,;:-"), "Z", None, True)
        if r < 0.7:  # interposed: takes over a word's place in the tree
            w = rng.choice(words)
            tok.head, w.head = w.head, tok
        else:
            tok.head = rng.choice(words)
        tokens.insert(rng.randrange(len(tokens) + 1), tok)
    _plant_defect(rng, words, tokens, 0.05, 0.05, 0.02)
    return tokens


def dirty_conllx(seed: int, outdir: Path, blocks: int = 30_000) -> Collection:
    """HamleDT-like CoNLL-X, 12 languages; every third file starts with a BOM.

    Returns the collection; ``outdir / 'families.tsv'`` maps the languages
    to families.
    """
    rng = random.Random(f"dirty_conllx:{seed}")
    langs = [Language(name, rng.uniform(0.0, 0.9), _vocabulary(rng))
             for name in HAMLEDT_LANGUAGES]
    sizes = _zipf_sizes(blocks, len(langs))
    rng.shuffle(sizes)
    coll = Collection()
    fam_lines = ["# language<TAB>family"]
    for i, (lang, size) in enumerate(zip(langs, sizes)):
        fam_lines.append(f"{lang.name}\t{FAMILIES[i % len(FAMILIES)]}")
        lines = []
        fates = []
        for _ in range(size):
            tokens = _prague_sentence(rng, lang)
            fates.append(sentence_fate(lang.name, tokens))
            coll.tokens += len(tokens)
            lines += _render_block(tokens, "conllx")
            lines.append("")
        bom = i % 3 == 0
        if bom:
            coll.bom_blocks.append(fates[0])
        coll.truth.update(fates)
        coll.bytes += _write(outdir / "hamledt" / f"{lang.name}-train.conll",
                             lines[:-1], bom)
        coll.blocks += size
        coll.files += 1
    _write(outdir / "families.tsv", fam_lines)
    return coll


# ------------------------------------------------------------ inmem_analyze

def _labelled_trees(n: int) -> list:
    """(edges, D, shape) of every labelled tree on positions 1..n (Pruefer)."""
    out = []
    for code in itertools.product(range(1, n + 1), repeat=n - 2):
        degree = [1] * (n + 1)
        for v in code:
            degree[v] += 1
        edges = []
        for v in code:
            leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, v = [w for w in range(1, n + 1) if degree[w] == 1]
        edges.append((u, v))
        out.append(tuple(edges))
    return out


def inmem_trees(seed: int, build, trees: int = 200_000, languages: int = 200):
    """Per-language lists of ``build(n, edges)`` with n = 3/4 and some n = 5.

    DDm strength varies by language from none to strong: arrangements are
    drawn with weight exp(-beta * D). One language's (n, edges) pairs are
    turned into trees before the next is drawn, so they are never all alive
    next to the trees. Returns (trees by language, families, Collection with
    the ground truth).
    """
    rng = random.Random(f"inmem_analyze:{seed}")
    by_n = {n: _labelled_trees(n) for n in (3, 4, 5)}
    dsum = {n: [sum(abs(u - v) for u, v in e) for e in by_n[n]] for n in by_n}
    is_star = [max(Counter(itertools.chain.from_iterable(e)).values()) == 3
               for e in by_n[4]]
    sizes = _zipf_sizes(trees, languages)
    rng.shuffle(sizes)
    collection, families = {}, {}
    coll = Collection()
    for i, size in enumerate(sizes):
        name = f"L{i:03d}"
        families[name] = f"F{rng.randrange(30):02d}"
        beta = 0.0 if rng.random() < 0.3 else rng.uniform(0.02, 0.8)
        p_star = rng.uniform(0.1, 0.6)
        weights = {n: [math.exp(-beta * d) for d in dsum[n]] for n in by_n}
        # star/linear mix: rescale each shape's weights to its share
        star_w = sum(w for w, s in zip(weights[4], is_star) if s)
        lin_w = sum(w for w, s in zip(weights[4], is_star) if not s)
        weights[4] = [w * (p_star / star_w if s else (1 - p_star) / lin_w)
                      for w, s in zip(weights[4], is_star)]
        ns = rng.choices((3, 4, 5), (0.45, 0.45, 0.1), k=size)
        drawn = {n: iter(rng.choices(by_n[n], weights[n], k=ns.count(n)))
                 for n in by_n}
        items = [(n, next(drawn[n])) for n in ns]
        for n, edges in items:
            coll.truth[tree_fate(name, n, edges)] += 1
            coll.tokens += n
        collection[name] = [build(n, edges) for n, edges in items]
        coll.blocks += size
    return collection, families, coll
