import gc
import importlib.util
import re
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    alignment_to_line,
    sentence_to_tok_line,
    tree_to_line,
    trees,
    with_byte_order_mark,
)

from roleproj.corpus import (
    BiSentence,
    ParseTree,
    RoleAnnotation,
    Sentence,
    load_corpus,
    merge_spans,
    parse_alignment,
    parse_roles_block,
    parse_tok_line,
    parse_tree,
    read_roles_file,
    read_text,
    roles_file_text,
    serialize_roles,
    _roles_block_by_block,
    _roles_in_one_pass,
)
from roleproj.errors import FormatError, ToolkitError, ValidationError


# --- trees ------------------------------------------------------------

def test_parse_two_token_tree():
    tree = parse_tree("(S (NP (NNP Kim)) (VP (VBD promised)))")
    assert len(tree.sentence) == 2
    assert tree.spans[0] == (0, 1)
    assert tree.sentence.surfaces[0] == "Kim"
    assert tree.sentence.tags[1] == "VBD"


def test_parse_flat_np():
    tree = parse_tree("(NP (DT the) (NN butter))")
    assert tree.labels[0] == "NP"
    assert tree.spans[0] == (0, 1)
    assert sum(1 for kids in tree.children if not kids) == 2


def test_unbalanced_tree_is_a_parse_error():
    with pytest.raises(FormatError, match="offset"):
        parse_tree("(S (NP (NNP Kim))")


def test_trailing_material_rejected():
    with pytest.raises(FormatError):
        parse_tree("(S (NN a)) (S (NN b))")


def dominated_tokens(tree, node):
    """The tokens of the preterminals below ``node``, found by walking its children."""
    found, todo = set(), [node]
    while todo:
        n = todo.pop()
        todo.extend(tree.children[n])
        if not tree.children[n]:
            found.add(tree.preterminals.index(n))
    return found


def test_yield_of_root_and_preterminal():
    tree = parse_tree("(S (A a) (B b) (C c) (D d) (E e))")
    assert tree.spans[0] == (0, 4) and dominated_tokens(tree, 0) == set(range(5))
    pre = tree.preterminals[3]
    assert tree.labels[pre] == "D" and tree.children[pre] == ()
    assert tree.spans[pre] == (3, 3) and dominated_tokens(tree, pre) == {3}


def test_yield_of_figure1_clause(figure1):
    tree = figure1.src_tree
    clause = [n for n, span in enumerate(tree.spans) if span == (2, 5) and tree.children[n]]
    assert len(clause) == 1
    assert dominated_tokens(tree, clause[0]) == {2, 3, 4, 5}


def test_yields_tile_the_sentence(figure1):
    for tree in (figure1.src_tree, figure1.tgt_tree):
        pre = [n for n, kids in enumerate(tree.children) if not kids]
        assert list(tree.preterminals) == pre
        assert [tree.spans[n] for n in pre] == [(i, i) for i in range(len(tree.sentence))]
        for node, kids in enumerate(tree.children):
            for child in kids:
                assert tree.parents[child] == node
            if kids:
                lo, hi = tree.spans[node]
                child_union = {
                    i for c in kids for i in range(tree.spans[c][0], tree.spans[c][1] + 1)
                }
                assert set(range(lo, hi + 1)) == child_union


@given(trees())
def test_tree_serialization_round_trip(text):
    tree = parse_tree(text)
    assert tree_to_line(tree) == text
    again = parse_tree(tree_to_line(tree))
    assert again == tree


TREE_FORMAT_ERRORS = [
    ("", "empty tree line"),
    (" \t\xa0", "empty tree line"),
    ("  S (NN a)", "expected '(' at offset 2"),
    (")", "expected '(' at offset 0"),
    ("(", "expected node label at offset 1"),
    ("( (NN a))", "expected node label at offset 1"),
    ("(S (NN a) ( ))", "expected node label at offset 11"),
    ("(S (NN a)", "unbalanced brackets: missing ')' at offset 9"),
    ("(S (NN a)\u3000", "unbalanced brackets: missing ')' at offset 10"),
    ("(S (NN a) b)", "word after child constituent at offset 10"),
    ("(NN a\xa0b)", "second word under one preterminal at offset 6"),
    ("(NN a (X b))", "child constituent after word at offset 6"),
    ("(S (NN a) (VP ))", "empty constituent 'VP'"),
    ("(S (NN a)) x", "trailing material at offset 11"),
    ("(S (NN a)))", "trailing material at offset 10"),
    ("(S (NN a))\x1c(T (NN b))", "trailing material at offset 11"),
]


@pytest.mark.parametrize(
    "line, message",
    TREE_FORMAT_ERRORS,
    # Each case keeps the id it had when the table also held a token count.
    ids=[f"{line}-None-{message}" for line, message in TREE_FORMAT_ERRORS],
)
def test_every_tree_format_error_pins_its_message_and_offset(line, message):
    with pytest.raises(FormatError) as info:
        parse_tree(line)
    assert str(info.value) == message


# Brackets, atoms and the whitespace the tokenizer must split on, including
# Unicode spaces that str.split(" ") does not treat as separators.
FUZZ_ALPHABET = st.sampled_from(
    list("()()()abcXYZ019-_#") + [" ", "\t", "\xa0", "\u2003", "\u3000", "\x1c", "\n"]
)
fuzz_text = st.text(FUZZ_ALPHABET, max_size=40)


@given(fuzz_text)
def test_parse_tree_returns_a_round_tripping_tree_or_a_format_error(text):
    try:
        tree = parse_tree(text)
    except FormatError:
        return
    assert parse_tree(tree_to_line(tree)) == tree


@given(fuzz_text, st.integers(0, 12), st.integers(0, 12))
def test_line_parsers_raise_only_toolkit_input_errors(text, n_src, n_tgt):
    for parse in (
        parse_tok_line,
        lambda t: parse_alignment(t, n_src, n_tgt),
        parse_roles_block,
    ):
        try:
            parse(text)
        except (FormatError, ValidationError):
            pass


@given(st.lists(st.sampled_from(["#0 F 0", "#1 G -1", "A\t0-2", "B\t3-4,0-1",
                                  "A\t2-1", "C\t1-1\tx", "\t", ""]), max_size=5),
       fuzz_text)
def test_roles_block_parser_raises_only_toolkit_input_errors(lines, noise):
    try:
        parse_roles_block("\n".join(lines) + noise)
    except (FormatError, ValidationError):
        pass


class Token(NamedTuple):
    index: int
    surface: str
    pos: str


class Constituent(NamedTuple):
    id: int
    label: str
    span: tuple[int, int]
    children: tuple[int, ...]
    is_terminal: bool


def reference_parse_tree(line: str) -> ParseTree:
    """The parser with one lexer token per bracket and atom, kept as the reference.

    ``parse_tree`` lexes a whole preterminal ``(POS word)`` as one token and
    computes offsets only when it raises; it must give the same trees and
    the same error texts as this parser.
    """
    nodes, parents, tokens, stack = [], [], [], []
    toks = re.compile(r"[()]|[^\s()]+").finditer(line)
    for m in toks:
        text, off = m.group(), m.start()
        if not stack:
            if nodes:
                raise FormatError(f"trailing material at offset {off}")
            if text != "(":
                raise FormatError(f"expected '(' at offset {off}")
        if text == "(":
            if stack and stack[-1][2] is not None:
                raise FormatError(f"child constituent after word at offset {off}")
            label = next(toks, None)
            if label is None or label.group() in ("(", ")"):
                raise FormatError(f"expected node label at offset {off + 1}")
            node_id = len(nodes)
            nodes.append(None)
            parents.append(stack[-1][0] if stack else None)
            if stack:
                stack[-1][3].append(node_id)
            stack.append([node_id, label.group(), None, []])
        elif text == ")":
            node_id, label, word, child_ids = stack.pop()
            if word is not None:
                k = len(tokens)
                tokens.append(Token(k, word, label))
                nodes[node_id] = Constituent(node_id, label, (k, k), (), True)
            elif child_ids:
                lo = nodes[child_ids[0]].span[0]
                hi = nodes[child_ids[-1]].span[1]
                nodes[node_id] = Constituent(node_id, label, (lo, hi), tuple(child_ids), False)
            else:
                raise FormatError(f"empty constituent '{label}'")
        else:
            frame = stack[-1]
            if frame[3]:
                raise FormatError(f"word after child constituent at offset {off}")
            if frame[2] is not None:
                raise FormatError(f"second word under one preterminal at offset {off}")
            frame[2] = text
    if not nodes:
        raise FormatError("empty tree line")
    if stack:
        raise FormatError(f"unbalanced brackets: missing ')' at offset {len(line)}")
    return ParseTree(
        Sentence(tuple(t.surface for t in tokens), tuple(t.pos for t in tokens)),
        tuple(n.label for n in nodes),
        tuple(n.span for n in nodes),
        tuple(parents),
        tuple(n.children for n in nodes),
        tuple(n.id for n in nodes if n.is_terminal),
    )


def parsed_or_error(parse, line):
    try:
        return parse(line)
    except FormatError as exc:
        return f"FormatError: {exc}"


@st.composite
def damaged_trees(draw):
    """A well-formed tree line with a few characters of the fuzz alphabet inserted."""
    text = draw(trees())
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(FUZZ_ALPHABET) + text[k:]
    return text


@given(st.one_of(fuzz_text, damaged_trees()))
def test_parse_tree_equals_the_one_token_per_bracket_reference(text):
    assert parsed_or_error(parse_tree, text) == parsed_or_error(reference_parse_tree, text)


@pytest.mark.parametrize(
    "line",
    ["( NN w )", "(NN\tw)", "((NN w))", "(NP w (NN x))", "(NN w)(NN x)", "(NN w x)",
     "(NN (w))", "(NN w\xa0)", "(S (NN w) x)", "(S\u3000(NN w)\x1c(VB x) )",
     "(S(NN a)(VB b))", "(NN\x85a)", "(NN a b)", "(S (NN a) (", "(S (NN a) ( ))",
     "(S (: -) (NN a))"],
)
def test_preterminal_token_edge_cases_match_the_reference(line):
    assert parsed_or_error(parse_tree, line) == parsed_or_error(reference_parse_tree, line)


def test_tree_nodes_and_tokens_are_immutable():
    tree = parse_tree("(NP (DT the) (NN butter))")
    with pytest.raises(AttributeError):
        tree.labels = ("VP",)
    with pytest.raises(TypeError):
        tree.labels[0] = "VP"
    with pytest.raises(AttributeError):
        tree.sentence.surfaces = ("a", "b")
    with pytest.raises(TypeError):
        tree.sentence.surfaces[0] = "a"


def test_deep_unary_chain_parses_and_round_trips():
    depth = 5000
    text = "(S " * depth + "(NN a)" + ")" * depth
    tree = parse_tree(text)
    assert len(tree.sentence) == 1
    assert len(tree.labels) == depth + 1
    assert tree.children[depth] == () and tree.parents[depth] == depth - 1
    assert all(span == (0, 0) for span in tree.spans)
    assert tree_to_line(tree) == text


# --- alignments -------------------------------------------------------

def test_parse_alignment_basic():
    assert parse_alignment("0-0 1-1", 2, 2) == {(0, 0), (1, 1)}


def test_parse_alignment_empty_line():
    assert parse_alignment("", 3, 4) == frozenset()


def test_parse_alignment_out_of_range():
    with pytest.raises(FormatError):
        parse_alignment("5-0", 3, 3)


def test_parse_alignment_malformed():
    with pytest.raises(FormatError):
        parse_alignment("1:2", 3, 3)


def test_parse_alignment_collapses_duplicates():
    assert len(parse_alignment("0-0 0-0", 1, 1)) == 1


def reference_parse_alignment(line: str, n_src: int, n_tgt: int) -> frozenset:
    """The parser that matches and converts one pair at a time, kept as the reference.

    ``parse_alignment`` accepts a whole line with one match and converts its
    numbers in bulk; it must give the same alignments and the same errors,
    naming the same first bad pair, as this parser.
    """
    links = set()
    for part in line.split():
        m = re.match(r"^([0-9]+)-([0-9]+)$", part)
        if not m:
            raise FormatError(f"malformed alignment pair {part!r}")
        try:
            s, t = int(m.group(1)), int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise FormatError(f"malformed alignment pair {part!r}") from None
        if s >= n_src or t >= n_tgt:
            raise FormatError(
                f"alignment link {s}-{t} out of range for lengths {n_src}/{n_tgt}"
            )
        links.add((s, t))
    return frozenset(links)


def aligned_or_error(parse, line, n_src, n_tgt):
    try:
        return parse(line, n_src, n_tgt)
    except ToolkitError as exc:
        return type(exc), str(exc)


HUGE = "1" + "0" * 5000  # past CPython's 4,300-digit int() conversion limit

# int() converts "1_0", "+1" and "\u0661", but a link holds ASCII digits only.
ALIGNMENT_PARTS = st.sampled_from([
    "0-0", "0-1", "1-0", "2-3", "3-2", "00-01", "4-0", "0-4", "12-1",
    "1_0-2", "+1-2", "1-+2", "\u0661-\u0662", "1-2-3", "-", "1-", "-1", "1:2", "a-b",
    f"0-{HUGE}", f"{HUGE}-0",
])
ALIGNMENT_SEPARATORS = st.sampled_from(
    [" ", "  ", "\t", "\x1c", "\x85", "\u3000", "\xa0", "\u2003", "\n"]
)


@st.composite
def alignment_lines(draw):
    """Parts joined by varied whitespace, with or without whitespace at the ends."""
    parts = draw(st.lists(ALIGNMENT_PARTS, max_size=6))
    line = "".join(draw(ALIGNMENT_SEPARATORS) + part for part in parts).lstrip()
    edge = st.one_of(st.just(""), ALIGNMENT_SEPARATORS)
    return draw(edge) + line + draw(edge)


@given(alignment_lines(), st.integers(0, 4), st.integers(0, 4))
@example("1_0-2", 11, 3)
@example("+1-2", 2, 3)
@example("\u0661-\u0662", 2, 3)
@example(f"0-{HUGE}", 1, 1)
@example(f"{HUGE}-0 0-0", 1, 1)
@example("0-0\x1c1-1", 2, 2)
@example("0-0\x851-1", 2, 2)
@example("\u3000 0-0\u30001-1\x85", 2, 2)
@example("0-0 1-1 0-0", 2, 2)
@example("0-9 x-1", 2, 2)
@example("x-1 0-9", 2, 2)
@example("0-0 1-2-3 9-9", 2, 2)
def test_parse_alignment_equals_the_pair_by_pair_reference(line, n_src, n_tgt):
    assert aligned_or_error(parse_alignment, line, n_src, n_tgt) == aligned_or_error(
        reference_parse_alignment, line, n_src, n_tgt
    )


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (lambda t: parse_alignment(t, 2, 2), f"0-{HUGE}", "malformed alignment pair '0-1000"),
        (parse_roles_block, f"#0 F {HUGE}", "bad roles header '#0 F 1000"),
        (parse_roles_block, f"#{HUGE} F 0", "bad roles header '#1000"),
        (parse_roles_block, f"#0 F 0\nA\t0-{HUGE}", "bad span '0-1000"),
    ],
    ids=["alignment", "predicate", "sentence-number", "span"],
)
def test_numbers_with_too_many_digits_are_format_errors(parse, text, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value).startswith(message)


# Arabic-Indic digits: \d would match them and int() would convert them, but
# the canonical files write ASCII digits only.
@pytest.mark.parametrize(
    "name, text, message",
    [
        ("al", "\u0661-\u0662 0-0\n", "al:1: malformed alignment pair '\u0661-\u0662'"),
        ("r.roles", "#\u0660 F \u0661\n", "r.roles: block 0: bad roles header '#\u0660 F \u0661'"),
        ("r.roles", "#0 F 0\nA\t\u0661-\u0662\n", "r.roles: block 0: bad span '\u0661-\u0662'"),
    ],
    ids=["link", "header", "span"],
)
def test_numbers_in_other_scripts_are_format_errors(tmp_path, name, text, message):
    from roleproj.corpus import load_corpus, read_roles_file

    (tmp_path / "s.tok").write_text("a_NN b_NN c_NN\n", encoding="utf-8")
    (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as info:
        if name == "al":
            load_corpus(align_path=tmp_path / "al", src_tok_path=tmp_path / "s.tok",
                        tgt_tok_path=tmp_path / "s.tok")
        else:
            read_roles_file(tmp_path / name)
    assert str(info.value).startswith(f"{tmp_path / name}{message[len(name):]}")


def test_numbers_with_leading_zeros_are_accepted():
    assert parse_alignment("00-01", 2, 2) == {(0, 1)}
    sent_no, ann = parse_roles_block("#007 F 01\nA\t002-0003")
    assert (sent_no, ann.predicate, ann.spans_of("A")) == (7, 1, {(2, 3)})


links_strategy = st.frozensets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10
)


@given(links_strategy)
def test_alignment_line_round_trip(links):
    line = alignment_to_line(links)
    assert parse_alignment(line, 6, 6) == links
    assert alignment_to_line(parse_alignment(line, 6, 6)) == line


# --- tok lines --------------------------------------------------------

def test_tok_round_trip():
    line = "Kim_NNP promised_VBD ,_$, pünktlich_ADJD"
    sent = parse_tok_line(line)
    assert sent.surfaces[2] == ","
    assert sent.tags[2] == "$,"
    assert sentence_to_tok_line(sent) == line


def test_tok_requires_pos():
    with pytest.raises(FormatError):
        parse_tok_line("word")


@pytest.mark.parametrize(
    "surfaces, tags, message",
    [
        ((), (), "at least one token"),
        (("a", "b"), ("NN",), "2 surfaces but 1 tags"),
        (("a",), ("NN", "VB"), "1 surfaces but 2 tags"),
    ],
)
def test_sentence_needs_tokens_and_one_tag_per_token(surfaces, tags, message):
    with pytest.raises(ValidationError, match=message):
        Sentence(surfaces, tags)


# --- roles ------------------------------------------------------------

def test_parse_roles_block():
    ann = parse_roles_block("#0 COMMITMENT 1\nMESSAGE\t2-5")[1]
    assert ann.frame == "COMMITMENT"
    assert ann.predicate == 1
    assert ann.spans_of("MESSAGE") == {(2, 5)}


def test_parse_roles_frame_only():
    ann = parse_roles_block("#3 GESTURE 0")[1]
    assert ann.roles == ()


def test_overlapping_spans_within_role_rejected():
    with pytest.raises(ValidationError):
        parse_roles_block("#0 F 0\nA\t1-3,2-4")[1]


@pytest.mark.parametrize(
    "spans, message",
    [({(3, 1)}, "bad span 3-1 for role A"), ({(-1, 2)}, "bad span -1-2 for role A"),
     ({(5, 6), (3, 1)}, "bad span 3-1 for role A")],
)
def test_role_annotation_rejects_bad_spans(spans, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        RoleAnnotation("F", (("A", frozenset(spans)),), 0)


def test_unknown_field_rejected():
    with pytest.raises(FormatError):
        parse_roles_block("#0 F 0\nA\t1-2\textra")[1]


def test_duplicate_role_label_rejected():
    with pytest.raises(ValidationError):
        parse_roles_block("#0 F 0\nA\t1-3\nA\t5-6")[1]


def test_roles_round_trip_bytes():
    block = "#2 PERCEPTION 1\nPERCEIVER\t0-0\nPHENOMENON\t2-4,6-7"
    ann = parse_roles_block(block)[1]
    assert serialize_roles(ann, 2) == block
    assert parse_roles_block(serialize_roles(ann, 2))[1] == ann


role_spans = st.sets(st.integers(0, 15), min_size=1).map(
    lambda tokens: merge_spans((i, i) for i in tokens)
)


@given(
    st.dictionaries(st.sampled_from(["A", "B", "C", "LONG_ROLE"]), role_spans, max_size=4),
    st.integers(0, 15),
)
def test_roles_value_round_trip(roles, predicate):
    ann = RoleAnnotation.make("FRAME", roles, predicate)
    assert parse_roles_block(serialize_roles(ann, 0))[1] == ann


def test_merge_spans_normalizes():
    assert merge_spans((i, i) for i in {3, 4, 5, 7}) == ((3, 5), (7, 7))
    assert merge_spans([]) == ()


span_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 6)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=8,
)


@given(span_lists)
@example([])
@example([(0, 9), (2, 3)])  # nested
@example([(0, 3), (2, 5)])  # overlapping
@example([(2, 3), (0, 1)])  # adjacent
@example([(1, 2), (1, 2)])  # duplicate
def test_merge_spans_are_the_runs_of_the_covered_tokens(spans):
    merged = merge_spans(spans)
    tokens = {i for lo, hi in spans for i in range(lo, hi + 1)}
    assert {i for lo, hi in merged for i in range(lo, hi + 1)} == tokens
    assert all(lo <= hi for lo, hi in merged)
    # sorted, and a gap of at least one token between neighbours
    assert all(hi + 1 < lo2 for (_, hi), (lo2, _) in zip(merged, merged[1:]))


# --- whole files ---------------------------------------------------------

def test_read_trees_file_handles_missing_trees(tmp_path):
    from roleproj.corpus import read_trees_file

    path = tmp_path / "x.trees"
    path.write_text("(S (NN a))\n-\n(S (NN b))\n")
    trees = read_trees_file(path)
    assert trees[1] is None
    assert trees[0].sentence.surfaces[0] == "a"


def test_read_roles_file_validates_block_numbering(tmp_path):
    from roleproj.corpus import read_roles_file

    path = tmp_path / "x.roles"
    path.write_text("#0 F 0\n\n#2 G 0\n")
    with pytest.raises(FormatError, match="sentence number"):
        read_roles_file(path)


def load_corpus_gen():
    """``perfbench/corpus_gen.py``, the benchmark's corpus generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus_gen.py"
    spec = importlib.util.spec_from_file_location("corpus_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def roles_both_ways(path):
    """A .roles file read in one pass and block by block."""
    text = read_text(path)
    return _roles_in_one_pass(text), _roles_block_by_block(path, text)


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_one_pass_roles_reader_equals_the_block_parser_on_generated_corpora(tmp_path, seed):
    corpus_gen = load_corpus_gen()
    for workload, sentences, lengths in (("short", 150, (20, 30)), ("long", 50, (50, 70))):
        files = corpus_gen.generate(tmp_path / workload, workload, seed, sentences, lengths)
        for name in ("src.roles", "tgt.roles"):
            one_pass, by_block = roles_both_ways(files[name])
            assert len(by_block) == sentences
            assert one_pass == by_block


def test_one_pass_roles_reader_equals_the_block_parser_on_the_fixtures(fixture_dir):
    paths = sorted(fixture_dir.glob("*/*.roles"))
    assert len(paths) == 7
    for path in paths:
        one_pass, by_block = roles_both_ways(path)
        assert by_block and one_pass == by_block


@given(st.lists(
    st.dictionaries(st.sampled_from(["A", "B", "C", "LONG_ROLE"]), role_spans, max_size=4),
    max_size=5,
))
def test_one_pass_roles_reader_reads_what_roles_file_text_writes(blocks):
    anns = [RoleAnnotation.make("FRAME", roles, k - 1) for k, roles in enumerate(blocks)]
    text = roles_file_text(anns)
    assert _roles_in_one_pass(text) == (anns if anns else None)
    assert _roles_in_one_pass(text.rstrip("\n")) == (anns if anns else None)


def test_no_annotations_write_an_empty_file_that_reads_back_empty(tmp_path):
    # not "\n": a blank line is outside the canonical layout
    path = tmp_path / "empty.roles"
    path.write_text(roles_file_text([]), encoding="utf-8")
    assert path.read_text(encoding="utf-8") == ""
    assert read_roles_file(path) == []


@pytest.mark.parametrize("name", ["src.trees", "src.tok", "align", "src.roles"])
def test_a_byte_order_mark_before_an_input_file_is_not_text(fixture_dir, name):
    figure1 = fixture_dir / "figure1"
    paths = {f"{key}_path": figure1 / key.replace("_", ".")
             for key in ("src_trees", "tgt_trees", "src_tok", "tgt_tok", "align", "src_roles")}
    want = load_corpus(**paths)
    with_byte_order_mark(figure1 / name)
    assert load_corpus(**paths) == want
    if name == "src.tok":
        tok_only = {key: path for key, path in paths.items() if "trees" not in key}
        assert load_corpus(**tok_only)[0].src.surfaces[0] == "Kim"


@pytest.mark.parametrize(
    "text, expected",
    [
        (f"#0 F 0\nA\t0-{HUGE}\n",
         f": block 0: bad span '0-{HUGE}' in role line 'A\\t0-{HUGE}'"),
        (f"#0 F 0\n\n#{HUGE} F 0\n", f": block 1: bad roles header '#{HUGE} F 0'"),
        (f"#0 F {HUGE}\nA\t0-1\n", f": block 0: bad roles header '#0 F {HUGE}'"),
        ("#0 F 0\r\nA\t0-1\r\n\r\n#1 G 2\r\nB\t6-7,3-4\r\n",
         ["#0 F 0\nA\t0-1", "#1 G 2\nB\t3-4,6-7"]),
        ("#0 F 0\r\nA\t0-1\r\n\r\n#2 G 2\r\n", ": block 1 carries sentence number 2"),
        ("#0 F 0\nA\t0-1\n \t\n#1 G 2\nB\t3-4\n", ["#0 F 0\nA\t0-1", "#1 G 2\nB\t3-4"]),
        ("#0 F 0\nA\t0-1\n \n#1 G 2\nB\t4-3\n", ": block 1: bad span 4-3 for role B"),
        ("#007 F 01\nA\t002-0003\n", ": block 0 carries sentence number 7"),
        ("#00 F 01\nA\t002-0003\n\n#01 G 1\n", ["#0 F 1\nA\t2-3", "#1 G 1"]),
        ("#0 F 0\nA\t0-1\n\n#2 G 0\nB\t1-1\n", ": block 1 carries sentence number 2"),
        ("#0 F 0\nA\t0-1\n\n#1 G 0\nB\t1-1\nB\t3-3\n",
         ": block 1: duplicate role label 'B'"),
        ("#0 F 0\nA\t0-1\n\n#1 G 0\nB\t1-3,2-4\n",
         ": block 1: overlapping spans within role B"),
        ("#0 F 0\nA\t0-1\n\n#1 G 0\nB\t3-1\n", ": block 1: bad span 3-1 for role B"),
        ("#0 F 0\nA\t0-1,5-6\n\n#1 G 0\nB\t7-8,3-1\n",
         ": block 1: bad span 3-1 for role B"),
        ("#0 F 0\nA\t3-1\n\n#1 G 0\nA\tx\n", ": block 0: bad span 3-1 for role A"),
        ("#0 F 0\nB\t1-1\nA\t0-0\n", ["#0 F 0\nA\t0-0\nB\t1-1"]),
        ("", []),
        ("\n\n\n", []),
        ("#0 F 0\nA\t0-1\n\n#1 G 2\n\n\n", ["#0 F 0\nA\t0-1", "#1 G 2"]),
        ("#0 F 0\nA\t0-1\n\n#1 G 2\n  \n", ["#0 F 0\nA\t0-1", "#1 G 2"]),
    ],
    ids=["huge-span", "huge-sentence-number", "huge-predicate", "crlf", "crlf-mismatch",
         "blank-separator", "blank-separator-bad-span", "leading-zeros-mismatch",
         "leading-zeros", "mismatch", "duplicate-label", "overlap", "lo-above-hi",
         "lo-above-hi-second-span", "first-error-first", "unsorted-labels", "empty", "only-newlines",
         "trailing-blank-lines", "trailing-blank-line-with-spaces"],
)
def test_roles_files_outside_the_canonical_layout_read_as_before(tmp_path, text, expected):
    from roleproj.corpus import read_roles_file

    path = tmp_path / "x.roles"
    path.write_text(text, encoding="utf-8", newline="")
    if isinstance(expected, list):
        assert read_roles_file(path) == [parse_roles_block(block)[1] for block in expected]
        return
    with pytest.raises(ToolkitError) as info:
        read_roles_file(path)
    assert str(info.value) == f"{path}{expected}"


def test_load_corpus_word_model_inputs_only(tmp_path):
    from roleproj.corpus import load_corpus

    (tmp_path / "s.tok").write_text("a_NN b_VB\nc_NN\n")
    (tmp_path / "t.tok").write_text("x_NN y_VB\nz_NN\n")
    (tmp_path / "al").write_text("0-0 1-1\n0-0\n")
    (tmp_path / "s.roles").write_text("#0 F 0\nA\t0-1\n\n#1 G 0\n")
    corpus = load_corpus(
        align_path=tmp_path / "al",
        src_tok_path=tmp_path / "s.tok",
        tgt_tok_path=tmp_path / "t.tok",
        src_roles_path=tmp_path / "s.roles",
    )
    assert len(corpus) == 2
    assert corpus[0].src_tree is None
    assert corpus[0].src_roles.frame == "F"


def test_load_corpus_rejects_unparallel_files(tmp_path):
    from roleproj.corpus import load_corpus

    (tmp_path / "s.tok").write_text("a_NN\nb_NN\n")
    (tmp_path / "t.tok").write_text("x_NN\n")
    (tmp_path / "al").write_text("0-0\n0-0\n")
    with pytest.raises(ValidationError):
        load_corpus(
            align_path=tmp_path / "al",
            src_tok_path=tmp_path / "s.tok",
            tgt_tok_path=tmp_path / "t.tok",
        )


def test_load_corpus_cross_checks_trees_against_tok(tmp_path):
    from roleproj.corpus import load_corpus

    (tmp_path / "s.trees").write_text("(S (NN a) (VB b))\n")
    (tmp_path / "s.tok").write_text("a_NN wrong_VB\n")
    (tmp_path / "t.tok").write_text("x_NN\n")
    (tmp_path / "al").write_text("0-0\n")
    with pytest.raises(ValidationError, match="disagree"):
        load_corpus(
            align_path=tmp_path / "al",
            src_trees_path=tmp_path / "s.trees",
            src_tok_path=tmp_path / "s.tok",
            tgt_tok_path=tmp_path / "t.tok",
        )


def test_bisentence_rejects_a_tree_whose_words_differ_from_its_sentence():
    tree = parse_tree("(S (NN a) (VB b))")
    al = parse_alignment("0-0", 2, 2)
    other = parse_tok_line("a_NN c_VB")
    with pytest.raises(ValidationError, match="source tree tokens do not match the sentence"):
        BiSentence(other, tree.sentence, al, src_tree=tree)
    with pytest.raises(ValidationError, match="target tree tokens do not match the sentence"):
        BiSentence(tree.sentence, other, al, tgt_tree=tree)
    same_words = parse_tok_line("a_DT b_NN")
    assert BiSentence(same_words, same_words, al, tree, tree).src is same_words


# --- memory ------------------------------------------------------------------

def write_corpus(directory, n_pairs, n_tokens):
    """A corpus of identical pairs: flat trees, a diagonal alignment, two roles."""
    words = " ".join(f"(NN w{i})" for i in range(n_tokens))
    files = {
        "src.trees": f"(S {words})\n" * n_pairs,
        "tgt.trees": f"(S {words})\n" * n_pairs,
        "align": (" ".join(f"{i}-{i}" for i in range(n_tokens)) + "\n") * n_pairs,
        "src.roles": "\n\n".join(
            f"#{k} F 0\nA\t1-2,4-4\nB\t5-{n_tokens - 1}" for k in range(n_pairs)
        ) + "\n",
    }
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return dict(
        align_path=directory / "align",
        src_trees_path=directory / "src.trees",
        tgt_trees_path=directory / "tgt.trees",
        src_roles_path=directory / "src.roles",
    )


def tracked_objects_kept(paths) -> int:
    """GC-tracked objects that a loaded corpus keeps alive after full collections.

    A collection untracks a tuple only if its items are untracked by then,
    and it may visit a tuple of spans before the spans, so it runs twice.
    """
    from roleproj.corpus import load_corpus

    load_corpus(**paths)  # warm any cache a first load fills
    gc.collect()
    before = gc.get_objects()
    seen = {id(obj) for obj in before}
    corpus = load_corpus(**paths)
    gc.collect()
    gc.collect()
    kept = sum(1 for obj in gc.get_objects() if id(obj) not in seen)
    del corpus
    return kept


def test_a_loaded_corpus_keeps_no_tracked_object_per_token_or_node(tmp_path):
    n_pairs = 20
    short = tracked_objects_kept(write_corpus(tmp_path / "short", n_pairs, 8))
    long = tracked_objects_kept(write_corpus(tmp_path / "long", n_pairs, 60))
    assert short == long
    assert short < 20 * n_pairs
