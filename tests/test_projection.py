import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import (
    TREE_LABELS,
    ancestors,
    node_yield,
    parent_links,
    preterminal_nodes,
    reference_argument_filter,
    trees,
)
from roleproj.corpus import (
    DEFAULT_CONTENT_PREFIXES,
    BiSentence,
    ParseTree,
    RoleAnnotation,
    Sentence,
    apply_word_filters,
    parse_alignment,
    parse_roles_block,
    parse_tree,
    serialize_roles,
)
from roleproj.errors import ConfigError, ValidationError
from roleproj.pipeline import PipelineConfig, run_pipeline, target_predicate
from roleproj.projection import (
    RoleProvenance,
    SemanticAlignment,
    argument_filter,
    project,
    project_word_based,
    resolve_role_units,
)


# --- fill_gaps -----------------------------------------------------------

def word_fill(tgt_tokens):
    """``project_word_based`` with ``fill`` of a one-token role linked to
    ``tgt_tokens`` of a 41-token target: the role's tokens, or None."""
    tgt = Sentence(tuple(f"w{i}" for i in range(41)), ("NN",) * 41)
    roles = RoleAnnotation.make("F", {"r": {(0, 0)}}, 0)
    b = BiSentence(
        src=Sentence(("a",), ("NN",)), tgt=tgt,
        links=frozenset((0, t) for t in tgt_tokens),
        src_roles=roles,
    )
    view = apply_word_filters(b, (), DEFAULT_CONTENT_PREFIXES)
    out = project_word_based(view, roles, fill=True, predicate=0)
    assert out.provenance["r"].unprojected == (not tgt_tokens)
    return out.annotation.tokens_of("r") if out.annotation.roles else None


def test_fill_gaps_examples():
    assert word_fill({3, 5}) == {3, 4, 5}
    assert word_fill({2}) == {2}
    assert word_fill({1, 2, 3}) == {1, 2, 3}
    assert word_fill(set()) is None


@given(st.sets(st.integers(0, 40), min_size=1))
def test_fill_gaps_is_the_extremal_interval(tokens):
    filled = word_fill(tokens)
    assert min(filled) == min(tokens) and max(filled) == max(tokens)
    assert filled == set(range(min(tokens), max(tokens) + 1))
    assert tokens <= filled


# --- unit-level projection -------------------------------------------------

def make_alignment(pairs):
    return SemanticAlignment(tuple(sorted(pairs)), 0.0)


def test_project_is_the_image_of_the_role_units():
    roles = RoleAnnotation.make("F", {"r": {(0, 1)}}, 0)
    alignment = make_alignment([(1, 2, 0.9), (3, 4, 0.8)])
    tgt_tree = parse_tree("(S " + " ".join(f"(X x{i})" for i in range(8)) + ")")
    out = project(
        alignment,
        roles,
        {"r": (1, 3)},
        tgt_tree.spans,  # node k + 1 is token k
        predicate=0,
    )
    assert out.annotation.spans_of("r") == {(1, 1), (3, 3)}
    assert out.provenance["r"].links == ((1, 2, 0.9), (3, 4, 0.8))


def test_project_empty_alignment_preserves_frame():
    roles = RoleAnnotation.make("FRAME", {"r": {(0, 0)}}, 0)
    out = project(
        make_alignment([]),
        roles,
        {"r": (0,)},
        parse_tree("(S (X a))").spans,
        predicate=3,
    )
    assert out.annotation.frame == "FRAME"
    assert out.annotation.roles == ()
    assert out.provenance["r"].unprojected


def test_projected_spans_are_normalized_intervals():
    roles = RoleAnnotation.make("F", {"r": {(0, 0)}}, 0)
    out = project(
        make_alignment([(0, 1, 0.5), (0, 4, 0.5), (0, 8, 0.5)]),
        roles,
        {"r": (0,)},
        parse_tree("(S (A (X a) (X b)) (X c) (C (X d) (X e)) (X f))").spans,
        predicate=0,
    )
    assert out.annotation.spans_of("r") == {(0, 2), (5, 5)}


def test_a_constituent_its_child_and_its_sibling_merge_into_one_span():
    # node 1 is A over tokens 0-1, node 2 its child over token 0, node 4
    # the sibling over token 2, next to A
    tgt_spans = parse_tree("(S (A (X a) (X b)) (X c) (X d))").spans
    links = [(0, 1, 0.5), (0, 2, 0.25), (0, 4, 0.5)]
    roles = RoleAnnotation.make("F", {"r": {(0, 0)}}, 0)
    out = project(make_alignment(links), roles, {"r": (0,)}, tgt_spans, predicate=0)
    assert out.annotation.spans_of("r") == {(0, 2)}
    assert out.provenance["r"].links == tuple(links)


# --- word-based projection --------------------------------------------------

def test_word_based_figure1_message(figure1):
    view = apply_word_filters(figure1, (), DEFAULT_CONTENT_PREFIXES)
    out = project_word_based(view, figure1.src_roles, fill=False, predicate=1)
    # the noisy links send MESSAGE onto the truncated "pünktlich zu"
    assert out.annotation.spans_of("MESSAGE") == {(3, 4)}


def test_word_based_unaligned_role_is_unprojected(figure1):
    roles = RoleAnnotation.make("F", {"GHOST": {(3, 3)}}, 1)  # "be" is unaligned
    b = BiSentence(
        src=figure1.src, tgt=figure1.tgt, links=figure1.links, src_roles=roles
    )
    view = apply_word_filters(b, (), DEFAULT_CONTENT_PREFIXES)
    out = project_word_based(view, roles, fill=False, predicate=1)
    assert out.annotation.roles == ()
    assert out.provenance["GHOST"].unprojected


def test_word_based_bijective_single_token():
    src = parse_tree("(S (A a) (B b))")
    tgt = parse_tree("(S (A x) (B y))")
    roles = RoleAnnotation.make("F", {"r": {(1, 1)}}, 0)
    b = BiSentence(
        src=src.sentence, tgt=tgt.sentence,
        links=parse_alignment("0-0 1-1", 2, 2), src_roles=roles,
    )
    view = apply_word_filters(b, (), DEFAULT_CONTENT_PREFIXES)
    out = project_word_based(view, roles, fill=False, predicate=0)
    assert out.annotation.spans_of("r") == {(1, 1)}


@given(
    st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8),
    st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
)
def test_word_based_projection_is_monotone_in_links(links, extra):
    sent = Sentence(tuple(f"w{i}" for i in range(6)), ("NN",) * 6)
    roles = RoleAnnotation.make("F", {"r": {(0, 2)}}, 0)

    def run(link_set):
        b = BiSentence(
            src=sent, tgt=sent,
            links=link_set, src_roles=roles,
        )
        view = apply_word_filters(b, (), DEFAULT_CONTENT_PREFIXES)
        out = project_word_based(view, roles, fill=False, predicate=0)
        if not out.annotation.roles:
            return frozenset()
        return out.annotation.tokens_of("r")

    assert run(links) <= run(links | extra)


# --- argument filter ---------------------------------------------------------

def test_argument_filter_figure4(figure1):
    ids = argument_filter(figure1.tgt_tree, 1)
    got = {(figure1.tgt_tree.labels[i], figure1.tgt_tree.spans[i]) for i in ids}
    assert got == {("NP", (0, 0)), ("S", (3, 5))}


def test_argument_filter_flat_tree_keeps_other_preterminals():
    tree = parse_tree("(S (A a) (B b) (C c) (D d))")
    ids = argument_filter(tree, 2)
    assert {tree.labels[i] for i in ids} == {"A", "B", "D"}


def test_argument_filter_lone_predicate_yields_nothing():
    tree = parse_tree("(S (VP (VBD ran)))")
    assert argument_filter(tree, 0) == []


def test_argument_filter_skips_punctuation():
    tree = parse_tree("(S (NN dog) ($, ,) (VBD ran) (. .))")
    ids = argument_filter(tree, 2)
    assert {tree.labels[i] for i in ids} == {"NN"}


def test_argument_filter_soundness(figure1, toy_corpus):
    for b in [figure1, *toy_corpus]:
        tree = b.tgt_tree
        pred = target_predicate(b)
        ids = argument_filter(tree, pred)
        pred_ancestors = set(ancestors(tree, preterminal_nodes(tree)[pred]))
        parents = parent_links(tree)
        for i in ids:
            assert pred not in node_yield(tree, i), "must not dominate the predicate"
            assert parents[i] in pred_ancestors, "must be the child of an ancestor"


def test_argument_filter_boundary_labels_stop_the_walk():
    # three clause levels: the walk passes the lowest clause, processes the
    # second one, and stops before reaching the root clause
    line = (
        "(S (NP (NN anna)) (VP (VBD thought) (S (NP (NN mary)) (VP (VBD said) "
        "(S (NP (NN kim)) (VP (VBD ran) (ADVP (RB fast))))))))"
    )
    tree = parse_tree(line)
    unrestricted = argument_filter(tree, 5)  # predicate "ran"
    spans = {tree.spans[i] for i in unrestricted}
    assert (0, 0) in spans  # reaches "anna" at the root without boundaries
    restricted = argument_filter(tree, 5, boundary_labels=frozenset({"S"}))
    spans = {tree.spans[i] for i in restricted}
    assert (0, 0) not in spans
    assert spans == {(2, 2), (3, 3), (4, 4), (6, 6)}


BOUNDARY_LABEL_SETS = [
    frozenset(labels)
    for r in range(len(TREE_LABELS) + 1)
    for labels in itertools.combinations(TREE_LABELS, r)
]


@given(trees())
def test_argument_filter_equals_the_walk_up_from_the_predicate(text):
    tree = parse_tree(text)
    for pred in range(len(tree.sentence)):
        for labels in BOUNDARY_LABEL_SETS:
            assert argument_filter(tree, pred, labels) == reference_argument_filter(
                tree, pred, labels
            )


def test_argument_filter_walks_a_deep_unary_chain():
    depth = 5000
    tree = parse_tree("(S (NN x) " + "(S " * depth + "(VB a)" + ")" * (depth + 1))
    chain_top = 2  # node 1 is "x"; the chain's bottom S holds "a"
    assert argument_filter(tree, 0) == [chain_top]
    assert argument_filter(tree, 0, frozenset({"S"})) == [chain_top]
    assert argument_filter(tree, 1) == [1]
    # The second-lowest S is inside the chain, whose nodes have one child each.
    assert argument_filter(tree, 1, frozenset({"S"})) == []


def test_argument_filter_stops_where_no_child_holds_the_predicate():
    # Hand-built and inconsistent: the root spans both tokens, but both of
    # its children claim token 0 alone.
    tree = ParseTree(
        Sentence(("a", "b"), ("NN", "NN")),
        ("S", "NN", "NN"),
        ((0, 1), (0, 0), (0, 0)),
        ((1, 2), (), ()),
    )
    assert argument_filter(tree, 1) == [1, 2]


def test_argument_filter_range_check(figure1):
    with pytest.raises(ValidationError):
        argument_filter(figure1.tgt_tree, 17)


# --- source unit resolution ---------------------------------------------------

def test_resolve_exact_single_constituent(figure1):
    units = resolve_role_units(
        figure1.src_tree, figure1.src_roles.spans_of("MESSAGE")
    )
    assert [figure1.src_tree.spans[u] for u in units] == [(2, 5)]


def test_resolve_prefers_deepest_on_equal_yield():
    tree = parse_tree("(S (NP (NNP Kim)) (VBD ran))")
    units = resolve_role_units(tree, {(0, 0)})
    # NP and NNP share the yield; the preterminal is deeper
    assert [tree.labels[u] for u in units] == ["NNP"]


def test_resolve_tiles_with_largest_pieces():
    tree = parse_tree("(S (NP (DT the) (NN cat)) (VP (VBD sat) (RB down)))")
    units = resolve_role_units(tree, {(0, 2)})
    assert [tree.spans[u] for u in units] == [(0, 1), (2, 2)]


def test_resolve_multi_span_role():
    tree = parse_tree("(S (A a) (B b) (C c) (D d))")
    units = resolve_role_units(tree, {(0, 0), (2, 3)})
    assert [tree.spans[u] for u in units] == [(0, 0), (2, 2), (3, 3)]


def test_resolve_rejects_a_span_past_the_sentence():
    tree = parse_tree("(S (NP (DT the) (NN cat)) (VBD sat))")
    with pytest.raises(ValidationError, match="1-3"):
        resolve_role_units(tree, {(1, 3)})


@st.composite
def tree_and_role(draw):
    """A random bracketing and a valid role on it: disjoint spans, any split."""
    tree = parse_tree(draw(trees()))
    spans, start = set(), None
    for i in range(len(tree.sentence)):
        inside, split = draw(st.booleans()), draw(st.booleans())
        if start is not None and (not inside or split):
            spans.add((start, i - 1))
            start = None
        if inside and start is None:
            start = i
    if start is not None:
        spans.add((start, len(tree.sentence) - 1))
    return tree, RoleAnnotation.make("F", {"R": spans}, 0)


@given(tree_and_role())
def test_resolved_units_tile_the_role_exactly(case):
    tree, role = case
    units = resolve_role_units(tree, role.spans_of("R"))
    yields = [node_yield(tree, u) for u in units]
    assert sum(len(y) for y in yields) == len(frozenset().union(*yields))
    assert frozenset().union(*yields) == role.tokens_of("R")
    # Each unit is the bottom of its unary chain, and the lowest ancestor
    # with a larger yield reaches outside the span holding the unit.
    for u in units:
        lo, hi = tree.spans[u]
        ((a, b),) = [(a, b) for a, b in role.spans_of("R") if a <= lo and hi <= b]
        assert len(tree.children[u]) != 1
        larger = [p for p in ancestors(tree, u) if tree.spans[p] != (lo, hi)]
        if larger:
            p_lo, p_hi = tree.spans[larger[0]]
            assert p_lo < a or p_hi > b


# --- pipeline ------------------------------------------------------------------

def test_pipeline_figure1_perfect(figure1):
    out = run_pipeline(figure1, PipelineConfig(model="perfect"))
    assert serialize_roles(out.annotation) == "#0 COMMITMENT 1\nMESSAGE\t3-5\nSPEAKER\t0-0"


def test_pipeline_figure1_word_fill(figure1):
    out = run_pipeline(figure1, PipelineConfig(model="word", fill_gaps=True))
    assert serialize_roles(out.annotation) == "#0 COMMITMENT 1\nMESSAGE\t3-4\nSPEAKER\t0-0"


def test_pipeline_is_deterministic(figure1):
    cfg = PipelineConfig(model="edgecover", filters=frozenset({"arg"}))
    a = run_pipeline(figure1, cfg)
    b = run_pipeline(figure1, cfg)
    assert a.annotation == b.annotation


def test_pipeline_requires_trees_for_constituent_models(figure1):
    stripped = BiSentence(
        src=figure1.src, tgt=figure1.tgt, links=figure1.links,
        src_roles=figure1.src_roles,
    )
    with pytest.raises(ConfigError, match="tree"):
        run_pipeline(stripped, PipelineConfig(model="perfect"))
    # the word model runs fine without any tree
    out = run_pipeline(stripped, PipelineConfig(model="word"))
    assert out.annotation.frame == "COMMITMENT"


@pytest.mark.parametrize("model", ["word", "perfect", "edgecover", "total"])
@pytest.mark.parametrize("link", [(1, 5), (0, -1), (-1, 0)])
def test_a_link_outside_the_sentences_is_a_validation_error_naming_it(model, link):
    # A negative index would wrap to the last token: A at 0-0 went to 1-1
    # under word and total and to 0-1 under perfect.
    t = parse_tree("(S (NN a) (NN b))")
    roles = RoleAnnotation.make("F", {"A": {(0, 0)}}, 1)
    with pytest.raises(ValidationError) as exc:
        b = BiSentence(t.sentence, t.sentence, frozenset({(0, 0), link}), t, t, roles)
        run_pipeline(b, PipelineConfig(model=model))
    assert str(exc.value) == f"link {link[0]}-{link[1]} out of range for lengths 2/2"


def test_pipeline_rejects_fill_gaps_outside_word_model():
    with pytest.raises(ConfigError):
        PipelineConfig(model="perfect", fill_gaps=True)


def test_pipeline_arg_filter_with_unaligned_predicate_degrades(figure1):
    roles = RoleAnnotation.make("F", {"MESSAGE": {(2, 5)}}, 3)  # "be" unaligned
    b = BiSentence(
        src=figure1.src, tgt=figure1.tgt, links=figure1.links,
        src_tree=figure1.src_tree, tgt_tree=figure1.tgt_tree, src_roles=roles,
    )
    out = run_pipeline(b, PipelineConfig(model="perfect", filters=frozenset({"arg"})))
    assert any("argument filter" in w for w in out.warnings)
    assert out.annotation.predicate == -1


def test_pipeline_zero_similarity_roles_are_unprojected(figure1):
    # a role on an unaligned single token yields an all-zero similarity row
    roles = RoleAnnotation.make("F", {"GHOST": {(3, 3)}}, 1)
    b = BiSentence(
        src=figure1.src, tgt=figure1.tgt, links=figure1.links,
        src_tree=figure1.src_tree, tgt_tree=figure1.tgt_tree, src_roles=roles,
    )
    out = run_pipeline(b, PipelineConfig(model="total"))
    assert out.annotation.roles == ()
    assert out.provenance["GHOST"].unprojected


def test_pipeline_empty_argument_set_warns_and_projects_nothing():
    src = parse_tree("(S (NP (NNP Kim)) (VBD ran))")
    tgt = parse_tree("(S (VP (VBD lief)))")
    roles = parse_roles_block("#0 MOTION 1\nAGENT\t0-0")[1]
    b = BiSentence(
        src=src.sentence, tgt=tgt.sentence,
        links=parse_alignment("1-0", 2, 1),
        src_tree=src, tgt_tree=tgt, src_roles=roles,
    )
    out = run_pipeline(b, PipelineConfig(model="perfect", filters=frozenset({"arg"})))
    assert out.annotation.roles == ()
    assert out.annotation.frame == "MOTION" and out.annotation.predicate == 0
    assert out.provenance == {"AGENT": RoleProvenance()}
    assert any("no target units" in w for w in out.warnings)


def test_target_predicate_picks_lowest_image(figure1):
    assert target_predicate(figure1) == 1


def test_perfect_pipeline_never_shares_a_target_unit(toy_corpus):
    for b in toy_corpus:
        out = run_pipeline(b, PipelineConfig(model="perfect"))
        seen = set()
        for label, prov in out.provenance.items():
            targets = {t for _, t, _ in prov.links}
            assert not (targets & seen), f"{label} reuses a target unit"
            seen |= targets
