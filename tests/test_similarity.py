import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import node_yield, reference_matrix
from roleproj import similarity
from roleproj.corpus import (
    DEFAULT_CONTENT_PREFIXES,
    BiSentence,
    BiSentenceView,
    apply_word_filters,
    parse_alignment,
    parse_tree,
)
from roleproj.errors import ConfigError
from roleproj.pipeline import PipelineConfig
from roleproj.projection import argument_filter
from roleproj.similarity import UnitSimilarity, to_weights


def clause(tree, span):
    hits = [n for n, s in enumerate(tree.spans) if s == span and tree.children[n]]
    assert hits
    return hits[-1]


# The aligned words of a constituent: the alignment image of its yield.

def image(links, src_tokens):
    return {t for s, t in links if s in src_tokens}


def test_aligned_words_figure1(figure1):
    c = clause(figure1.src_tree, (2, 5))  # "to be on time"
    got = image(figure1.links, node_yield(figure1.src_tree, c))
    assert got == {3, 4}  # pünktlich, zu


def test_aligned_words_reverse_direction(figure1):
    c = clause(figure1.tgt_tree, (3, 5))  # "pünktlich zu kommen"
    tgt_tokens = node_yield(figure1.tgt_tree, c)
    got = {s for s, t in figure1.links if t in tgt_tokens}
    assert got == {2, 5}  # to, time


def test_aligned_words_whole_sentence(figure1):
    got = image(figure1.links, node_yield(figure1.src_tree, 0))
    assert got == {t for _, t in figure1.links}


def test_aligned_words_empty():
    tree = parse_tree("(S (NN a))")
    links = parse_alignment("", 1, 1)
    assert image(links, node_yield(tree, 0)) == set()


def test_figure1_overlap_and_sim(figure1):
    view = apply_word_filters(figure1, (), DEFAULT_CONTENT_PREFIXES)
    ctx = UnitSimilarity(view, figure1.src_tree, figure1.tgt_tree)
    c_s = clause(figure1.src_tree, (2, 5))
    c_t = clause(figure1.tgt_tree, (3, 5))
    fwd, bwd = ctx.overlaps([c_s], [c_t])
    assert fwd.shape == bwd.shape == (1, 1)
    assert fwd[0, 0] == pytest.approx(2 / 3, abs=1e-12)
    assert bwd[0, 0] == pytest.approx(1 / 2, abs=1e-12)
    m = ctx.matrix([c_s], [c_t])
    assert m[0, 0] == pytest.approx(7 / 12, abs=1e-12)


def test_overlap_identical_and_disjoint():
    src = parse_tree("(S (A a) (B b))")
    tgt = parse_tree("(S (A x) (B y))")

    perfect = BiSentence(
        src=src.sentence, tgt=tgt.sentence,
        links=parse_alignment("0-0 1-1", 2, 2),
        src_tree=src, tgt_tree=tgt,
    )
    ctx = UnitSimilarity(apply_word_filters(perfect, (), DEFAULT_CONTENT_PREFIXES), src, tgt)
    assert ctx.matrix([0], [0])[0, 0] == 1.0  # roots perfectly mutually aligned

    none = BiSentence(
        src=src.sentence, tgt=tgt.sentence,
        links=parse_alignment("", 2, 2),
        src_tree=src, tgt_tree=tgt,
    )
    ctx0 = UnitSimilarity(apply_word_filters(none, (), DEFAULT_CONTENT_PREFIXES), src, tgt)
    # empty alignment: empty-union overlap is defined as zero
    assert ctx0.matrix([0], [0])[0, 0] == 0.0


def test_sim_is_symmetric_under_side_swap(figure1):
    view = apply_word_filters(figure1, (), DEFAULT_CONTENT_PREFIXES)
    fwd = UnitSimilarity(view, figure1.src_tree, figure1.tgt_tree)
    flipped = BiSentence(
        src=figure1.tgt,
        tgt=figure1.src,
        links=frozenset((t, s) for s, t in figure1.links),
        src_tree=figure1.tgt_tree,
        tgt_tree=figure1.src_tree,
    )
    view = apply_word_filters(flipped, (), DEFAULT_CONTENT_PREFIXES)
    bwd = UnitSimilarity(view, figure1.tgt_tree, figure1.src_tree)
    src_ids = list(range(len(figure1.src_tree.labels)))
    tgt_ids = list(range(len(figure1.tgt_tree.labels)))
    # swapping the sides swaps the two overlaps, and their mean is exact
    f_src, f_tgt = fwd.overlaps(src_ids, tgt_ids)
    b_src, b_tgt = bwd.overlaps(tgt_ids, src_ids)
    assert (f_src == b_tgt.T).all() and (f_tgt == b_src.T).all()
    assert (fwd.matrix(src_ids, tgt_ids) == bwd.matrix(tgt_ids, src_ids).T).all()


def test_to_weights_examples():
    w = to_weights(np.array([[1.0, 0.0, 0.5]]))
    assert w[0, 0] == 0.0
    assert w[0, 1] == 1e6
    assert w[0, 2] == pytest.approx(math.log(2), abs=1e-12)


@given(st.lists(st.integers(1, 10**6), min_size=2, max_size=20, unique=True))
def test_to_weights_strictly_antitone(grid):
    sims = sorted(k / 10**6 for k in grid)
    w = to_weights(np.array([sims]))[0]
    assert all(w[k] > w[k + 1] for k in range(len(sims) - 1))


def test_na_filter_figure1(figure1):
    view = apply_word_filters(figure1, {"na"}, DEFAULT_CONTENT_PREFIXES)
    # "be" and "kommen" are unaligned, hence excluded
    assert 3 not in view.included_src
    assert 5 not in view.included_tgt
    # so are "on" and the comma
    assert view.included_src == {0, 1, 2, 5}
    assert view.included_tgt == {0, 1, 3, 4}
    # links are untouched: their endpoints are aligned by definition
    assert view.links == figure1.links


def test_na_filter_noop_when_fully_aligned():
    src = parse_tree("(S (A a) (B b))")
    tgt = parse_tree("(S (A x) (B y))")
    b = BiSentence(src=src.sentence, tgt=tgt.sentence,
                   links=parse_alignment("0-0 1-1", 2, 2),
                   src_tree=src, tgt_tree=tgt)
    view = apply_word_filters(b, {"na"}, DEFAULT_CONTENT_PREFIXES)
    assert view.included_src == {0, 1} and view.included_tgt == {0, 1}


def test_na_filter_empty_alignment_excludes_everything(figure1):
    b = BiSentence(src=figure1.src, tgt=figure1.tgt,
                   links=parse_alignment("", 6, 6))
    view = apply_word_filters(b, {"na"}, DEFAULT_CONTENT_PREFIXES)
    assert view.included_src == frozenset() and view.included_tgt == frozenset()


def test_nc_filter_drops_function_words(figure1):
    view = apply_word_filters(figure1, {"nc"}, DEFAULT_CONTENT_PREFIXES)
    src_pos = dict(enumerate(figure1.src.tags))
    assert all(src_pos[i] not in ("TO", "IN") for i in view.included_src)
    assert 1 in view.included_src  # promised, VBD
    assert 3 in view.included_src  # be, VB
    # link to--zu touches excluded tokens on both sides
    assert (2, 4) not in view.links
    assert (5, 3) in view.links


def test_nc_filter_all_function_words_zeroes_similarity():
    src = parse_tree("(S (DT the) (IN of))")
    tgt = parse_tree("(S (ART der) (APPR von))")
    b = BiSentence(src=src.sentence, tgt=tgt.sentence,
                   links=parse_alignment("0-0 1-1", 2, 2),
                   src_tree=src, tgt_tree=tgt)
    view = apply_word_filters(b, {"nc"}, DEFAULT_CONTENT_PREFIXES)
    ctx = UnitSimilarity(view, src, tgt)
    m = ctx.matrix(list(range(len(src.labels))), list(range(len(tgt.labels))))
    assert (m == 0.0).all()


def test_filters_only_exclude(figure1):
    base = apply_word_filters(figure1, (), DEFAULT_CONTENT_PREFIXES)
    for filters in ({"na"}, {"nc"}, {"na", "nc"}):
        view = apply_word_filters(figure1, filters, DEFAULT_CONTENT_PREFIXES)
        assert view.included_src <= base.included_src
        assert view.included_tgt <= base.included_tgt
        assert view.links <= base.links


def test_apply_word_filters_composes(figure1):
    both = apply_word_filters(figure1, {"na", "nc"}, DEFAULT_CONTENT_PREFIXES)
    na_only = apply_word_filters(figure1, {"na"}, DEFAULT_CONTENT_PREFIXES)
    nc_only = apply_word_filters(figure1, {"nc"}, DEFAULT_CONTENT_PREFIXES)
    assert both.included_src == na_only.included_src & nc_only.included_src
    assert both.included_tgt == na_only.included_tgt & nc_only.included_tgt


def test_filter_config_validates():
    with pytest.raises(ConfigError):
        PipelineConfig(filters=frozenset({"bogus"}))
    with pytest.raises(ConfigError):
        PipelineConfig(content_pos_prefixes=frozenset(), filters=frozenset({"nc"}))


@given(
    st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8),
)
def test_full_overlap_implies_equal_sets(links):
    src = parse_tree("(S (A a) (B b) (C c) (D d))")
    tgt = parse_tree("(S (A w) (B x) (C y) (D z))")
    b = BiSentence(
        src=src.sentence, tgt=tgt.sentence,
        links=links, src_tree=src, tgt_tree=tgt,
    )
    src_ids, tgt_ids = range(len(src.labels)), range(len(tgt.labels))
    view = apply_word_filters(b, (), DEFAULT_CONTENT_PREFIXES)
    fwd, _ = UnitSimilarity(view, src, tgt).overlaps(src_ids, tgt_ids)
    for s in src_ids:
        for t in tgt_ids:
            if fwd[s, t] == 1.0:
                linked = image(b.links, node_yield(src, s))
                assert linked == node_yield(tgt, t) and linked


def test_matrix_values_in_unit_interval(figure1):
    view = apply_word_filters(figure1, (), DEFAULT_CONTENT_PREFIXES)
    ctx = UnitSimilarity(view, figure1.src_tree, figure1.tgt_tree)
    src_ids = list(range(len(figure1.src_tree.labels)))
    m = ctx.matrix(src_ids, list(range(len(figure1.tgt_tree.labels))))
    assert m.min() >= 0.0 and m.max() <= 1.0


WORD_FILTER_SETS = [frozenset(), frozenset({"na"}), frozenset({"nc"}), frozenset({"na", "nc"})]
TAGS = ("NN", "VBD", "JJ", "RB", "DT", "IN", "TO", ",")


@st.composite
def bracketings(draw, max_tokens=7):
    """A random bracketed tree over fresh tokens with content and function tags."""
    n = draw(st.integers(1, max_tokens))
    tags = draw(st.lists(st.sampled_from(TAGS), min_size=n, max_size=n))

    def node(lo, hi):
        if lo == hi:
            leaf = f"({tags[lo]} w{lo})"
            return f"(NP {leaf})" if draw(st.booleans()) else leaf
        label = draw(st.sampled_from(("S", "NP", "VP", "PP")))
        cuts = sorted(draw(st.sets(st.integers(lo + 1, hi), min_size=1)))
        bounds = [lo, *cuts, hi + 1]
        children = " ".join(node(a, b - 1) for a, b in zip(bounds, bounds[1:]))
        return f"({label} {children})"

    return parse_tree(f"(S {node(0, n - 1)})")


@st.composite
def bisentences(draw):
    src, tgt = draw(bracketings()), draw(bracketings())
    n, m = len(src.sentence), len(tgt.sentence)
    links = draw(st.one_of(
        st.just(frozenset()),
        st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=n * m),
    ))
    return BiSentence(src=src.sentence, tgt=tgt.sentence,
                      links=links, src_tree=src, tgt_tree=tgt)


# ``SMALL_MATRIX_CELLS`` values that send every test matrix down one path.
PATH_CUTOFFS = {"bitset": 10**9, "array": 0}


def matrix_on_each_path(sim, src_units, tgt_units) -> dict:
    """``sim.matrix`` computed on the bitset path and on the array path."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for path, cutoff in PATH_CUTOFFS.items():
            mp.setattr(similarity, "SMALL_MATRIX_CELLS", cutoff)
            out[path] = sim.matrix(src_units, tgt_units)
    return out


def assert_matches_reference(view, src_tree, tgt_tree, src_units, tgt_units):
    want = reference_matrix(view, src_tree, tgt_tree, src_units, tgt_units)
    sim = UnitSimilarity(view, src_tree, tgt_tree)
    for path, got in matrix_on_each_path(sim, src_units, tgt_units).items():
        assert got.dtype == np.float64 and got.shape == want.shape, path
        assert (got == want).all(), path


def assert_filtered_matches_reference(b, filters, tgt_units):
    view = apply_word_filters(b, filters, DEFAULT_CONTENT_PREFIXES)
    src_units = list(range(len(b.src_tree.labels)))
    assert_matches_reference(view, b.src_tree, b.tgt_tree, src_units, tgt_units)


@given(bisentences(), st.sampled_from(WORD_FILTER_SETS), st.data())
def test_matrix_equals_per_cell_reference(b, filters, data):
    all_units = list(range(len(b.tgt_tree.labels)))
    pred = data.draw(st.integers(0, len(b.tgt) - 1))
    args = argument_filter(b.tgt_tree, pred)
    for tgt_units in (all_units, args):
        assert_filtered_matches_reference(b, filters, tgt_units)


@pytest.mark.parametrize("filters", WORD_FILTER_SETS, ids=lambda f: ",".join(sorted(f)) or "none")
def test_matrix_equals_reference_on_figure1_and_its_empty_alignment(figure1, filters):
    empty = BiSentence(src=figure1.src, tgt=figure1.tgt,
                       links=parse_alignment("", len(figure1.src), len(figure1.tgt)),
                       src_tree=figure1.src_tree, tgt_tree=figure1.tgt_tree)
    for b in (figure1, empty):
        assert_filtered_matches_reference(b, filters, list(range(len(b.tgt_tree.labels))))
        assert_filtered_matches_reference(b, filters, argument_filter(b.tgt_tree, 1))


@given(bisentences(), st.sampled_from(WORD_FILTER_SETS), st.data())
def test_matrix_on_unit_subsets_is_the_block_of_the_all_units_matrix(b, filters, data):
    # Each path builds yields for the given units only, in the order given;
    # every value must still be bit-identical to the all-units matrix's.
    view = apply_word_filters(b, filters, DEFAULT_CONTENT_PREFIXES)
    sim = UnitSimilarity(view, b.src_tree, b.tgt_tree)
    n, m = len(b.src_tree.labels), len(b.tgt_tree.labels)
    full = matrix_on_each_path(sim, range(n), range(m))
    src_units = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    tgt_units = data.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
    got = matrix_on_each_path(sim, src_units, tgt_units)
    for path in PATH_CUTOFFS:
        assert np.array_equal(got[path], full[path][np.ix_(src_units, tgt_units)]), path


def test_matrix_of_no_units_is_an_empty_float64_array(figure1):
    view = apply_word_filters(figure1, (), DEFAULT_CONTENT_PREFIXES)
    sim = UnitSimilarity(view, figure1.src_tree, figure1.tgt_tree)
    for src_units, tgt_units in (([], [0, 1]), ([0, 1, 2], []), ([], [])):
        for path, got in matrix_on_each_path(sim, src_units, tgt_units).items():
            assert got.dtype == np.float64, path
            assert got.shape == (len(src_units), len(tgt_units)), path


def test_aligned_words_keep_their_far_ends_when_the_far_side_excludes_them():
    # A unit's aligned words are the far-side tokens linked to the kept
    # tokens of its yield, kept on the far side or not.  apply_word_filters
    # never builds such a view (na keeps both ends of every link, nc drops
    # the links it cuts), so it is built by hand here.
    src = parse_tree("(S (A a) (B b))")
    tgt = parse_tree("(S (A x) (B y))")
    links = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    b = BiSentence(src=src.sentence, tgt=tgt.sentence, links=links, src_tree=src, tgt_tree=tgt)
    view = BiSentenceView(b, included_src=frozenset({0}), included_tgt=frozenset({0}), links=links)
    units = [0, 1, 2]  # the root and the two preterminals, on either side
    assert_matches_reference(view, src, tgt, units, units)
    sim = UnitSimilarity(view, src, tgt)
    for path, got in matrix_on_each_path(sim, units, units).items():
        # The roots' yields are {a} and {x}, and each is linked to both
        # far-side tokens: 1/2 each way.  Masking the far ends would give 1.
        assert got[0, 0] == 0.5, path
        # b and y are excluded: empty yields, and no aligned words.
        assert (got[2, :] == 0.0).all() and (got[:, 2] == 0.0).all(), path


def test_the_bitset_path_serves_up_to_small_matrix_cells_and_the_array_path_beyond(monkeypatch):
    cutoff = similarity.SMALL_MATRIX_CELLS
    tree = parse_tree("(S " + " ".join(f"(NN w{i})" for i in range(cutoff + 1)) + ")")
    b = BiSentence(src=tree.sentence, tgt=tree.sentence,
                   links=frozenset((i, i) for i in range(0, cutoff + 1, 2)),
                   src_tree=tree, tgt_tree=tree)
    view = apply_word_filters(b, (), DEFAULT_CONTENT_PREFIXES)
    calls = []

    def recording(path, method):
        def wrapper(self, *args):
            calls.append(path)
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(UnitSimilarity, "_bitset_matrix",
                        recording("bitset", UnitSimilarity._bitset_matrix))
    monkeypatch.setattr(UnitSimilarity, "overlaps", recording("array", UnitSimilarity.overlaps))
    sim = UnitSimilarity(view, tree, tree)
    for cells, path in ((cutoff, "bitset"), (cutoff + 1, "array")):
        for src_units, tgt_units in (([0], range(cells)), (range(cells), [0])):
            calls.clear()
            got = sim.matrix(src_units, tgt_units)
            assert calls == [path]
            assert got.shape == (len(src_units), len(tgt_units))
            assert (got == reference_matrix(view, tree, tree, src_units, tgt_units)).all()
