import itertools
import os

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from roleproj import fixtures, lap, oracle
from roleproj.corpus import load_corpus
from roleproj.lap import lexmin_perfect_matching
from roleproj.matcher import COST_ATOL, AlignmentGraph, build_graph

ACCEPTANCE_LINES: list[str] = []

# CI sets HYPOTHESIS_PROFILE=ci: more examples per property test, and a
# reproducer blob printed with every failure.
settings.register_profile("ci", max_examples=500, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fixture_set_paths(directory) -> dict[str, str]:
    """The ``load_corpus`` keywords that name an emitted fixture set's trees,
    alignment and source roles: the inputs of ``roleproj project``."""
    return {f"{name}_path": os.path.join(directory, name.replace("_", "."))
            for name in ("src_trees", "tgt_trees", "align", "src_roles")}


@pytest.fixture(scope="session")
def fixture_records(tmp_path_factory):
    """Both bundled fixture sets, emitted once and read back through
    ``load_corpus`` as ``roleproj project`` reads them.  The records are
    frozen, so the tests share them."""
    root = tmp_path_factory.mktemp("fixtures")
    fixtures.emit(root)
    return {name: load_corpus(**fixture_set_paths(root / name)) for name in ("figure1", "toy")}


@pytest.fixture
def figure1(fixture_records):
    """The worked example, which is toy sentence 0."""
    (b,) = fixture_records["figure1"]
    return b


@pytest.fixture
def toy_corpus(fixture_records):
    return list(fixture_records["toy"])


@pytest.fixture
def fixture_dir(tmp_path):
    fixtures.emit(tmp_path)
    return tmp_path


def with_byte_order_mark(path) -> None:
    """Prefix a file with the UTF-8 byte-order mark, EF BB BF, as some
    editors save text."""
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def node_yield(tree, node: int) -> frozenset[int]:
    """The tokens a tree node dominates."""
    lo, hi = tree.spans[node]
    return frozenset(range(lo, hi + 1))


# The per-cell frozenset Jaccard that UnitSimilarity computed before it became
# matrix algebra, kept as the reference the array code must equal exactly.

def _set_jaccard(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def reference_matrix(view, src_tree, tgt_tree, src_units, tgt_units) -> np.ndarray:
    src_yield = {n: node_yield(src_tree, n) & view.included_src
                 for n in range(len(src_tree.labels))}
    tgt_yield = {n: node_yield(tgt_tree, n) & view.included_tgt
                 for n in range(len(tgt_tree.labels))}
    src_al = {k: frozenset(t for s, t in view.links if s in toks) for k, toks in src_yield.items()}
    tgt_al = {k: frozenset(s for s, t in view.links if t in toks) for k, toks in tgt_yield.items()}
    sim = np.zeros((len(src_units), len(tgt_units)))
    for i, s in enumerate(src_units):
        for j, t in enumerate(tgt_units):
            sim[i, j] = (
                _set_jaccard(src_al[s], tgt_yield[t]) + _set_jaccard(tgt_al[t], src_yield[s])
            ) / 2.0
    return sim


def ancestors(tree, node: int) -> list[int]:
    """A tree node's parent chain, from its parent up to the root."""
    chain = []
    parent = tree.parents[node]
    while parent is not None:
        chain.append(parent)
        parent = tree.parents[parent]
    return chain


def graph_of(sim) -> AlignmentGraph:
    """The graph of a similarity matrix whose unit ids are its indices."""
    sim = np.asarray(sim, dtype=float)
    n, m = sim.shape
    return build_graph(range(n), range(m), sim)


class _Searched(Exception):
    pass


def exits_early(adm, col_of_row, pad=None) -> bool:
    """Whether ``lap.lexmin_perfect_matching`` returns before any row's search.

    Every row the search loop visits calls ``bisect_left`` first.
    """
    def search(*args):
        raise _Searched

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lap, "bisect_left", search)
        try:
            lexmin_perfect_matching(adm, col_of_row, pad)
        except _Searched:
            return False
    return True


def enumerate_optimal_covers(g: AlignmentGraph, atol: float = COST_ATOL):
    """All optimal minimal edge covers as frozensets of links.

    Each optimal source->target function is completed with every
    combination of cost-tied cheapest repairs for the targets it leaves
    uncovered; covers with a many-to-many link are not minimal and are
    dropped.  The reference ``oracle.check`` is tested against.
    """
    oracle._guard(g)
    W = g.weights
    _, functions, covered = oracle._optimal_cover_functions(W, atol)
    out = set()
    for f, covered_row in zip(functions, covered):
        base = frozenset((i, int(t)) for i, t in enumerate(f))
        repairs = [
            [(int(s), int(t)) for s in oracle._tied_repairs(W, t, atol)]
            for t in np.flatnonzero(~covered_row)
        ]
        for chosen in itertools.product(*repairs):
            pairs = base.union(chosen)
            if not oracle._has_many_to_many(pairs):
                out.add(pairs)
    return out


def tree_to_line(tree) -> str:
    """A tree in canonical single-space bracketed form, the form
    ``corpus.parse_tree`` reads back to the same tree."""
    out = []
    todo: list[int | str] = [0]  # node ids still to render, and literal text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        label, kids = tree.labels[item], tree.children[item]
        if not kids:
            word = tree.sentence.surfaces[tree.spans[item][0]]
            out.append(f"({label} {word})")
            continue
        out.append(f"({label} ")
        todo.append(")")
        for child in reversed(kids[1:]):
            todo += [child, " "]
        todo.append(kids[0])
    return "".join(out)


def alignment_to_line(links) -> str:
    """Word links as a canonical ``.align`` line: sorted ``i-j`` pairs."""
    return " ".join(f"{s}-{t}" for s, t in sorted(links))


def sentence_to_tok_line(sentence) -> str:
    """A sentence as a ``.tok`` line of ``surface_POS`` tokens."""
    return " ".join(f"{s}_{t}" for s, t in zip(sentence.surfaces, sentence.tags))


def random_sim(rng, n, m, zero_frac=0.3) -> np.ndarray:
    sim = rng.random((n, m))
    sim[rng.random((n, m)) < zero_frac] = 0.0
    return sim


@st.composite
def trees(draw, max_depth=4):
    labels = st.sampled_from(["S", "NP", "VP", "PP", "X"])
    tags = st.sampled_from(["NN", "DT", "VBZ", "JJ"])
    words = st.sampled_from(["cat", "dog", "runs", "the", "green"])

    def node(depth):
        if depth >= max_depth or draw(st.booleans()):
            return f"({draw(tags)} {draw(words)})"
        k = draw(st.integers(1, 3))
        inner = " ".join(node(depth + 1) for _ in range(k))
        return f"({draw(labels)} {inner})"

    return node(0)
