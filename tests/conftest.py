import itertools
import os
from bisect import bisect_left
from itertools import chain

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


def parent_links(tree) -> list[int | None]:
    """Each node's parent, derived from ``children``; None at the root."""
    parents = [None] * len(tree.labels)
    for node, kids in enumerate(tree.children):
        for child in kids:
            parents[child] = node
    return parents


def preterminal_nodes(tree) -> list[int]:
    """Token i's node at index i: the preterminals in preorder."""
    return [n for n, kids in enumerate(tree.children) if not kids]


def ancestors(tree, node: int) -> list[int]:
    """A tree node's parent chain, from its parent up to the root."""
    parents = parent_links(tree)
    chain = []
    parent = parents[node]
    while parent is not None:
        chain.append(parent)
        parent = parents[parent]
    return chain


def reference_argument_filter(tree, predicate: int, boundary_labels=frozenset()) -> list[int]:
    """``projection.argument_filter`` as a walk up from the predicate's
    preterminal, kept as the reference for the walk down from the root.

    Each ancestor's children that do not dominate the predicate and are not
    punctuation are kept; with ``boundary_labels``, the walk stops after
    the second clause-labeled ancestor.
    """
    parents = parent_links(tree)
    kept = set()
    clauses_seen = 0
    anc = parents[preterminal_nodes(tree)[predicate]]
    while anc is not None:
        for child in tree.children[anc]:
            lo, hi = tree.spans[child]
            if lo <= predicate <= hi:
                continue
            if not tree.children[child] and not any(ch.isalpha() for ch in tree.labels[child]):
                continue
            kept.add(child)
        if tree.labels[anc] in boundary_labels:
            clauses_seen += 1
            if clauses_seen >= 2:
                break
        anc = parents[anc]
    return sorted(kept)


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


# ``lap.lexmin_perfect_matching`` before its search closed a cycle at the
# first row adjacent to ``home``, verbatim but for its name: it closes only
# on reaching ``home`` itself.
def reference_lexmin_perfect_matching(adm: np.ndarray, col_of_row: np.ndarray, pad=None) -> np.ndarray:
    """Lexicographically smallest perfect matching within the admissible graph.

    ``adm`` is the n×m tight-cell matrix, standing for the max(n, m) square
    whose |n - m| missing nodes ("padding") have cost 0 and dual 0.  A
    padding node is tight against the larger-side nodes marked in ``pad``,
    a boolean mask over that side; None marks none.  ``col_of_row`` is a
    perfect matching of the square inside the admissible graph (the LAP
    solution is, by complementary slackness), with -1 for a row that holds
    a padding column.  Rows are fixed in order; for each the smallest
    admissible column that still admits a completion is kept, padding
    columns ranking after every real one.  The result, with -1 for rows
    left on padding, is the lexicographic minimum among all optimal
    matchings under (row, column) ordering.

    Row i moves off its current column ``home`` by one depth-first search,
    run only when some admissible column below ``home`` is not locked by an
    earlier row.  The first level tries those columns in increasing order;
    from a column the search continues at the row holding it, over every
    admissible column not locked.  Reaching ``home`` closes an alternating
    cycle, and each row on it takes the next column.  The matching does not
    change while the search runs, so a column from which ``home`` was
    unreachable for one candidate stays so for the next, and the visited
    marks persist across all of i's candidates.

    Padding nodes are interchangeable, so the square is never built:

    * n < m: one virtual row, index n, holds every column no real row
      holds, and is adjacent to the ``pad`` columns.  A search goes on from
      it only to ``pad`` columns that real rows hold; the others lead back
      to it.  All its visits in a search share one iterator over them,
      which a fresh iterator over the square's next padding row would only
      repeat.
    * n > m: the padding column a row r holds is numbered m + r.  Rows in
      ``pad`` reach, after their real columns, one cursor per search over
      the unlocked rows that hold padding; a row homed on padding yields
      its own first, so reaching it closes the cycle.
    """
    n, m = adm.shape
    tight_rows, tight_cols = np.nonzero(adm)
    # No row moves when each tight column below a row's home (m for a row
    # on padding) is held by an earlier row: every row then finds all of
    # them locked.  holder[c] is n for a column no real row holds, so such
    # a column fails the test; rows on padding write only to holder[m].
    col_of_row = np.asarray(col_of_row, dtype=int)
    homes = np.where(col_of_row < 0, m, col_of_row)
    holder = np.full(m + 1, n)
    holder[homes] = np.arange(n)
    if not ((tight_cols < homes[tight_rows]) & (holder[tight_cols] >= tight_rows)).any():
        return col_of_row.copy()

    pad = [False] * max(n, m) if pad is None else np.asarray(pad, dtype=bool).tolist()
    pad_row = pad if n > m else [False] * n
    ends = np.cumsum(np.bincount(tight_rows, minlength=n)).tolist()
    flat = tight_cols.tolist()
    adm_cols = [flat[a:b] for a, b in zip([0, *ends], ends)]
    # match[n] is the virtual row's slot; row_of[m + r] is r's padding column.
    match = [*col_of_row.tolist(), -1]
    row_of = [n] * m + list(range(n))
    for i, j in enumerate(match[:n]):
        if j >= 0:
            row_of[j] = i
    # Locked columns stay marked; a search unmarks what it visited.
    seen = [False] * (m + n)

    for i in range(n):
        home = match[i] if match[i] >= 0 else m + i
        below = [c for c in adm_cols[i][: bisect_left(adm_cols[i], home)] if not seen[c]]
        if below:
            if n <= m:
                # The virtual row's columns that lead on to a real row.
                shared = (match[r] for r in range(i, n) if pad[match[r]])
            else:
                shared = chain(
                    (home,) if home >= m else (),
                    (m + r for r in range(i + 1, n) if match[r] < 0),
                )
            # rows[k] was reached through column path[k - 1], and todo[k]
            # holds the columns of rows[k] not tried yet.
            rows, todo, path, visited = [i], [iter(below)], [], []
            while rows:
                for j in todo[-1]:
                    if not seen[j]:
                        break
                else:
                    rows.pop()
                    todo.pop()
                    if path:
                        path.pop()
                    continue
                path.append(j)
                if j == home:
                    for r, c in zip(rows, path):
                        if c < m:
                            match[r] = c
                            row_of[c] = r
                        else:
                            match[r] = -1
                    break
                seen[j] = True
                visited.append(j)
                r = row_of[j]
                rows.append(r)
                if r == n:
                    todo.append(shared)
                elif pad_row[r]:
                    todo.append(chain(adm_cols[r], shared))
                else:
                    todo.append(iter(adm_cols[r]))
            for c in visited:
                seen[c] = False
        if match[i] >= 0:
            seen[match[i]] = True
    return np.array(match[:n], dtype=int)


def record_runs(monkeypatch, name: str) -> list:
    """A list that gains one entry per call of the ``lap`` function ``name``."""
    runs = []
    real = getattr(lap, name)

    def spy(*args):
        runs.append(1)
        return real(*args)

    monkeypatch.setattr(lap, name, spy)
    return runs


def record_ceiling_runs(monkeypatch) -> list:
    """A list that gains one entry per ``lap._solve_below_ceiling`` call."""
    return record_runs(monkeypatch, "_solve_below_ceiling")


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


# The phrase labels of ``trees()``.
TREE_LABELS = ("S", "NP", "VP", "PP", "X")


@st.composite
def trees(draw, max_depth=4):
    labels = st.sampled_from(TREE_LABELS)
    tags = st.sampled_from(["NN", "DT", "VBZ", "JJ"])
    words = st.sampled_from(["cat", "dog", "runs", "the", "green"])

    def node(depth):
        if depth >= max_depth or draw(st.booleans()):
            return f"({draw(tags)} {draw(words)})"
        k = draw(st.integers(1, 3))
        inner = " ".join(node(depth + 1) for _ in range(k))
        return f"({draw(labels)} {inner})"

    return node(0)
