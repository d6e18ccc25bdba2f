import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    enumerate_optimal_covers,
    exits_early,
    graph_of,
    random_sim,
    record_ceiling_runs,
)
from roleproj import lap, oracle
from roleproj.errors import DegenerateGraphError, OracleSizeError, ValidationError
from roleproj.matcher import (
    COST_ATOL,
    _strip_redundant_links,
    build_graph,
    dump_weight_table,
    solve,
    solve_edge_cover,
    solve_perfect_matching,
    solve_total,
)
from roleproj.oracle import MAX_CELLS, brute_force_optimum
from roleproj.projection import SemanticAlignment
from roleproj.similarity import to_weights

BIG = 1e6


def enumerate_optimal_perfect(g, atol=COST_ATOL):
    """All optimal perfect matchings as frozensets of links."""
    oracle._guard(g)
    return {frozenset(pairs) for pairs in oracle._optimal_matchings(g.weights, atol)}


def degrees(alignment):
    ds, dt = {}, {}
    for s, t, _ in alignment.links:
        ds[s] = ds.get(s, 0) + 1
        dt[t] = dt.get(t, 0) + 1
    return ds, dt


# --- graph construction -------------------------------------------------

def test_build_square_no_padding():
    g = graph_of(random_sim(np.random.default_rng(0), 4, 4))
    assert g.weights.shape == (4, 4)


def test_build_graph_never_pads():
    for n, m in ((6, 4), (4, 6), (1, 30)):
        sim = random_sim(np.random.default_rng(0), n, m)
        g = graph_of(sim)
        assert g.weights.shape == (n, m)
        assert (g.n_src_real, g.n_tgt_real) == (n, m)
        assert (g.weights == to_weights(sim)).all()


def test_build_no_padding_for_edge_cover():
    g = graph_of(random_sim(np.random.default_rng(0), 3, 5))
    assert g.weights.shape == (3, 5)


def test_build_rejects_empty_partition():
    with pytest.raises(DegenerateGraphError):
        graph_of(np.zeros((0, 3)))


@pytest.mark.parametrize(
    "src_units, tgt_units, shape",
    [((0,), (0, 1, 2), (2, 3)), ((0, 1), (0, 1), (2, 3)), ((0,), (), (0, 3)), ((), (), (1, 1))],
)
def test_build_rejects_a_shape_other_than_the_unit_counts(src_units, tgt_units, shape):
    message = "^similarity matrix shape does not match unit counts$"
    with pytest.raises(ValidationError, match=message):
        build_graph(src_units, tgt_units, np.full(shape, 0.5))


@pytest.mark.parametrize("value", [-0.25, -1e-300, 1.0 + 2**-52, 1.5, np.inf])
def test_build_rejects_similarities_outside_the_unit_interval(value):
    sim = np.full((2, 3), 0.5)
    sim[1, 2] = value
    with pytest.raises(ValidationError, match=r"^similarity values must lie in \[0, 1\]$"):
        build_graph((0, 1), (0, 1, 2), sim)


def test_build_accepts_the_ends_of_the_unit_interval():
    g = build_graph((3, 8), (1, 4), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert (g.src_units, g.tgt_units) == ((3, 8), (1, 4))
    assert g.weights.tolist() == [[BIG, 0.0], [0.0, BIG]]


# --- perfect matching ----------------------------------------------------

def weights_to_sim(w):
    # exact sims whose -log gives the wanted weights
    return np.exp(-np.asarray(w, dtype=float))


def test_perfect_diagonal_forced():
    g = graph_of(weights_to_sim([[0, 5], [5, 0]]))
    a = solve_perfect_matching(g)
    assert a.link_pairs() == ((0, 0), (1, 1))
    assert a.cost == pytest.approx(0.0, abs=1e-9)


def test_perfect_antidiagonal_forced():
    g = graph_of(weights_to_sim([[1, 0], [0, 1]]))
    a = solve_perfect_matching(g)
    assert a.link_pairs() == ((0, 1), (1, 0))
    assert a.cost == pytest.approx(0.0, abs=1e-9)


def test_perfect_matches_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = random_sim(rng, 5, 5)
        g = graph_of(m)
        got = solve_perfect_matching(g)
        ref = brute_force_optimum(g, "perfect")
        assert got.cost == pytest.approx(ref.cost, abs=1e-9)
        assert got.link_pairs() == ref.link_pairs()


def test_perfect_strips_padding_links():
    rng = np.random.default_rng(1)
    g = graph_of(random_sim(rng, 2, 5))
    a = solve_perfect_matching(g)
    assert all(s < 2 and t < 5 for s, t in a.link_pairs())
    assert len(a.links) == 2
    assert a.cost == pytest.approx(sum(g.weights[p] for p in a.link_pairs()), abs=1e-9)


def test_oracle_on_skewed_graphs_within_the_size_guard():
    # The check `--oracle` makes, on every class and on the most skewed
    # shapes the guard admits, dense and tie-heavy (k/d with d <= 6, as
    # real Jaccard values are).  The perfect enumeration must stay within
    # the injections of the smaller side (at most 840 under the guard);
    # max(n, m)! is 1.3e12 for 2x15.
    rng = np.random.default_rng(67)
    start = time.perf_counter()
    for n, m in ((1, 30), (30, 1), (2, 15), (15, 2), (3, 10), (10, 3), (5, 6), (6, 5)):
        d = rng.integers(1, 7, size=(n, m))
        for sim in (random_sim(rng, n, m), rng.integers(0, d + 1) / d):
            g = graph_of(sim)
            for cls in ("perfect", "edgecover", "total"):
                oracle.check(g, cls, solve(g, cls))
    assert time.perf_counter() - start < 2.0


def test_perfect_lexicographic_tie_break():
    g = graph_of(np.full((3, 3), 0.5))
    a = solve_perfect_matching(g)
    assert a.link_pairs() == ((0, 0), (1, 1), (2, 2))


# --- edge cover ----------------------------------------------------------

def test_edge_cover_three_by_two_example():
    w = [[1, 10], [10, 1], [1, 10]]
    g = graph_of(weights_to_sim(w))
    a = solve_edge_cover(g)
    assert a.link_pairs() == ((0, 0), (1, 1), (2, 0))
    assert a.cost == pytest.approx(3.0, abs=1e-9)


def test_edge_cover_single_source_covers_all_targets():
    w = np.array([[2.0, 3.0, 4.0]])
    g = graph_of(weights_to_sim(w))
    a = solve_edge_cover(g)
    assert a.link_pairs() == ((0, 0), (0, 1), (0, 2))
    assert a.cost == pytest.approx(w.sum(), abs=1e-9)


def test_edge_cover_equals_strictly_better_perfect_matching():
    # diagonal strongly dominant: the unique optimal matching is also the cover
    sim = np.full((3, 3), 0.01)
    np.fill_diagonal(sim, 0.99)
    g_cov = graph_of(sim)
    a = solve_edge_cover(g_cov)
    assert a.link_pairs() == ((0, 0), (1, 1), (2, 2))


def test_edge_cover_cost_never_exceeds_perfect_on_square():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_sim(rng, 4, 4)
        cover = solve_edge_cover(graph_of(m))
        matching = solve_perfect_matching(graph_of(m))
        assert cover.cost <= matching.cost + 1e-9


def test_edge_cover_lexicographic_on_uniform_ties():
    g = graph_of(np.full((2, 2), 1.0))
    a = solve_edge_cover(g)
    assert a.link_pairs() == ((0, 0), (1, 1))


def test_edge_cover_tie_that_crashed_the_mirrored_reduction():
    sim = [[0, 0, 0, .25, .25], [.25, 0, 0, 0, .75], [.25, .5, 0, .75, 0], [0, 1, .75, .25, 0]]
    g = graph_of(sim)
    a = solve_edge_cover(g)
    assert a.cost == pytest.approx(brute_force_optimum(g, "edgecover").cost, abs=1e-9)
    assert a.cost == pytest.approx(3.348, abs=1e-3)


def test_edge_cover_cost_matches_gallai_reference():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(31)
    shapes = [(116, 9), (50, 7), (9, 116), (150, 150)]
    shapes += [tuple(int(x) for x in rng.integers(1, 151, size=2)) for _ in range(8)]
    for n, m in shapes:
        sim = random_sim(rng, n, m, zero_frac=0.6)
        g = graph_of(sim)
        W = g.weights
        mu_s, mu_t = W.min(axis=1), W.min(axis=0)
        reduced = np.minimum(0.0, W - mu_s[:, None] - mu_t[None, :])
        rows, cols = linear_sum_assignment(reduced)
        ref = mu_s.sum() + mu_t.sum() + reduced[rows, cols].sum()
        assert solve_edge_cover(g).cost == pytest.approx(ref, rel=1e-12)


# --- total ---------------------------------------------------------------

def test_total_row_argmax():
    g = graph_of([[0.9, 0.1], [0.8, 0.2]])
    a = solve_total(g)
    assert a.link_pairs() == ((0, 0), (1, 0))


def test_total_zero_row_links_lowest_index_with_zero_sim():
    g = graph_of([[0.0, 0.0], [0.3, 0.9]])
    a = solve_total(g)
    assert a.link_pairs() == ((0, 0), (1, 1))
    assert a.links[0][2] == 0.0


def test_total_cost_is_row_min_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_sim(rng, 4, 6)
        g = graph_of(m)
        assert solve_total(g).cost == math.fsum(g.weights.min(axis=1).tolist())


def test_total_many_sources_one_target():
    # all rows peak on column 0; targets 1..2 stay unaligned
    g = graph_of([[0.9, 0.2, 0.1]] * 4)
    a = solve_total(g)
    assert a.link_pairs() == tuple((i, 0) for i in range(4))


# --- degree constraints and shared properties ------------------------------

dims = st.tuples(st.integers(1, 5), st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(dims, st.integers(0, 2**32 - 1))
def test_degree_constraints_hold(dim, seed):
    n, m = dim
    sim = random_sim(np.random.default_rng(seed), n, m)
    per = solve_perfect_matching(graph_of(sim))
    ds, dt = degrees(per)
    assert all(v == 1 for v in ds.values()) and all(v == 1 for v in dt.values())
    assert len(ds) <= min(n, m)

    cov = solve_edge_cover(graph_of(sim))
    ds, dt = degrees(cov)
    assert set(ds) == set(range(n)) and set(dt) == set(range(m))
    assert not any(
        ds[s] >= 2 and dt[t] >= 2 for s, t in cov.link_pairs()
    ), "optimal edge cover must not contain many-to-many links"

    tot = solve_total(graph_of(sim))
    ds, _ = degrees(tot)
    assert all(ds.get(i) == 1 for i in range(n))


@settings(max_examples=40, deadline=None)
@given(dims, st.integers(0, 2**32 - 1))
def test_solvers_are_deterministic(dim, seed):
    n, m = dim
    sim = random_sim(np.random.default_rng(seed), n, m)
    for cls in ("perfect", "edgecover", "total"):
        a = solve(graph_of(sim), cls)
        b = solve(graph_of(sim), cls)
        assert a.link_pairs() == b.link_pairs()
        assert a.cost == b.cost


def test_similarity_scaling_leaves_optimal_matchings_invariant():
    rng = np.random.default_rng(17)
    for _ in range(30):
        sim = rng.random((3, 4))
        sim[rng.random((3, 4)) < 0.2] = 0.0
        for alpha in (0.5, 0.125):
            base = enumerate_optimal_perfect(graph_of(sim))
            scaled = enumerate_optimal_perfect(
                graph_of(sim * alpha)
            )
            assert base == scaled


def test_link_sets_are_optimal_on_tie_heavy_instances():
    # Similarities k/d with d <= 6 tie often, as real Jaccard values do.
    # Sums of up to 1e6-capped weights round at ~1e-10 per term, so optima
    # are gathered at a tolerance far below any gap between distinct sums.
    rng = np.random.default_rng(53)
    for _ in range(1000):
        n, m = (int(x) for x in rng.integers(1, 5, size=2))
        d = rng.integers(1, 7, size=(n, m))
        sim = rng.integers(0, d + 1) / d
        g = graph_of(sim)
        assert frozenset(solve(g, "perfect").link_pairs()) in enumerate_optimal_perfect(g, 1e-6)
        g = graph_of(sim)
        cover = solve(g, "edgecover").link_pairs()
        assert frozenset(cover) in enumerate_optimal_covers(g, 1e-6)
        assert solve(g, "edgecover").link_pairs() == cover
        g = graph_of(sim)
        assert solve(g, "total").link_pairs() == brute_force_optimum(g, "total").link_pairs()


def lexmin_optimal_assignment(W, linear_sum_assignment, atol=1e-6):
    """Lexicographically smallest optimal assignment, found without duals.

    Rows are fixed in order, each to the smallest free column that still
    completes to the optimal cost of the remaining rows and columns.
    """
    def optimal_cost(sub):
        rows, cols = linear_sum_assignment(sub)
        return sub[rows, cols].sum()

    n = len(W)
    free = list(range(n))
    remaining = optimal_cost(W)
    out = []
    for i in range(n):
        for j in free:
            rest_cost = optimal_cost(W[np.ix_(range(i + 1, n), [c for c in free if c != j])])
            if abs(W[i, j] + rest_cost - remaining) <= atol:
                break
        out.append(j)
        free.remove(j)
        remaining = rest_cost
    return np.array(out)


def test_perfect_tie_break_does_not_depend_on_the_dual():
    # The lexmin tie-break runs on the tight cells of whichever optimal dual
    # solve_lap returns; on tie-heavy rectangular graphs it must still pick
    # the reference found from optimal costs alone, on the square padded
    # with constant cells (every assignment pays the same padding).
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(61)
    shapes = [(1, 1), (2, 5), (4, 4), (5, 6), (6, 3), (9, 116), (116, 9), (50, 7), (150, 150)]
    shapes += [tuple(int(x) for x in rng.integers(1, 151, size=2)) for _ in range(16)]
    for n, m in shapes:
        d = rng.integers(1, 7, size=(n, m))
        g = graph_of(rng.integers(0, d + 1) / d)
        links = frozenset(solve_perfect_matching(g).link_pairs())
        if n * m <= MAX_CELLS:
            assert links in enumerate_optimal_perfect(g, 1e-6)
        else:
            padded = np.full((max(n, m), max(n, m)), BIG)
            padded[:n, :m] = g.weights
            ref = lexmin_optimal_assignment(padded, linear_sum_assignment)
            assert links == {(i, int(j)) for i, j in enumerate(ref) if i < n and j < m}


def square_lexmin_matching(cost):
    """The tie-break on the max(n, m) square padded with zero-cost cells."""
    n, m = cost.shape
    size = max(n, m)
    if n <= m:
        col_of_row, row_dual, col_dual = lap.solve_lap(cost)
    else:
        row_of_col, col_dual, row_dual = lap.solve_lap(cost.T)
        col_of_row = np.full(n, -1, dtype=int)
        col_of_row[row_of_col] = np.arange(m)
    square = np.zeros((size, size))
    square[:n, :m] = cost
    u = np.zeros(size)
    u[:n] = row_dual
    v = np.zeros(size)
    v[:m] = col_dual
    match = np.full(size, -1, dtype=int)
    match[:n] = col_of_row
    match[match == -1] = np.setdiff1d(np.arange(size), match)
    adm = lap.admissible_cells(square, u, v)
    match = lap.lexmin_perfect_matching(adm, match)
    return [(i, int(j)) for i, j in enumerate(match[:n]) if j < m]


def record_lexmin_calls(monkeypatch):
    """The arguments of every ``lap.lexmin_perfect_matching`` call, in order."""
    calls = []
    real = lap.lexmin_perfect_matching

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lap, "lexmin_perfect_matching", spy)
    return calls


def tie_heavy_gallai(rng, n, m, zero_frac):
    """Raw weights of k/d similarities, d <= 6, and their Gallai matrix."""
    d = rng.integers(1, 7, size=(n, m))
    sim = rng.integers(0, d + 1) / d
    sim[rng.random((n, m)) < zero_frac] = 0.0
    W = to_weights(sim)
    return W, np.minimum(0.0, W - W.min(axis=1)[:, None] - W.min(axis=0)[None, :])


def test_tie_break_without_padding_equals_the_padded_square(monkeypatch):
    # Tie-heavy k/d similarities, d <= 6, many of them zero; on the raw
    # weights, as `perfect` solves them, and on the Gallai matrices of
    # `edgecover`, whose zero cells tie everywhere.  Each
    # orientation must meet both a tie-break that returns at once and one
    # that searches.
    calls = record_lexmin_calls(monkeypatch)
    rng = np.random.default_rng(71)
    shapes = [(n, m) for n in range(1, 13) for m in range(1, 13) for _ in range(3)]
    shapes += [(116, 9), (9, 116), (50, 7), (7, 50), (120, 118)]
    paths = set()
    for n, m in shapes:
        W, gallai = tie_heavy_gallai(rng, n, m, rng.uniform(0.0, 0.9))
        for cost in (W, gallai):
            rows, cols = lap.lexmin_matching(cost)
            paths.add((np.sign(n - m), exits_early(*calls[-1])))
            assert list(zip(rows.tolist(), cols.tolist())) == square_lexmin_matching(cost), (n, m)
    assert paths == {(s, e) for s in (-1, 0, 1) for e in (False, True)}


def test_gallai_matrix_of_an_argument_filtered_graph_takes_the_early_exit(monkeypatch):
    # The median `edgecover` graph under `arg` on 20-30 token sentences:
    # 49 source units against 7 target arguments, most similarities zero.
    calls = record_lexmin_calls(monkeypatch)
    rng = np.random.default_rng(101)
    for _ in range(20):
        _, gallai = tie_heavy_gallai(rng, 49, 7, 0.85)
        rows, cols = lap.lexmin_matching(gallai)
        assert exits_early(*calls[-1])
        assert list(zip(rows.tolist(), cols.tolist())) == square_lexmin_matching(gallai)


@pytest.mark.parametrize("shape", [(5001, 2), (2, 5001)])
@pytest.mark.parametrize("model", ["perfect", "edgecover"])
def test_skewed_graphs_solve_without_a_square(shape, model):
    # A max(n, m)^2 square of floats alone is 200 MB here.
    g = graph_of(random_sim(np.random.default_rng(73), *shape))
    tracemalloc.start()
    try:
        solve(g, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def strip_redundant_links_by_loop(W, pairs):
    """Drop the largest removable link and recount degrees, until none is left."""
    pairs = set(pairs)
    while True:
        deg_s, deg_t = {}, {}
        for i, j in pairs:
            deg_s[i] = deg_s.get(i, 0) + 1
            deg_t[j] = deg_t.get(j, 0) + 1
        redundant = [(i, j) for i, j in pairs if deg_s[i] >= 2 and deg_t[j] >= 2]
        if not redundant:
            return pairs
        removable = [p for p in redundant if W[p] <= COST_ATOL]
        if not removable:
            raise ValidationError(
                "edge cover decode produced a positive-weight many-to-many link"
            )
        pairs.remove(max(removable))


def test_strip_redundant_links_equals_the_removal_loop():
    rng = np.random.default_rng(79)
    raised = 0
    for _ in range(3000):
        n, m = (int(x) for x in rng.integers(1, 7, size=2))
        W = rng.choice([0.0, 1e-10, 0.5, 1.0], size=(n, m), p=[0.4, 0.2, 0.2, 0.2])
        chosen = rng.random((n, m)) < rng.uniform(0.2, 0.9)
        pairs = set(zip(*np.nonzero(chosen)))
        try:
            expected = strip_redundant_links_by_loop(W, pairs)
        except ValidationError as exc:
            raised += 1
            with pytest.raises(ValidationError, match=str(exc)):
                _strip_redundant_links(W, chosen)
        else:
            _strip_redundant_links(W, chosen)
            assert set(zip(*np.nonzero(chosen))) == expected
    assert 0 < raised < 3000


# The set-based decode that the boolean mask replaced, with its helpers
# inlined; it now reads the matching as index arrays and counts the links
# it strips.  It looks `lexmin_matching` up on `lap`, so a test can
# hand both decodes the same matching.
def reference_solve_edge_cover(g, stripped=None):
    W = g.weights
    n, m = W.shape
    mu_s = W.min(axis=1)
    mu_t = W.min(axis=0)
    reduced = W - mu_s[:, None] - mu_t[None, :]
    rows, cols = lap.lexmin_matching(np.minimum(reduced, 0.0))
    pairs = {(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if reduced[i, j] <= COST_ATOL}
    covered_s = {i for i, _ in pairs}
    covered_t = {j for _, j in pairs}
    # Each unit's cheapest edge: the smallest index within COST_ATOL of mu.
    cheapest_t = np.argmax(W <= mu_s[:, None] + COST_ATOL, axis=1).tolist()
    cheapest_s = np.argmax(W <= mu_t[None, :] + COST_ATOL, axis=0).tolist()
    pairs.update((i, cheapest_t[i]) for i in range(n) if i not in covered_s)
    pairs.update((cheapest_s[j], j) for j in range(m) if j not in covered_t)

    deg_s = Counter(i for i, _ in pairs)
    deg_t = Counter(j for _, j in pairs)
    kept = set(pairs)
    for i, j in sorted(pairs, reverse=True):
        if deg_s[i] >= 2 and deg_t[j] >= 2 and W[i, j] <= COST_ATOL:
            kept.remove((i, j))
            deg_s[i] -= 1
            deg_t[j] -= 1
    if stripped is not None:
        stripped.append(len(pairs) - len(kept))
    if any(deg_s[i] >= 2 and deg_t[j] >= 2 for i, j in kept):
        raise ValidationError(
            "edge cover decode produced a positive-weight many-to-many link"
        )
    if {i for i, _ in kept} != set(range(n)) or {j for _, j in kept} != set(range(m)):
        raise ValidationError("edge cover decode left a unit uncovered")
    pairs = sorted(kept)
    links = tuple((g.src_units[i], g.tgt_units[j], float(g.sim[i, j])) for i, j in pairs)
    return SemanticAlignment(links, math.fsum(W[i, j] for i, j in pairs))


def decode_outcome(solver, g, stripped=None):
    try:
        a = solver(g) if stripped is None else solver(g, stripped)
    except ValidationError as exc:
        return str(exc)
    return a.links, a.cost


def covers_every_unit(g, outcome):
    """True for an error text, or for links that touch every row and column."""
    if isinstance(outcome, str):
        return True
    links = outcome[0]
    return ({s for s, _, _ in links} == set(g.src_units)
            and {t for _, t, _ in links} == set(g.tgt_units))


def test_mask_decode_equals_the_set_decode(monkeypatch):
    # Tie-heavy graphs with exact zeros and ones, decoded from the solved
    # matching and from an arbitrary partial one (a matching that is not
    # optimal leaves positive-weight many-to-many links), so that the strip
    # step removes links and the decode raises.  Repairs for uncovered
    # targets must come from the matching alone: taking them after the
    # source repairs changes the links.  Every decoded cover must touch
    # every unit; the decode itself does not check that.
    rng = np.random.default_rng(103)
    stripped, errors = [], Counter()
    for case in range(3000):
        n, m = (int(x) for x in rng.integers(1, 9, size=2))
        if case % 10 == 0:
            n, m = (49, 7) if case % 20 else (7, 49)
        d = rng.integers(1, 7, size=(n, m))
        sim = rng.integers(0, d + 1) / d
        sim[rng.random((n, m)) < rng.uniform(0.0, 0.6)] = 0.0
        sim[rng.random((n, m)) < rng.uniform(0.0, 0.3)] = 1.0
        src_units, tgt_units = increasing_ids(rng, n), increasing_ids(rng, m)
        g = build_graph(src_units, tgt_units, sim)
        want = decode_outcome(reference_solve_edge_cover, g, stripped)
        got = decode_outcome(solve_edge_cover, g)
        assert got == want and covers_every_unit(g, got)
        k = int(rng.integers(1, min(n, m) + 1))
        rows = np.sort(rng.choice(n, size=k, replace=False))
        cols = rng.choice(m, size=k, replace=False)
        with monkeypatch.context() as patch:
            patch.setattr(lap, "lexmin_matching", lambda cost: (rows, cols))
            want = decode_outcome(reference_solve_edge_cover, g, stripped)
            got = decode_outcome(solve_edge_cover, g)
            assert got == want and covers_every_unit(g, got)
        if isinstance(want, str):
            errors[want] += 1
    assert sum(x > 0 for x in stripped) > 100
    assert errors["edge cover decode produced a positive-weight many-to-many link"] > 100


def test_edge_cover_is_the_same_with_the_path_rule_forced_either_way(monkeypatch):
    # Tie-heavy graphs of both orientations, near-square as the graph of a
    # sentence whose unaligned predicate turns `arg` off, and thin as an
    # `arg` graph: the links and the cost do not depend on which path
    # solves the Gallai matrix.
    ceiling_runs = record_ceiling_runs(monkeypatch)
    rng = np.random.default_rng(113)
    shapes = [(n, m) for n in range(1, 10) for m in range(1, 10)]
    shapes += [(49, 7), (7, 49), (47, 51), (51, 47)] * 3
    for n, m in shapes:
        d = rng.integers(1, 7, size=(n, m))
        sim = rng.integers(0, d + 1) / d
        sim[rng.random((n, m)) < rng.uniform(0.0, 0.9)] = 0.0
        g = graph_of(sim)
        outcomes = []
        # Every matrix on the ceiling path, then every one on the dense path.
        for cells, cols in ((math.inf, math.inf), (lap.CEILING_CELLS_PER_ROW, 0)):
            with monkeypatch.context() as patch:
                patch.setattr(lap, "CEILING_CELLS_PER_ROW", cells)
                patch.setattr(lap, "CEILING_COLS_PER_ROW", cols)
                ceiling_runs.clear()
                a = solve_edge_cover(g)
            assert ceiling_runs == ([1] if cols else []), (n, m)
            outcomes.append((a.links, a.cost))
        assert outcomes[0] == outcomes[1], (n, m)


def test_edge_cover_drops_zero_weight_link_between_two_stars():
    # The tie-broken matching keeps the zero-weight link (0, 0); covering
    # source 1 and target 1 by their cheapest links then makes it redundant.
    g = graph_of([[1.0, 1.0], [1.0, 0.5]])
    assert enumerate_optimal_covers(g) == {frozenset({(0, 1), (1, 0)})}
    assert solve_edge_cover(g).link_pairs() == ((0, 1), (1, 0))


# --- oracle -------------------------------------------------------------

def test_oracle_all_classes_on_tiny_instances():
    rng = np.random.default_rng(23)
    for _ in range(50):
        sim = random_sim(rng, 2, 2)
        for cls in ("perfect", "edgecover", "total"):
            g = graph_of(sim)
            assert solve(g, cls).cost == pytest.approx(
                brute_force_optimum(g, cls).cost, abs=1e-9
            )


def test_oracle_one_by_one():
    g = graph_of([[0.7]])
    for cls in ("perfect", "edgecover", "total"):
        a = brute_force_optimum(g, cls)
        assert a.link_pairs() == ((0, 0),)


def test_oracle_edge_cover_is_optimal_but_not_the_smallest_optimum():
    # Completing f = (0, 1, 0) with source 0 for target 2 is not minimal;
    # with source 1 it is, and that cover sorts before the one returned.
    g = graph_of([[1, 0, 0], [0, 0, 0], [1, 0, 0]])
    covers = enumerate_optimal_covers(g)
    ref = brute_force_optimum(g, "edgecover").link_pairs()
    assert ref == ((0, 0), (1, 1), (2, 2))
    assert frozenset(ref) in covers
    assert solve(g, "edgecover").link_pairs() == ref
    assert min(tuple(sorted(c)) for c in covers) == ((0, 0), (1, 1), (1, 2), (2, 0))


def test_oracle_refuses_large_instances():
    sim = random_sim(np.random.default_rng(0), 6, 6)
    g = graph_of(sim)
    with pytest.raises(OracleSizeError):
        brute_force_optimum(g, "perfect")


def test_edge_cover_matches_oracle_on_rectangular_instances():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n, m = rng.integers(1, 5, size=2)
        sim = random_sim(rng, int(n), int(m))
        g = graph_of(sim)
        got = solve_edge_cover(g)
        ref = brute_force_optimum(g, "edgecover")
        assert got.cost == pytest.approx(ref.cost, abs=1e-9)


# --- unit ids -------------------------------------------------------------

def increasing_ids(rng, k):
    """k increasing unit ids with gaps, so that ids and indices differ."""
    return tuple((np.cumsum(rng.integers(1, 4, size=k)) + int(rng.integers(0, 3))).tolist())


def test_links_carry_unit_ids_and_similarities_on_tie_heavy_graphs():
    # Every other test uses unit ids equal to the indices, which an
    # index/unit mix-up in the link decode would pass.
    rng = np.random.default_rng(89)
    for _ in range(300):
        n, m = (int(x) for x in rng.integers(1, 8, size=2))
        d = rng.integers(1, 7, size=(n, m))
        sim = rng.integers(0, d + 1) / d
        src_units, tgt_units = increasing_ids(rng, n), increasing_ids(rng, m)
        by_index = graph_of(sim)
        g = build_graph(src_units, tgt_units, sim)
        solvers = [solve]
        if n * m <= MAX_CELLS:
            solvers.append(brute_force_optimum)
        for cls in ("perfect", "edgecover", "total"):
            for solver in solvers:
                ref = solver(by_index, cls)
                got = solver(g, cls)
                want = [(src_units[i], tgt_units[j], sim[i, j]) for i, j in ref.link_pairs()]
                assert got.links == tuple(want)
                assert list(got.links) == sorted(got.links)
                assert all(
                    type(s) is int and type(t) is int and type(x) is float
                    for s, t, x in got.links
                )
                assert got.cost == ref.cost


# --- misc ---------------------------------------------------------------

def test_dump_weight_table_marks_links():
    g = graph_of([[0.9, 0.1], [0.2, 0.8]])
    a = solve_perfect_matching(g)
    table = dump_weight_table(g, a)
    assert table.count("*") == 2
    assert table.splitlines()[0] == "unit\t0\t1"
