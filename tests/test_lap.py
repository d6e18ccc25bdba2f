import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    exits_early,
    record_ceiling_runs,
    record_runs,
    reference_lexmin_perfect_matching,
)
from test_corpus import load_corpus_gen

from roleproj import WEIGHT_CAP, lap, pipeline
from roleproj.corpus import load_corpus
from roleproj.lap import (
    ADMISSIBLE_TOL,
    CEILING_CELLS_PER_ROW,
    CEILING_COLS_PER_ROW,
    CLASS_CELLS_SHARE,
    lexmin_perfect_matching,
    solve_lap,
)
from roleproj.similarity import to_weights


def check_duals(cost, col_of_row, u, v):
    k, m = cost.shape
    assert len(set(col_of_row.tolist())) == k
    assert (u[:, None] + v[None, :] <= cost + ADMISSIBLE_TOL).all()
    assert np.allclose(u + v[col_of_row], cost[np.arange(k), col_of_row], atol=ADMISSIBLE_TOL)
    unmatched = np.setdiff1d(np.arange(m), col_of_row)
    assert (v[unmatched] == 0.0).all()
    assert (v <= 0.0).all()


def test_rectangular_assignment_matches_scipy():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(41)
    shapes = [(9, 116), (7, 50), (1, 150), (150, 150)]
    shapes += [tuple(sorted(int(x) for x in rng.integers(1, 150, size=2))) for _ in range(12)]
    for idx, (k, m) in enumerate(shapes):
        cost = rng.random((k, m))
        if idx % 2:  # tie-heavy: rational values with small denominators
            cost = np.round(cost * 6) / 6
        if idx % 3 == 0:  # non-positive, as the edge-cover reduction solves
            cost = -cost
        col_of_row, u, v = solve_lap(cost)
        rows, cols = linear_sum_assignment(cost)
        assert cost[np.arange(k), col_of_row].sum() == pytest.approx(
            cost[rows, cols].sum(), abs=1e-9
        )
        check_duals(cost, col_of_row, u, v)


def test_all_equal_and_padded_costs_match_scipy():
    # Every cell ties in the all-equal matrices; the padded instance is a
    # graph of 9 source and 116 target units under 107 all-big rows, which
    # tie with each other everywhere.
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(47)
    d = rng.integers(1, 7, size=(9, 116))
    sim = rng.integers(0, d + 1) / d
    padded = np.full((116, 116), 1e6)
    padded[:9] = to_weights(sim)
    costs = [np.zeros((n, n)) for n in (1, 5, 60)]
    costs += [np.full((k, m), 1e6) for k, m in ((1, 1), (7, 50), (116, 116))]
    costs.append(padded)
    for cost in costs:
        col_of_row, u, v = solve_lap(cost)
        check_duals(cost, col_of_row, u, v)
        rows, cols = linear_sum_assignment(cost)
        assert cost[np.arange(len(cost)), col_of_row].sum() == pytest.approx(
            cost[rows, cols].sum(), abs=1e-6
        )


def test_solve_lap_shapes():
    col_of_row, u, v = solve_lap(np.zeros((0, 3)))
    assert col_of_row.shape == (0,) and u.shape == (0,) and (v == 0).all()
    with pytest.raises(ValueError):
        solve_lap(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        solve_lap(np.array([[np.inf, 0.0]]))
    # A NaN or -inf cell, on either side of the column bound: a NaN largest
    # cell would leave no cell below it.
    for bad in (np.nan, -np.inf):
        for m in (CEILING_COLS_PER_ROW, CEILING_COLS_PER_ROW + 1):
            cost = np.zeros((1, m))
            cost[0, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                solve_lap(cost)


# The solver before the per-phase path rebuild, verbatim: it updates the
# path on every step and tests free columns with a mask.
def reference_solve_lap(cost: np.ndarray):
    """Return (col_of_row, u, v) for a minimum-cost assignment of every row.

    ``cost`` is k×m with k <= m and finite entries; each row gets its own
    column.  ``v`` is non-positive, and zero on the m - k unmatched columns.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] > cost.shape[1]:
        raise ValueError(
            f"cost matrix must have no more rows than columns, got {cost.shape}"
        )
    n, m = cost.shape
    if n == 0:
        return np.empty(0, dtype=int), np.empty(0), np.zeros(m)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")

    # Warm start: each row at its minimum, taking the first free column there.
    u = cost.min(axis=1)
    v = np.zeros(m)
    col_of_row = np.full(n, -1, dtype=int)
    row_of = np.full(m, -1, dtype=int)
    free = np.ones(m, dtype=bool)
    at_min = cost == u[:, None]
    for i in range(n):
        j = int(np.argmax(at_min[i] & free))
        if at_min[i, j] and free[j]:
            col_of_row[i] = j
            row_of[j] = i
            free[j] = False

    # One Dijkstra phase per row left free; `shortest` holds distances over
    # the phase-start reduced costs, `path` the row each column is reached from.
    shortest = np.empty(m)
    path = np.empty(m, dtype=int)
    for start in np.flatnonzero(col_of_row < 0).tolist():
        shortest.fill(np.inf)
        # Scanned columns get v = -inf here, so their reduced cost is +inf
        # and later rows can no longer lower their distance or path.
        open_v = v.copy()
        scanned, dists = [], []
        i, min_val = start, 0.0
        while True:
            r = cost[i] - open_v
            r += min_val - u[i]
            np.copyto(path, i, where=r < shortest)
            np.minimum(shortest, r, out=shortest)
            j = int(shortest.argmin())
            min_val = float(shortest[j])
            if row_of[j] >= 0:
                ties = np.flatnonzero((shortest == min_val) & (row_of < 0))
                if ties.size:
                    j = int(ties[0])
            scanned.append(j)
            dists.append(min_val)
            if row_of[j] < 0:
                break
            i = int(row_of[j])
            shortest[j] = np.inf
            open_v[j] = -np.inf

        # Distances grow along a phase; the clamp keeps float rounding
        # from pushing a column potential above zero.
        cols = np.array(scanned)
        slack = np.maximum(min_val - np.array(dists), 0.0)
        u[start] += min_val
        u[row_of[cols[:-1]]] += slack[:-1]
        v[cols] -= slack

        j = scanned[-1]
        while True:
            i = int(path[j])
            row_of[j] = i
            col_of_row[i], j = j, int(col_of_row[i])
            if i == start:
                break
    return col_of_row, u, v


def tie_heavy_costs(rng, k, m):
    """Raw weights and their Gallai matrix, k/d similarities with d <= 6.

    About 15% of the rows and of the columns have no positive similarity,
    so they weigh the cap against every unit of the other side.
    """
    d = rng.integers(1, 7, size=(k, m))
    sim = rng.integers(0, d + 1) / d
    sim[rng.random(k) < 0.15] = 0.0
    sim[:, rng.random(m) < 0.15] = 0.0
    W = to_weights(sim)
    return W, np.minimum(0.0, W - W.min(axis=1)[:, None] - W.min(axis=0)[None, :])


def test_solve_lap_equals_the_reference_bit_for_bit(monkeypatch):
    # Same assignment and the same duals to the last bit, so the tight
    # graph, the tie-break and every output byte downstream are unchanged.
    # The class route returns another optimal solution; the class route's
    # own tests check it, so it is closed here.
    monkeypatch.setattr(lap, "CLASS_CELLS_SHARE", 0.0)
    rng = np.random.default_rng(59)
    shapes = [(k, m) for m in range(1, 13) for k in range(1, m + 1) for _ in range(10)]
    shapes += [(114, 120), (47, 51), (8, 116), (1, 150), (150, 150)] * 3
    for k, m in shapes:
        for cost in tie_heavy_costs(rng, k, m):
            got, want = solve_lap(cost), reference_solve_lap(cost)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (k, m)


def test_solve_lap_memory_stays_below_twice_the_cost_matrix():
    # Every permutation of the outer sum is optimal, and its phases scan up
    # to every matched row: the worst case for a per-step or per-phase buffer.
    a = np.arange(600.0)
    for cost in (np.random.default_rng(61).random((600, 600)), np.add.outer(a, a)):
        tracemalloc.start()
        try:
            solve_lap(cost)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * cost.nbytes



def capped_costs(rng, k, m, per_row):
    """Weights of k/d similarities, d <= 6, about ``per_row`` positive a row.

    The other cells, and every cell of about 15% of the rows and of the
    columns, have zero similarity and weigh the cap.
    """
    d = rng.integers(1, 7, size=(k, m))
    sim = rng.integers(1, d + 1) / d
    sim[rng.random((k, m)) >= per_row / m] = 0.0
    sim[rng.random(k) < 0.15] = 0.0
    sim[:, rng.random(m) < 0.15] = 0.0
    return to_weights(sim)


def test_ceiling_path_equals_the_dense_path_on_capped_tie_heavy_matrices(monkeypatch):
    # It makes the dense path's choices, so it returns the same assignment
    # and duals to the last bit; both must match scipy's cost.  The shape
    # bound is lifted, so that the wide matrices take the ceiling path too.
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    monkeypatch.setattr(lap, "CEILING_COLS_PER_ROW", math.inf)
    ceiling_runs = record_ceiling_runs(monkeypatch)
    rng = np.random.default_rng(89)
    shapes = [(k, m) for m in range(1, 13) for k in range(1, m + 1) for _ in range(10)]
    shapes += [(114, 120), (8, 116), (1, 150), (150, 150)] * 3
    for k, m in shapes:
        cost = capped_costs(rng, k, m, rng.uniform(1.0, CEILING_CELLS_PER_ROW))
        assert np.count_nonzero(cost < WEIGHT_CAP) <= CEILING_CELLS_PER_ROW * k
        ceiling_runs.clear()
        col_of_row, u, v = solve_lap(cost)
        assert ceiling_runs == [1], (k, m)
        check_duals(cost, col_of_row, u, v)
        for got, want in zip((col_of_row, u, v), lap._solve_dense(cost)):
            assert np.array_equal(got, want), (k, m)
        rows, cols = linear_sum_assignment(cost)
        assert cost[np.arange(k), col_of_row].sum() == pytest.approx(
            cost[rows, cols].sum(), abs=1e-6
        ), (k, m)


def test_ceiling_path_cases(monkeypatch):
    # Each matrix takes the ceiling path, its largest cell the ceiling.
    ceiling_runs = record_ceiling_runs(monkeypatch)
    c = 10.0
    # A row of ceiling cells alone takes the first free column at the warm
    # start; row 1's phase moves it on to the escape.
    cost = np.array([[c, c, c], [1.0, 2.0, c]])
    col_of_row, u, v = solve_lap(cost)
    check_duals(cost, col_of_row, u, v)
    assert col_of_row.tolist() == [1, 0]
    # Row 1's one column below the ceiling is row 0's, which costs row 0
    # less: row 1 ends on a ceiling cell.
    cost = np.array([[0.0, c, c], [1.0, c, c]])
    col_of_row, u, v = solve_lap(cost)
    check_duals(cost, col_of_row, u, v)
    assert col_of_row.tolist() == [0, 1]
    # Row 1 reaches column 1 below the ceiling at the escape's distance,
    # before row 0 offers the escape there: the path takes row 1's cell.
    cost = np.array([[2.0, c, c], [1.0, 9.0, c]])
    col_of_row, u, v = solve_lap(cost)
    check_duals(cost, col_of_row, u, v)
    assert col_of_row.tolist() == [0, 1]
    # The same rows swapped: row 0 reaches column 1 at the escape's
    # distance after row 1 offered the escape there, so row 1 takes it.
    cost = np.array([[1.0, 9.0, c], [2.0, c, c]])
    col_of_row, u, v = solve_lap(cost)
    check_duals(cost, col_of_row, u, v)
    assert col_of_row.tolist() == [0, 1]
    # One cell at the ceiling, row 2's in column 0; rows 0 and 1 list all
    # their cells.
    cost = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 2.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]]).T
    for got, want in zip(solve_lap(cost), lap._solve_dense(cost)):
        assert np.array_equal(got, want)
    # Every cell at the ceiling: the warm start assigns every row.
    col_of_row, u, v = solve_lap(np.full((3, 5), c))
    assert col_of_row.tolist() == [0, 1, 2]
    assert (u == c).all() and (v == 0.0).all()
    assert ceiling_runs == [1] * 6


def test_above_the_threshold_the_ceiling_changes_nothing(monkeypatch):
    # Up to CEILING_CELLS_PER_ROW cells below the ceiling per row on average
    # the ceiling path runs; above, the dense path, bit for bit.  The class
    # route, which its own tests check, is closed.
    monkeypatch.setattr(lap, "CLASS_CELLS_SHARE", 0.0)
    ceiling_runs = record_ceiling_runs(monkeypatch)
    rng = np.random.default_rng(97)
    costs = []
    for per_row in (CEILING_CELLS_PER_ROW, CEILING_CELLS_PER_ROW + 1):
        cost = np.full((30, 40), WEIGHT_CAP)
        for row in cost:
            row[rng.choice(40, per_row, replace=False)] = -np.log(rng.integers(1, 7, per_row) / 6)
        costs.append(cost)
    costs += [tie_heavy_costs(rng, k, m)[0] for k, m in [(114, 120), (47, 51), (8, 116)]]
    for n, cost in enumerate(costs):
        ceiling_runs.clear()
        got = solve_lap(cost)
        assert ceiling_runs == ([1] if n == 0 else [])
        check_duals(cost, *got)
        if n:
            for a, b in zip(got, lap._solve_dense(cost)):
                assert np.array_equal(a, b)


def test_the_ceiling_path_takes_at_most_the_bound_of_columns_per_row(monkeypatch):
    # Two cells a row below the ceiling: the ceiling path runs on a k×m
    # matrix while m <= CEILING_COLS_PER_ROW * k, and the dense path one
    # column wider; either way the result is the dense path's, bit for bit.
    ceiling_runs = record_ceiling_runs(monkeypatch)
    rng = np.random.default_rng(107)
    for k in (1, 4, 30):
        for extra in (0, 1):
            m = CEILING_COLS_PER_ROW * k + extra
            for ceiling in (WEIGHT_CAP, 0.0):
                cost = np.full((k, m), ceiling)
                for row in cost:
                    row[rng.choice(m, 2, replace=False)] = ceiling - rng.integers(1, 7, 2) / 6
                ceiling_runs.clear()
                got = solve_lap(cost)
                assert ceiling_runs == ([] if extra else [1]), (k, m, ceiling)
                for a, b in zip(got, lap._solve_dense(cost)):
                    assert np.array_equal(a, b), (k, m, ceiling)


def test_gallai_and_uncapped_matrices_equal_the_dense_path_bit_for_bit(monkeypatch):
    # The Gallai matrices of `edgecover`, whose ceiling is 0, on either
    # side of the shape bound; each is solved under the bound and with it
    # lifted, so that the wide ones take the ceiling path too.  Two kinds
    # of matrix have their largest cell below the cap or 0: the Gallai
    # matrix of weights within a factor of 2 of each other, every reduced
    # cost negative, and the weights of a graph with no zero similarity.
    # On the shapes of up to 8 rows, at most 16 columns under the bound,
    # they take the ceiling path whenever the bound admits them.  The class
    # route, which its own tests check, is closed.
    monkeypatch.setattr(lap, "CLASS_CELLS_SHARE", 0.0)
    ceiling_runs = record_ceiling_runs(monkeypatch)
    rng = np.random.default_rng(109)
    shapes = [(k, m) for k in range(1, 9) for m in range(k, 3 * k + 2) for _ in range(3)]
    shapes += [(47, 51), (30, 60), (30, 61), (8, 116)] * 3
    paths = set()
    for k, m in shapes:
        matrices = [tie_heavy_costs(rng, k, m)[1]]
        if k <= 8:
            W = to_weights(rng.choice([1 / 3, 2 / 5, 1 / 2], size=(k, m)))
            negative = W - W.min(axis=1)[:, None] - W.min(axis=0)[None, :]
            assert negative.max() < 0.0
            d = rng.integers(1, 7, size=(k, m))
            uncapped = to_weights(rng.integers(1, d + 1) / d)
            assert uncapped.max() < WEIGHT_CAP
            matrices += [negative, uncapped]
        for n, cost in enumerate(matrices):
            want = lap._solve_dense(cost)
            for cols_per_row in (CEILING_COLS_PER_ROW, math.inf):
                monkeypatch.setattr(lap, "CEILING_COLS_PER_ROW", cols_per_row)
                ceiling_runs.clear()
                got = solve_lap(cost)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (k, m, n, cols_per_row)
                wide = m > CEILING_COLS_PER_ROW * k
                if n == 0:
                    paths.add((wide, cols_per_row == math.inf, bool(ceiling_runs)))
                elif not wide:
                    assert ceiling_runs == [1], (k, m, n, cols_per_row)
    # (wide, bound lifted, ceiling path taken)
    assert (True, False, True) not in paths
    assert {(False, False, True), (True, False, False), (True, True, True)} <= paths


def test_ceiling_path_memory_stays_below_twice_the_cost_matrix():
    cost = capped_costs(np.random.default_rng(67), 600, 600, CEILING_CELLS_PER_ROW)
    assert np.count_nonzero(cost < WEIGHT_CAP) <= CEILING_CELLS_PER_ROW * 600
    tracemalloc.start()
    try:
        solve_lap(cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cost.nbytes


def test_lexmin_on_long_cycle_needs_no_recursion():
    # Row i is admissible to columns i and i+1 (mod n), and the starting
    # matching takes every i+1: moving row 0 to column 0 re-matches the
    # whole cycle along one augmenting path n rows deep.
    n = 1200
    adm = np.zeros((n, n), dtype=bool)
    adm[np.arange(n), np.arange(n)] = True
    adm[np.arange(n), (np.arange(n) + 1) % n] = True
    start = (np.arange(n) + 1) % n
    assert (lexmin_perfect_matching(adm, start) == np.arange(n)).all()


def test_lexmin_equals_the_smallest_admissible_permutation():
    # Random graphs from sparse to full around a forced perfect matching,
    # started from that matching: a row's first candidate column often
    # fails, so later candidates run on the marks it left.
    rng = np.random.default_rng(53)
    for _ in range(600):
        n = int(rng.integers(1, 8))
        adm = rng.random((n, n)) < rng.uniform(0.0, 1.0)
        start = rng.permutation(n)
        adm[np.arange(n), start] = True
        best = next(
            p for p in itertools.permutations(range(n)) if adm[np.arange(n), p].all()
        )
        assert lexmin_perfect_matching(adm, start).tolist() == list(best)


def padded_square(adm, pad):
    """The max(n, m) square that ``adm`` stands for, padding made explicit.

    Padding rows (n < m) are tight against the ``pad`` columns, padding
    columns (n > m) against the ``pad`` rows.
    """
    n, m = adm.shape
    square = np.zeros((max(n, m), max(n, m)), dtype=bool)
    square[:n, :m] = adm
    if n < m:
        square[n:, :] = pad
    elif n > m:
        square[:, m:] = pad[:, None]
    return square


def lexmin_by_permutations(adm, pad):
    square = padded_square(adm, pad)
    size, m = len(square), adm.shape[1]
    best = next(
        p for p in itertools.permutations(range(size)) if square[np.arange(size), p].all()
    )
    return [c if c < m else -1 for c in best[: len(adm)]]


def test_lexmin_with_padding_equals_the_square_whether_or_not_rows_search():
    # Random graphs of both orientations, started from a random perfect
    # matching of the padded square; the early return must give what the
    # search gives, and both must occur in each orientation.
    rng = np.random.default_rng(83)
    paths = set()
    for _ in range(1500):
        n, m = (int(x) for x in rng.integers(1, 7, size=2))
        adm = rng.random((n, m)) < rng.uniform(0.0, 1.0)
        pad = rng.random(max(n, m)) < rng.uniform(0.0, 1.0)
        start = rng.permutation(max(n, m))
        for r, c in enumerate(start.tolist()):
            if r < n and c < m:
                adm[r, c] = True
            else:  # a padding row holds column c, or row r holds padding
                pad[c if r >= n else r] = True
        col_of_row = np.where(start[:n] < m, start[:n], -1)
        got = lexmin_perfect_matching(adm, col_of_row, pad).tolist()
        assert got == lexmin_by_permutations(adm, pad), (adm, col_of_row, pad)
        paths.add((np.sign(n - m), exits_early(adm, col_of_row, pad)))
    assert paths == {(s, e) for s in (-1, 0, 1) for e in (False, True)}


def test_lexmin_searches_for_an_unheld_column_below_a_home():
    # n < m: column 0 is tight against row 0 but held by the padding row,
    # which can take row 0's column 1 only when that column is in pad.
    adm = np.array([[True, True]])
    for pad, want in (([True, True], [0]), ([True, False], [1])):
        assert not exits_early(adm, np.array([1]), pad)
        assert lexmin_perfect_matching(adm, np.array([1]), pad).tolist() == want


def test_lexmin_on_rows_held_by_padding():
    # n > m: row 0 sits on padding below row 1, which holds the column
    # tight against both and may move onto padding; row 1 sitting there
    # instead finds that column locked by row 0.
    adm = np.ones((2, 1), dtype=bool)
    pad = np.array([True, True])
    assert not exits_early(adm, np.array([-1, 0]), pad)
    assert lexmin_perfect_matching(adm, np.array([-1, 0]), pad).tolist() == [0, -1]
    assert exits_early(adm, np.array([0, -1]), pad)
    assert lexmin_perfect_matching(adm, np.array([0, -1]), pad).tolist() == [0, -1]


def twin_heavy_costs(rng, k, m):
    """Weights and their Gallai matrix, repeating rows and columns.

    k×m similarities of about k/2 distinct rows and m/2 distinct columns,
    each from {0, 1/6, 1/4, 1/3, 2/5, 1/2}, and about 15% of the distinct
    rows all zero.  The Gallai matrix has 18-60 cells below 0 a row, as
    the near-square ones of ``edgecover`` without ``arg`` do.
    """
    sim = rng.choice([0.0, 1 / 6, 1 / 4, 1 / 3, 2 / 5, 1 / 2], size=(k // 2, m // 2))
    sim[rng.random(k // 2) < 0.15] = 0.0
    sim = sim[np.ix_(rng.integers(0, k // 2, size=k), rng.integers(0, m // 2, size=m))]
    W = to_weights(sim)
    return W, np.minimum(0.0, W - W.min(axis=1)[:, None] - W.min(axis=0)[None, :])


def twin_heavy_matrices(rng):
    """``twin_heavy_costs`` of square and wider shapes, and each Gallai
    matrix again with about 30% of its rows set to 0 while it keeps over
    ``CEILING_CELLS_PER_ROW`` cells below 0 a row."""
    costs = []
    for k, m in [(30, 30), (40, 48), (60, 60), (60, 75), (34, 68), (90, 100)] * 2:
        W, gallai = twin_heavy_costs(rng, k, m)
        zeroed = gallai.copy()
        zeroed[rng.random(k) < 0.3] = 0.0
        costs += [W, gallai]
        if np.count_nonzero(zeroed) > CEILING_CELLS_PER_ROW * k:
            costs.append(zeroed)
    return costs


def corpus_gallai_matrices(directory, filters):
    """The cost matrices ``edgecover`` hands ``lap.lexmin_matching`` under
    ``filters``, on 6 generated `long` sentences."""
    files = load_corpus_gen().generate(directory, "long", 1, 6, (50, 70))
    bisentences = load_corpus(
        align_path=files["align"], src_trees_path=files["src.trees"],
        tgt_trees_path=files["tgt.trees"], src_roles_path=files["src.roles"],
    )
    cfg = pipeline.PipelineConfig.from_settings({"model": "edgecover", "filter": filters})
    costs = []
    real = lap.lexmin_matching
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lap, "lexmin_matching", lambda cost: costs.append(cost) or real(cost))
        for b in bisentences:
            pipeline.run_pipeline(b, cfg)
    return costs


def test_the_class_route_gives_the_dense_paths_link_set(monkeypatch, tmp_path):
    # Twin-heavy matrices, and the Gallai matrices of generated `nc` and
    # `none` graphs, in both orientations: the tie-break on the class
    # route's solution returns the link set it returns on the dense path's.
    class_runs = record_runs(monkeypatch, "_solve_classes")
    costs = twin_heavy_matrices(np.random.default_rng(127))
    costs += [cost for filters in ("nc", "none")
              for cost in corpus_gallai_matrices(tmp_path / filters, filters)]
    for n, cost in enumerate(costs):
        for c in (cost, cost.T):
            class_runs.clear()
            got = lap.lexmin_matching(c)
            assert class_runs == [1], (c.shape, n)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lap, "solve_lap", lap._solve_dense)
                want = lap.lexmin_matching(c)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (c.shape, n)


def test_the_class_route_duals_certify_its_assignment_and_twins_share_them(monkeypatch):
    # u + v <= cost with equality on matched cells, v <= 0 and 0 on the
    # unmatched columns: the assignment is optimal, and the tight graph
    # holds every optimal one.  Identical rows, and identical columns,
    # have the same dual.
    class_runs = record_runs(monkeypatch, "_solve_classes")
    for cost in twin_heavy_matrices(np.random.default_rng(131)):
        class_runs.clear()
        col_of_row, u, v = solve_lap(cost)
        assert class_runs == [1], cost.shape
        check_duals(cost, col_of_row, u, v)
        for duals, lines in ((u, cost), (v, cost.T)):
            twins = (lines[:, None, :] == lines[None, :, :]).all(axis=2)
            assert (duals[:, None] == duals[None, :])[twins].all(), cost.shape
        dense_col_of_row = lap._solve_dense(cost)[0]
        rows = np.arange(len(cost))
        assert cost[rows, col_of_row].sum() == pytest.approx(
            cost[rows, dense_col_of_row].sum(), abs=1e-6
        )


def test_twins_are_identical_and_a_row_off_by_less_than_rounding_stands_alone():
    # Rows 1 and 3 repeat row 0; row 2 differs from it in one cell by less
    # than the rounding of the projection, so it shares row 0's key.
    row = np.array([-1.5, 0.0, -2.25, -0.5])
    near = row.copy()
    near[1] = -1e-300
    cost = np.array([row, row, near, row, row - 1.0])
    cls, first = lap._twins(cost)
    assert cls.tolist() == [0, 0, 1, 0, 2] and first.tolist() == [0, 2, 4]


def test_a_matrix_with_too_few_twins_stays_on_the_dense_path(monkeypatch):
    # Past the cell bound, a near-square matrix with no twins, or with too
    # few for its class matrix to fit CLASS_CELLS_SHARE of its cells, takes
    # the dense path, bit for bit.
    class_runs = record_runs(monkeypatch, "_solve_classes")
    rng = np.random.default_rng(137)
    for k, m in [(30, 30), (40, 48), (60, 75)]:
        distinct = -rng.integers(1, 13, size=(k, m)) / 6
        repeated = distinct[np.ix_(rng.integers(0, k, size=k), rng.integers(0, m, size=m))]
        for cost in (distinct, repeated):
            share = len(lap._twins(cost)[1]) * len(lap._twins(cost.T)[1]) / cost.size
            assert share > CLASS_CELLS_SHARE
            got = solve_lap(cost)
            assert class_runs == []
            for a, b in zip(got, lap._solve_dense(cost)):
                assert np.array_equal(a, b), (k, m)


def test_lexmin_search_equals_the_reference_search(monkeypatch):
    # Tie-heavy graphs of both orientations with padding, started from a
    # random perfect matching of the padded square, and the tight graphs
    # that lexmin_matching builds on twin-heavy costs: closing a cycle at
    # the first row adjacent to home keeps the search's result.
    rng = np.random.default_rng(139)
    graphs = []
    for _ in range(600):
        n, m = (int(x) for x in rng.integers(1, 25, size=2))
        adm = rng.random((n, m)) < rng.uniform(0.3, 1.0)
        pad = rng.random(max(n, m)) < rng.uniform(0.0, 1.0)
        start = rng.permutation(max(n, m))
        for r, c in enumerate(start.tolist()):
            if r < n and c < m:
                adm[r, c] = True
            else:
                pad[c if r >= n else r] = True
        graphs.append((adm, np.where(start[:n] < m, start[:n], -1), pad))
    real = lap.lexmin_perfect_matching
    monkeypatch.setattr(lap, "lexmin_perfect_matching", lambda *a: graphs.append(a) or real(*a))
    for cost in twin_heavy_matrices(rng)[:9]:
        lap.lexmin_matching(cost)
        lap.lexmin_matching(cost.T)
    searched = 0
    for adm, col_of_row, pad in graphs:
        searched += not exits_early(adm, col_of_row, pad)
        got = real(adm, col_of_row, pad)
        assert got.tolist() == reference_lexmin_perfect_matching(adm, col_of_row, pad).tolist()
    assert searched > len(graphs) // 2
