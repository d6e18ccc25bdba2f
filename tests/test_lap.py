import itertools

import numpy as np
import pytest

from roleproj.lap import ADMISSIBLE_TOL, lexmin_perfect_matching, solve_lap
from roleproj.similarity import SimilarityMatrix, to_weights


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
    sim = SimilarityMatrix(tuple(range(9)), tuple(range(116)), rng.integers(0, d + 1) / d)
    padded = np.full((116, 116), 1e6)
    padded[:9] = to_weights(sim, 1e6)
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
