"""Exact minimum-cost assignment of every row of a k×m matrix, k <= m.

Shortest-augmenting-path construction with dual potentials, O(k^2 m).  The
potentials returned satisfy u[i] + v[j] <= cost[i, j] with equality on
matched cells, and v is zero on unmatched columns.  That lets callers
recover the full set of optimal assignments as the perfect matchings of
the tight-cell ("admissible") graph, after padding a rectangular instance
with zero-cost rows.  That is how deterministic lexicographic tie-breaking
is implemented here without giving up exactness.
"""

from __future__ import annotations

import numpy as np

# Absolute slack below which a cell counts as tight.  Large enough to absorb
# float accumulation at the 1e6 weight cap, small enough not to merge
# genuinely distinct weights of rational similarity values.
ADMISSIBLE_TOL = 1e-7


def solve_lap(cost: np.ndarray):
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

    u = np.zeros(n)
    v = np.zeros(m + 1)  # index m is the virtual column starting each phase
    row_of = np.full(m + 1, -1, dtype=int)

    for i in range(n):
        row_of[m] = i
        j0 = m
        minv = np.full(m, np.inf)
        way = np.full(m, m, dtype=int)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            cur = cost[i0] - u[i0] - v[:m]
            better = ~used[:m] & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            free = np.flatnonzero(~used[:m])
            j1 = free[int(np.argmin(minv[free]))]
            delta = minv[j1]
            used_cols = np.flatnonzero(used)
            u[row_of[used_cols]] += delta
            v[used_cols] -= delta
            minv[free] -= delta
            j0 = j1
            if row_of[j0] == -1:
                break
        while j0 != m:
            j_prev = way[j0]
            row_of[j0] = row_of[j_prev]
            j0 = j_prev

    matched = np.flatnonzero(row_of[:m] >= 0)
    col_of_row = np.empty(n, dtype=int)
    col_of_row[row_of[matched]] = matched
    return col_of_row, u, v[:m]


def admissible_cells(cost: np.ndarray, u: np.ndarray, v: np.ndarray, tol=ADMISSIBLE_TOL):
    """Boolean matrix of tight cells; every optimal matching lives inside it."""
    return (cost - u[:, None] - v[None, :]) <= tol


def lexmin_perfect_matching(adm: np.ndarray, col_of_row: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching within the admissible graph.

    ``col_of_row`` must be a perfect matching contained in ``adm`` (the LAP
    solution is, by complementary slackness).  Rows are fixed in order; for
    each row the smallest admissible column that still admits a completion
    is kept, so the resulting link set is the lexicographic minimum among
    all optimal matchings under (row, column) ordering.
    """
    n = len(col_of_row)
    match = [int(j) for j in col_of_row]
    row_of = [-1] * n
    for i, j in enumerate(match):
        row_of[j] = i
    locked = [False] * n
    adm_cols = [np.flatnonzero(adm[i]).tolist() for i in range(n)]

    def try_rematch(start_row, banned_col):
        """Kuhn augmentation for start_row avoiding locked and banned columns.

        Iterative depth-first search: ``rows[k]`` was reached through column
        ``path[k - 1]``, and ``todo[k]`` holds the columns of ``rows[k]`` not
        tried yet.
        """
        blocked = locked.copy()
        blocked[banned_col] = True
        rows, todo, path = [start_row], [iter(adm_cols[start_row])], []
        while rows:
            j = next((c for c in todo[-1] if not blocked[c]), -1)
            if j < 0:
                rows.pop()
                todo.pop()
                if path:
                    path.pop()
                continue
            blocked[j] = True
            path.append(j)
            if row_of[j] == -1:
                for r, c in zip(rows, path):
                    row_of[c] = r
                    match[r] = c
                return True
            rows.append(row_of[j])
            todo.append(iter(adm_cols[row_of[j]]))
        return False

    for i in range(n):
        for j in adm_cols[i]:
            if j >= match[i]:
                break
            if locked[j]:
                continue
            displaced = row_of[j]
            old = match[i]
            row_of[old] = -1
            row_of[j] = i
            match[i] = j
            if try_rematch(displaced, j):
                break
            row_of[j] = displaced
            row_of[old] = i
            match[i] = old
        locked[match[i]] = True
    return np.array(match, dtype=int)
