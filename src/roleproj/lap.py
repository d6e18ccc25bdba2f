"""Exact minimum-cost assignment of every row of a k×m matrix, k <= m.

``solve_lap`` is one shortest-augmenting-path solver on whole rows, run
over classes, unless the ceiling path below applies.  Rows and columns
that repeat make it a transportation problem (Ahuja, Magnanti and Orlin,
*Network Flows*, 1993, ch. 9): a class of identical rows supplies its
count of rows, and a class of identical columns has room for its count.
Most matrices take singleton classes, the dense path, which gathers and
expands nothing.  Its three steps:

* Warm start.  Each row potential starts at its row minimum and every
  column potential at zero; in row order, each row class fills the
  smallest-index free columns that attain its minimum.  A class whose
  first minimum has room for all its rows takes it in plain Python; only
  one whose first minimum is full searches its other minima.
* Lazy-dual augmenting paths (Crouse 2016, "On implementing 2D
  rectangular assignment algorithms", the algorithm behind scipy's
  ``linear_sum_assignment``).  Each row class with rows left runs one
  Dijkstra phase over reduced costs; the potentials of the rows and
  columns it scanned are updated once, when the phase ends.  A held column
  class leads on to every row class that holds it.  A step keeps only the
  distances; each scanned row's reduced costs go into a scratch matrix,
  and when the phase ends the augmenting path is read back from it: a
  column was reached from the first step that attained its final
  distance.  The path moves as many rows as its bottleneck allows.
* Exact-tie free-column preference.  When the closest unscanned column is
  already assigned, the first free column at exactly the same distance is
  taken instead, which ends the phase.  It is the argmin of the distances
  plus a penalty that is 0 on free columns and +inf on assigned ones.
  Jaccard weights are rationals with small denominators and every zero
  similarity weighs the same cap, so such ties are common; equality is
  exact, so optimality is not traded for speed.

Each Dijkstra step costs a handful of numpy calls on one row, so on graphs
of about a hundred units the time goes to call overhead, not vector width.
The worst case is O(k^2 m).  The potentials returned satisfy
u[i] + v[j] <= cost[i, j] with equality on matched cells; v is
non-positive and zero on unmatched columns.  That lets ``lexmin_matching``,
the module's entry point, recover the full set of optimal assignments as
the perfect matchings of the tight-cell ("admissible") graph of the square
padded with zero-cost rows.  Any optimal dual yields the same set, which is
how deterministic lexicographic tie-breaking is implemented here without
giving up exactness.

``lexmin_perfect_matching`` is that tie-break: one depth-first search per
row, whose visited marks persist across the row's candidate columns
because the matching changes only when the search succeeds, and which
stops at the first row adjacent to the row's own column.  It runs on
the k×m tight cells alone.  The padding nodes all cost 0 and have dual 0,
so they are interchangeable: the padding side is kept implicit, as one
virtual row or as one shared cursor over the rows that hold padding, and
the work follows the k×m cells, not the square of the larger side.
Before any search, one vectorised test over the tight cells' index arrays
asks whether every tight column below a row's own is held by an earlier
row; then no row can move and the matching is returned as it is.  The
thin Gallai matrices of ``edgecover`` under the ``arg`` filter almost
always pass it, the square ``perfect`` graphs almost never.

The ceiling path.  A matrix's largest cell is its ceiling: the cap on a
``perfect`` graph with a zero similarity, which weighs 85-92% of the
cells on the benchmark corpora, and 0 on a Gallai matrix of ``edgecover``
with a clipped cell.  When the cells below the ceiling average at most
``CEILING_CELLS_PER_ROW`` a row, and the matrix has at most
``CEILING_COLS_PER_ROW`` columns a row, those cells are gathered once into
per-row lists.  The warm start reads them, a row of ceiling cells alone
taking the first free column, and a Dijkstra step relaxes its row's few
cells in plain Python:

* The cells below the ceiling go into a heap keyed (distance, column is
  held, column), so at an equal distance a free column comes first, as
  on the dense path.  Without that preference, random 118×118 capped
  matrices took 1.1-22 times the steps (median 3.0).
* The ceiling cells of all the rows scanned so far are one candidate, the
  escape.  Row r, reached at distance d_r, offers its ceiling cell at
  column j at (ceiling - v[j]) + (d_r - u[r]).  Every v is <= 0 and free
  columns have v = 0, so the nearest such cell is ceiling + min(d_r -
  u[r]) over the scanned rows, at the first free column; one scalar per
  phase tracks it.  At an equal distance the escape beats the heap, since
  it reaches a free column.

Each step scans the column the dense path would, at the same distance, and
a column is reached from the row the dense path's rebuild would read, so
the assignment and the duals are the dense path's to the last bit.  Past
either bound the whole-row solver runs.  The lists pay for themselves only
over Dijkstra phases, and a thin wide matrix has few: on the benchmark
corpora the argument-filtered graphs, of 3-16 rows and over 3 columns a
row, almost never need one, since nearly every row takes a free minimum at
the warm start.  The comment on the two constants gives the timings.

Classes of twins.  A near-square matrix past the cell bound, such as an
``edgecover`` Gallai matrix without the ``arg`` filter, often repeats rows
and columns, since units of one yield have equal similarity rows.  When its
classes leave at most ``CLASS_CELLS_SHARE`` of the cells, the solver runs
over them; twins share their duals.  The solution may differ from the
dense path's, but every optimal dual has the same optimal matchings in its
tight graph, so the tie-break returns the same link set.  Rows are grouped
by a projection onto one vector, each checked against its class's first row.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import chain

import numpy as np

# Absolute slack below which a cell counts as tight.  Large enough to absorb
# float accumulation at ``WEIGHT_CAP``, small enough not to merge
# genuinely distinct weights of rational similarity values.
ADMISSIBLE_TOL = 1e-7

# The ceiling path runs on a k×m matrix, k <= m, with at most
# CEILING_CELLS_PER_ROW cells below the ceiling on average per row and at
# most CEILING_COLS_PER_ROW columns per row.
#
# Cells per row: against the dense path, on random capped k×1.2k matrices
# of 50, 80 and 118 rows, it was 1.5-1.7x as fast at 8 cells per row,
# 1.13-1.35x at 12, 0.91-1.12x at 16, 0.84-0.98x at 20 and 0.47-0.76x at
# 32, whatever the size.  The median `perfect` graph of the benchmark
# corpora has 7.8 (`short`) and 9.7 (`long`) cells below the cap per row,
# and none has more than 14.2.
#
# Columns per row: the ceiling path's speed against the dense path's, as
# the range over 4, 8, 16, 32 and 64 rows of random capped k×m matrices
# (15 a shape, two seeds), at 8 and 14 cells below the cap per row:
#
#     columns per row   1.0      1.5      2.0      2.5      3.0      4.0      8.0
#     8 cells           1.5-2.5  1.4-1.9  0.9-1.7  0.8-1.4  0.7-1.2  0.8-1.0  0.6-0.7
#     14 cells          1.6-2.1  1.1-1.3  1.0-1.1  0.8-1.1  0.8-0.9  0.7-0.9  0.5-0.7
#
# The benchmark corpora (seeds 1, 3, 7 and 11) hold no matrix between 1.42
# and 3.2 columns per row.  Within the cell bound, the near-square ones
# (32-142 rows, at most 1.42) ran 1.5-1.8x as fast in the median: the
# `perfect` graphs under `na` and `none`, and the Gallai matrices of
# `edgecover` without `arg` or with it skipped for an unaligned predicate.
# The wide ones, the `arg` graphs (3-16 rows, 3.2 or more), ran 0.47x
# (`perfect`) and 0.75x (the Gallai matrices of `edgecover`).
CEILING_CELLS_PER_ROW = 16
CEILING_COLS_PER_ROW = 2

# A matrix inside the column bound but past the cell bound runs over its
# classes of identical rows and columns when the class matrix has at most
# CLASS_CELLS_SHARE of its cells.  The class route's speed against
# `_solve_dense`, the whole-row solver before singleton classes replaced
# it, grouping included, on the class matrices of the near-square Gallai
# matrices of `short` and `long` under `none` (seeds 1 and 7), each
# re-expanded by random twins to a chosen share:
#
#     share of cells     0.95-1.0  0.44  0.36-0.37  0.30-0.31  0.24-0.25  0.19-0.20  0.11
#     under 60 rows      0.76      0.89  0.94       0.97       1.10       1.21       1.31
#     60 rows or more    0.79      1.02  1.09       1.12       1.24       1.34       1.71
#
# The near-square Gallai matrices of `edgecover` on the benchmark corpora
# (seeds 1 and 7, all five filter settings) have shares of 0.01-0.38, and
# all but one at most 0.30; there the class route ran 3.4x as fast under
# 0.1, 2.0x at 0.1-0.2 and 1.7x at 0.2-0.3, in total.  Under `nc`, which
# counts content words alone, units with the same content words are twins
# too.  No `perfect` graph reaches the route.
CLASS_CELLS_SHARE = 0.35


def solve_lap(cost: np.ndarray):
    """Return (col_of_row, u, v) for a minimum-cost assignment of every row.

    ``cost`` is k×m with k <= m and finite entries; each row gets its own
    column.  ``v`` is non-positive, and zero on the m - k unmatched columns.
    A matrix of at most ``CEILING_COLS_PER_ROW`` columns per row, with at
    most ``CEILING_CELLS_PER_ROW`` cells below its largest cell per row on
    average, is solved over those cells alone; past the cell bound, over
    its classes of identical rows and columns when they leave at most
    ``CLASS_CELLS_SHARE`` of its cells.  Any other takes singleton classes.
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
    if m <= CEILING_COLS_PER_ROW * n:
        ceiling = float(cost.max())
        below = cost < ceiling
        if np.count_nonzero(below) <= CEILING_CELLS_PER_ROW * n:
            return _solve_below_ceiling(cost, below, ceiling)
        twins = _twins(cost), _twins(cost.T)
        if len(twins[0][1]) * len(twins[1][1]) <= CLASS_CELLS_SHARE * n * m:
            return _solve_classes(cost, twins)
    return _solve_classes(cost)


def _twins(cost: np.ndarray):
    """Each row's class of identical rows, and each class's first row.

    Rows are keyed by one projection, and each is compared with the first
    row of its key.  A row that differs from it, by less than the rounding
    of the projection, is a class of its own.  Classes are numbered in the
    order of their first rows.
    """
    keys = np.einsum("ij,j->i", cost, np.sqrt(np.arange(2.0, cost.shape[1] + 2)))
    _, first, cls = np.unique(keys, return_index=True, return_inverse=True)
    twins = np.flatnonzero(first[cls] != np.arange(len(cls)))
    apart = twins[(cost[twins] != cost[first[cls[twins]]]).any(axis=1)]
    cls[apart] = np.arange(len(first), len(first) + len(apart))
    first = np.concatenate([first, apart])
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[cls], first[order]


def _solve_classes(cost, twins=None):
    """``solve_lap`` over the classes ``twins``, ``_twins`` of the rows and
    of the columns, or over singleton classes, gathering and expanding
    nothing.  Twins share their duals, so (u, v) keeps the contract.
    """
    if twins is None:
        held, u, v = _transport(cost, [1] * len(cost), {})
        col_of_row = [0] * len(cost)
        for c, (r,) in held.items():
            col_of_row[r] = c
        return np.array(col_of_row, dtype=int), u, v
    (row_cls, row_firsts), (col_cls, col_firsts) = twins
    supply = np.bincount(row_cls).tolist()
    room = dict(enumerate(np.bincount(col_cls).tolist()))
    held, u, v = _transport(cost[np.ix_(row_firsts, col_firsts)], supply, room)
    # Expand: each row, in order, takes the first column not yet taken of
    # the first column class its class still holds a share of.
    order = np.argsort(col_cls, kind="stable").tolist()
    ends = np.cumsum(np.bincount(col_cls)).tolist()
    cols_in = [iter(order[a:b]) for a, b in zip([0, *ends], ends)]
    shares = [[] for _ in range(len(row_firsts))]
    for c in sorted(held):
        for r, count in held[c].items():
            shares[r] += [c] * count
    shares = [iter(share) for share in shares]
    col_of_row = [next(cols_in[next(shares[r])]) for r in row_cls.tolist()]
    return np.array(col_of_row, dtype=int), u[row_cls], v[col_cls]


def _transport(k, supply, room):
    """Successive shortest paths on class matrix ``k``: (held, u, v).

    Row class r has supply[r] rows to place and column class c has room[c]
    free columns (1 while a singleton class is missing from ``room``), both
    updated in place; held[c] maps each row class to its count of c's columns.
    """
    n, m = k.shape
    u, held = _warm_start(k, supply, room)
    v = np.zeros(m)
    if not any(supply):
        return held, u, v
    # The phases update row potentials one by one: floats, not numpy scalars.
    u = u.tolist()
    taken = np.zeros(m)
    taken[[c for c, left in room.items() if not left]] = np.inf

    # One Dijkstra phase per path.  Step s scans row class rows[s], reached
    # through column class scanned[via[s]], and writes its reduced costs
    # into reach[s]; a phase reaches each row class once.
    shortest = np.empty(m)
    open_v = np.empty(m)
    reach = np.empty((n, m))
    for start in range(n):
        while supply[start]:
            shortest.fill(np.inf)
            # Scanned classes get v = -inf here: their reduced cost reads +inf.
            np.copyto(open_v, v)
            rows, via, scanned, dists = [], [], [], []
            batch, reached, min_val = [start], set(), 0.0
            while True:
                for i in batch:
                    if i in reached:
                        continue
                    reached.add(i)
                    r = reach[len(rows)]
                    np.subtract(k[i], open_v, out=r)
                    r += min_val - u[i]
                    np.minimum(shortest, r, out=shortest)
                    rows.append(i)
                    via.append(len(scanned) - 1)
                j = int(shortest.argmin())
                min_val = float(shortest[j])
                if not room.get(j, 1):
                    # Prefer the first free class at exactly the same distance.
                    f = int((shortest + taken).argmin())
                    if shortest[f] == min_val:
                        j = f
                scanned.append(j)
                dists.append(min_val)
                if room.get(j, 1):
                    break
                batch = held[j]
                shortest[j] = np.inf
                open_v[j] = -np.inf

            # The clamp keeps float rounding from pushing a potential above 0.
            u[start] += min_val
            for i, t in zip(rows[1:], via[1:]):
                u[i] += max(min_val - dists[t], 0.0)
            for j, d in zip(scanned, dists):
                v[j] -= max(min_val - d, 0.0)

            # The path back from the free class: column class cols[t] takes
            # rows of class path[t], which gives up as many columns of class
            # cols[t + 1].  A class was reached from the first step that
            # attained its final distance, among the bisect_left(via, t) rows
            # scanned before it.
            t = len(scanned) - 1
            cols, path = [], []
            while True:
                cols.append(scanned[t])
                s = int(reach[: bisect_left(via, t), scanned[t]].argmin())
                path.append(rows[s])
                if s == 0:
                    break
                t = via[s]
            count = min(supply[start], room.get(cols[0], 1),
                        *(held[c][r] for r, c in zip(path, cols[1:])))
            for r, c in zip(path, cols):
                share = held.setdefault(c, {})
                share[r] = share.get(r, 0) + count
            for r, c in zip(path, cols[1:]):
                held[c][r] -= count
                if not held[c][r]:
                    del held[c][r]
            supply[start] -= count
            room[cols[0]] = room.get(cols[0], 1) - count
            if not room[cols[0]]:
                taken[cols[0]] = np.inf

    return held, np.array(u), v


def _warm_start(k, supply, room):
    """``_transport``'s warm start, each row class at its minimum: (u, held)."""
    held = {}
    u = k.min(axis=1)
    at_min = k == u[:, None]
    for r, c in enumerate(at_min.argmax(axis=1).tolist()):
        need = supply[r]
        cols = [c] if room.get(c, 1) >= need else np.flatnonzero(at_min[r]).tolist()
        for c in cols:
            left = room.get(c, 1)
            take = min(need, left)
            if take:
                held.setdefault(c, {})[r] = take
                room[c] = left - take
                need -= take
                if not need:
                    break
        supply[r] = need
    return u, held


def _solve_below_ceiling(cost: np.ndarray, below: np.ndarray, ceiling: float):
    """``solve_lap`` over the cells in ``below``, in plain Python.

    Every other cell equals ``ceiling``.  The warm start, the column each
    step scans and its distance, the dual update and the path rebuild are
    the dense path's.
    """
    n, m = cost.shape
    cell_rows, cell_cols = np.nonzero(below)
    ends = np.cumsum(np.bincount(cell_rows, minlength=n)).tolist()
    pairs = list(zip(cell_cols.tolist(), cost[cell_rows, cell_cols].tolist()))
    cells = [pairs[a:b] for a, b in zip([0, *ends], ends)]

    # Warm start: a row takes its first free minimum, and a row of ceiling
    # cells alone, at its minimum everywhere, the first free column.
    # Columns are never freed again, so the first free column only moves up.
    u = cost.min(axis=1).tolist()
    v = [0.0] * m
    col_of_row = [-1] * n
    row_of = [-1] * m
    first_free = 0
    for i, row in enumerate(cells):
        if row:
            low = u[i]
            for j, c in row:
                if c == low and row_of[j] < 0:
                    break
            else:
                continue
        else:
            while row_of[first_free] >= 0:
                first_free += 1
            j = first_free
        col_of_row[i] = j
        row_of[j] = i

    inf = float("inf")
    reached_at = [0] * m
    for start in [i for i, j in enumerate(col_of_row) if j < 0]:
        # Step s scans row rows[s].  best[j] is column j's distance, -inf
        # once scanned, and reached_at[j] the first step to reach it there.
        # `escape` is the nearest ceiling cell of the rows scanned so far
        # (module docstring), at the first free column, and escape_at the
        # first step offering it.
        best = [inf] * m
        heap = []
        rows, scanned, dists = [start], [], []
        escape, escape_at = inf, 0
        i, min_val = start, 0.0
        while True:
            step = len(scanned)
            h = min_val - u[i]
            if ceiling + h < escape:
                escape, escape_at = ceiling + h, step
            for j, c in cells[i]:
                d = c - v[j] + h
                if d < best[j]:
                    best[j] = d
                    reached_at[j] = step
                    # At an equal distance a free column comes first.
                    heappush(heap, (d, row_of[j] >= 0, j))
            while heap and heap[0][0] > best[heap[0][2]]:
                heappop(heap)
            # At an equal distance the escape wins: it reaches a free column.
            if heap and heap[0][0] < escape:
                min_val, _, j = heappop(heap)
            else:
                while row_of[first_free] >= 0:
                    first_free += 1
                min_val, j = escape, first_free
                # The dense path takes the first row at that distance: an
                # earlier row may reach j below the ceiling just as near.
                if best[j] != escape or reached_at[j] > escape_at:
                    reached_at[j] = escape_at
            scanned.append(j)
            dists.append(min_val)
            i = row_of[j]
            if i < 0:
                break
            rows.append(i)
            best[j] = -inf

        # The dense path's update, clamp included.  Row rows[k + 1] was
        # reached through scanned[k]; the free column that ends the phase
        # has no slack.
        u[start] += min_val
        for r, j, d in zip(rows[1:], scanned, dists):
            slack = max(min_val - d, 0.0)
            u[r] += slack
            v[j] -= slack

        # Augment from the free column back to the start row.
        j = scanned[-1]
        while True:
            i = rows[reached_at[j]]
            row_of[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == start:
                break
    return np.array(col_of_row, dtype=int), np.array(u), np.array(v)


def admissible_cells(cost: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Boolean matrix of tight cells; every optimal matching lives inside it."""
    return (cost - u[:, None] - v[None, :]) <= ADMISSIBLE_TOL


def lexmin_perfect_matching(adm: np.ndarray, col_of_row: np.ndarray, pad=None) -> np.ndarray:
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
    admissible column not locked.  Reaching a row adjacent to ``home``
    closes an alternating cycle at once, whichever way the search would
    have reached ``home`` from there: the cycle proves the candidate, and
    each row on it takes the next column.  A real row's adjacency is one
    bisection of its sorted tight columns.  The matching does not change
    while the search runs, so a column from which ``home`` was unreachable
    for one candidate stays so for the next, and the visited marks persist
    across all of i's candidates.

    Padding nodes are interchangeable, so the square is never built:

    * n < m: one virtual row, index n, holds every column no real row
      holds, and is adjacent to the ``pad`` columns.  A search goes on from
      it only to ``pad`` columns that real rows hold; the others lead back
      to it.  All its visits in a search share one iterator over them,
      which a fresh iterator over the square's next padding row would only
      repeat.
    * n > m: the padding column a row r holds is numbered m + r.  Rows in
      ``pad`` reach, after their real columns, one cursor per search over
      the unlocked rows that hold padding.  When row i is homed on padding,
      every row in ``pad`` is adjacent to its home.
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
                shared = (m + r for r in range(i + 1, n) if match[r] < 0)
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
                seen[j] = True
                visited.append(j)
                r = row_of[j]
                rows.append(r)
                # A row adjacent to home closes the cycle at once.
                if r == n:
                    closes = pad[home]
                elif home >= m:
                    closes = pad_row[r]
                else:
                    cols = adm_cols[r]
                    at = bisect_left(cols, home)
                    closes = at < len(cols) and cols[at] == home
                if closes:
                    path.append(home)
                    for r, c in zip(rows, path):
                        if c < m:
                            match[r] = c
                            row_of[c] = r
                        else:
                            match[r] = -1
                    break
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


def lexmin_matching(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically smallest minimum-cost matching of the smaller side.

    ``cost`` is n×m; the matched cells come back as (rows, cols) index
    arrays in row-major order.  ``solve_lap`` runs on the min(n, m)-row
    orientation.  The tie-break runs source-major on the n×m tight-cell
    graph, standing for the max(n, m) square padded with zero-cost cells.
    The duals are zero on unmatched units and non-positive on the larger
    side, so unmatched units are tight against every padding cell, and a
    larger-side unit of dual d is tight against one when 0 - d <=
    ADMISSIBLE_TOL, the test the square would apply;
    ``lexmin_perfect_matching`` takes those units as a mask.
    The three steps are module globals, so a wrapper set on lap sees each call.
    """
    n, m = cost.shape
    if n <= m:
        col_of_row, u, v = solve_lap(cost)
        pad = -v <= ADMISSIBLE_TOL
    else:
        row_of_col, v, u = solve_lap(cost.T)
        col_of_row = np.full(n, -1, dtype=int)
        col_of_row[row_of_col] = np.arange(m)
        pad = -u <= ADMISSIBLE_TOL
    match = lexmin_perfect_matching(admissible_cells(cost, u, v), col_of_row, pad)
    rows = np.flatnonzero(match >= 0)
    return rows, match[rows]
