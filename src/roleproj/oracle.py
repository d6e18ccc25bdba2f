"""Exhaustive-enumeration oracle for the alignment solvers.

``check`` is the one statement of what agreeing with the oracle means; the
tests and the ``--oracle`` CLI flag are its only callers.
Refuses instances above the size guard, n * m <= MAX_CELLS.  Perfect
matchings are enumerated as injections of the smaller side into the
larger, at most 7 * 6 * 5 * 4 = 840 of them under the guard; edge covers
as functions from source to target, at most 3**10.  The one edge cover
``brute_force_optimum`` returns is an optimal minimal cover but not always
the lexicographically smallest one, so ``check`` accepts any optimal
minimal cover; the tests hold the enumeration of them all that ``check``
is tested against.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import MAX_CELLS, OracleSizeError, ToolkitError
from .matcher import COST_ATOL, AlignmentGraph, links_cost, links_from_pairs
from .projection import SemanticAlignment

COVER_ATOL = 1e-6  # sums of WEIGHT_CAP-capped weights round at about 1e-10 per link


def _guard(g: AlignmentGraph) -> None:
    cells = g.weights.size
    if cells > MAX_CELLS:
        raise OracleSizeError(
            f"instance has {cells} cells; brute force is limited to {MAX_CELLS}"
        )


def brute_force_optimum(g: AlignmentGraph, constraint_class: str) -> SemanticAlignment:
    """A minimum-cost member of the class, chosen deterministically.

    ``perfect``: the lexicographically smallest optimal matching.
    ``total``: each source's first most-similar target.  ``edgecover``:
    each optimal source->target function is completed with the
    smallest-index cheapest source for every target it leaves uncovered,
    non-minimal completions are dropped, and the smallest remaining link
    set is returned.  That need not be the smallest optimal minimal cover:
    a completion that uses a larger-index tied source can be minimal where
    the smallest-index one is not.
    """
    _guard(g)
    if constraint_class == "perfect":
        cost, pairs = _best_perfect(g)
    elif constraint_class == "edgecover":
        cost, pairs = _best_edge_cover(g)
    elif constraint_class == "total":
        cost, pairs = _best_total(g)
    else:
        raise ValueError(f"unknown constraint class {constraint_class!r}")
    return SemanticAlignment(links_from_pairs(g, *_index_arrays(pairs)), cost)


def _index_arrays(pairs):
    """Row-major (rows, cols) index arrays of (i, j) pairs."""
    return np.array(sorted(pairs), dtype=int).reshape(-1, 2).T


def check(g: AlignmentGraph, constraint_class: str, got: SemanticAlignment) -> None:
    """Raise ToolkitError unless ``got`` agrees with the oracle on ``g``.

    The cost must be the optimum's within COST_ATOL, and ``perfect`` and
    ``total`` links the oracle's.  ``edgecover`` links must be an optimal
    minimal cover within COVER_ATOL, each a source->target function plus a
    cheapest repair per target it leaves uncovered: without enumeration, a
    cover with no many-to-many link costing at most the optimum +
    COVER_ATOL.  Above the size guard, raises OracleSizeError.
    """
    reference = brute_force_optimum(g, constraint_class)
    if abs(got.cost - reference.cost) > COST_ATOL:
        raise ToolkitError(f"solver cost {got.cost!r} != oracle cost {reference.cost!r}")
    pairs = got.link_pairs()
    if constraint_class != "edgecover":
        if pairs != reference.link_pairs():
            raise ToolkitError(f"solver links {pairs} != oracle links {reference.link_pairs()}")
        return
    links = set(pairs)
    row = {u: i for i, u in enumerate(g.src_units)}
    col = {u: j for j, u in enumerate(g.tgt_units)}
    covers = {s for s, _ in links} == row.keys() and {t for _, t in links} == col.keys()
    if not covers or _has_many_to_many(links) or links_cost(
        g.weights, *_index_arrays((row[s], col[t]) for s, t in links)
    ) > reference.cost + COVER_ATOL:
        raise ToolkitError(f"solver links {pairs} are not an optimal minimal cover")


def _optimal_matchings(W: np.ndarray, atol: float):
    """Sorted link tuples of all optimal matchings of the smaller side.

    Each injection of the smaller side into the larger is one matching.
    """
    n, m = W.shape
    if n <= m:
        cols = np.array(list(itertools.permutations(range(m), n)), dtype=int)
        rows = np.broadcast_to(np.arange(n), cols.shape)
    else:
        rows = np.array(list(itertools.permutations(range(n), m)), dtype=int)
        cols = np.broadcast_to(np.arange(m), rows.shape)
    costs = W[rows, cols].sum(axis=1)
    optimal = np.flatnonzero(costs <= costs.min() + atol)
    return [tuple(sorted(zip(rows[k].tolist(), cols[k].tolist()))) for k in optimal]


def _best_perfect(g: AlignmentGraph):
    pairs = min(_optimal_matchings(g.weights, COST_ATOL))
    return links_cost(g.weights, *_index_arrays(pairs)), pairs


def _optimal_cover_functions(W: np.ndarray, atol: float):
    """Source->target functions that complete to an optimal cover.

    Every minimal edge cover is a forest of stars, i.e. a total function f
    on the source side together with one chosen source for each target
    left uncovered by f.  Enumerating those reaches every candidate
    optimum; repairs are independent per uncovered target, so cost
    minimization picks the cheapest incident source for each.  Returns the
    optimal cost and, for each optimal function, f and the mask of targets
    it covers.
    """
    n, m = W.shape
    col_min = W.min(axis=0)
    choices = np.array(list(itertools.product(range(m), repeat=n)), dtype=int)
    base = W[np.arange(n), choices].sum(axis=1)
    covered = np.zeros((len(choices), m), dtype=bool)
    for t in range(m):
        covered[:, t] = (choices == t).any(axis=1)
    repair = ((~covered) * col_min[None, :]).sum(axis=1)
    total = base + repair
    best = total.min()
    optimal = total <= best + atol
    return float(best), choices[optimal], covered[optimal]


def _tied_repairs(W: np.ndarray, t: int, atol: float) -> np.ndarray:
    """Sources whose link to target t ties for cheapest, in index order."""
    col = W[:, t]
    return np.flatnonzero(col <= col.min() + atol)


def _best_edge_cover(g: AlignmentGraph):
    W = g.weights
    _, functions, covered = _optimal_cover_functions(W, COST_ATOL)
    candidates = []
    for f, covered_row in zip(functions, covered):
        pairs = {(i, int(t)) for i, t in enumerate(f)}
        for t in np.flatnonzero(~covered_row):
            # smallest source index among cost-tied repairs keeps the
            # link set lexicographically minimal
            pairs.add((int(_tied_repairs(W, t, COST_ATOL)[0]), int(t)))
        # zero-weight links can make a non-minimal cover tie on cost; only
        # minimal covers (no link with both endpoints of degree >= 2) count
        if not _has_many_to_many(pairs):
            candidates.append(tuple(sorted(pairs)))
    pairs = min(candidates)
    return links_cost(W, *_index_arrays(pairs)), pairs


def _has_many_to_many(pairs) -> bool:
    deg_s, deg_t = {}, {}
    for i, j in pairs:
        deg_s[i] = deg_s.get(i, 0) + 1
        deg_t[j] = deg_t.get(j, 0) + 1
    return any(deg_s[i] >= 2 and deg_t[j] >= 2 for i, j in pairs)


def _best_total(g: AlignmentGraph):
    """Each source's first most-similar target, found by a plain scan of its row."""
    pairs = {(i, row.index(max(row))) for i, row in enumerate(g.sim.tolist())}
    return links_cost(g.weights, *_index_arrays(pairs)), pairs
