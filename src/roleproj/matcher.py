"""Bipartite alignment graphs and the three optimal-subgraph solvers.

Constraint classes over the complete bipartite graph of source and target
units:

``perfect``
    Every unit of the smaller side links to its own unit of the larger
    side; the |n - m| units of the larger side left over stay unlinked,
    which lets the model abstain.  Solved as a rectangular min(n, m)-row
    assignment.

``edgecover``
    Every node has degree at least one.  Solved exactly by Gallai's
    reduction to a matching (Schrijver, *Combinatorial Optimization*,
    ch. 19): with mu(v) the cheapest weight incident to v, a minimum
    matching on the reduced costs min(0, w(s, t) - mu(s) - mu(t)) is a
    rectangular assignment of the min(n, m) units of the smaller side.
    Matched pairs with non-positive reduced cost are kept, every other
    unit takes its cheapest incident edge, and a zero-weight link whose
    endpoints are both linked elsewhere is dropped.  The cover costs the
    sum of all mu plus the matching cost.

``total``
    Every source node links to its maximally similar target node; target
    degrees are unconstrained.  Row-independent, hence globally optimal.

All solvers are deterministic.  ``perfect`` and ``total`` return the
lexicographically smallest optimal link set under (source index, target
index) ordering; for ``perfect`` it is computed by ``_lexmin_matching`` on
the n×m tight-cell graph of the assignment duals, with the padding that
squares it left implicit.  ``edgecover`` applies the
same canonicalization to the reduced-cost matching before decoding, which
yields an optimal minimal cover that is not always the lexicographically
smallest one.
Zero-similarity links forced by degree constraints are retained with
sim = 0.0; projection drops them.

An ``AlignmentGraph`` holds the unit ids of both sides, the similarity
matrix and the weights, both indexed [source index, target index].  The
solvers work on indices; ``links_from_pairs`` turns the chosen index pairs
into ``(src_unit, tgt_unit, sim)`` triples of plain ints and floats, the
triples the provenance sidecar records.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import lap
from .errors import DegenerateGraphError, ValidationError
from .similarity import to_weights

COST_ATOL = 1e-9


@dataclass(frozen=True)
class AlignmentGraph:
    src_units: tuple[int, ...]
    tgt_units: tuple[int, ...]
    sim: np.ndarray = field(compare=False)  # n_src × n_tgt, in [0, 1]
    weights: np.ndarray = field(compare=False)  # n_src × n_tgt, never padded

    @property
    def n_src_real(self) -> int:
        return self.weights.shape[0]

    @property
    def n_tgt_real(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class SemanticAlignment:
    links: tuple[tuple[int, int, float], ...]  # (src_unit, tgt_unit, sim), sorted
    cost: float  # sum of the weights of the links, zero-similarity ones included

    def link_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, t) for s, t, _ in self.links)


def build_graph(src_units, tgt_units, sim: np.ndarray, big: float) -> AlignmentGraph:
    """The graph over the given units; ``sim`` is indexed [source, target]."""
    if sim.shape != (len(src_units), len(tgt_units)):
        raise ValidationError("similarity matrix shape does not match unit counts")
    if sim.size == 0:
        raise DegenerateGraphError("alignment graph needs units on both sides")
    if sim.min() < 0.0 or sim.max() > 1.0:
        raise ValidationError("similarity values must lie in [0, 1]")
    return AlignmentGraph(tuple(src_units), tuple(tgt_units), sim, to_weights(sim, big))


def links_from_pairs(g: AlignmentGraph, pairs) -> tuple[tuple[int, int, float], ...]:
    """``(src_unit, tgt_unit, sim)`` triples of index pairs, in index order."""
    pairs = sorted(pairs)
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    src, tgt = g.src_units, g.tgt_units
    sims = g.sim[rows, cols].tolist()
    return tuple(zip([src[i] for i in rows], [tgt[j] for j in cols], sims))


def links_cost(W: np.ndarray, pairs) -> float:
    """Exactly rounded sum of the link weights.

    Equal weights give an equal cost in any order, also where sums of
    zero-similarity weights (1e6 each) leave a float spacing above 1e-9.
    """
    return math.fsum(W[i, j] for i, j in pairs)


def solve_perfect_matching(g: AlignmentGraph) -> SemanticAlignment:
    """Minimum-weight matching of every unit of the smaller side."""
    W = g.weights
    pairs = _lexmin_matching(W)
    return SemanticAlignment(links_from_pairs(g, pairs), links_cost(W, pairs))


def _lexmin_matching(cost: np.ndarray) -> list[tuple[int, int]]:
    """Lexicographically smallest minimum-cost matching of the smaller side.

    ``cost`` is n×m.  The assignment runs on the min(n, m)-row orientation;
    the tie-break runs source-major on the n×m tight-cell graph, standing
    for the max(n, m) square padded with zero-cost cells.  Padding keeps
    the duals optimal because they are zero on unmatched units and
    non-positive on the larger side, so unmatched units are tight against
    every padding cell.  A padding cell is tight against a larger-side unit
    of dual d when 0 - d <= ADMISSIBLE_TOL, the test the square would apply
    to it; ``lap.lexmin_perfect_matching`` takes those units as a mask and
    never builds the square.
    """
    n, m = cost.shape
    if n <= m:
        col_of_row, u, v = lap.solve_lap(cost)
        pad = -v <= lap.ADMISSIBLE_TOL
    else:
        row_of_col, v, u = lap.solve_lap(cost.T)
        col_of_row = np.full(n, -1, dtype=int)
        col_of_row[row_of_col] = np.arange(m)
        pad = -u <= lap.ADMISSIBLE_TOL
    adm = lap.admissible_cells(cost, u, v)
    match = lap.lexmin_perfect_matching(adm, col_of_row, pad)
    return [(i, int(j)) for i, j in enumerate(match) if j >= 0]


def solve_edge_cover(g: AlignmentGraph) -> SemanticAlignment:
    """Minimum-weight edge cover via Gallai's reduction to a matching."""
    W = g.weights
    n, m = W.shape
    mu_s = W.min(axis=1)
    mu_t = W.min(axis=0)
    reduced = W - mu_s[:, None] - mu_t[None, :]
    pairs = {
        (i, j)
        for i, j in _lexmin_matching(np.minimum(reduced, 0.0))
        if reduced[i, j] <= COST_ATOL
    }
    covered_s = {i for i, _ in pairs}
    covered_t = {j for _, j in pairs}
    # Each unit's cheapest edge: the smallest index within COST_ATOL of mu.
    cheapest_t = np.argmax(W <= mu_s[:, None] + COST_ATOL, axis=1).tolist()
    cheapest_s = np.argmax(W <= mu_t[None, :] + COST_ATOL, axis=0).tolist()
    pairs.update((i, cheapest_t[i]) for i in range(n) if i not in covered_s)
    pairs.update((cheapest_s[j], j) for j in range(m) if j not in covered_t)

    pairs = _strip_redundant_links(W, pairs)
    _check_cover(n, m, pairs)
    return SemanticAlignment(links_from_pairs(g, pairs), links_cost(W, pairs))


def _strip_redundant_links(W: np.ndarray, pairs: set) -> set:
    """Remove links whose endpoints are both covered elsewhere.

    An optimal cover can contain such a link only when it has (near-)zero
    weight; dropping it preserves cost and restores the property that no
    link is many-to-many.  Largest links are dropped first so the surviving
    set stays lexicographically small: one scan in descending order drops
    each zero-weight link whose endpoints both still have degree >= 2.
    Degrees only fall, so a link kept by the scan never becomes removable
    later, and the scan removes what dropping the largest removable link,
    again and again, would.
    """
    deg_s = Counter(i for i, _ in pairs)
    deg_t = Counter(j for _, j in pairs)
    kept = set(pairs)
    for i, j in sorted(pairs, reverse=True):
        if deg_s[i] >= 2 and deg_t[j] >= 2 and W[i, j] <= COST_ATOL:
            kept.remove((i, j))
            deg_s[i] -= 1
            deg_t[j] -= 1
    if any(deg_s[i] >= 2 and deg_t[j] >= 2 for i, j in kept):
        raise ValidationError(
            "edge cover decode produced a positive-weight many-to-many link"
        )
    return kept


def _check_cover(n: int, m: int, pairs) -> None:
    covered_s = {i for i, _ in pairs}
    covered_t = {j for _, j in pairs}
    if covered_s != set(range(n)) or covered_t != set(range(m)):
        raise ValidationError("edge cover decode left a unit uncovered")


def solve_total(g: AlignmentGraph) -> SemanticAlignment:
    """Per-source argmax similarity link; lowest target index wins ties."""
    cols = np.argmax(g.sim, axis=1)
    pairs = [(i, int(j)) for i, j in enumerate(cols)]
    cost = float(g.weights[np.arange(len(pairs)), cols].sum())
    return SemanticAlignment(links_from_pairs(g, pairs), cost)


def solve(g: AlignmentGraph, constraint_class: str) -> SemanticAlignment:
    if constraint_class == "perfect":
        return solve_perfect_matching(g)
    if constraint_class == "edgecover":
        return solve_edge_cover(g)
    if constraint_class == "total":
        return solve_total(g)
    raise ValueError(f"unknown constraint class {constraint_class!r}")


def dump_weight_table(g: AlignmentGraph, alignment: SemanticAlignment | None = None) -> str:
    """TSV debug table: rows = source units, columns = target units.

    Chosen cells are marked with a trailing ``*``.
    """
    chosen = set()
    if alignment is not None:
        index_of_src = {u: i for i, u in enumerate(g.src_units)}
        index_of_tgt = {u: j for j, u in enumerate(g.tgt_units)}
        chosen = {(index_of_src[s], index_of_tgt[t]) for s, t in alignment.link_pairs()}
    header = "unit\t" + "\t".join(str(u) for u in g.tgt_units)
    lines = [header]
    W = g.weights
    for i, src_unit in enumerate(g.src_units):
        cells = []
        for j in range(g.n_tgt_real):
            mark = "*" if (i, j) in chosen else ""
            cells.append(f"{W[i, j]:.6g}{mark}")
        lines.append(f"{src_unit}\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
