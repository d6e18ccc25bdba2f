"""Bipartite alignment graphs and the three optimal-subgraph solvers.

Constraint classes over the complete bipartite graph of source and target
units:

``perfect``
    Every unit of the smaller side links to its own unit of the larger
    side; the |n - m| units of the larger side left over stay unlinked,
    which lets the model abstain.  Solved as a rectangular min(n, m)-row
    assignment.  The zero similarities, 85-92% of the cells on the
    benchmark corpora, weigh the cap, and the assignment in ``lap`` reads
    only the cells below it when they average few a row.

``edgecover``
    Every node has degree at least one.  Solved exactly by Gallai's
    reduction to a matching (Schrijver, *Combinatorial Optimization*,
    ch. 19): with mu(v) the cheapest weight incident to v, a minimum
    matching on the reduced costs min(0, w(s, t) - mu(s) - mu(t)) is a
    rectangular assignment of the min(n, m) units of the smaller side.
    A near-square Gallai matrix, such as that of a sentence whose
    unaligned predicate turns the ``arg`` filter off, is solved in ``lap``
    over its cells below 0 when they are few a row; otherwise the whole-row
    solver runs over its classes of identical rows and columns when they
    are few (units of one yield have equal rows), and over singleton
    classes when not.  The thin matrices of the ``arg`` filter skip both
    tests and take singleton classes.  The cover is decoded on an n×m
    boolean link mask.  Matched pairs with non-positive reduced cost are
    kept; every unit they leave bare, found from those pairs alone before
    any repair, takes its cheapest incident edge; and a zero-weight link
    whose endpoints are both linked elsewhere is dropped, scanning only
    those links, largest index first.
    The cover costs the sum of all mu plus the matching cost.

``total``
    Every source node links to its maximally similar target node; target
    degrees are unconstrained.  Row-independent, hence globally optimal.

All solvers are deterministic.  ``perfect`` and ``total`` return the
lexicographically smallest optimal link set under (source index, target
index) ordering; for ``perfect`` it comes from ``lap.lexmin_matching``,
the assignment with its tie-break.  ``edgecover`` applies the same
canonicalization to the reduced-cost matching before decoding, which
yields an optimal minimal cover that is not always the lexicographically
smallest one.
Zero-similarity links forced by degree constraints are retained with
sim = 0.0; projection drops them.

An ``AlignmentGraph`` holds the unit ids of both sides, the similarity
matrix and the weights, both indexed [source index, target index].  The
solvers work on index arrays; ``links_from_pairs`` turns the chosen
(rows, cols) arrays, in row-major order, into ``(src_unit, tgt_unit,
sim)`` triples of plain ints and floats, the triples the provenance
sidecar records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lap
from .errors import DegenerateGraphError, ValidationError
from .projection import SemanticAlignment
from .similarity import to_weights

COST_ATOL = 1e-9


@dataclass(frozen=True)
class AlignmentGraph:
    src_units: tuple[int, ...]
    tgt_units: tuple[int, ...]
    sim: np.ndarray = field(compare=False)  # n_src × n_tgt, in [0, 1]
    weights: np.ndarray = field(compare=False)  # n_src × n_tgt, never padded

    # Their only readers are perfbench/checks.py::reference_cost and
    # perfbench/run.py::install_layer_wrappers.
    @property
    def n_src_real(self) -> int:
        return self.weights.shape[0]

    @property
    def n_tgt_real(self) -> int:
        return self.weights.shape[1]


def build_graph(src_units, tgt_units, sim: np.ndarray) -> AlignmentGraph:
    """The graph over the given units; ``sim`` is indexed [source, target]."""
    if sim.shape != (len(src_units), len(tgt_units)):
        raise ValidationError("similarity matrix shape does not match unit counts")
    if sim.size == 0:
        raise DegenerateGraphError("alignment graph needs units on both sides")
    if sim.min() < 0.0 or sim.max() > 1.0:
        raise ValidationError("similarity values must lie in [0, 1]")
    return AlignmentGraph(tuple(src_units), tuple(tgt_units), sim, to_weights(sim))


def links_from_pairs(g: AlignmentGraph, rows, cols) -> tuple[tuple[int, int, float], ...]:
    """``(src_unit, tgt_unit, sim)`` triples of index arrays in row-major order."""
    src, tgt = g.src_units, g.tgt_units
    sims = g.sim[rows, cols].tolist()
    return tuple(zip([src[i] for i in rows.tolist()], [tgt[j] for j in cols.tolist()], sims))


def links_cost(W: np.ndarray, rows, cols) -> float:
    """Exactly rounded sum of the link weights.

    Equal weights give an equal cost in any order, also where sums of
    zero-similarity weights (``WEIGHT_CAP`` each) leave a spacing above 1e-9.
    """
    return math.fsum(W[rows, cols].tolist())


def solve_perfect_matching(g: AlignmentGraph) -> SemanticAlignment:
    """Minimum-weight matching of every unit of the smaller side."""
    W = g.weights
    rows, cols = lap.lexmin_matching(W)
    return SemanticAlignment(links_from_pairs(g, rows, cols), links_cost(W, rows, cols))


def solve_edge_cover(g: AlignmentGraph) -> SemanticAlignment:
    """Minimum-weight edge cover via Gallai's reduction to a matching."""
    W = g.weights
    n, m = W.shape
    mu_s = W.min(axis=1)
    mu_t = W.min(axis=0)
    reduced = W - mu_s[:, None] - mu_t[None, :]
    rows, cols = lap.lexmin_matching(np.minimum(reduced, 0.0))
    keep = reduced[rows, cols] <= COST_ATOL
    rows, cols = rows[keep], cols[keep]
    chosen = np.zeros((n, m), dtype=bool)
    chosen[rows, cols] = True
    # The units the kept matching leaves bare, all found before any repair,
    # each take their cheapest edge: the smallest index within COST_ATOL of mu.
    bare_s = np.ones(n, dtype=bool)
    bare_s[rows] = False
    bare_t = np.ones(m, dtype=bool)
    bare_t[cols] = False
    cheapest_t = np.argmax(W <= mu_s[:, None] + COST_ATOL, axis=1)
    cheapest_s = np.argmax(W <= mu_t[None, :] + COST_ATOL, axis=0)
    chosen[bare_s, cheapest_t[bare_s]] = True
    chosen[cheapest_s[bare_t], bare_t] = True

    _strip_redundant_links(W, chosen)
    rows, cols = np.nonzero(chosen)
    return SemanticAlignment(links_from_pairs(g, rows, cols), links_cost(W, rows, cols))


def _strip_redundant_links(W: np.ndarray, chosen: np.ndarray) -> None:
    """Remove links whose endpoints are both covered elsewhere from the
    boolean link mask ``chosen``, in place.

    An optimal cover can contain such a link only when it has (near-)zero
    weight; dropping it preserves cost and restores the property that no
    link is many-to-many.  Largest links are dropped first so the surviving
    set stays lexicographically small: one scan in descending order drops
    each zero-weight link whose endpoints both still have degree >= 2.
    Degrees only fall, so a link kept by the scan never becomes removable
    later, and the scan removes what dropping the largest removable link,
    again and again, would.  For the same reason the scan visits only the
    zero-weight links that start out many-to-many.
    """
    deg_s = chosen.sum(axis=1)
    deg_t = chosen.sum(axis=0)
    if deg_s.max() < 2 or deg_t.max() < 2:
        return
    many = chosen & (deg_s[:, None] >= 2) & (deg_t[None, :] >= 2)
    rows, cols = np.nonzero(many & (W <= COST_ATOL))
    for i, j in zip(rows[::-1].tolist(), cols[::-1].tolist()):
        if deg_s[i] >= 2 and deg_t[j] >= 2:
            chosen[i, j] = False
            deg_s[i] -= 1
            deg_t[j] -= 1
    if (many & chosen & (deg_s[:, None] >= 2) & (deg_t[None, :] >= 2)).any():
        raise ValidationError(
            "edge cover decode produced a positive-weight many-to-many link"
        )


def solve_total(g: AlignmentGraph) -> SemanticAlignment:
    """Per-source argmax similarity link; lowest target index wins ties."""
    cols = np.argmax(g.sim, axis=1)
    rows = np.arange(len(cols))
    return SemanticAlignment(links_from_pairs(g, rows, cols), links_cost(g.weights, rows, cols))


def solve(g: AlignmentGraph, constraint_class: str) -> SemanticAlignment:
    if constraint_class == "perfect":
        return solve_perfect_matching(g)
    if constraint_class == "edgecover":
        return solve_edge_cover(g)
    if constraint_class == "total":
        return solve_total(g)
    raise ValueError(f"unknown constraint class {constraint_class!r}")


def dump_weight_table(g: AlignmentGraph, alignment: SemanticAlignment) -> str:
    """TSV debug table: rows = source units, columns = target units.

    Chosen cells are marked with a trailing ``*``.
    """
    index_of_src = {u: i for i, u in enumerate(g.src_units)}
    index_of_tgt = {u: j for j, u in enumerate(g.tgt_units)}
    chosen = {(index_of_src[s], index_of_tgt[t]) for s, t in alignment.link_pairs()}
    header = "unit\t" + "\t".join(str(u) for u in g.tgt_units)
    lines = [header]
    W = g.weights
    for i, src_unit in enumerate(g.src_units):
        cells = []
        for j in range(len(g.tgt_units)):
            mark = "*" if (i, j) in chosen else ""
            cells.append(f"{W[i, j]:.6g}{mark}")
        lines.append(f"{src_unit}\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
