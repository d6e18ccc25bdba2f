"""Reference costs for every graph the pipeline solved.

Costs are compared, never link sets, so that a change to the tie-break
among equally cheap solutions does not read as an error.  Small graphs go
to the brute-force oracle; larger ``perfect`` graphs, and ``edgecover``
through the standard reduction to matching (Gallai; Schrijver,
*Combinatorial Optimization*, ch. 19), go to scipy's assignment solver
when it can be imported.  ``total`` is the sum of row minima.
"""

from __future__ import annotations

import numpy as np

try:
    from scipy.optimize import linear_sum_assignment
except ImportError:  # scipy is optional: large graphs then stay unchecked
    linear_sum_assignment = None

REL_TOL = 1e-9


def _assignment_cost(W: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(W)
    return float(W[rows, cols].sum())


def _edge_cover_cost(W: np.ndarray) -> float:
    """Minimum edge cover = sum of cheapest incident weights plus a
    minimum matching on the reduced costs min(0, w - mu(u) - mu(v))."""
    mu_s = W.min(axis=1)
    mu_t = W.min(axis=0)
    reduced = np.minimum(0.0, W - mu_s[:, None] - mu_t[None, :])
    return float(mu_s.sum() + mu_t.sum()) + _assignment_cost(reduced)


def reference_cost(graph, model: str, oracle):
    """Optimal cost for a solved graph, or None when no reference applies."""
    n, m = graph.n_src_real, graph.n_tgt_real
    if model == "total":
        return float(graph.weights[:n, :m].min(axis=1).sum())
    if n * m <= oracle.MAX_CELLS:
        return oracle.brute_force_optimum(graph, model).cost
    if linear_sum_assignment is None:
        return None
    if model == "perfect":
        return _assignment_cost(graph.weights)
    if model == "edgecover":
        return _edge_cover_cost(graph.weights)
    raise ValueError(f"no reference for model {model!r}")


def cost_matches(got: float, ref: float) -> bool:
    return abs(got - ref) <= REL_TOL * max(1.0, abs(ref))


def check_costs(solved, oracle) -> tuple[int, int, list[str]]:
    """Check (sentence, model, graph, cost) records; return
    (checked, unchecked, error messages)."""
    checked = unchecked = 0
    errors = []
    for sentence, model, graph, cost in solved:
        ref = reference_cost(graph, model, oracle)
        if ref is None:
            unchecked += 1
            continue
        checked += 1
        if not cost_matches(cost, ref):
            errors.append(
                f"{model} sentence {sentence}: solver cost {cost!r} != reference {ref!r}"
            )
    return checked, unchecked, errors
