import numpy as np
import pytest

from conftest import enumerate_optimal_covers, graph_of, random_sim
from roleproj import oracle
from roleproj.errors import OracleSizeError, ToolkitError
from roleproj.matcher import COST_ATOL, links_from_pairs, solve
from roleproj.oracle import MAX_CELLS, brute_force_optimum, check
from roleproj.projection import SemanticAlignment


def tie_heavy_sim(rng, n, m):
    """Similarities k/d with d <= 3 and many zeros, so optimal covers tie."""
    d = rng.integers(1, 4, size=(n, m))
    sim = rng.integers(0, d + 1) / d
    sim[rng.random((n, m)) < 0.4] = 0.0
    return sim


def alignment(g, pairs, cost):
    return SemanticAlignment(links_from_pairs(g, *oracle._index_arrays(pairs)), cost)


def accepts(g, cls, got) -> bool:
    try:
        check(g, cls, got)
    except ToolkitError:
        return False
    return True


def one_edit_neighbours(cover, n, m):
    """Each link dropped, each missing link added, and each leaf moved."""
    out = {"dropped": set(), "added": set(), "moved": set()}
    for link in cover:
        out["dropped"].add(cover - {link})
    for i in range(n):
        for j in range(m):
            if (i, j) not in cover:
                out["added"].add(cover | {(i, j)})
    for i, j in cover:
        rest = cover - {(i, j)}
        if sum(t == j for _, t in cover) == 1:  # target leaf j moves source
            out["moved"].update(rest | {(k, j)} for k in range(n) if k != i)
        if sum(s == i for s, _ in cover) == 1:  # source leaf i moves target
            out["moved"].update(rest | {(i, k)} for k in range(m) if k != j)
    return out


def test_edge_cover_check_is_membership_in_the_enumerated_covers():
    # The enumeration is the reference the check must reproduce exactly,
    # on members and on every one-edit neighbour of them.
    rng = np.random.default_rng(41)
    rejected = {"dropped": 0, "added": 0, "moved": 0}
    members = 0
    for _ in range(250):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, min(4, MAX_CELLS // n) + 1))
        g = graph_of(tie_heavy_sim(rng, n, m))
        optimum = brute_force_optimum(g, "edgecover").cost
        covers = enumerate_optimal_covers(g, oracle.COVER_ATOL)
        for cover in covers:
            members += 1
            assert accepts(g, "edgecover", alignment(g, cover, optimum))
            for kind, candidates in one_edit_neighbours(cover, n, m).items():
                for candidate in candidates:
                    got = accepts(g, "edgecover", alignment(g, candidate, optimum))
                    assert got == (candidate in covers), (g.sim, sorted(candidate))
                    rejected[kind] += not got
    assert members > 250
    assert all(count > 0 for count in rejected.values()), rejected


def test_edge_cover_check_without_enumeration_on_an_all_tied_graph():
    # All-zero 2x15 and 3x10 similarities: millions of tied repair choices
    # for the enumeration, one pass over the links for the check.
    for n, m in ((2, 15), (3, 10)):
        g = graph_of(np.zeros((n, m)))
        got = solve(g, "edgecover")
        check(g, "edgecover", got)
        extra = alignment(g, set(got.link_pairs()) | {(0, 0), (1, 0)}, got.cost)
        with pytest.raises(ToolkitError, match="not an optimal minimal cover"):
            check(g, "edgecover", extra)


@pytest.mark.parametrize("cls", ["perfect", "edgecover", "total"])
def test_check_rejects_a_cost_off_by_more_than_the_tolerance(cls):
    g = graph_of(random_sim(np.random.default_rng(3), 3, 4))
    got = solve(g, cls)
    check(g, cls, got)
    off = SemanticAlignment(got.links, got.cost + 10 * COST_ATOL)
    with pytest.raises(ToolkitError, match=r"^solver cost .* != oracle cost "):
        check(g, cls, off)


@pytest.mark.parametrize("cls", ["perfect", "total"])
def test_check_rejects_other_links_at_the_optimal_cost(cls):
    # Every link ties, so only the link-set rule can tell them apart.
    g = graph_of(np.full((3, 3), 0.5))
    got = solve(g, cls)
    assert got.link_pairs() == brute_force_optimum(g, cls).link_pairs()
    other = alignment(g, [(0, 1), (1, 0), (2, 2)], got.cost)
    with pytest.raises(ToolkitError, match=r"^solver links .* != oracle links "):
        check(g, cls, other)


@pytest.mark.parametrize("cls", ["perfect", "edgecover", "total"])
def test_check_refuses_a_graph_above_the_guard_before_solving(cls, monkeypatch):
    def never(*args):
        raise AssertionError("solved a graph above the size guard")

    for name in ("_best_perfect", "_best_edge_cover", "_best_total"):
        monkeypatch.setattr(oracle, name, never)
    g = graph_of(random_sim(np.random.default_rng(5), 5, 7))
    with pytest.raises(OracleSizeError):
        check(g, cls, None)
