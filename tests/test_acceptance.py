"""Acceptance suite: every criterion runs at its stated tolerance and
reports one pass/fail line in the terminal summary."""

import math
import time

import numpy as np
import pytest

import conftest
from conftest import graph_of, random_sim
from roleproj.cli import main
from roleproj.corpus import (
    DEFAULT_CONTENT_PREFIXES,
    RoleAnnotation,
    apply_word_filters,
    read_roles_file,
)
from roleproj.evaluation import score, stratified_shuffling
from roleproj.matcher import solve_edge_cover, solve_perfect_matching, solve_total
from roleproj.oracle import brute_force_optimum
from roleproj.projection import argument_filter
from roleproj.similarity import UnitSimilarity


def record(line):
    conftest.ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="module")
def solved_instances():
    """1000 seeded random instances solved by all solvers and oracles."""
    rng = np.random.default_rng(20240601)
    out = []
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        g = graph_of(random_sim(rng, n, m, zero_frac=0.3))
        record_entry = {
            "dims": (n, m),
            "perfect": solve_perfect_matching(g),
            "perfect_oracle": brute_force_optimum(g, "perfect"),
            "cover": solve_edge_cover(g),
            "cover_oracle": brute_force_optimum(g, "edgecover"),
            "total": solve_total(g),
            # exactly rounded, as every solver's cost is
            "row_min_sum": math.fsum(g.weights.min(axis=1).tolist()),
        }
        out.append(record_entry)
    return out, time.perf_counter() - start


def test_criterion_1_oracle_equivalence(solved_instances):
    instances, solve_time = solved_instances
    start = time.perf_counter()
    for inst in instances:
        assert abs(inst["perfect"].cost - inst["perfect_oracle"].cost) <= 1e-9
        assert abs(inst["cover"].cost - inst["cover_oracle"].cost) <= 1e-9
        assert inst["total"].cost == inst["row_min_sum"]
    elapsed = solve_time + time.perf_counter() - start
    assert elapsed < 60.0
    record(
        "PASS criterion 1: solver costs equal brute-force costs (<=1e-9) and "
        f"total equals the row-minimum sum on 1000 instances in {elapsed:.1f}s (<60s)"
    )


def test_criterion_2_no_many_to_many_covers(solved_instances):
    instances, _ = solved_instances
    for inst in instances:
        for key in ("cover", "cover_oracle"):
            links = inst[key].link_pairs()
            deg_s, deg_t = {}, {}
            for s, t in links:
                deg_s[s] = deg_s.get(s, 0) + 1
                deg_t[t] = deg_t.get(t, 0) + 1
            assert not any(deg_s[s] >= 2 and deg_t[t] >= 2 for s, t in links)
    record(
        "PASS criterion 2: no optimal edge cover (solver or oracle) contains a "
        "many-to-many link across 1000 instances"
    )


def test_criterion_3_worked_example_end_to_end(fixture_dir, tmp_path):
    base = fixture_dir / "figure1"
    out_perfect = tmp_path / "perfect.roles"
    assert main([
        "project", "--model", "perfect", "--filter", "none",
        "--src-trees", str(base / "src.trees"), "--tgt-trees", str(base / "tgt.trees"),
        "--align", str(base / "align"), "--src-roles", str(base / "src.roles"),
        "--out", str(out_perfect),
    ]) == 0
    assert out_perfect.read_bytes() == (base / "expected_perfect.roles").read_bytes()

    out_word = tmp_path / "word.roles"
    assert main([
        "project", "--model", "word", "--fill-gaps", "--filter", "none",
        "--src-tok", str(base / "src.tok"), "--tgt-tok", str(base / "tgt.tok"),
        "--align", str(base / "align"), "--src-roles", str(base / "src.roles"),
        "--out", str(out_word),
    ]) == 0
    assert out_word.read_bytes() == (base / "expected_word_fill.roles").read_bytes()

    perfect_spans = read_roles_file(out_perfect)[0].spans_of("MESSAGE")
    word_spans = read_roles_file(out_word)[0].spans_of("MESSAGE")
    assert perfect_spans == {(3, 5)}  # "pünktlich zu kommen"
    assert word_spans == {(3, 4)}  # the truncated "pünktlich zu"
    record(
        "PASS criterion 3: constituent pipeline projects MESSAGE onto 3-5 and the "
        "word pipeline onto 3-4, byte-exact against the golden files"
    )


def test_criterion_4_argument_filter_fixture(figure1):
    tree = figure1.tgt_tree
    ids = argument_filter(tree, 1)
    got = {(tree.labels[i], tree.spans[i]) for i in ids}
    assert got == {("NP", (0, 0)), ("S", (3, 5))}
    record(
        "PASS criterion 4: argument filter keeps exactly the subject NP and the "
        "infinitival S for the example predicate"
    )


def test_criterion_5_similarity_arithmetic(figure1):
    view = apply_word_filters(figure1, (), DEFAULT_CONTENT_PREFIXES)
    ctx = UnitSimilarity(view, figure1.src_tree, figure1.tgt_tree)
    src, tgt = figure1.src_tree, figure1.tgt_tree
    c_s = next(n for n, span in enumerate(src.spans) if span == (2, 5) and src.children[n])
    c_t = next(n for n, span in enumerate(tgt.spans) if span == (3, 5) and tgt.children[n])
    overlap_src, overlap_tgt = ctx.overlaps([c_s], [c_t])
    assert overlap_src[0, 0] == pytest.approx(2 / 3, abs=1e-12)
    assert overlap_tgt[0, 0] == pytest.approx(1 / 2, abs=1e-12)
    assert ctx.matrix([c_s], [c_t])[0, 0] == pytest.approx(7 / 12, abs=1e-12)
    record(
        "PASS criterion 5: example constituent pair gives overlaps 2/3 and 1/2 "
        "and symmetrized similarity 7/12 (+-1e-12)"
    )


def test_criterion_6_toy_corpus_evaluation(fixture_dir):
    gold = read_roles_file(fixture_dir / "toy" / "tgt.roles")
    pred = read_roles_file(fixture_dir / "toy" / "pred.roles")
    report = score(gold, pred)
    # frozen from exhaustive counting: tp=4, fp=3, fn=4
    assert round(report.precision, 3) == 0.571
    assert round(report.recall, 3) == 0.500
    assert round(report.f1, 3) == 0.533
    self_report = score(gold, gold)
    assert self_report.precision == 1.0
    assert self_report.recall == 1.0
    assert self_report.f1 == 1.0
    record(
        "PASS criterion 6: toy corpus scores P=0.571 R=0.500 F1=0.533 as hand-counted; "
        "score(gold, gold) = 1.0 exactly"
    )


def test_criterion_7_significance_sanity():
    gold = [RoleAnnotation.make("F", {"A": {(0, k % 4)}}, 0) for k in range(50)]
    right = gold
    wrong = [RoleAnnotation.make("F", {"A": {(9, 9)}}, 0) for _ in range(50)]

    same = stratified_shuffling(gold, right, right, iterations=10000, seed=11)
    assert same.p_value == 1.0

    res1 = stratified_shuffling(gold, right, wrong, iterations=10000, seed=11)
    res2 = stratified_shuffling(gold, right, wrong, iterations=10000, seed=11)
    assert res1.p_value < 0.01
    assert res1.p_value == res2.p_value
    record(
        "PASS criterion 7: sigtest(A,A) p=1.0; perfect-vs-wrong over 50 sentences "
        f"p={res1.p_value:.6f} < 0.01; fixed seed reproduces p bit-exactly"
    )


def test_criterion_8_scale_smoke():
    rng = np.random.default_rng(99)
    sim = random_sim(rng, 100, 100, zero_frac=0.3)
    graph = graph_of(sim)
    start = time.perf_counter()
    solved = solve_perfect_matching(graph)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"100x100 took {elapsed:.3f}s"

    # greedy row argmins repaired to a permutation: a weak upper bound
    W = graph.weights
    taken = set()
    greedy_cost = 0.0
    for i in range(100):
        order = np.argsort(W[i], kind="stable")
        j = next(int(c) for c in order if c not in taken)
        taken.add(j)
        greedy_cost += W[i, j]
    assert solved.cost <= greedy_cost + 1e-9
    record(
        f"PASS criterion 8: 100x100 perfect matching solved in {elapsed * 1000:.0f}ms "
        "(<1s) with cost <= greedy repaired assignment"
    )


def test_criterion_9_jobs_determinism(fixture_dir, tmp_path):
    base = fixture_dir / "toy"
    outputs = []
    for jobs, name in ((1, "j1"), (8, "j8")):
        out = tmp_path / f"{name}.roles"
        assert main([
            "project", "--model", "perfect", "--filter", "na",
            "--src-trees", str(base / "src.trees"),
            "--tgt-trees", str(base / "tgt.trees"),
            "--align", str(base / "align"),
            "--src-roles", str(base / "src.roles"),
            "--out", str(out),
            "--jobs", str(jobs),
        ]) == 0
        outputs.append(
            (out.read_bytes(), (tmp_path / f"{name}.roles.manifest.json").read_bytes())
        )
    assert outputs[0] == outputs[1]
    record(
        "PASS criterion 9: projection with --jobs 1 and --jobs 8 produces "
        "byte-identical outputs and manifests"
    )
