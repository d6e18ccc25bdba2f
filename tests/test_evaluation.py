import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from roleproj import evaluation
from roleproj.corpus import (
    BiSentence,
    RoleAnnotation,
    merge_spans,
    parse_alignment,
    parse_tree,
    read_roles_file,
)
from roleproj.errors import ValidationError
from roleproj.evaluation import (
    correspondence_stats,
    prf,
    score,
    sentence_counts,
    stratified_shuffling,
)


def ann(roles, frame="F", predicate=0):
    return RoleAnnotation.make(frame, roles, predicate)


# --- scoring ---------------------------------------------------------------

def test_identical_prediction_scores_one():
    gold = [ann({"A": {(0, 2)}})]
    report = score(gold, gold)
    assert report.precision == report.recall == report.f1 == 1.0


def test_span_off_by_one_is_both_fp_and_fn():
    gold = [ann({"A": {(0, 2)}})]
    pred = [ann({"A": {(0, 1)}})]
    report = score(gold, pred)
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)
    assert report.f1 == 0.0


def test_one_hit_one_invention():
    gold = [ann({"A": {(0, 1)}, "B": {(3, 4)}})]
    pred = [ann({"A": {(0, 1)}, "C": {(3, 4)}})]
    report = score(gold, pred)
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)
    assert report.precision == report.recall == report.f1 == 0.5


def test_multi_span_roles_compare_token_sets():
    gold = [ann({"A": {(0, 1), (3, 3)}})]
    pred_same = [ann({"A": {(0, 0), (1, 1), (3, 3)}})]  # same token set
    assert score(gold, pred_same).f1 == 1.0
    pred_diff = [ann({"A": {(0, 3)}})]
    assert score(gold, pred_diff).f1 == 0.0


def test_swapping_gold_and_pred_swaps_precision_and_recall():
    gold = [ann({"A": {(0, 0)}, "B": {(1, 1)}}), ann({"C": {(2, 2)}})]
    pred = [ann({"A": {(0, 0)}}), ann({"C": {(1, 2)}, "D": {(0, 0)}})]
    fwd = score(gold, pred)
    bwd = score(pred, gold)
    assert fwd.precision == pytest.approx(bwd.recall)
    assert fwd.recall == pytest.approx(bwd.precision)
    assert fwd.f1 == pytest.approx(bwd.f1)


def test_f1_between_p_and_r():
    gold = [ann({"A": {(0, 0)}, "B": {(1, 1)}, "C": {(2, 2)}})]
    pred = [ann({"A": {(0, 0)}, "X": {(1, 1)}})]
    r = score(gold, pred)
    assert min(r.precision, r.recall) <= r.f1 <= max(r.precision, r.recall)


def test_score_is_micro_averaged_not_per_sentence():
    # sentence 1: 1/1 correct; sentence 2: 0/3 correct
    gold = [ann({"A": {(0, 0)}}), ann({"B": {(0, 0)}, "C": {(1, 1)}, "D": {(2, 2)}})]
    pred = [ann({"A": {(0, 0)}}), ann({"B": {(5, 5)}, "C": {(5, 6)}, "D": {(7, 7)}})]
    r = score(gold, pred)
    assert r.precision == pytest.approx(1 / 4)  # pooled, not mean of 1.0 and 0.0
    assert r.recall == pytest.approx(1 / 4)


def test_score_rejects_unparallel_corpora():
    with pytest.raises(ValidationError):
        score([ann({})], [ann({}), ann({})])


def test_empty_annotations_count_nothing():
    r = score([ann({})], [ann({})])
    assert (r.tp, r.fp, r.fn) == (0, 0, 0)
    assert r.precision == r.recall == r.f1 == 0.0


COUNTS = st.one_of(st.just(0), st.integers(0, 2**53 - 1), st.integers(2**53 - 64, 2**53 - 1))


@given(COUNTS, COUNTS, COUNTS)
@example(2**53 - 1, 2, 0)  # tp + fp rounds to 2^53; an exact int/int quotient does not
@example(0, 0, 0)
@example(0, 5, 0)
def test_score_equals_pooled_prf_bit_for_bit(tp, fp, fn):
    # ``score`` runs ``prf`` on Python ints, ``stratified_shuffling`` on
    # int64 and float64 count arrays: all three must give the same doubles.
    gold, pred = [ann({})], [ann({})]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "sentence_counts",
                      lambda g, p: evaluation.SentenceCounts(tp, fp, fn))
        got = score(gold, pred)
    for dtype in (np.int64, np.float64):
        counts = np.array([[tp, fp, fn]], dtype=dtype)
        want = [float(x[0]) for x in prf(*counts.T)]
        for g, w in zip((got.precision, got.recall, got.f1), want):
            assert type(g) is float
            assert g == w and repr(g) == repr(w)


def test_toy_corpus_against_independent_counter(fixture_dir):
    gold = read_roles_file(fixture_dir / "toy" / "tgt.roles")
    pred = read_roles_file(fixture_dir / "toy" / "pred.roles")

    # independent oracle: exhaustive pairwise comparison, written separately
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        gold_items = {(label, tuple(sorted(g.tokens_of(label)))) for label, _ in g.roles}
        pred_items = {(label, tuple(sorted(p.tokens_of(label)))) for label, _ in p.roles}
        matched = set()
        for item in pred_items:
            if item in gold_items and item not in matched:
                matched.add(item)
                tp += 1
            else:
                fp += 1
        fn += len(gold_items - matched)

    report = score(gold, pred)
    assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
    assert report.precision == pytest.approx(tp / (tp + fp))
    assert report.recall == pytest.approx(tp / (tp + fn))


def token_set_counts(gold, pred):
    """``sentence_counts`` by its definition: compare each role's token set."""
    def token_sets(a):
        return {label: {i for lo, hi in spans for i in range(lo, hi + 1)}
                for label, spans in a.roles}

    gold_sets, pred_sets = token_sets(gold), token_sets(pred)
    tp = sum(1 for label, toks in pred_sets.items() if gold_sets.get(label) == toks)
    return (tp, len(pred_sets) - tp, len(gold_sets) - tp)


@st.composite
def cut_spans(draw, tokens):
    """The maximal runs of a token set, each cut into adjacent spans at random."""
    spans = []
    for lo, hi in merge_spans((i, i) for i in tokens):
        cuts = sorted(draw(st.sets(st.integers(lo + 1, hi)))) if hi > lo else []
        spans += zip([lo, *cuts], [c - 1 for c in cuts] + [hi])
    return spans


@st.composite
def annotation_pairs(draw):
    """Gold and predicted annotations with the same, different, empty or one-sided roles."""
    token_sets = st.sets(st.integers(0, 12), max_size=8)
    gold, pred = {}, {}
    for label in ("A", "B", "C", "D"):
        kind = draw(st.sampled_from(["same tokens", "any tokens", "gold only", "pred only",
                                     "neither"]))
        if kind == "same tokens":
            tokens = draw(token_sets)
            gold[label] = draw(cut_spans(tokens))
            pred[label] = draw(cut_spans(tokens))
        else:
            if kind in ("any tokens", "gold only"):
                gold[label] = draw(cut_spans(draw(token_sets)))
            if kind in ("any tokens", "pred only"):
                pred[label] = draw(cut_spans(draw(token_sets)))
    return ann(gold), ann(pred)


@given(annotation_pairs())
@example((ann({"A": {(0, 1), (2, 3)}}), ann({"A": {(0, 3)}})))
@example((ann({"A": {(0, 3)}}), ann({"A": {(0, 1), (2, 3)}})))
@example((ann({"A": {(0, 1), (3, 3)}}), ann({"A": {(0, 3)}})))
@example((ann({"A": set()}), ann({"A": set()})))
@example((ann({"A": set()}), ann({"A": {(0, 0)}})))
@example((ann({"A": {(1, 2)}}), ann({"B": {(1, 2)}})))
def test_span_counts_equal_the_token_set_counts(pair):
    gold, pred = pair
    got = sentence_counts(gold, pred)
    assert (got.tp, got.fp, got.fn) == token_set_counts(gold, pred)


# --- significance testing ----------------------------------------------------

def make_corpus(n):
    gold = [ann({"A": {(0, k % 3)}}) for k in range(n)]
    right = gold
    wrong = [ann({"A": {(5, 6)}}) for _ in range(n)]
    return gold, right, wrong


def test_sigtest_identical_systems_p_is_one():
    gold, right, _ = make_corpus(20)
    res = stratified_shuffling(gold, right, right, iterations=500, seed=9)
    assert res.observed_delta_f1 == 0.0
    assert res.p_value == 1.0


def test_sigtest_seed_reproducibility():
    gold, right, wrong = make_corpus(30)
    a = stratified_shuffling(gold, right, wrong, iterations=300, seed=123)
    b = stratified_shuffling(gold, right, wrong, iterations=300, seed=123)
    assert a == b
    c = stratified_shuffling(gold, right, wrong, iterations=300, seed=124)
    assert c.observed_delta_f1 == a.observed_delta_f1  # observed is seed-free


def test_sigtest_p_value_in_unit_interval():
    gold, right, wrong = make_corpus(10)
    res = stratified_shuffling(gold, right, wrong, iterations=50, seed=0)
    assert 0.0 < res.p_value <= 1.0


def test_sigtest_add_one_estimator():
    # perfect vs always-wrong: a resample reaches |delta| >= 1 only when all
    # flips agree, so hits are almost surely 0 and p = 1 / (iters + 1)
    gold, right, wrong = make_corpus(40)
    res = stratified_shuffling(gold, right, wrong, iterations=1000, seed=7)
    assert res.observed_delta_f1 == pytest.approx(1.0)
    assert res.p_value == pytest.approx(1 / 1001)


def test_sigtest_rejects_empty_and_unparallel():
    with pytest.raises(ValidationError):
        stratified_shuffling([], [], [], iterations=10, seed=0)
    gold, right, wrong = make_corpus(4)
    with pytest.raises(ValidationError):
        stratified_shuffling(gold, right[:3], wrong, iterations=10, seed=0)


def toy_systems(fixture_dir):
    """Gold, predicted and gold-as-system roles of the toy corpus."""
    gold = read_roles_file(fixture_dir / "toy" / "tgt.roles")
    return gold, read_roles_file(fixture_dir / "toy" / "pred.roles"), gold


def single_draw_p_value(gold, pred_a, pred_b, iterations, seed):
    """The p-value from one draw of every flip, summed in integers."""
    counts_a, counts_b = (
        np.array([[c.tp, c.fp, c.fn] for c in map(sentence_counts, gold, pred)])
        for pred in (pred_a, pred_b)
    )
    observed = prf(*counts_a.sum(0))[2] - prf(*counts_b.sum(0))[2]
    flips = np.random.default_rng(seed).random((iterations, len(gold))) < 0.5
    keep = ~flips
    sum_a = keep.astype(int) @ counts_a + flips.astype(int) @ counts_b
    sum_b = flips.astype(int) @ counts_a + keep.astype(int) @ counts_b
    deltas = prf(*sum_a.T)[2] - prf(*sum_b.T)[2]
    return (int(np.count_nonzero(np.abs(deltas) >= abs(observed))) + 1) / (iterations + 1)


@pytest.mark.parametrize("seed", [0, 1, 4, 123, 2**40])
def test_sigtest_blockwise_draws_equal_a_single_draw(fixture_dir, monkeypatch, seed):
    iterations = (1, 7, 100, 1000)
    systems = toy_systems(fixture_dir)
    whole = [stratified_shuffling(*systems, iterations=k, seed=seed) for k in iterations]
    monkeypatch.setattr(evaluation, "FLIP_BLOCK_CELLS", 7 * len(systems[0]))
    blocks = [stratified_shuffling(*systems, iterations=k, seed=seed) for k in iterations]
    for k, a, b in zip(iterations, whole, blocks):
        assert a.observed_delta_f1 == b.observed_delta_f1
        assert a.p_value == b.p_value == single_draw_p_value(*systems, k, seed)
    assert 0.01 < whole[-1].p_value < 1.0  # resampled deltas both reach and miss it


def test_sigtest_memory_stays_flat_in_the_iterations(fixture_dir):
    # One draw of all flips peaked at 123 MB here.
    systems = toy_systems(fixture_dir)
    tracemalloc.start()
    try:
        stratified_shuffling(*systems, iterations=1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# --- correspondence statistics -------------------------------------------------

def test_isomorphic_trees_with_bijective_alignment_are_all_one():
    line = "(S (A a) (B b) (C c))"
    src = parse_tree(line)
    tgt = parse_tree(line)
    b = BiSentence(
        src=src.sentence, tgt=tgt.sentence,
        links=parse_alignment("0-0 1-1 2-2", 3, 3),
        src_tree=src, tgt_tree=tgt,
    )
    stats = correspondence_stats([b], threshold=0.5)
    assert stats.src_proportions["one"] == 1.0
    assert stats.tgt_proportions["one"] == 1.0


def test_empty_alignment_is_all_none():
    line = "(S (NN a) (NN b))"
    src, tgt = parse_tree(line), parse_tree(line)
    b = BiSentence(
        src=src.sentence, tgt=tgt.sentence,
        links=parse_alignment("", 2, 2), src_tree=src, tgt_tree=tgt,
    )
    stats = correspondence_stats([b], threshold=0.5)
    assert stats.src_proportions["none"] == 1.0
    assert stats.tgt_proportions["none"] == 1.0


def test_proportions_sum_to_one(toy_corpus):
    stats = correspondence_stats(toy_corpus, threshold=0.5)
    assert sum(stats.src_proportions.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(stats.tgt_proportions.values()) == pytest.approx(1.0, abs=1e-9)


def test_stats_require_trees(figure1):
    naked = BiSentence(src=figure1.src, tgt=figure1.tgt, links=figure1.links)
    message = "^correspondence statistics need trees on both sides$"
    with pytest.raises(ValidationError, match=message):
        correspondence_stats([naked])


def test_stats_threshold_nan_is_rejected(toy_corpus):
    with pytest.raises(ValidationError, match="^threshold must be a number, got nan$"):
        correspondence_stats(toy_corpus, threshold=math.nan)


@pytest.mark.parametrize("threshold", [1.5, math.inf])
def test_stats_threshold_above_one_finds_no_correspondence(toy_corpus, threshold):
    stats = correspondence_stats(toy_corpus, threshold)
    assert stats.src_proportions["none"] == stats.tgt_proportions["none"] == 1.0


def test_stats_threshold_zero_corresponds_every_pair(toy_corpus):
    # Every constituent reaches every constituent of a multi-node tree.
    stats = correspondence_stats(toy_corpus, 0.0)
    assert stats.src_proportions["many"] == stats.tgt_proportions["many"] == 1.0


def test_report_formats(toy_corpus, fixture_dir):
    gold = read_roles_file(fixture_dir / "toy" / "tgt.roles")
    pred = read_roles_file(fixture_dir / "toy" / "pred.roles")
    report = score(gold, pred)
    assert "precision" in report.to_tsv()
    assert "F1 = " in report.format_text()
    stats = correspondence_stats(toy_corpus)
    assert "threshold" in stats.to_tsv()
