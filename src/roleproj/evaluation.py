"""Exact-match scoring, significance testing, and correspondence statistics.

A predicted role is a true positive iff its label and its exact token-index
set equal a gold role of the same sentence.  The token sets are compared as
merged spans (sorted, adjacent intervals joined), never built, so a role
costs the same whatever its span lengths.  Corpus precision/recall/F1 are
micro-averaged from pooled counts.

``prf`` is the one formula: ``score`` runs it on Python ints, so
``roleproj evaluate`` never imports numpy, and ``stratified_shuffling``
on count arrays, importing numpy when it runs.  ``correspondence_stats``
imports the pipeline, so that ``evaluate`` and ``sigtest`` never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import RoleAnnotation, merge_spans
from .errors import ValidationError

# Iteration × sentence flips that ``stratified_shuffling`` draws and reduces
# at once, so its memory stays flat in the iterations: about 7 MB at 5
# sentences, where the per-iteration sums outweigh the flips.
FLIP_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class SentenceCounts:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class ScoreReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    per_sentence: tuple[SentenceCounts, ...]

    def to_tsv(self) -> str:
        lines = ["sentence\ttp\tfp\tfn"]
        for k, c in enumerate(self.per_sentence):
            lines.append(f"{k}\t{c.tp}\t{c.fp}\t{c.fn}")
        lines.append(f"total\t{self.tp}\t{self.fp}\t{self.fn}")
        lines.append(f"precision\t{self.precision:.6f}")
        lines.append(f"recall\t{self.recall:.6f}")
        lines.append(f"f1\t{self.f1:.6f}")
        return "\n".join(lines) + "\n"

    def format_text(self) -> str:
        return (
            f"P = {self.precision:.3f}  R = {self.recall:.3f}  F1 = {self.f1:.3f}"
            f"  (tp={self.tp} fp={self.fp} fn={self.fn})"
        )


def prf(tp, fp, fn):
    """Precision, recall and F1 of pooled counts; each 0 where its denominator is 0.

    Elementwise, so the same IEEE operations give the same doubles on Python
    ints and on numpy arrays.  Each denominator is rounded to a double
    before the division, as numpy rounds an int64 sum, so the int path
    matches the array path also once a sum passes 2^53.
    """
    d = (tp + fp) * 1.0
    p = tp / (d + (d == 0))
    d = (tp + fn) * 1.0
    r = tp / (d + (d == 0))
    s = p + r
    return p, r, 2 * p * r / (s + (s == 0))


def sentence_counts(gold: RoleAnnotation, pred: RoleAnnotation) -> SentenceCounts:
    """Exact-match counts of one sentence, compared span by span.

    Equal span sets cover equal tokens.  Unequal sets of at most one span
    each never do, as a span holds at least one token; any other pair is
    compared by its merged spans.  The work grows with the number of spans,
    not with their lengths.
    """
    gold_spans = dict(gold.roles)
    tp = 0
    for label, spans in pred.roles:
        other = gold_spans.get(label)
        if other is not None and (
            other == spans
            or ((len(other) > 1 or len(spans) > 1)
                and merge_spans(other) == merge_spans(spans))
        ):
            tp += 1
    return SentenceCounts(tp, len(pred.roles) - tp, len(gold.roles) - tp)


def score(gold, pred) -> ScoreReport:
    if len(gold) != len(pred):
        raise ValidationError(
            f"gold and predicted corpora are not parallel ({len(gold)} vs {len(pred)})"
        )
    per = tuple(sentence_counts(g, p) for g, p in zip(gold, pred))
    tp = sum(c.tp for c in per)
    fp = sum(c.fp for c in per)
    fn = sum(c.fn for c in per)
    p, r, f1 = prf(tp, fp, fn)
    return ScoreReport(tp, fp, fn, p, r, f1, per)


@dataclass(frozen=True)
class SigTestResult:
    observed_delta_f1: float
    p_value: float
    iterations: int
    seed: int

    def to_tsv(self) -> str:
        return (
            "observed_delta_f1\tp_value\titerations\tseed\n"
            f"{self.observed_delta_f1:.6f}\t{self.p_value:.6f}\t{self.iterations}\t{self.seed}\n"
        )

    def format_text(self) -> str:
        return (
            f"observed delta F1 = {self.observed_delta_f1:+.6f}\n"
            f"p = {self.p_value:.6f}  (two-sided, {self.iterations} iterations, "
            f"seed {self.seed})"
        )


def stratified_shuffling(
    gold, pred_a, pred_b, iterations: int, seed: int
) -> SigTestResult:
    """Approximate randomization: swap the two systems per sentence with
    probability 1/2 and recompute the pooled F1 difference.

    Two-sided p-value with the add-one estimator
    (count(|delta| >= |observed|) + 1) / (iterations + 1).
    """
    if not len(gold):
        raise ValidationError("empty corpus")
    if not (len(gold) == len(pred_a) == len(pred_b)):
        raise ValidationError("gold and system corpora are not parallel")
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    import numpy as np

    counts_a = np.array(
        [[c.tp, c.fp, c.fn] for c in (sentence_counts(g, p) for g, p in zip(gold, pred_a))]
    )
    counts_b = np.array(
        [[c.tp, c.fp, c.fn] for c in (sentence_counts(g, p) for g, p in zip(gold, pred_b))]
    )

    observed = float(prf(*counts_a.sum(0))[2] - prf(*counts_b.sum(0))[2])

    # Flipping sentence k moves counts_b[k] - counts_a[k] from system b to
    # system a.  Every count is a small integer, exact in float64.
    base = counts_a.sum(0)
    total = base + counts_b.sum(0)
    swap = (counts_b - counts_a).astype(float)
    rng = np.random.default_rng(seed)
    rows = max(1, FLIP_BLOCK_CELLS // len(gold))
    hits = 0
    # Generator.random fills row-major from one stream, so the blocks draw
    # exactly the flips of a single iterations × sentences draw.
    for start in range(0, iterations, rows):
        flips = rng.random((min(rows, iterations - start), len(gold)))
        np.less(flips, 0.5, out=flips)
        sum_a = flips @ swap + base
        deltas = prf(*sum_a.T)[2] - prf(*(total - sum_a).T)[2]
        hits += int(np.count_nonzero(np.abs(deltas) >= abs(observed)))
    p_value = (hits + 1) / (iterations + 1)
    return SigTestResult(observed, p_value, iterations, seed)


@dataclass(frozen=True)
class CorrespondenceStats:
    threshold: float
    src_proportions: dict[str, float]  # over {"none", "one", "many"}
    tgt_proportions: dict[str, float]
    src_total: int
    tgt_total: int

    def to_tsv(self) -> str:
        lines = [f"threshold\t{self.threshold}"]
        for side, props, total in (
            ("source", self.src_proportions, self.src_total),
            ("target", self.tgt_proportions, self.tgt_total),
        ):
            for key in ("none", "one", "many"):
                lines.append(f"{side}\t{key}\t{props[key]:.6f}")
            lines.append(f"{side}\tconstituents\t{total}")
        return "\n".join(lines) + "\n"

    def format_text(self) -> str:
        def row(side, props):
            return (
                f"{side}: none {props['none']:.1%}  one {props['one']:.1%}  "
                f"many {props['many']:.1%}"
            )

        return (
            f"correspondence at similarity >= {self.threshold}\n"
            + row("source", self.src_proportions)
            + "\n"
            + row("target", self.tgt_proportions)
        )


def correspondence_stats(corpus, threshold: float = 0.5) -> CorrespondenceStats:
    """Classify each constituent by how many opposite-side constituents it
    corresponds to (similarity >= threshold): none, exactly one, or many."""
    if math.isnan(threshold):
        raise ValidationError("threshold must be a number, got nan")
    from .pipeline import PipelineConfig, build_instance

    cfg = PipelineConfig()  # no filters: every unit, on the full view
    src_counts = {"none": 0, "one": 0, "many": 0}
    tgt_counts = {"none": 0, "one": 0, "many": 0}
    for b in corpus:
        if b.src_tree is None or b.tgt_tree is None:
            raise ValidationError("correspondence statistics need trees on both sides")
        hits = build_instance(b, cfg).graph.sim >= threshold
        for count in hits.sum(axis=1):
            src_counts[_bucket(count)] += 1
        for count in hits.sum(axis=0):
            tgt_counts[_bucket(count)] += 1
    src_total = sum(src_counts.values())
    tgt_total = sum(tgt_counts.values())
    if not src_total or not tgt_total:
        raise ValidationError("empty corpus")
    return CorrespondenceStats(
        threshold,
        {k: v / src_total for k, v in src_counts.items()},
        {k: v / tgt_total for k, v in tgt_counts.items()},
        src_total,
        tgt_total,
    )


def _bucket(count: int) -> str:
    if count == 0:
        return "none"
    if count == 1:
        return "one"
    return "many"
