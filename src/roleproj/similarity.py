"""Cross-lingual similarity over words and constituents, plus word-level filters.

Word filters are views (exclusion masks over token indices), never edits:
token indices in any downstream output always refer to the original
sentence.  Similarity is computed from the filtered view; projected spans
are read off the original constituent yields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import BiSentence, ParseTree, yield_of
from .errors import ConfigError, ValidationError

# POS prefixes counted as content words: nouns, verbs, adjectives, adverbs,
# covering both the Penn Treebank and the TIGER tagsets.
DEFAULT_CONTENT_PREFIXES = frozenset(
    {"NN", "JJ", "RB", "VB", "NE", "VV", "VA", "VM", "ADJ", "ADV"}
)

WORD_FILTERS = ("na", "nc")


@dataclass(frozen=True)
class FilterConfig:
    content_pos_prefixes: frozenset[str] = DEFAULT_CONTENT_PREFIXES
    active: frozenset[str] = frozenset()

    def __post_init__(self):
        unknown = self.active - set(WORD_FILTERS)
        if unknown:
            raise ConfigError(f"unknown word filters: {sorted(unknown)}")
        if "nc" in self.active and not self.content_pos_prefixes:
            raise ConfigError("nc filter requires a non-empty content POS prefix set")


@dataclass(frozen=True)
class BiSentenceView:
    """A bi-sentence with exclusion masks applied for similarity purposes."""

    bisentence: BiSentence
    included_src: frozenset[int]
    included_tgt: frozenset[int]
    links: frozenset[tuple[int, int]]


def full_view(b: BiSentence) -> BiSentenceView:
    return BiSentenceView(
        b,
        frozenset(range(len(b.src))),
        frozenset(range(len(b.tgt))),
        b.alignment.links,
    )


def na_filter(view: BiSentenceView) -> BiSentenceView:
    """Exclude every token with no alignment link; links stay untouched."""
    al = view.bisentence.alignment
    return BiSentenceView(
        view.bisentence,
        view.included_src & al.aligned_src(),
        view.included_tgt & al.aligned_tgt(),
        view.links,
    )


def nc_filter(view: BiSentenceView, cfg: FilterConfig) -> BiSentenceView:
    """Exclude non-content tokens on both sides along with their links."""
    prefixes = tuple(cfg.content_pos_prefixes)
    if not prefixes:
        raise ConfigError("nc filter requires content POS prefixes")

    def content(tokens):
        kept = set()
        for tok in tokens:
            if not tok.pos:
                raise ValidationError(f"token {tok.surface!r} has no POS tag")
            if tok.pos.startswith(prefixes):
                kept.add(tok.index)
        return kept

    inc_src = view.included_src & content(view.bisentence.src.tokens)
    inc_tgt = view.included_tgt & content(view.bisentence.tgt.tokens)
    links = frozenset((s, t) for s, t in view.links if s in inc_src and t in inc_tgt)
    return BiSentenceView(view.bisentence, inc_src, inc_tgt, links)


def apply_word_filters(b: BiSentence, active, cfg: FilterConfig) -> BiSentenceView:
    view = full_view(b)
    if "na" in active:
        view = na_filter(view)
    if "nc" in active:
        view = nc_filter(view, cfg)
    return view


class UnitSimilarity:
    """Pairwise constituent similarity for one bi-sentence view.

    Precomputes per-node filtered yields and alignment images so that a full
    |U_s| x |U_t| matrix costs one set operation per cell.
    """

    def __init__(self, view: BiSentenceView, src_tree: ParseTree, tgt_tree: ParseTree):
        links = view.links
        self._src_yield = {}
        self._src_al = {}
        for node in src_tree.nodes:
            toks = yield_of(src_tree, node) & view.included_src
            self._src_yield[node.id] = toks
            self._src_al[node.id] = frozenset(t for s, t in links if s in toks)
        self._tgt_yield = {}
        self._tgt_al = {}
        for node in tgt_tree.nodes:
            toks = yield_of(tgt_tree, node) & view.included_tgt
            self._tgt_yield[node.id] = toks
            self._tgt_al[node.id] = frozenset(s for s, t in links if t in toks)

    def overlap_src(self, src_id: int, tgt_id: int) -> float:
        return _jaccard(self._src_al[src_id], self._tgt_yield[tgt_id])

    def overlap_tgt(self, tgt_id: int, src_id: int) -> float:
        return _jaccard(self._tgt_al[tgt_id], self._src_yield[src_id])

    def sim(self, src_id: int, tgt_id: int) -> float:
        return (self.overlap_src(src_id, tgt_id) + self.overlap_tgt(tgt_id, src_id)) / 2.0

    def matrix(self, src_units, tgt_units) -> "SimilarityMatrix":
        sim = np.zeros((len(src_units), len(tgt_units)))
        for i, s in enumerate(src_units):
            for j, t in enumerate(tgt_units):
                sim[i, j] = self.sim(s, t)
        return SimilarityMatrix(tuple(src_units), tuple(tgt_units), sim)


def _jaccard(a: frozenset, b: frozenset) -> float:
    # An unaligned constituent gives no evidence of equivalence, so the
    # empty-union case counts as zero similarity rather than one.
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


@dataclass(frozen=True)
class SimilarityMatrix:
    src_units: tuple[int, ...]
    tgt_units: tuple[int, ...]
    sim: np.ndarray = field(compare=False)

    def __post_init__(self):
        if self.sim.shape != (len(self.src_units), len(self.tgt_units)):
            raise ValidationError("similarity matrix shape does not match unit counts")
        if self.sim.size and (self.sim.min() < 0.0 or self.sim.max() > 1.0):
            raise ValidationError("similarity values must lie in [0, 1]")


def to_weights(m: SimilarityMatrix, big: float) -> np.ndarray:
    """Entrywise min(-log sim, big); zero similarity maps to the finite cap."""
    if big <= 0:
        raise ConfigError(f"big must be positive, got {big}")
    with np.errstate(divide="ignore"):
        return np.minimum(-np.log(m.sim), big) + 0.0  # +0.0 normalizes -0.0
