"""Cross-lingual similarity over constituents.

Similarity is computed from a word-filtered ``corpus.BiSentenceView`` (the
filters themselves live in ``corpus``, next to the bi-sentence they wrap);
projected spans are read off the original constituent yields.

Similarity is incidence-matrix algebra over 0/1 float64 masks: unit x token
yield masks ``Y_s`` and ``Y_t`` of the units asked for (zero on excluded
tokens) and the view's source x target link matrix ``A``.  No mask is
built for a node outside those units.  The aligned words of the units are
``Y_s·A > 0`` and ``Y_t·Aᵀ > 0``, intersections are matrix products, and
``|a ∪ b| = |a| + |b| − |a ∩ b|``.  Every count is a small integer, exact
in float64, so each cell is the correctly rounded quotient of two integers.
``UnitSimilarity.matrix`` returns the plain float64 ndarray, indexed
[source unit, target unit] in the order the units were given;
``to_weights`` maps it to the alignment weights.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import WEIGHT_CAP
from .corpus import BiSentenceView, ParseTree


class UnitSimilarity:
    """Pairwise constituent similarity for one bi-sentence view."""

    def __init__(self, view: BiSentenceView, src_tree: ParseTree, tgt_tree: ParseTree):
        self._src = src_tree.spans, _kept_tokens(src_tree, view.included_src)
        self._tgt = tgt_tree.spans, _kept_tokens(tgt_tree, view.included_tgt)
        self._links = np.zeros((len(src_tree.sentence), len(tgt_tree.sentence)))
        s, t = np.array(list(view.links), dtype=int).reshape(-1, 2).T
        self._links[s, t] = 1.0

    def overlaps(self, src_units, tgt_units) -> tuple[np.ndarray, np.ndarray]:
        """The two directional Jaccard overlaps, both indexed [source, target].

        The first compares each source unit's aligned words with each target
        unit's yield; the second each target unit's aligned words with each
        source unit's yield.  Yield masks are built for the given units only.
        """
        y_src = _yield_masks(*self._src, src_units)
        y_tgt = _yield_masks(*self._tgt, tgt_units)
        src_aligned = (y_src @ self._links > 0).astype(float)
        tgt_aligned = (y_tgt @ self._links.T > 0).astype(float)
        return _jaccard(src_aligned, y_tgt), _jaccard(y_src, tgt_aligned)

    def matrix(self, src_units, tgt_units) -> np.ndarray:
        """Mean of the two directional overlaps, indexed [source, target]."""
        fwd, bwd = self.overlaps(src_units, tgt_units)
        fwd += bwd
        fwd /= 2.0
        return fwd


def _kept_tokens(tree: ParseTree, included: frozenset[int]) -> np.ndarray:
    """Boolean mask of the included tokens of the tree's sentence."""
    kept = np.zeros(len(tree.sentence), dtype=bool)
    kept[list(included)] = True
    return kept


def _yield_masks(spans, kept: np.ndarray, units) -> np.ndarray:
    """Unit x token 0/1 matrix of the kept tokens each unit dominates."""
    bounds = np.fromiter(chain.from_iterable(map(spans.__getitem__, units)), dtype=np.intp)
    lo, hi = bounds.reshape(-1, 2).T[:, :, None]
    tokens = np.arange(len(kept))
    return ((lo <= tokens) & (tokens <= hi) & kept).astype(float)


def _jaccard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a ∩ b| / |a ∪ b| between every row of ``a`` and every row of ``b``."""
    inter = a @ b.T
    union = a.sum(axis=1)[:, None] + b.sum(axis=1) - inter
    # An unaligned constituent gives no evidence of equivalence, so the
    # empty-union case counts as zero similarity rather than one: the
    # intersection is 0 there, and dividing it by 1 keeps it 0.
    np.maximum(union, 1.0, out=union)
    inter /= union
    return inter


def to_weights(sim: np.ndarray) -> np.ndarray:
    """Entrywise min(-log sim, WEIGHT_CAP); zero similarity maps to the cap."""
    with np.errstate(divide="ignore"):
        return np.minimum(-np.log(sim), WEIGHT_CAP) + 0.0  # +0.0 normalizes -0.0
