"""Cross-lingual similarity over constituents.

Similarity is computed from a word-filtered ``corpus.BiSentenceView`` (the
filters themselves live in ``corpus``, next to the bi-sentence they wrap);
projected spans are read off the original constituent yields.

Each unit has a yield, the view's kept tokens among those it dominates,
and aligned words, the far-side tokens linked to the kept tokens of its
yield, whether the far side keeps them or not.  A cell is the mean of two
directional Jaccard overlaps, ``|a ∩ b| / max(|a ∪ b|, 1)``: the source
unit's aligned words against the target unit's yield, and the target
unit's aligned words against the source unit's yield.  An empty union has
an empty intersection, so it scores 0.  ``UnitSimilarity.matrix`` takes
the counts one of two ways, by the matrix's size:

- A matrix of at most ``SMALL_MATRIX_CELLS`` cells, such as most ``total``
  graphs, is computed cell by cell from Python ``int`` bitsets, one bit a
  token; each intersection is the ``bit_count`` of an AND.
- A larger one is incidence-matrix algebra over 0/1 float64 masks: unit x
  token yield masks ``Y_s`` and ``Y_t`` of the units asked for (zero on
  excluded tokens) and the view's source x target link matrix ``A``.  The
  aligned words are ``Y_s·A > 0`` and ``Y_t·Aᵀ > 0``, and intersections
  are matrix products.

Both paths give the same bits.  Every count is a small integer, exact in
a Python ``int`` and in float64, and ``|a ∪ b| = |a| + |b| − |a ∩ b|`` in
both.  So each overlap is the correctly rounded quotient of the same two
integers, and each cell the same two IEEE operations on those overlaps,
``(fwd + bwd) / 2.0``.  Neither path builds a yield for a node outside
the units asked for.

The crossover, measured per matrix with each path's set-up included,
since the pipeline builds one ``UnitSimilarity`` a graph: the array
path's time over the bitset path's, the median over up to 120 matrices a
row, in two runs.  Unit
subsets were drawn to each size from the sentences of the benchmark
corpora at seed 7 (Python 3.11, numpy 2.4, 2 cores):

    cells      `short`       `long`
    1-15       3.62-3.90x    2.33-2.40x
    16-31      2.44-2.49x    1.96-1.97x
    32-47      1.89-1.94x    1.65-1.69x
    48-63      1.87-1.88x    1.54-1.58x
    64-79      1.69x         1.46-1.49x
    80-95      1.51x         1.34-1.42x
    96-127     1.33-1.34x    1.18-1.27x
    128-159    1.17x         1.15-1.22x
    160-191    1.05-1.06x    1.03-1.14x
    192-255    0.92-0.93x    0.95-1.07x
    256-399    0.75x         0.80-0.93x

``UnitSimilarity.matrix`` returns the plain float64 ndarray, indexed
[source unit, target unit] in the order the units were given;
``to_weights`` maps it to the alignment weights.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import or_

import numpy as np

from . import WEIGHT_CAP
from .corpus import BiSentenceView, ParseTree

# The most cells for which ``UnitSimilarity.matrix`` takes the bitset path,
# at the crossover of the table above: the bitset path was 1.03-1.14x the
# array path's speed at 160-191 cells and 0.92-1.07x at 192-255.  At seed 7
# it serves 147 of the 150 `total` graphs of `short` (median 18 cells) and
# 44 of the 50 of `long` (median 24), and 11 `edgecover` graphs of
# `short`; a `perfect` graph, every source node by every target node, has
# over a thousand cells.
SMALL_MATRIX_CELLS = 192


class UnitSimilarity:
    """Pairwise constituent similarity for one bi-sentence view."""

    def __init__(self, view: BiSentenceView, src_tree: ParseTree, tgt_tree: ParseTree):
        self._view = view
        self._src_tree = src_tree
        self._tgt_tree = tgt_tree

    def overlaps(self, src_units, tgt_units) -> tuple[np.ndarray, np.ndarray]:
        """The two directional Jaccard overlaps, both indexed [source, target].

        The first compares each source unit's aligned words with each target
        unit's yield; the second each target unit's aligned words with each
        source unit's yield.  Yield masks are built for the given units only.
        """
        src, tgt, links = _arrays(self._view, self._src_tree, self._tgt_tree)
        y_src = _yield_masks(*src, src_units)
        y_tgt = _yield_masks(*tgt, tgt_units)
        src_aligned = (y_src @ links > 0).astype(float)
        tgt_aligned = (y_tgt @ links.T > 0).astype(float)
        return _jaccard(src_aligned, y_tgt), _jaccard(y_src, tgt_aligned)

    def matrix(self, src_units, tgt_units) -> np.ndarray:
        """Mean of the two directional overlaps, indexed [source, target]."""
        if len(src_units) * len(tgt_units) <= SMALL_MATRIX_CELLS:
            return self._bitset_matrix(src_units, tgt_units)
        fwd, bwd = self.overlaps(src_units, tgt_units)
        fwd += bwd
        fwd /= 2.0
        return fwd

    def _bitset_matrix(self, src_units, tgt_units) -> np.ndarray:
        """``matrix`` computed cell by cell from per-unit token bitsets."""
        view = self._view
        inc_src, inc_tgt = view.included_src, view.included_tgt
        # Token i's links, as a bitset of the far-side tokens, if i is kept.
        src_links = [0] * len(self._src_tree.sentence)
        tgt_links = [0] * len(self._tgt_tree.sentence)
        for s, t in view.links:
            if s in inc_src:
                src_links[s] |= 1 << t
            if t in inc_tgt:
                tgt_links[t] |= 1 << s
        src = _unit_bitsets(self._src_tree.spans, inc_src, src_links, src_units)
        tgt = _unit_bitsets(self._tgt_tree.spans, inc_tgt, tgt_links, tgt_units)
        # Each overlap divides by max(union, 1), as ``_jaccard`` does.
        cells = []
        for s_yield, s_aligned, s_yield_n, s_aligned_n in src:
            for t_yield, t_aligned, t_yield_n, t_aligned_n in tgt:
                inter = (s_aligned & t_yield).bit_count()
                fwd = inter / ((s_aligned_n + t_yield_n - inter) or 1)
                inter = (t_aligned & s_yield).bit_count()
                bwd = inter / ((t_aligned_n + s_yield_n - inter) or 1)
                cells.append((fwd + bwd) / 2.0)
        return np.array(cells, dtype=float).reshape(len(src), len(tgt))


def _unit_bitsets(spans, included: frozenset[int], links: list[int], units) -> list:
    """Each unit's (yield, aligned words, their two sizes) as token bitsets.

    ``links[i]`` is the bitset of the far-side tokens linked to token i, or
    0 if i is not kept; a unit's aligned words are the OR over its span.
    """
    kept = sum(map((1).__lshift__, included))
    out = []
    for unit in units:
        lo, hi = spans[unit]
        token_set = ((2 << hi) - (1 << lo)) & kept
        aligned = reduce(or_, links[lo:hi + 1], 0)
        out.append((token_set, aligned, token_set.bit_count(), aligned.bit_count()))
    return out


def _arrays(view: BiSentenceView, src_tree: ParseTree, tgt_tree: ParseTree):
    """The array path's state: each side's spans and kept-token mask, and
    the source x target 0/1 link matrix."""
    links = np.zeros((len(src_tree.sentence), len(tgt_tree.sentence)))
    s, t = np.array(list(view.links), dtype=int).reshape(-1, 2).T
    links[s, t] = 1.0
    return (
        (src_tree.spans, _kept_tokens(src_tree, view.included_src)),
        (tgt_tree.spans, _kept_tokens(tgt_tree, view.included_tgt)),
        links,
    )


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
