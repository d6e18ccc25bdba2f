"""Role transfer onto the target side: unit-level projection (the word-based
baseline is the same transfer over word units), argument filtering, and
source-unit resolution.

``SemanticAlignment``, the links a solver chose, is defined here rather than
in ``matcher`` so that the word model transfers roles without the array
layers.  A role's ``RoleProvenance`` is the links it was transferred
through, and the role is unprojected when it has none."""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from .corpus import BiSentenceView, ParseTree, RoleAnnotation, Span, merge_spans
from .errors import ValidationError


@dataclass(frozen=True)
class SemanticAlignment:
    links: tuple[tuple[int, int, float], ...]  # (src_unit, tgt_unit, sim), sorted
    cost: float  # sum of the weights of the links, zero-similarity ones included

    def link_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, t) for s, t, _ in self.links)


@dataclass(frozen=True)
class RoleProvenance:
    """The links a role was transferred through; none when it is unprojected."""

    links: tuple[tuple[int, int, float], ...] = ()
    # Every role span tiles exactly onto constituents.  Kept so the
    # provenance sidecar keeps its record layout.
    inexact_tiling = False

    @property
    def unprojected(self) -> bool:
        return not self.links


@dataclass(frozen=True)
class ProjectedAnnotation:
    annotation: RoleAnnotation
    provenance: dict[str, RoleProvenance] = field(default_factory=dict, compare=False)
    warnings: tuple[str, ...] = ()

    def to_record(self, sentence_no: int) -> dict:
        return {
            "sentence": sentence_no,
            "frame": self.annotation.frame,
            "predicate": self.annotation.predicate,
            "roles": {
                label: {
                    "links": [list(l) for l in prov.links],
                    "unprojected": prov.unprojected,
                    "inexact_tiling": prov.inexact_tiling,
                }
                for label, prov in sorted(self.provenance.items())
            },
            "warnings": list(self.warnings),
        }


def project(
    alignment: SemanticAlignment,
    roles: RoleAnnotation,
    role_units: dict[str, Collection[int]],
    tgt_spans: tuple[Span, ...],
    *,
    predicate: int,
    warnings: tuple[str, ...] = (),
    fill: bool = False,
) -> ProjectedAnnotation:
    """Transfer each role onto the target units aligned to its source units.

    ``role_units`` maps each role label to its source unit ids, and
    ``tgt_spans`` gives each target unit's inclusive token span.  A role's
    spans are the merge of its linked target units' spans, or with ``fill``
    their outer interval.  Zero-similarity links must already be stripped
    from ``alignment``.  A role with no link is left out of the annotation
    and marked unprojected in the provenance.
    """
    out_roles: dict[str, tuple[Span, ...]] = {}
    provenance: dict[str, RoleProvenance] = {}
    for label, _ in roles.roles:
        unit_set = set(role_units.get(label, ()))
        hit_links = tuple(l for l in alignment.links if l[0] in unit_set)
        provenance[label] = RoleProvenance(hit_links)
        if hit_links:
            spans = merge_spans(tgt_spans[t] for _, t, _ in hit_links)
            out_roles[label] = ((spans[0][0], spans[-1][1]),) if fill else spans
    ann = RoleAnnotation.make(roles.frame, out_roles, predicate)
    return ProjectedAnnotation(ann, provenance, warnings)


def project_word_based(
    view: BiSentenceView,
    roles: RoleAnnotation,
    fill: bool,
    *,
    predicate: int,
) -> ProjectedAnnotation:
    """``project`` with words as the units: each word link is a link of
    similarity 1, a role's units are its tokens, and each target token is a
    unit spanning itself.  The filters leave no link at an excluded token,
    so a role's excluded tokens hit nothing."""
    alignment = SemanticAlignment(tuple((s, t, 1.0) for s, t in sorted(view.links)), 0.0)
    role_units = {label: roles.tokens_of(label) for label, _ in roles.roles}
    tgt_spans = tuple((t, t) for t in range(len(view.bisentence.tgt)))
    return project(alignment, roles, role_units, tgt_spans, predicate=predicate, fill=fill)


def argument_filter(tree: ParseTree, predicate: int, boundary_labels=frozenset()):
    """Likely-argument constituents for a predicate: children of its ancestors.

    Candidates that dominate the predicate are dropped, as are punctuation
    preterminals (tags with no alphabetic character).  The ancestors are
    found in one walk down from the root: at each one, the child whose span
    holds the predicate is the next ancestor, and the walk ends at the
    predicate's preterminal, or at a node none of whose children holds it.
    When at least two ancestors carry one of ``boundary_labels``, only the
    candidates of the second-lowest such ancestor, the clause above the
    predicate's own, and of the ancestors below it are kept.  Returns
    sorted node ids.
    """
    if not (0 <= predicate < len(tree.sentence)):
        raise ValidationError(f"predicate index {predicate} out of range")
    labels, spans, children = tree.labels, tree.spans, tree.children
    candidates: list[int] = []
    clause_starts: list[int] = []  # where each clause ancestor's candidates begin
    node = 0
    while node is not None and children[node]:
        if labels[node] in boundary_labels:
            clause_starts.append(len(candidates))
        node_below = None
        for child in children[node]:
            lo, hi = spans[child]
            if lo <= predicate <= hi:
                node_below = child  # dominates the predicate
            elif children[child] or any(ch.isalpha() for ch in labels[child]):
                candidates.append(child)  # not punctuation
        node = node_below
    return sorted(candidates[clause_starts[-2]:] if len(clause_starts) >= 2 else candidates)


def resolve_role_units(tree: ParseTree, spans) -> tuple[int, ...]:
    """Deepest constituents whose yields exactly tile the given spans.

    For each span in sorted order, a depth-first walk from the root, left
    to right: a node disjoint from the span is skipped, a node inside it is
    a unit, and any other node is entered.  A unit is taken at the bottom
    of its unary chain, the deepest node with the same yield.  The units
    are thus the maximal constituents inside the span, and they tile it on
    a validated span because every token has a preterminal.  A span
    reaching past the sentence raises ValidationError.
    """
    node_spans, children = tree.spans, tree.children
    units: list[int] = []
    for lo, hi in sorted(spans):
        if lo < 0 or hi >= len(tree.sentence):
            raise ValidationError(f"span {lo}-{hi} reaches past the sentence")
        stack = [0]
        while stack:
            node = stack.pop()
            node_lo, node_hi = node_spans[node]
            if node_hi < lo or node_lo > hi:
                continue
            if lo <= node_lo and node_hi <= hi:
                while len(children[node]) == 1:
                    node = children[node][0]
                units.append(node)
            else:
                stack.extend(reversed(children[node]))
    return tuple(units)


def strip_zero_links(alignment: SemanticAlignment) -> SemanticAlignment:
    """Drop links whose similarity is zero; degree constraints forced them."""
    kept = tuple(l for l in alignment.links if l[2] > 0.0)
    return SemanticAlignment(kept, alignment.cost)
