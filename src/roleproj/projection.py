"""Role transfer onto the target side: unit-level projection, the word-based
baseline, span repair, argument filtering, and source-unit resolution."""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import ParseTree, RoleAnnotation, spans_from_tokens
from .errors import ValidationError
from .matcher import SemanticAlignment
from .similarity import BiSentenceView


@dataclass(frozen=True)
class RoleProvenance:
    links: tuple[tuple[int, int, float], ...] = ()
    unprojected: bool = False
    # Always False: every role span tiles exactly onto constituents.  Kept
    # so the provenance sidecar keeps its record layout.
    inexact_tiling: bool = False


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


def fill_gaps(tokens) -> frozenset[int]:
    """Close a token set to the full interval between its extremes."""
    tokens = set(tokens)
    if not tokens:
        return frozenset()
    return frozenset(range(min(tokens), max(tokens) + 1))


def project(
    alignment: SemanticAlignment,
    roles: RoleAnnotation,
    role_units: dict[str, tuple[int, ...]],
    tgt_tree: ParseTree,
    *,
    predicate: int,
    warnings: tuple[str, ...] = (),
) -> ProjectedAnnotation:
    """Transfer each role onto the union of target units aligned to its units.

    ``role_units`` maps each role label to its resolved source unit ids,
    each a row of the graph ``alignment`` was solved on.  A target unit's
    tokens are its span in ``tgt_tree``.
    Zero-similarity links must already be stripped from ``alignment``; an
    empty alignment (no graph was built) leaves every role unprojected.
    Roles with an empty image are omitted from the output annotation and
    recorded as unprojected in the provenance.
    """
    tgt_spans = tgt_tree.spans
    out_roles: dict[str, set] = {}
    provenance: dict[str, RoleProvenance] = {}
    for label, _ in roles.roles:
        unit_set = set(role_units.get(label, ()))
        hit_links = tuple(l for l in alignment.links if l[0] in unit_set)
        tokens: set[int] = set()
        for _, tgt_unit, _ in hit_links:
            lo, hi = tgt_spans[tgt_unit]
            tokens.update(range(lo, hi + 1))
        if tokens:
            out_roles[label] = set(spans_from_tokens(tokens))
            provenance[label] = RoleProvenance(links=hit_links)
        else:
            provenance[label] = RoleProvenance(unprojected=True)
    ann = RoleAnnotation.make(roles.frame, out_roles, predicate)
    return ProjectedAnnotation(ann, provenance, warnings)


def project_word_based(
    view: BiSentenceView,
    roles: RoleAnnotation,
    fill: bool,
    *,
    predicate: int,
) -> ProjectedAnnotation:
    """Word-level projection: the image of each role's tokens under the links."""
    out_roles: dict[str, set] = {}
    provenance: dict[str, RoleProvenance] = {}
    for label, _ in roles.roles:
        src_tokens = roles.tokens_of(label) & view.included_src
        hit_links = tuple(
            (s, t, 1.0) for s, t in sorted(view.links) if s in src_tokens
        )
        tokens = {t for _, t, _ in hit_links}
        if fill:
            tokens = set(fill_gaps(tokens))
        if tokens:
            out_roles[label] = set(spans_from_tokens(tokens))
            provenance[label] = RoleProvenance(links=hit_links)
        else:
            provenance[label] = RoleProvenance(unprojected=True)
    ann = RoleAnnotation.make(roles.frame, out_roles, predicate)
    return ProjectedAnnotation(ann, provenance)


def argument_filter(tree: ParseTree, predicate: int, boundary_labels=frozenset()):
    """Likely-argument constituents for a predicate: children of its ancestors.

    Candidates that dominate the predicate are dropped, as are punctuation
    preterminals (tags with no alphabetic character).  When
    ``boundary_labels`` is non-empty, the ancestor walk stops after
    processing a clause-labeled ancestor above the lowest clause containing
    the predicate.  Returns sorted node ids.
    """
    if not (0 <= predicate < len(tree.sentence)):
        raise ValidationError(f"predicate index {predicate} out of range")
    labels, spans, children = tree.labels, tree.spans, tree.children
    kept: set[int] = set()
    clauses_seen = 0
    anc = tree.parents[tree.preterminals[predicate]]
    while anc is not None:
        for child in children[anc]:
            lo, hi = spans[child]
            if lo <= predicate <= hi:
                continue  # dominates the predicate
            if not children[child] and not any(ch.isalpha() for ch in labels[child]):
                continue  # punctuation
            kept.add(child)
        if boundary_labels and labels[anc] in boundary_labels:
            clauses_seen += 1
            if clauses_seen >= 2:
                break
        anc = tree.parents[anc]
    return sorted(kept)


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
