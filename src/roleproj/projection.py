"""Role transfer onto the target side: unit-level projection, the word-based
baseline, span repair, argument filtering, and source-unit resolution."""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import (
    ParseTree,
    RoleAnnotation,
    spans_from_tokens,
    yield_of,
)
from .errors import IntegrityError, ValidationError
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
    src_units,
    tgt_yields,
    *,
    predicate: int,
    warnings: tuple[str, ...] = (),
) -> ProjectedAnnotation:
    """Transfer each role onto the union of target units aligned to its units.

    ``role_units`` maps each role label to its resolved source unit ids;
    every such unit must belong to ``src_units`` (the graph's source
    partition).  Zero-similarity links must already be stripped from
    ``alignment``; an empty alignment (no graph was built) leaves every
    role unprojected.  Roles with an empty image are omitted from the
    output annotation and recorded as unprojected in the provenance.
    """
    src_unit_set = set(src_units)
    out_roles: dict[str, set] = {}
    provenance: dict[str, RoleProvenance] = {}
    for label, _ in roles.roles:
        units = role_units.get(label, ())
        missing = [u for u in units if u not in src_unit_set]
        if missing:
            raise IntegrityError(
                f"role {label} sits on units {missing} absent from the graph"
            )
        unit_set = set(units)
        hit_links = tuple(
            (l.src, l.tgt, l.sim) for l in alignment.links if l.src in unit_set
        )
        tokens: set[int] = set()
        for _, tgt_unit, _ in hit_links:
            tokens |= tgt_yields[tgt_unit]
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
    pre = tree.preterminal_at(predicate)
    kept: set[int] = set()
    clauses_seen = 0
    for anc in tree.ancestors(pre):
        for child_id in tree.node(anc).children:
            child = tree.node(child_id)
            lo, hi = child.span
            if lo <= predicate <= hi:
                continue  # dominates the predicate
            if child.is_terminal and not any(ch.isalpha() for ch in child.label):
                continue  # punctuation
            kept.add(child_id)
        if boundary_labels and tree.node(anc).label in boundary_labels:
            clauses_seen += 1
            if clauses_seen >= 2:
                break
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
    units: list[int] = []
    for lo, hi in sorted(spans):
        if lo < 0 or hi >= len(tree.sentence):
            raise ValidationError(f"span {lo}-{hi} reaches past the sentence")
        stack = [tree.root]
        while stack:
            node = stack.pop()
            node_lo, node_hi = node.span
            if node_hi < lo or node_lo > hi:
                continue
            if lo <= node_lo and node_hi <= hi:
                while len(node.children) == 1:
                    node = tree.node(node.children[0])
                units.append(node.id)
            else:
                stack.extend(tree.node(c) for c in reversed(node.children))
    return tuple(units)


def strip_zero_links(alignment: SemanticAlignment) -> SemanticAlignment:
    """Drop links whose similarity is zero; degree constraints forced them."""
    kept = tuple(l for l in alignment.links if l.sim > 0.0)
    return SemanticAlignment(kept, alignment.constraint_class, alignment.cost)
