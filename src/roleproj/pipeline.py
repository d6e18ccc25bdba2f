"""End-to-end projection pipeline: one bi-sentence in, one annotation out.

The model matrix: ``word`` projects over raw word links (optionally with
gap filling); ``perfect``, ``edgecover`` and ``total`` build a constituent
alignment graph from the filtered bi-sentence view and solve the
corresponding optimal-subgraph problem.  Word filters (``na``, ``nc``)
mask tokens before similarity computation; the ``arg`` filter restricts
the target unit set to likely argument constituents of the predicate.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .corpus import BiSentence, RoleAnnotation, yield_of
from .errors import ConfigError
from .matcher import build_graph, solve
from .projection import (
    ProjectedAnnotation,
    RoleProvenance,
    argument_filter,
    project,
    project_word_based,
    resolve_role_units,
    strip_zero_links,
)
from .similarity import (
    DEFAULT_CONTENT_PREFIXES,
    FilterConfig,
    UnitSimilarity,
    apply_word_filters,
)

MODELS = ("word", "perfect", "edgecover", "total")
FILTERS = ("na", "nc", "arg")

# Best pairings observed on development data; used when no filter is given.
DEFAULT_FILTER_FOR_MODEL = {
    "word": frozenset(),
    "perfect": frozenset({"na"}),
    "edgecover": frozenset({"arg"}),
    "total": frozenset({"arg"}),
}


@dataclass(frozen=True)
class PipelineConfig:
    model: str = "perfect"
    filters: frozenset[str] = frozenset()
    fill_gaps: bool = False
    big: float = 1e6
    content_pos_prefixes: frozenset[str] = DEFAULT_CONTENT_PREFIXES
    clause_boundary_labels: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        unknown = self.filters - set(FILTERS)
        if unknown:
            raise ConfigError(f"unknown filters: {sorted(unknown)}")
        if self.fill_gaps and self.model != "word":
            raise ConfigError("fill_gaps is only meaningful for the word model")
        if self.big <= 0:
            raise ConfigError("big must be positive")

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            self.content_pos_prefixes, self.filters & {"na", "nc"}
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "filters": sorted(self.filters),
            "fill_gaps": self.fill_gaps,
            "big": self.big,
            "content_pos_prefixes": sorted(self.content_pos_prefixes),
            "clause_boundary_labels": sorted(self.clause_boundary_labels),
        }


def target_predicate(b: BiSentence) -> int:
    """Alignment image of the source predicate; -1 when unaligned."""
    if b.src_roles is None:
        return -1
    image = sorted(b.alignment.image({b.src_roles.predicate}))
    return image[0] if image else -1


def select_target_units(
    b: BiSentence, cfg: PipelineConfig, tgt_pred: int
) -> tuple[list[int], list[str]]:
    """Target units the alignment graph is built over, plus any warning.

    All target nodes, or only the likely arguments of the predicate under
    the ``arg`` filter; an unaligned predicate (``tgt_pred < 0``) disables
    the filter.
    """
    if "arg" not in cfg.filters:
        return list(b.tgt_tree.node_ids()), []
    if tgt_pred < 0:
        return list(b.tgt_tree.node_ids()), ["predicate unaligned; argument filter skipped"]
    return argument_filter(b.tgt_tree, tgt_pred, cfg.clause_boundary_labels), []


def run_pipeline(b: BiSentence, cfg: PipelineConfig) -> ProjectedAnnotation:
    if b.src_roles is None:
        raise ConfigError("bi-sentence has no source role annotation to project")
    required = {
        "word": (),
        "perfect": ("src_tree", "tgt_tree"),
        "edgecover": ("src_tree", "tgt_tree"),
        "total": ("src_tree", "tgt_tree"),
    }[cfg.model]
    for attr in required:
        if getattr(b, attr) is None:
            raise ConfigError(f"model {cfg.model!r} requires {attr.replace('_', ' ')}")
    if "arg" in cfg.filters and cfg.model != "word" and b.tgt_tree is None:
        raise ConfigError("arg filter requires a target tree")

    view = apply_word_filters(b, cfg.filters & {"na", "nc"}, cfg.filter_config())
    tgt_pred = target_predicate(b)

    if cfg.model == "word":
        return project_word_based(
            view, b.src_roles, cfg.fill_gaps, predicate=tgt_pred
        )

    src_units = list(b.src_tree.node_ids())
    tgt_units, warnings = select_target_units(b, cfg, tgt_pred)

    role_units: dict[str, tuple[int, ...]] = {}
    inexact = set()
    for label, spans in b.src_roles.roles:
        units, exact = resolve_role_units(b.src_tree, spans)
        role_units[label] = units
        if not exact:
            inexact.add(label)

    if not tgt_units:
        warnings.append("no target units after filtering; nothing projected")
        ann = RoleAnnotation.make(b.src_roles.frame, {}, tgt_pred)
        provenance = {
            label: RoleProvenance(unprojected=True, inexact_tiling=label in inexact)
            for label, _ in b.src_roles.roles
        }
        return ProjectedAnnotation(ann, provenance, tuple(warnings))

    ctx = UnitSimilarity(view, b.src_tree, b.tgt_tree)
    sim_matrix = ctx.matrix(src_units, tgt_units)
    graph = build_graph(sim_matrix, cfg.big, cfg.model)
    alignment = strip_zero_links(solve(graph, cfg.model))
    tgt_yields = {u: yield_of(b.tgt_tree, u) for u in tgt_units}
    return project(
        alignment,
        b.src_roles,
        role_units,
        src_units,
        tgt_yields,
        predicate=tgt_pred,
        inexact=frozenset(inexact),
        warnings=tuple(warnings),
    )


def _run_one(args) -> ProjectedAnnotation:
    b, cfg = args
    return run_pipeline(b, cfg)


def run_corpus(bisentences, cfg: PipelineConfig, jobs: int = 1):
    """Project a whole corpus; results come back in input order."""
    if jobs <= 1 or len(bisentences) <= 1:
        return [run_pipeline(b, cfg) for b in bisentences]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_one, [(b, cfg) for b in bisentences]))
