"""End-to-end projection pipeline: one bi-sentence in, one annotation out.

The model matrix: ``word`` projects over raw word links (optionally with
gap filling); ``perfect``, ``edgecover`` and ``total`` build a constituent
alignment instance with ``build_instance`` and solve the corresponding
optimal-subgraph problem on its graph.  Word filters (``na``, ``nc``)
mask tokens before similarity computation; the ``arg`` filter restricts
the target unit set to likely argument constituents of the predicate.

``PipelineConfig.from_settings`` is the one parser of a run's text
settings, by each key's grammar in ``SETTINGS``.

The array layers, ``UnitSimilarity``, ``build_graph`` and ``solve``, bind
into this module's globals at the first graph, so that a run of the
``word`` model, and every command that builds no graph, starts without
numpy.  Until then they resolve as module attributes through
``__getattr__``, which binds them.  A name already set, such as a wrapper
put on the module from outside, is never re-bound, and ``build_instance``
and ``run_pipeline`` look the three up in the globals at each call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import DEFAULT_FILTER_FOR_MODEL, FILTERS, MODELS, WEIGHT_CAP, deferred_imports
from .corpus import DEFAULT_CONTENT_PREFIXES, BiSentence, apply_word_filters
from .errors import ConfigError, located
from .projection import (
    ProjectedAnnotation,
    SemanticAlignment,
    argument_filter,
    project,
    project_word_based,
    resolve_role_units,
    strip_zero_links,
)

if TYPE_CHECKING:
    from .matcher import AlignmentGraph

_bind, __getattr__ = deferred_imports(globals(), {
    "matcher": ("build_graph", "solve"),
    "similarity": ("UnitSimilarity",),
})


def _names(text: str) -> frozenset[str]:
    return frozenset(name for name in text.split(",") if name)


def _flag(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ConfigError(f"fill_gaps must be 1/true/yes or 0/false/no, got {text!r}")
    return text.lower() in ("1", "true", "yes")


# The grammar of a run's text settings: each key's PipelineConfig field and
# the parser of its value.
SETTINGS = {
    "model": ("model", str),
    "filter": ("filters", lambda text: frozenset() if text == "none" else _names(text)),
    "fill_gaps": ("fill_gaps", _flag),
    "content_pos_prefixes": ("content_pos_prefixes", _names),
    "clause_boundary_labels": ("clause_boundary_labels", _names),
}


@dataclass(frozen=True)
class PipelineConfig:
    model: str = "perfect"
    filters: frozenset[str] = frozenset()
    fill_gaps: bool = False
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
        if "nc" in self.filters and not self.content_pos_prefixes:
            raise ConfigError("nc filter requires a non-empty content POS prefix set")

    @classmethod
    def from_settings(cls, settings: dict[str, str]) -> PipelineConfig:
        """A run's configuration from its text settings, parsed by ``SETTINGS``.
        A key not given keeps its field's default; with no ``filter``, the
        model's ``DEFAULT_FILTER_FOR_MODEL`` applies."""
        unknown = settings.keys() - SETTINGS.keys()
        if unknown:
            raise ConfigError(f"unknown settings: {sorted(unknown)}")
        fields = {field: parse(settings[key])
                  for key, (field, parse) in SETTINGS.items() if key in settings}
        if "filters" not in fields:
            # an unknown model has no default; __post_init__ rejects it
            model = fields.get("model", cls.model)
            fields["filters"] = DEFAULT_FILTER_FOR_MODEL.get(model, frozenset())
        return cls(**fields)

    def to_dict(self) -> dict:
        """The manifest's record of the settings and of the fixed weight cap."""
        record = {field: sorted(value) if isinstance(value, frozenset) else value
                  for field, value in vars(self).items()}
        return record | {"big": WEIGHT_CAP}


def target_predicate(b: BiSentence) -> int:
    """Alignment image of the source predicate; -1 when unaligned."""
    if b.src_roles is None:
        return -1
    pred = b.src_roles.predicate
    return min((t for s, t in b.links if s == pred), default=-1)


def select_target_units(
    b: BiSentence, cfg: PipelineConfig, tgt_pred: int
) -> tuple[list[int], list[str]]:
    """Target units the alignment graph is built over, plus any warning.

    All target nodes, or only the likely arguments of the predicate under
    the ``arg`` filter; an unaligned predicate (``tgt_pred < 0``) disables
    the filter.
    """
    if "arg" not in cfg.filters:
        return list(range(len(b.tgt_tree.labels))), []
    if tgt_pred < 0:
        warning = "predicate unaligned; argument filter skipped"
        return list(range(len(b.tgt_tree.labels))), [warning]
    return argument_filter(b.tgt_tree, tgt_pred, cfg.clause_boundary_labels), []


@dataclass(frozen=True)
class AlignmentInstance:
    """The constituent alignment problem of one bi-sentence."""

    tgt_pred: int
    warnings: tuple[str, ...]
    graph: AlignmentGraph | None  # None when no unit is left on a side
    role_units: dict[str, tuple[int, ...]]  # each source role's units; {} without roles


def build_instance(b: BiSentence, cfg: PipelineConfig) -> AlignmentInstance:
    """Filtered view, unit sets, similarity matrix and graph of a bi-sentence.

    The one place an alignment graph is built: ``run_pipeline`` solves it,
    ``--oracle`` checks it and ``stats`` counts its similarities.  The
    source units are every tree node, except under ``total`` with source
    roles: its rows are independent and projection reads only the rows of
    role units, so its graph has just those.
    """
    for attr in ("src_tree", "tgt_tree"):
        if getattr(b, attr) is None:
            raise ConfigError(f"model {cfg.model!r} requires {attr.replace('_', ' ')}")
    view = apply_word_filters(b, cfg.filters, cfg.content_pos_prefixes)
    tgt_pred = target_predicate(b)
    tgt_units, warnings = select_target_units(b, cfg, tgt_pred)
    role_units = {}
    src_units = tuple(range(len(b.src_tree.labels)))
    if b.src_roles is not None:
        role_units = {
            label: resolve_role_units(b.src_tree, spans) for label, spans in b.src_roles.roles
        }
        if cfg.model == "total":
            src_units = tuple(sorted(set().union(*role_units.values())))
    if not tgt_units:
        warnings.append("no target units after filtering; nothing projected")
    if not (src_units and tgt_units):
        return AlignmentInstance(tgt_pred, tuple(warnings), None, role_units)
    _bind("matcher", "similarity")
    sim = UnitSimilarity(view, b.src_tree, b.tgt_tree).matrix(src_units, tgt_units)
    graph = build_graph(src_units, tgt_units, sim)
    return AlignmentInstance(tgt_pred, tuple(warnings), graph, role_units)


def run_pipeline(b: BiSentence, cfg: PipelineConfig) -> ProjectedAnnotation:
    if b.src_roles is None:
        raise ConfigError("bi-sentence has no source role annotation to project")
    if cfg.model == "word":
        view = apply_word_filters(b, cfg.filters, cfg.content_pos_prefixes)
        return project_word_based(
            view, b.src_roles, cfg.fill_gaps, predicate=target_predicate(b)
        )

    inst = build_instance(b, cfg)
    if inst.graph is None:
        alignment = SemanticAlignment((), 0.0)
    else:
        alignment = strip_zero_links(solve(inst.graph, cfg.model))
    return project(
        alignment,
        b.src_roles,
        inst.role_units,
        b.tgt_tree.spans,
        predicate=inst.tgt_pred,
        warnings=inst.warnings,
    )


def _run_one(task) -> ProjectedAnnotation:
    k, b, cfg = task
    with located(f"sentence {k} ({cfg.model})"):
        return run_pipeline(b, cfg)


def run_corpus(bisentences, cfg: PipelineConfig, jobs: int = 1):
    """Project a whole corpus; results come back in input order.

    Starts at most one worker per sentence and per CPU; runs in-process
    when that allows only one.  The workers take contiguous chunks of
    about n / (4 × workers) sentences, so each round trip carries many.
    """
    tasks = [(k, b, cfg) for k, b in enumerate(bisentences)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_one(task) for task in tasks]
    # Imported here: it adds to the start-up of every command, and only
    # a run with more than one worker needs it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = math.ceil(len(tasks) / (4 * workers))  # at least 1: n >= workers
        return list(pool.map(_run_one, tasks, chunksize=chunk))
