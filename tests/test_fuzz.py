"""End-to-end fuzzing over generated corpora.

A small generator writes the four file formats in canonical form: random
bracketings over random words and tags, alignments, and role blocks.  The
tests check that canonical files round-trip byte for byte, that
``roleproj project`` keeps its exit-code contract on intact and damaged
corpora, that ``run_corpus`` gives the same output at one and two jobs,
and that each model projects what its definition projects.
"""

import contextlib
import io
import json
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    alignment_to_line,
    enumerate_optimal_covers,
    reference_matrix,
    sentence_to_tok_line,
    tree_to_line,
)
from roleproj.cli import main
from roleproj.corpus import (
    DEFAULT_CONTENT_PREFIXES,
    BiSentence,
    RoleAnnotation,
    Sentence,
    apply_word_filters,
    load_corpus,
    read_roles_file,
    read_tok_file,
    read_trees_file,
    roles_file_text,
)
from roleproj.errors import ValidationError
from roleproj.matcher import build_graph, solve
from roleproj.oracle import MAX_CELLS, brute_force_optimum
from roleproj.pipeline import (
    DEFAULT_FILTER_FOR_MODEL,
    MODELS,
    PipelineConfig,
    build_instance,
    run_corpus,
    run_pipeline,
    select_target_units,
    target_predicate,
)
from roleproj.projection import (
    ProjectedAnnotation,
    RoleProvenance,
    SemanticAlignment,
    project,
    project_word_based,
    resolve_role_units,
    strip_zero_links,
)
from roleproj.similarity import UnitSimilarity

WORDS = ("Kim", "promised", "to", "pünktlich", "a_b", "_", ",", "Ü", "x")
TAGS = ("NN", "VBD", "TO", "ADJD", "$,", "-NONE-", "JJ", "DT")
LABELS = ("S", "NP", "VP", "PP", "SBAR", "X-1")
FRAMES = ("COMMITMENT", "MOTION", "F")
ROLE_LABELS = ("A0", "A1", "AM-TMP", "MESSAGE")
FILTERS = ("none", "na", "nc", "arg", "na,nc")
# Characters that damage a file: brackets, separators, digits in two
# scripts, whitespace str.split(" ") does not split on, and line breaks.
DAMAGE = "()-_#,\t 0179١\xa0\nx"


def maximal_runs(tokens) -> tuple[tuple[int, int], ...]:
    """A token set cut into its maximal runs of consecutive tokens."""
    runs = []
    for t in sorted(tokens):
        if runs and t == runs[-1][1] + 1:
            runs[-1][1] = t
        else:
            runs.append([t, t])
    return tuple((lo, hi) for lo, hi in runs)


def bracketing(rng, words, tags, lo, hi, label):
    """Canonical bracketed text of a random tree over tokens lo..hi."""
    if lo == hi and rng.random() < 0.7:
        return f"({tags[lo]} {words[lo]})"
    if lo == hi:  # a unary chain above the token
        return f"({label} {bracketing(rng, words, tags, lo, hi, rng.choice(LABELS))})"
    cuts = sorted(rng.sample(range(lo + 1, hi + 1), rng.randint(1, min(3, hi - lo))))
    bounds = [lo, *cuts, hi + 1]
    kids = " ".join(
        bracketing(rng, words, tags, a, b - 1, rng.choice(LABELS))
        for a, b in zip(bounds, bounds[1:])
    )
    return f"({label} {kids})"


def sentence(rng, max_tokens):
    """Tree line and tok line of a random sentence, and its length."""
    n = rng.randint(1, max_tokens)
    words = [rng.choice(WORDS) for _ in range(n)]
    tags = [rng.choice(TAGS) for _ in range(n)]
    tree = bracketing(rng, words, tags, 0, n - 1, "S")
    tok = " ".join(f"{w}_{t}" for w, t in zip(words, tags))
    return tree, tok, n


def roles_block(rng, k, n):
    """A canonical roles block: labels sorted, each role's spans sorted and disjoint."""
    lines = [f"#{k} {rng.choice(FRAMES)} {rng.randint(-1, n - 1)}"]
    for label in sorted(rng.sample(ROLE_LABELS, rng.randint(0, 3))):
        spans = maximal_runs(rng.sample(range(n), rng.randint(1, n)))
        lines.append(label + "\t" + ",".join(f"{lo}-{hi}" for lo, hi in spans))
    return "\n".join(lines)


def corpus_texts(rng, sentences=(1, 4), max_tokens=7) -> dict[str, str]:
    """The text of each file of a random corpus, in canonical form."""
    records = {name: [] for name in ("src.trees", "src.tok", "tgt.trees", "tgt.tok", "align")}
    blocks = []
    for k in range(rng.randint(*sentences)):
        src_tree, src_tok, n = sentence(rng, max_tokens)
        tgt_tree, tgt_tok, m = sentence(rng, max_tokens)
        links = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randint(0, n + m))}
        records["src.trees"].append(src_tree)
        records["src.tok"].append(src_tok)
        records["tgt.trees"].append(tgt_tree)
        records["tgt.tok"].append(tgt_tok)
        records["align"].append(" ".join(f"{s}-{t}" for s, t in sorted(links)))
        blocks.append(roles_block(rng, k, n))
    texts = {name: "\n".join(lines) + "\n" for name, lines in records.items()}
    texts["src.roles"] = "\n\n".join(blocks) + "\n"
    return texts


def damage(rng, texts: dict[str, str]) -> None:
    """Insert, delete, replace or duplicate a little text in one file."""
    name = rng.choice(sorted(texts))
    text = texts[name]
    k = rng.randint(0, len(text))
    op = rng.randrange(4)
    if op == 0:
        text = text[:k] + rng.choice(DAMAGE) + text[k:]
    elif op == 1:
        text = text[:k] + text[k + rng.randint(1, 4):]
    elif op == 2:  # replace one separator or bracket
        marks = [j for j, ch in enumerate(text) if ch in "()-_#,\t \n"]
        j = rng.choice(marks)
        text = text[:j] + rng.choice(DAMAGE) + text[j + 1:]
    else:
        lines = text.split("\n")
        j = rng.randrange(len(lines))
        lines.insert(j, lines[j])
        text = "\n".join(lines)
    texts[name] = text


def write(directory, texts: dict[str, str]) -> dict[str, str]:
    paths = {}
    for name, text in texts.items():
        path = Path(directory) / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def load(paths):
    return load_corpus(
        align_path=paths["align"],
        src_trees_path=paths["src.trees"],
        src_tok_path=paths["src.tok"],
        tgt_trees_path=paths["tgt.trees"],
        tgt_tok_path=paths["tgt.tok"],
        src_roles_path=paths["src.roles"],
    )


randoms = st.randoms(use_true_random=False)


@settings(deadline=None)  # file I/O in every example
@given(randoms)
def test_canonical_files_round_trip_byte_for_byte(rng):
    texts = corpus_texts(rng)
    with tempfile.TemporaryDirectory() as d:
        paths = write(d, texts)
        corpus = load(paths)
        trees = {side: read_trees_file(paths[f"{side}.trees"]) for side in ("src", "tgt")}
        toks = {side: read_tok_file(paths[f"{side}.tok"]) for side in ("src", "tgt")}
        roles = read_roles_file(paths["src.roles"])
    for side in ("src", "tgt"):
        assert "".join(tree_to_line(t) + "\n" for t in trees[side]) == texts[f"{side}.trees"]
        assert "".join(sentence_to_tok_line(s) + "\n" for s in toks[side]) == texts[f"{side}.tok"]
    assert "".join(alignment_to_line(b.links) + "\n" for b in corpus) == texts["align"]
    assert roles_file_text(roles) == texts["src.roles"]


def run_main(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue()


@settings(deadline=None)
@given(randoms, st.sampled_from(MODELS), st.sampled_from(FILTERS), st.booleans(),
       st.booleans(), st.booleans())
def test_cli_project_exits_0_1_or_2_without_a_traceback(
    rng, model, filt, damaged, oracle, fill_gaps
):
    texts = corpus_texts(rng)
    if damaged:
        damage(rng, texts)
    with tempfile.TemporaryDirectory() as d:
        paths = write(d, texts)
        args = [
            "project", "--model", model, "--filter", filt,
            "--src-trees", paths["src.trees"], "--tgt-trees", paths["tgt.trees"],
            "--src-tok", paths["src.tok"], "--tgt-tok", paths["tgt.tok"],
            "--align", paths["align"], "--src-roles", paths["src.roles"],
            "--out", str(Path(d) / "out.roles"), "--provenance", str(Path(d) / "out.prov"),
        ]
        if oracle:
            args.append("--oracle")
        if fill_gaps and model == "word":
            args.append("--fill-gaps")
        code, err = run_main(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.startswith(("error: ", "i/o error: ")) and err.count("\n") == 1, err
    if not damaged:
        assert code == 0, err


@pytest.mark.parametrize("seed, model", list(enumerate(MODELS, 1)))
def test_run_corpus_output_is_the_same_at_one_and_two_jobs(tmp_path, seed, model):
    # at least two sentences, so that two jobs start a pool of two workers
    corpus = load(write(tmp_path, corpus_texts(random.Random(seed), (4, 8), 12)))
    cfg = PipelineConfig(model=model, filters=DEFAULT_FILTER_FOR_MODEL[model])

    def output(jobs):
        projected = run_corpus(corpus, cfg, jobs=jobs)
        records = [json.dumps(p.to_record(k), sort_keys=True) for k, p in enumerate(projected)]
        return roles_file_text([p.annotation for p in projected]), records

    assert output(2) == output(1)


def all_rows_total(b, cfg):
    """``total`` solved over every source unit, then projected.

    The pipeline keeps only the rows of the role-bearing source units; its
    output must be this reference's, byte for byte.
    """
    view = apply_word_filters(b, cfg.filters, cfg.content_pos_prefixes)
    tgt_pred = target_predicate(b)
    tgt_units, warnings = select_target_units(b, cfg, tgt_pred)
    src_units = range(len(b.src_tree.labels))
    alignment = SemanticAlignment((), 0.0)
    if tgt_units:
        sim = UnitSimilarity(view, b.src_tree, b.tgt_tree).matrix(src_units, tgt_units)
        graph = build_graph(src_units, tgt_units, sim)
        alignment = strip_zero_links(solve(graph, "total"))
    else:
        warnings.append("no target units after filtering; nothing projected")
    role_units = {
        label: resolve_role_units(b.src_tree, spans) for label, spans in b.src_roles.roles
    }
    return project(alignment, b.src_roles, role_units, b.tgt_tree.spans,
                   predicate=tgt_pred, warnings=tuple(warnings))


@settings(deadline=None)
@given(randoms, st.sampled_from(FILTERS))
def test_total_on_the_role_rows_projects_what_the_all_rows_graph_projects(rng, filt):
    with tempfile.TemporaryDirectory() as d:
        corpus = load(write(d, corpus_texts(rng, (1, 4), 12)))
    filters = frozenset() if filt == "none" else frozenset(filt.split(","))
    cfg = PipelineConfig(model="total", filters=filters)
    for k, b in enumerate(corpus):
        got, want = run_pipeline(b, cfg), all_rows_total(b, cfg)
        assert roles_file_text([got.annotation]) == roles_file_text([want.annotation])
        assert got.to_record(k) == want.to_record(k)


@settings(deadline=None)
@given(randoms, st.sampled_from(FILTERS))
def test_every_role_unit_is_a_row_of_the_graph(rng, filt):
    # ``project`` reads a role's links by its source units, so a role unit
    # missing from the rows would leave the role unprojected.
    with tempfile.TemporaryDirectory() as d:
        corpus = load(write(d, corpus_texts(rng, (1, 4), 12)))
    filters = frozenset() if filt == "none" else frozenset(filt.split(","))
    for model in ("perfect", "edgecover", "total"):
        cfg = PipelineConfig(model=model, filters=filters)
        for b in corpus:
            inst = build_instance(b, cfg)
            if inst.graph is None:
                continue
            units = set().union(*inst.role_units.values())
            assert units <= set(inst.graph.src_units)
            if model == "total":
                assert inst.graph.src_units == tuple(sorted(units))


@settings(deadline=None)
@given(randoms, st.sampled_from(("none", "na", "nc", "na,nc")))
def test_every_link_of_a_filtered_view_joins_two_included_tokens(rng, filt):
    # ``project_word_based`` takes all of a role's tokens as its units: an
    # excluded token has no link left to project through.
    with tempfile.TemporaryDirectory() as d:
        corpus = load(write(d, corpus_texts(rng, (1, 4), 12)))
    filters = frozenset() if filt == "none" else frozenset(filt.split(","))
    for b in corpus:
        view = apply_word_filters(b, filters, DEFAULT_CONTENT_PREFIXES)
        for s, t in view.links:
            assert s in view.included_src and t in view.included_tgt


def defined_view(b, filters, prefixes):
    """The word filters token by token, from their definitions.

    A token stays if ``na`` is off or it has a link, and ``nc`` is off or
    its tag starts with a content prefix.  A link stays if ``nc`` is off
    or both its ends stay.  ``nc`` first refuses a token with no tag,
    looking at every source token and then every target token.
    """
    if "nc" in filters:
        for sent in (b.src, b.tgt):
            for surface, tag in zip(sent.surfaces, sent.tags):
                if tag == "":
                    raise ValidationError(f"token {surface!r} has no POS tag")

    def stays(sent, linked):
        return frozenset(
            i for i, tag in enumerate(sent.tags)
            if ("na" not in filters or i in linked)
            and ("nc" not in filters or any(tag.startswith(p) for p in prefixes))
        )

    src = stays(b.src, {s for s, _ in b.links})
    tgt = stays(b.tgt, {t for _, t in b.links})
    links = frozenset(
        (s, t) for s, t in b.links if "nc" not in filters or (s in src and t in tgt)
    )
    return src, tgt, links


def with_untagged_tokens(rng, b):
    """``b`` with the tags of a few random tokens emptied, as only a
    ``Sentence`` built in Python can have them."""
    def blank(sent):
        tags = list(sent.tags)
        for _ in range(rng.randint(0, 2)):
            tags[rng.randrange(len(tags))] = ""
        return Sentence(sent.surfaces, tuple(tags))

    return BiSentence(src=blank(b.src), tgt=blank(b.tgt), links=b.links)


@settings(deadline=None)
@given(randoms, st.sampled_from(("none", "na", "nc", "na,nc")))
def test_word_filters_match_their_definitions(rng, filt):
    with tempfile.TemporaryDirectory() as d:
        corpus = load(write(d, corpus_texts(rng, (1, 4), 12)))
    filters = frozenset() if filt == "none" else frozenset(filt.split(","))
    for b in (*corpus, *(with_untagged_tokens(rng, b) for b in corpus)):
        try:
            want = defined_view(b, filters, DEFAULT_CONTENT_PREFIXES)
        except ValidationError as e:
            with pytest.raises(ValidationError) as got:
                apply_word_filters(b, filters, DEFAULT_CONTENT_PREFIXES)
            assert str(got.value) == str(e)
            continue
        view = apply_word_filters(b, filters, DEFAULT_CONTENT_PREFIXES)
        assert view.bisentence is b
        assert (view.included_src, view.included_tgt, view.links) == want


def per_role_word_loop(view, roles, fill, *, predicate):
    """The word model as a loop of its own: each role's links from its
    tokens in the view, their target tokens, closed to one interval with
    ``fill``, cut into maximal runs."""
    out_roles, provenance = {}, {}
    for label, _ in roles.roles:
        src_tokens = roles.tokens_of(label) & view.included_src
        hit_links = tuple((s, t, 1.0) for s, t in sorted(view.links) if s in src_tokens)
        tokens = sorted({t for _, t, _ in hit_links})
        if not tokens:
            provenance[label] = RoleProvenance()
            continue
        if fill:
            tokens = range(tokens[0], tokens[-1] + 1)
        out_roles[label] = set(maximal_runs(tokens))
        provenance[label] = RoleProvenance(hit_links)
    return ProjectedAnnotation(RoleAnnotation.make(roles.frame, out_roles, predicate), provenance)


@settings(deadline=None)
@given(randoms, st.sampled_from(("none", "na", "nc")), st.booleans())
def test_word_model_projects_what_the_per_role_word_loop_projects(rng, filt, fill):
    with tempfile.TemporaryDirectory() as d:
        corpus = load(write(d, corpus_texts(rng, (1, 4), 12)))
    filters = frozenset() if filt == "none" else frozenset({filt})
    cfg = PipelineConfig(model="word", filters=filters, fill_gaps=fill)
    for k, b in enumerate(corpus):
        view = apply_word_filters(b, cfg.filters, cfg.content_pos_prefixes)
        pred = target_predicate(b)
        got = project_word_based(view, b.src_roles, fill, predicate=pred)
        want = per_role_word_loop(view, b.src_roles, fill, predicate=pred)
        assert got.annotation == want.annotation
        assert got.to_record(k) == want.to_record(k)
        assert run_pipeline(b, cfg).to_record(k) == want.to_record(k)


def definition_roles(b, cfg):
    """Every role output the paper's definitions allow for a constituent
    model, or None when the graph is above the oracle's size guard.

    Every source node is a row; the similarities are the set-based
    Jaccard; the links are an optimum by enumeration (for ``edgecover``,
    each optimal minimal cover); zero-similarity links are dropped, and a
    role is the token union of its linked target units' spans, cut into
    maximal runs.  Each output maps a role label to its sorted spans.
    """
    view = apply_word_filters(b, cfg.filters, cfg.content_pos_prefixes)
    tgt_units, _ = select_target_units(b, cfg, target_predicate(b))
    src_units = range(len(b.src_tree.labels))
    if len(src_units) * len(tgt_units) > MAX_CELLS:
        return None
    kept = {frozenset()}
    sim = reference_matrix(view, b.src_tree, b.tgt_tree, src_units, tgt_units)
    if sim.any():  # else every link is dropped, whichever cover is taken
        graph = build_graph(src_units, tgt_units, sim)
        if cfg.model == "edgecover":  # source indices are unit ids
            link_sets = [
                [(i, tgt_units[j], sim[i, j]) for i, j in cover]
                for cover in enumerate_optimal_covers(graph)
            ]
        else:
            link_sets = [brute_force_optimum(graph, cfg.model).links]
        kept = {frozenset((s, t) for s, t, w in links if w > 0.0) for links in link_sets}
    role_units = {
        label: set(resolve_role_units(b.src_tree, spans)) for label, spans in b.src_roles.roles
    }
    outputs = []
    for links in kept:
        roles = {}
        for label, units in role_units.items():
            tokens = {
                k
                for s, t in links
                if s in units
                for k in range(b.tgt_tree.spans[t][0], b.tgt_tree.spans[t][1] + 1)
            }
            if tokens:
                roles[label] = maximal_runs(tokens)
        outputs.append(roles)
    return outputs


def test_constituent_models_project_what_the_definitions_allow():
    # Glue between the layers, such as the `arg` unit set, the `total`
    # row subset, `strip_zero_links` or the span merge, is checked here
    # against references of its own for each layer.
    counts = Counter()

    @settings(max_examples=100, deadline=None)
    @given(randoms)
    def check(rng):
        with tempfile.TemporaryDirectory() as d:
            corpus = load(write(d, corpus_texts(rng, (1, 3), 4)))
        for model in ("perfect", "edgecover", "total"):
            for filt in FILTERS:
                filters = frozenset() if filt == "none" else frozenset(filt.split(","))
                cfg = PipelineConfig(model=model, filters=filters)
                for b in corpus:
                    allowed = definition_roles(b, cfg)
                    if allowed is None:
                        counts["skipped"] += 1
                        continue
                    got = run_pipeline(b, cfg).annotation.roles
                    assert {label: tuple(sorted(spans)) for label, spans in got} in allowed
                    counts["checked"] += 1

    check()
    assert counts["checked"] >= 1000, counts
