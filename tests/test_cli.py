import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import fixture_set_paths, with_byte_order_mark

from roleproj import cli
from roleproj.cli import main
from roleproj.corpus import DEFAULT_CONTENT_PREFIXES, load_corpus, read_roles_file, roles_file_text
from roleproj.errors import ConfigError
from roleproj.pipeline import PipelineConfig, run_pipeline
from roleproj.projection import argument_filter


def fx(fixture_dir, name):
    return str(fixture_dir / "figure1" / name)


def toy(fixture_dir, name):
    return str(fixture_dir / "toy" / name)


def project_args(fixture_dir, out, model="perfect", extra=()):
    return [
        "project",
        "--model", model,
        "--filter", "none",
        "--src-trees", fx(fixture_dir, "src.trees"),
        "--tgt-trees", fx(fixture_dir, "tgt.trees"),
        "--align", fx(fixture_dir, "align"),
        "--src-roles", fx(fixture_dir, "src.roles"),
        "--out", str(out),
        *extra,
    ]


def test_project_figure1_golden_bytes(fixture_dir, tmp_path):
    out = tmp_path / "out.roles"
    assert main(project_args(fixture_dir, out)) == 0
    expected = (fixture_dir / "figure1" / "expected_perfect.roles").read_bytes()
    assert out.read_bytes() == expected


def test_project_word_fill_golden_bytes(fixture_dir, tmp_path):
    out = tmp_path / "out.roles"
    args = [
        "project", "--model", "word", "--fill-gaps", "--filter", "none",
        "--src-tok", fx(fixture_dir, "src.tok"),
        "--tgt-tok", fx(fixture_dir, "tgt.tok"),
        "--align", fx(fixture_dir, "align"),
        "--src-roles", fx(fixture_dir, "src.roles"),
        "--out", str(out),
    ]
    assert main(args) == 0
    expected = (fixture_dir / "figure1" / "expected_word_fill.roles").read_bytes()
    assert out.read_bytes() == expected


def test_project_without_trees_fails_naming_requirement(fixture_dir, tmp_path, capsys):
    args = [
        "project", "--model", "perfect",
        "--align", fx(fixture_dir, "align"),
        "--src-roles", fx(fixture_dir, "src.roles"),
        "--out", str(tmp_path / "out.roles"),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "trees" in err and "perfect" in err


def test_project_missing_file_is_io_error(fixture_dir, tmp_path):
    args = project_args(fixture_dir, tmp_path / "out.roles")
    args[args.index("--align") + 1] = str(tmp_path / "nope.align")
    assert main(args) == 2


def test_project_unparallel_inputs_fail(fixture_dir, tmp_path):
    args = project_args(fixture_dir, tmp_path / "out.roles")
    args[args.index("--align") + 1] = toy(fixture_dir, "align")
    assert main(args) == 1


def test_project_emits_manifest_with_digests(fixture_dir, tmp_path):
    out = tmp_path / "out.roles"
    assert main(project_args(fixture_dir, out)) == 0
    manifest = json.loads((tmp_path / "out.roles.manifest.json").read_text())
    assert manifest["tool"] == "roleproj"
    assert manifest["config"]["model"] == "perfect"
    assert set(manifest["inputs"]) == {"align", "src_trees", "tgt_trees", "src_roles"}
    for record in manifest["inputs"].values():
        assert len(record["sha256"]) == 64


def test_manifest_hashes_an_input_that_the_output_overwrites(fixture_dir, tmp_path):
    roles = tmp_path / "r.roles"
    original = (fixture_dir / "figure1" / "src.roles").read_bytes()
    roles.write_bytes(original)
    args = project_args(fixture_dir, roles)
    args[args.index("--src-roles") + 1] = str(roles)
    assert main(args) == 0
    assert roles.read_bytes() != original
    manifest = json.loads((tmp_path / "r.roles.manifest.json").read_text())
    assert manifest["inputs"]["src_roles"]["sha256"] == hashlib.sha256(original).hexdigest()


@pytest.mark.parametrize("provenance", ["out.roles", "out.roles.manifest.json"])
def test_outputs_that_name_one_file_are_an_error_before_any_write(
    fixture_dir, tmp_path, capsys, provenance
):
    # The later write would destroy the earlier output; the second path
    # reaches the same file through a subdirectory's parent.
    run = tmp_path / "run"
    (run / "d").mkdir(parents=True)
    (run / provenance).write_text("kept\n")
    args = project_args(fixture_dir, run / "out.roles", extra=[
        "--provenance", str(run / "d" / ".." / provenance)])
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert (run / provenance).read_text() == "kept\n"
    assert sorted(p.name for p in run.iterdir()) == sorted(["d", provenance])


def test_an_output_in_a_missing_directory_is_an_io_error_before_any_write(
    fixture_dir, tmp_path, capsys
):
    # --out is writable, --provenance is not: --out must not be left
    # written without its manifest.
    (tmp_path / "o2").mkdir()
    out, provenance = tmp_path / "o2" / "x.roles", tmp_path / "nodir" / "p.jsonl"
    args = project_args(fixture_dir, out, extra=["--provenance", str(provenance)])
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"i/o error: [Errno 2] No such file or directory: '{provenance}'\n")
    assert list((tmp_path / "o2").iterdir()) == []


@pytest.fixture
def no_projection(monkeypatch):
    def run_corpus(*args, **kwargs):
        pytest.fail("the projection ran before the output was checked")

    monkeypatch.setattr(cli, "run_corpus", run_corpus)


@pytest.mark.parametrize("parent, message", [
    ("nodir2", "[Errno 2] No such file or directory"),
    ("afile", "[Errno 20] Not a directory"),
])
def test_an_out_whose_directory_is_missing_fails_before_the_projection(
    fixture_dir, tmp_path, capsys, no_projection, parent, message
):
    (tmp_path / "afile").write_text("kept\n")
    out = tmp_path / parent / "x.roles"
    assert main(project_args(fixture_dir, out)) == 2
    assert capsys.readouterr().err == f"i/o error: {message}: '{out}'\n"
    assert (tmp_path / "afile").read_text() == "kept\n" and not (tmp_path / "nodir2").exists()


def test_an_out_that_is_a_directory_is_an_io_error_before_the_projection(
    fixture_dir, tmp_path, capsys, no_projection
):
    out = tmp_path / "o2"
    out.mkdir()
    assert main(project_args(fixture_dir, out)) == 2
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{out}'\n"
    assert list(out.iterdir()) == [] and not (tmp_path / "o2.manifest.json").exists()


def report_inputs(fixture_dir, command):
    gold, pred = toy(fixture_dir, "tgt.roles"), toy(fixture_dir, "pred.roles")
    return {
        "evaluate": ["--gold", gold, "--pred", pred],
        "sigtest": ["--gold", gold, "--pred-a", pred, "--pred-b", gold, "--iterations", "10"],
        "stats": ["--src-trees", toy(fixture_dir, "src.trees"), "--tgt-trees",
                  toy(fixture_dir, "tgt.trees"), "--align", toy(fixture_dir, "align")],
    }[command]


@pytest.mark.parametrize("command", ["evaluate", "sigtest", "stats"])
def test_a_report_out_in_a_missing_directory_fails_before_any_report(
    fixture_dir, tmp_path, capsys, command
):
    out = tmp_path / "nodir" / "e.tsv"
    assert main([command, *report_inputs(fixture_dir, command), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"


@pytest.mark.parametrize("case", [
    "project --out", "project --provenance", "evaluate", "sigtest", "stats", "fixtures",
])
def test_an_empty_output_path_is_an_io_error_before_any_input_is_read(
    fixture_dir, tmp_path, monkeypatch, capsys, no_projection, case
):
    # The error open('') raises, before the projection, any report or any fixture file.
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    if case == "project --out":
        args = project_args(fixture_dir, "")
    elif case == "project --provenance":
        args = project_args(fixture_dir, run / "x.roles", extra=["--provenance", ""])
    elif case == "fixtures":
        args = ["fixtures", "--out-dir", ""]
    else:
        args = [case, *report_inputs(fixture_dir, case), "--out", ""]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "i/o error: [Errno 2] No such file or directory: ''\n"
    assert list(run.iterdir()) == []


def toy_oracle_args(fixture_dir, out, model):
    return [
        "project", "--model", model, "--filter", "arg", "--oracle",
        "--src-trees", toy(fixture_dir, "src.trees"),
        "--tgt-trees", toy(fixture_dir, "tgt.trees"),
        "--align", toy(fixture_dir, "align"),
        "--src-roles", toy(fixture_dir, "src.roles"),
        "--out", str(out),
    ]


def test_project_oracle_flag_passes_on_toy_corpus(fixture_dir, tmp_path, capsys):
    assert main(toy_oracle_args(fixture_dir, tmp_path / "out.roles", "edgecover")) == 0
    assert "oracle check passed" in capsys.readouterr().out


@pytest.mark.parametrize("model", ["perfect", "total"])
def test_oracle_flag_passes_the_other_models_on_toy_corpus(fixture_dir, tmp_path, capsys, model):
    # Sentence 3's 11x3 graph is above the oracle's size guard; total's
    # graph there has only the rows of the role-bearing source units.
    checked = {"perfect": 4, "total": 5}[model]
    assert main(toy_oracle_args(fixture_dir, tmp_path / "out.roles", model)) == 0
    assert f"oracle check passed on {checked} sentence(s)" in capsys.readouterr().out


@pytest.mark.parametrize("model", ["perfect", "edgecover", "total"])
def test_oracle_flag_fails_on_links_other_than_the_oracles(
    fixture_dir, tmp_path, capsys, monkeypatch, model
):
    # The cost is the optimum's, so only the link-set check can catch it.
    # _oracle_check imports matcher.solve when it runs; the pipeline binds
    # its own solve first, so the projection after the check is unpatched.
    import roleproj.matcher as matcher
    import roleproj.pipeline as pipeline

    solve = pipeline.solve

    def one_link_short(graph, constraint_class):
        got = solve(graph, constraint_class)
        return dataclasses.replace(got, links=got.links[1:])

    monkeypatch.setattr(matcher, "solve", one_link_short)
    assert main(toy_oracle_args(fixture_dir, tmp_path / "out.roles", model)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sentence 0 ({model}): solver links ")
    assert "Traceback" not in err


def test_oracle_edge_cover_check_is_fast_on_an_unaligned_pair(tmp_path, capsys):
    # A 2x15 graph of zero similarities: every cover ties, so enumerating
    # the optimal covers took about 18 s.
    (tmp_path / "src.trees").write_text("(S (NN a))\n")
    (tmp_path / "tgt.trees").write_text(
        "(S (NP (DT b) (NN c)) (VP (VB d) (NP (DT e) (NN f))) "
        "(PP (IN g) (NN h)) (ADVP (RB i)) (RB k))\n"
    )
    (tmp_path / "x.align").write_text("\n")
    (tmp_path / "src.roles").write_text("#0 F 0\nA0\t0-0\n")
    args = [
        "project", "--model", "edgecover", "--filter", "none", "--oracle",
        "--src-trees", str(tmp_path / "src.trees"),
        "--tgt-trees", str(tmp_path / "tgt.trees"),
        "--align", str(tmp_path / "x.align"),
        "--src-roles", str(tmp_path / "src.roles"),
        "--out", str(tmp_path / "out.roles"),
    ]
    start = time.perf_counter()
    assert main(args) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == (
        "oracle check passed on 1 sentence(s); 0 graph(s) above 30 cells not checked\n"
    )


@pytest.mark.parametrize("model", ["perfect", "edgecover", "total"])
def test_an_unaligned_predicate_turns_the_argument_filter_off(
    tmp_path, capsys, monkeypatch, model
):
    # Source predicate b has no alignment link, so `arg` is skipped: the
    # graph spans all 5 target nodes, against every source node (25 cells)
    # or, under total, the role unit's row alone, and the oracle checks it.
    import roleproj.pipeline as pipeline

    inputs = {
        "src.trees": "(S (NP (NN a)) (VP (VB b)))\n",
        "tgt.trees": "(S (NP (NN x)) (VP (VB y)))\n",
        "align": "0-0\n",
        "src.roles": "#0 F 1\nA0\t0-0\n",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    build_graph, graphs = pipeline.build_graph, []

    def recording(src_units, tgt_units, sim):
        graphs.append((tuple(tgt_units), sim.size))
        return build_graph(src_units, tgt_units, sim)

    monkeypatch.setattr(pipeline, "build_graph", recording)
    out = tmp_path / "out.roles"
    args = ["project", "--model", model, "--filter", "arg", "--oracle", "--out", str(out)]
    for name in inputs:
        args += [f"--{name.replace('.', '-')}", str(tmp_path / name)]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        "oracle check passed on 1 sentence(s); 0 graph(s) above 30 cells not checked\n"
    )
    # The oracle's graph, then the pipeline's.
    cells = 5 if model == "total" else 25
    assert graphs == [((0, 1, 2, 3, 4), cells)] * 2
    manifest = json.loads((tmp_path / "out.roles.manifest.json").read_text())
    assert manifest["warnings"] == [
        {"sentence": 0, "warnings": ["predicate unaligned; argument filter skipped"]}
    ]
    assert out.read_text().splitlines()[0] == "#0 F -1"


@pytest.mark.parametrize("model", ["perfect", "edgecover"])
def test_oracle_summary_counts_the_graphs_above_the_guard_unsolved(
    fixture_dir, tmp_path, capsys, monkeypatch, model
):
    # Figure 1 under --filter none is one graph above 30 cells.
    import roleproj.matcher as matcher
    import roleproj.pipeline as pipeline

    pipeline.solve  # binds the pipeline's solve before _oracle_check's is patched

    def never(graph, constraint_class):
        raise AssertionError("solved a graph the oracle cannot check")

    monkeypatch.setattr(matcher, "solve", never)
    assert main(project_args(fixture_dir, tmp_path / "out.roles", model, ["--oracle"])) == 0
    assert capsys.readouterr().out == (
        "oracle check passed on 0 sentence(s); 1 graph(s) above 30 cells not checked\n"
    )


def test_oracle_checks_figure1_under_total_on_the_role_rows_only(fixture_dir, tmp_path, capsys):
    # Figure 1 under --filter none is above 30 cells with every source
    # unit, but total's rows are only the role-bearing ones.
    assert main(project_args(fixture_dir, tmp_path / "out.roles", "total", ["--oracle"])) == 0
    assert capsys.readouterr().out == (
        "oracle check passed on 1 sentence(s); 0 graph(s) above 30 cells not checked\n"
    )


def test_oracle_with_the_word_model_says_there_is_nothing_to_check(
    fixture_dir, tmp_path, capsys
):
    assert main(toy_oracle_args(fixture_dir, tmp_path / "out.roles", "word")) == 0
    assert capsys.readouterr().out == (
        "oracle check skipped: the word model builds no graph to check\n"
    )


def test_oracle_checks_the_graphs_the_pipeline_solves(toy_corpus, monkeypatch):
    import roleproj.cli as cli
    import roleproj.pipeline as pipeline

    build_graph, units = pipeline.build_graph, []

    def recording(src_units, tgt_units, sim):
        units.append((tuple(src_units), tuple(tgt_units)))
        return build_graph(src_units, tgt_units, sim)

    monkeypatch.setattr(pipeline, "build_graph", recording)
    cfg = pipeline.PipelineConfig(model="edgecover", filters=frozenset({"arg"}))
    cli._oracle_check(toy_corpus, cfg)
    oracle_units = units.copy()
    units.clear()
    pipeline.run_corpus(toy_corpus, cfg)
    assert units and oracle_units == units


def test_default_filter_pairing(fixture_dir, tmp_path):
    out = tmp_path / "out.roles"
    args = [
        "project", "--model", "perfect",
        "--src-trees", toy(fixture_dir, "src.trees"),
        "--tgt-trees", toy(fixture_dir, "tgt.trees"),
        "--align", toy(fixture_dir, "align"),
        "--src-roles", toy(fixture_dir, "src.roles"),
        "--out", str(out),
    ]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "out.roles.manifest.json").read_text())
    assert manifest["config"]["filters"] == ["na"]


def test_config_file_overridden_by_flags(fixture_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=total\nfilter=nc\n")
    out = tmp_path / "out.roles"
    args = project_args(fixture_dir, out, extra=["--config", str(cfg)])
    assert main(args) == 0
    manifest = json.loads((tmp_path / "out.roles.manifest.json").read_text())
    # flags win over the file
    assert manifest["config"]["model"] == "perfect"
    assert manifest["config"]["filters"] == []


def test_config_file_rejects_unknown_keys(fixture_dir, tmp_path, capsys):
    # the weight cap is a constant, so big is no key, even at the cap's value
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out.roles"
    for entry in ("bogus=1", "big=1000000"):
        cfg.write_text(entry + "\n")
        assert main(project_args(fixture_dir, out, extra=["--config", str(cfg)])) == 1
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown config entry {entry!r}\n"
        assert not out.exists()


def test_a_config_file_with_a_byte_order_mark_is_read_as_its_entries(fixture_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=total\n", encoding="utf-8")
    with_byte_order_mark(cfg)
    out = tmp_path / "out.roles"
    args = without_flag(project_args(fixture_dir, out), "--model") + ["--config", str(cfg)]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "out.roles.manifest.json").read_text())
    assert manifest["config"]["model"] == "total"


def test_inputs_with_a_byte_order_mark_project_alike_and_hash_as_their_bytes(
    fixture_dir, tmp_path
):
    for name in ("src.trees", "tgt.trees", "align", "src.roles"):
        with_byte_order_mark(fixture_dir / "figure1" / name)
    out = tmp_path / "out.roles"
    assert main(project_args(fixture_dir, out)) == 0
    expected = (fixture_dir / "figure1" / "expected_perfect.roles").read_bytes()
    assert out.read_bytes() == expected
    manifest = json.loads((tmp_path / "out.roles.manifest.json").read_text())
    assert len(manifest["inputs"]) == 4
    for entry in manifest["inputs"].values():
        raw = Path(entry["path"]).read_bytes()
        assert raw.startswith(b"\xef\xbb\xbf")
        assert entry["sha256"] == hashlib.sha256(raw).hexdigest()


def test_evaluate_reads_a_roles_file_with_a_byte_order_mark(fixture_dir, capsys):
    with_byte_order_mark(fixture_dir / "toy" / "pred.roles")
    args = ["evaluate", "--gold", toy(fixture_dir, "pred.roles"),
            "--pred", toy(fixture_dir, "pred.roles")]
    assert main(args) == 0
    assert "F1 = 1.000" in capsys.readouterr().out


def without_flag(args, flag):
    k = args.index(flag)
    return args[:k] + args[k + 2:]


@pytest.mark.parametrize(
    "entry, names",
    [
        ("model=bogus", "unknown model 'bogus'"),
        ("model=", "unknown model ''"),
        ("fill_gaps=", "got ''"),
    ],
    ids=["model=bogus", "model=", "fill_gaps="],
)
def test_bad_config_value_is_an_error_line(fixture_dir, tmp_path, capsys, entry, names):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    args = project_args(fixture_dir, tmp_path / "out.roles", extra=["--config", str(cfg)])
    args = without_flag(without_flag(args, "--model"), "--filter")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and "Traceback" not in err


def test_misspelt_fill_gaps_config_value_is_an_error_line(fixture_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=word\nfill_gaps=ture\n")
    out = tmp_path / "out.roles"
    args = project_args(fixture_dir, out, extra=["--config", str(cfg)])
    args = without_flag(without_flag(args, "--model"), "--filter")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'ture'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("TRUE", True), ("yes", True), ("0", False), ("False", False), ("no", False)],
)
def test_fill_gaps_config_values(fixture_dir, tmp_path, value, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"fill_gaps={value}\n")
    out = tmp_path / "out.roles"
    assert main(project_args(fixture_dir, out, model="word", extra=["--config", str(cfg)])) == 0
    manifest = json.loads((tmp_path / "out.roles.manifest.json").read_text())
    assert manifest["config"]["fill_gaps"] is expected


def test_no_config_file_and_no_flag_give_the_default_model_and_its_filter(fixture_dir):
    args = cli.build_parser("project").parse_args(
        ["project", "--align", fx(fixture_dir, "align"), "--out", "out.roles"])
    assert cli._settings(args) == {}
    default = PipelineConfig(model="perfect", filters=frozenset({"na"}))
    assert PipelineConfig.from_settings({}) == default


@pytest.mark.parametrize("filters", ["none", "na", "nc", "arg", "na,nc", "arg,na", "nc,na,"])
def test_filter_flag_and_filter_entry_give_equal_configs(fixture_dir, tmp_path, filters):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"filter={filters}\n")
    manifests = []
    for extra in (["--filter", filters], ["--config", str(cfg)]):
        out = tmp_path / f"{extra[0][2:]}.roles"
        assert main(without_flag(project_args(fixture_dir, out), "--filter") + extra) == 0
        manifests.append((tmp_path / f"{out.name}.manifest.json").read_text())
    expected = frozenset() if filters == "none" else frozenset(filters.split(",")) - {""}
    assert json.loads(manifests[0])["config"]["filters"] == sorted(expected)
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("source", ["flag", "entry"])
def test_an_unknown_filter_is_an_error_line_from_either_source(fixture_dir, tmp_path, capsys,
                                                                source):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("filter=na,bogus\n")
    extra = ["--filter", "na,bogus"] if source == "flag" else ["--config", str(cfg)]
    out = tmp_path / "out.roles"
    args = without_flag(project_args(fixture_dir, out), "--filter") + extra
    assert main(args) == 1
    assert capsys.readouterr().err == "error: unknown filters: ['bogus']\n"
    assert not out.exists()


# Three nested clauses; the predicate is "ran", token 5.
NESTED_CLAUSES = (
    "(S (NP (NN anna)) (VP (VBD thought) (S (NP (NN mary)) (VP (VBD said) "
    "(S (NP (NN kim)) (VP (VBD ran) (ADVP (RB fast))))))))"
)


def test_clause_boundary_labels_entry_narrows_the_argument_filter(tmp_path):
    (tmp_path / "trees").write_text(NESTED_CLAUSES + "\n")
    (tmp_path / "align").write_text(" ".join(f"{i}-{i}" for i in range(7)) + "\n")
    (tmp_path / "roles").write_text("#0 RUN 5\nA0\t4-4\nA1\t0-0\nAM-MNR\t6-6\n")
    trees, align, roles = (str(tmp_path / name) for name in ("trees", "align", "roles"))
    (b,) = load_corpus(src_trees_path=trees, tgt_trees_path=trees, align_path=align,
                       src_roles_path=roles)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clause_boundary_labels=S\n")
    base = ["project", "--model", "total", "--filter", "arg", "--src-trees", trees,
            "--tgt-trees", trees, "--align", align, "--src-roles", roles]
    runs = {}
    for labels, extra in ((frozenset(), []), (frozenset({"S"}), ["--config", str(cfg)])):
        out = tmp_path / f"{len(labels)}.roles"
        assert main([*base, "--out", str(out), "--provenance", f"{out}.jsonl", *extra]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["clause_boundary_labels"] == sorted(labels)
        config = PipelineConfig(model="total", filters=frozenset({"arg"}),
                                clause_boundary_labels=labels)
        assert out.read_text() == roles_file_text([run_pipeline(b, config).annotation])
        (record,) = map(json.loads, Path(f"{out}.jsonl").read_text().splitlines())
        linked = {t for role in record["roles"].values() for _, t, _ in role["links"]}
        assert linked <= set(argument_filter(b.tgt_tree, 5, labels))
        runs[labels] = read_roles_file(out)[0]
    # Only the boundary keeps "anna", outside the clause above "ran", from A1.
    assert runs[frozenset()].spans_of("A1") == {(0, 0)}
    assert [label for label, _ in runs[frozenset({"S"})].roles] == ["A0", "AM-MNR"]


def test_content_pos_prefixes_entry_sets_the_nc_filter(fixture_dir, tmp_path):
    corpus = load_corpus(**fixture_set_paths(fixture_dir / "toy"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("content_pos_prefixes=NN\n")
    outputs = []
    for prefixes, extra in ((sorted(DEFAULT_CONTENT_PREFIXES), []),
                            (["NN"], ["--config", str(cfg)])):
        out = tmp_path / f"{len(prefixes)}.roles"
        args = ["project", "--model", "perfect", "--filter", "nc", "--out", str(out),
                "--src-trees", toy(fixture_dir, "src.trees"),
                "--tgt-trees", toy(fixture_dir, "tgt.trees"),
                "--align", toy(fixture_dir, "align"),
                "--src-roles", toy(fixture_dir, "src.roles"), *extra]
        assert main(args) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["content_pos_prefixes"] == prefixes
        config = PipelineConfig(model="perfect", filters=frozenset({"nc"}),
                                content_pos_prefixes=frozenset(prefixes))
        expected = roles_file_text([run_pipeline(b, config).annotation for b in corpus])
        assert out.read_text() == expected
        outputs.append(expected)
    assert outputs[0] != outputs[1], "the prefixes must change the toy projection"


def test_pipeline_config_from_settings_rejects_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown settings: \\['filters'\\]"):
        PipelineConfig.from_settings({"filters": "na"})


def test_big_is_no_setting_and_the_manifest_still_records_the_cap():
    with pytest.raises(ConfigError, match="unknown settings: \\['big'\\]"):
        PipelineConfig.from_settings({"big": "1000000"})
    assert PipelineConfig().to_dict()["big"] == 1e6


@pytest.mark.parametrize("flag", ["--align", "--src-trees"])
def test_undecodable_input_is_an_error_line_naming_the_file(fixture_dir, tmp_path, capsys, flag):
    args = project_args(fixture_dir, tmp_path / "out.roles")
    k = args.index(flag) + 1
    bad = tmp_path / "bad.txt"
    bad.write_bytes(Path(args[k]).read_bytes().replace(b"\n", b"\xff\n", 1))
    args[k] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


def test_evaluate_identical_files(fixture_dir, capsys):
    args = [
        "evaluate",
        "--gold", toy(fixture_dir, "tgt.roles"),
        "--pred", toy(fixture_dir, "tgt.roles"),
    ]
    assert main(args) == 0
    assert "F1 = 1.000" in capsys.readouterr().out


def test_evaluate_writes_tsv(fixture_dir, tmp_path):
    report = tmp_path / "report.tsv"
    args = [
        "evaluate",
        "--gold", toy(fixture_dir, "tgt.roles"),
        "--pred", toy(fixture_dir, "pred.roles"),
        "--out", str(report),
    ]
    assert main(args) == 0
    assert report.read_text().startswith("sentence\ttp\tfp\tfn")


def test_evaluate_unparallel_files(fixture_dir, tmp_path):
    short = tmp_path / "short.roles"
    short.write_text("#0 F 0\n")
    args = ["evaluate", "--gold", toy(fixture_dir, "tgt.roles"), "--pred", str(short)]
    assert main(args) == 1


def test_sigtest_self_comparison(fixture_dir, capsys):
    args = [
        "sigtest",
        "--gold", toy(fixture_dir, "tgt.roles"),
        "--pred-a", toy(fixture_dir, "pred.roles"),
        "--pred-b", toy(fixture_dir, "pred.roles"),
        "--iterations", "100", "--seed", "4",
    ]
    assert main(args) == 0
    assert "p = 1.000000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, expected",
    [(["evaluate"], "P = 0.667  R = 0.667  F1 = 0.667  (tp=2 fp=1 fn=1)\n"),
     (["sigtest", "--iterations", "100"], "observed delta F1 = -0.333333\n")],
    ids=["evaluate", "sigtest"],
)
def test_scoring_cost_does_not_grow_with_span_length(tmp_path, capsys, command, expected):
    # Scoring a billion-token span token by token would need tens of GB.
    gold, pred = tmp_path / "gold.roles", tmp_path / "pred.roles"
    gold.write_text("#0 F 0\nA\t0-999999999\nB\t3-4\n\n#1 G 2\nA\t5-9,11-999999999\n")
    pred.write_text("#0 F 0\nA\t0-999999999\nB\t3-3,4-4\n\n#1 G 2\nA\t5-9,10-999999999\n")
    files = (["--gold", str(gold), "--pred", str(pred)] if command[0] == "evaluate" else
             ["--gold", str(gold), "--pred-a", str(pred), "--pred-b", str(gold)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(command + files)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.startswith(expected)
    assert seconds < 2.0
    assert peak < 10 * 2**20


def test_sigtest_negative_seed_is_an_error_line(fixture_dir, capsys):
    args = [
        "sigtest",
        "--gold", toy(fixture_dir, "tgt.roles"),
        "--pred-a", toy(fixture_dir, "pred.roles"),
        "--pred-b", toy(fixture_dir, "pred.roles"),
        "--iterations", "10", "--seed", "-1",
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"


def test_stats_proportions_sum_to_one(fixture_dir, tmp_path):
    out = tmp_path / "stats.tsv"
    args = [
        "stats",
        "--src-trees", toy(fixture_dir, "src.trees"),
        "--tgt-trees", toy(fixture_dir, "tgt.trees"),
        "--align", toy(fixture_dir, "align"),
        "--out", str(out),
    ]
    assert main(args) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    for side in ("source", "target"):
        total = sum(float(r[2]) for r in rows if r[0] == side and r[1] in ("none", "one", "many"))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_stats_threshold_nan_is_an_error_line(fixture_dir, capsys):
    args = [
        "stats",
        "--src-trees", toy(fixture_dir, "src.trees"),
        "--tgt-trees", toy(fixture_dir, "tgt.trees"),
        "--align", toy(fixture_dir, "align"),
        "--threshold", "nan",
    ]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: threshold must be a number, got nan\n"
    assert captured.out == ""


def test_stats_output_is_pinned_on_the_toy_fixture(fixture_dir, tmp_path):
    out = tmp_path / "stats.tsv"
    args = [
        "stats",
        "--src-trees", toy(fixture_dir, "src.trees"),
        "--tgt-trees", toy(fixture_dir, "tgt.trees"),
        "--align", toy(fixture_dir, "align"),
        "--out", str(out),
    ]
    assert main(args) == 0
    assert out.read_bytes() == (
        b"threshold\t0.5\n"
        b"source\tnone\t0.088889\n"
        b"source\tone\t0.422222\n"
        b"source\tmany\t0.488889\n"
        b"source\tconstituents\t45\n"
        b"target\tnone\t0.078947\n"
        b"target\tone\t0.289474\n"
        b"target\tmany\t0.631579\n"
        b"target\tconstituents\t38\n"
    )


def test_fixtures_subcommand_writes_files(tmp_path, capsys):
    assert main(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert any(p.endswith("src.roles") for p in listed)
    assert (tmp_path / "fx" / "figure1" / "align").exists()
    assert (tmp_path / "fx" / "toy" / "tgt.trees").exists()


def test_projection_output_parses_back(fixture_dir, tmp_path):
    out = tmp_path / "out.roles"
    args = [
        "project", "--model", "total", "--filter", "na",
        "--src-trees", toy(fixture_dir, "src.trees"),
        "--tgt-trees", toy(fixture_dir, "tgt.trees"),
        "--align", toy(fixture_dir, "align"),
        "--src-roles", toy(fixture_dir, "src.roles"),
        "--out", str(out),
        "--provenance", str(tmp_path / "prov.jsonl"),
    ]
    assert main(args) == 0
    anns = read_roles_file(out)
    assert len(anns) == 5
    records = [json.loads(line) for line in (tmp_path / "prov.jsonl").read_text().splitlines()]
    assert [r["sentence"] for r in records] == [0, 1, 2, 3, 4]
    assert all("roles" in r for r in records)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("model", ["word", "perfect", "edgecover", "total"])
def test_provenance_sidecar_bytes_are_pinned_on_the_toy_fixture(fixture_dir, tmp_path, model):
    prov = tmp_path / "prov.jsonl"
    args = [
        "project", "--model", model,
        "--src-trees", toy(fixture_dir, "src.trees"),
        "--tgt-trees", toy(fixture_dir, "tgt.trees"),
        "--align", toy(fixture_dir, "align"),
        "--src-roles", toy(fixture_dir, "src.roles"),
        "--out", str(tmp_path / "out.roles"),
        "--provenance", str(prov),
    ]
    assert main(args) == 0
    assert prov.read_bytes() == (GOLDEN / f"toy_{model}.prov.jsonl").read_bytes()


@pytest.mark.parametrize(
    "name, inputs",
    [("toy", ("src-trees", "tgt-trees", "align", "src-roles")),
     ("figure1", ("src-trees", "src-tok", "tgt-trees", "tgt-tok", "align", "src-roles"))],
)
def test_manifest_and_provenance_bytes_are_pinned_with_relative_inputs(
    fixture_dir, monkeypatch, name, inputs
):
    # Relative paths, so the manifest's input records are the same on every machine.
    monkeypatch.chdir(fixture_dir)
    args = ["project", "--model", "perfect", "--out", "run.roles", "--provenance", "run.prov"]
    for flag in inputs:
        args += [f"--{flag}", f"{name}/{flag.replace('-', '.')}"]
    assert main(args) == 0
    assert (fixture_dir / "run.roles.manifest.json").read_bytes() == (
        GOLDEN / f"{name}_perfect.manifest.json").read_bytes()
    assert (fixture_dir / "run.prov").read_bytes() == (
        GOLDEN / f"{name}_perfect.prov.jsonl").read_bytes()


REPORTS = {
    "evaluate": ["--gold", "toy/tgt.roles", "--pred", "toy/pred.roles"],
    "sigtest": ["--gold", "toy/tgt.roles", "--pred-a", "toy/pred.roles",
                "--pred-b", "toy/tgt.roles", "--iterations", "2000", "--seed", "3"],
    "stats": ["--src-trees", "toy/src.trees", "--tgt-trees", "toy/tgt.trees",
              "--align", "toy/align"],
}


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_report_bytes_are_pinned_on_the_toy_fixture(fixture_dir, monkeypatch, capsys, command):
    monkeypatch.chdir(fixture_dir)
    assert main([command, *REPORTS[command], "--out", "report.tsv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"toy_{command}.stdout").read_text()
    assert (fixture_dir / "report.tsv").read_bytes() == (
        GOLDEN / f"toy_{command}.tsv").read_bytes()


def test_project_on_a_5000_deep_tree_exits_cleanly(tmp_path, capsys):
    depth = 5000
    (tmp_path / "src.trees").write_text("(S " * depth + "(NN a)" + ")" * depth + "\n")
    (tmp_path / "tgt.trees").write_text("(S (NN b))\n")
    (tmp_path / "align").write_text("0-0\n")
    (tmp_path / "src.roles").write_text("#0 f 0\nA0\t0-0\n")
    out = tmp_path / "out.roles"
    args = [
        "project", "--model", "total", "--filter", "none",
        "--src-trees", str(tmp_path / "src.trees"),
        "--tgt-trees", str(tmp_path / "tgt.trees"),
        "--align", str(tmp_path / "align"),
        "--src-roles", str(tmp_path / "src.roles"),
        "--out", str(out),
    ]
    assert main(args) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_text() == "#0 f 0\nA0\t0-0\n"


def two_sentence_inputs(tmp_path, *, src_trees="(S (NN a))\n(S (NN b))\n",
                        align="0-0\n0-0\n", roles="#0 f 0\nA0\t0-0\n\n#1 f 0\nA0\t0-0\n"):
    """A two-sentence corpus with the tok files given too; returns project args."""
    files = {
        "src.trees": src_trees,
        "src.tok": "a_NN\nb_NN\n",
        "tgt.trees": "(S (NN x))\n(S (NN y))\n",
        "align": align,
        "src.roles": roles,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [
        "project", "--model", "perfect",
        "--src-trees", str(tmp_path / "src.trees"),
        "--src-tok", str(tmp_path / "src.tok"),
        "--tgt-trees", str(tmp_path / "tgt.trees"),
        "--align", str(tmp_path / "align"),
        "--src-roles", str(tmp_path / "src.roles"),
        "--out", str(tmp_path / "out.roles"),
    ]


def test_malformed_alignment_line_names_file_and_line(tmp_path, capsys):
    args = two_sentence_inputs(tmp_path, align="0-0\n1:1\n")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'align'}:2: malformed alignment pair '1:1'\n"
    # a link past the one-token target sentence; parse_alignment is its only check
    args = two_sentence_inputs(tmp_path, align="0-0\n0-1\n")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'align'}:2: alignment link 0-1 out of range for lengths 1/1\n"


def test_alignment_number_past_the_int_digit_limit_is_an_error_line(tmp_path, capsys):
    pair = "0-" + "0" * 5000
    args = two_sentence_inputs(tmp_path, align=f"0-0\n{pair}\n")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'align'}:2: malformed alignment pair {pair!r}\n"


def test_bad_roles_block_names_file_and_block(tmp_path, capsys):
    args = two_sentence_inputs(tmp_path, roles="#0 f 0\nA0\t0-0\n\n#1 f 0\nA0\t0-x\n")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {tmp_path / 'src.roles'}: block 1: "
        "bad span '0-x' in role line 'A0\\t0-x'\n"
    )


def test_role_past_the_sentence_names_the_sentence(tmp_path, capsys):
    args = two_sentence_inputs(tmp_path, roles="#0 f 0\nA0\t0-0\n\n#1 f 0\nA0\t0-3\n")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: sentence 1: source role annotation index out of range\n"


@pytest.mark.parametrize("extra", [["--jobs", "1"], ["--jobs", "2"], ["--oracle"]],
                         ids=["1", "2", "oracle"])
def test_pipeline_error_names_sentence_and_model(tmp_path, capsys, extra):
    # --oracle meets the sentence first, and prints no summary before failing
    args = two_sentence_inputs(tmp_path, src_trees="(S (NN a))\n-\n")
    assert main(args + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sentence 1 (perfect): model 'perfect' requires src tree\n")


@pytest.mark.parametrize("predicate", ["-7", "-2"])
def test_predicate_index_below_minus_one_is_an_error_line_naming_the_block(
    fixture_dir, tmp_path, capsys, predicate
):
    # -1 is the one index that means "unknown"; a lower one was written out as -1.
    roles = tmp_path / "src.roles"
    roles.write_text(f"#0 COMMITMENT {predicate}\nMESSAGE\t2-5\nSPEAKER\t0-0\n")
    args = project_args(fixture_dir, tmp_path / "out.roles")
    args[args.index("--src-roles") + 1] = str(roles)
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {roles}: block 0: bad predicate index {predicate} in frame COMMITMENT\n"
    )
    assert not (tmp_path / "out.roles").exists()
    roles.write_text("#0 COMMITMENT -1\nMESSAGE\t2-5\nSPEAKER\t0-0\n")
    assert main(args) == 0
    assert (tmp_path / "out.roles").read_text().startswith("#0 COMMITMENT -1\n")


@pytest.mark.parametrize(
    "line, token",
    [
        *(pytest.param(f"Kim_NNP{space}promised_VBD to_TO be_VB on_IN time_NN",
                       f"Kim_NNP{space}promised_VBD", id=space)
          for space in ["\t", "\x0b", "\xa0", "\u3000"]),
        pytest.param("Kim_NNP promised_VBD to_TO be_VB on_IN time_NN\xa0", "time_NN\xa0",
                     id="trailing-no-break-space"),
        pytest.param("\u2028Kim_NNP promised_VBD to_TO be_VB on_IN time_NN", "\u2028Kim_NNP",
                     id="leading-line-separator"),
        pytest.param("Kim_NNP\x0b promised_VBD to_TO be_VB on_IN time_NN", "Kim_NNP\x0b",
                     id="trailing-vertical-tab"),
    ],
)
def test_tok_token_holding_whitespace_is_an_error_line_naming_the_tok_line(
    fixture_dir, tmp_path, capsys, line, token
):
    # Read as one token, the line was one token short, and the error then
    # blamed an alignment link for being out of range.  Whitespace at either
    # end of a token went into its surface or its tag.
    tok = tmp_path / "src.tok"
    tok.write_text(f"{line}\n", encoding="utf-8")
    args = [
        "project", "--model", "word",
        "--src-tok", str(tok),
        "--tgt-tok", fx(fixture_dir, "tgt.tok"),
        "--align", fx(fixture_dir, "align"),
        "--src-roles", fx(fixture_dir, "src.roles"),
        "--out", str(tmp_path / "out.roles"),
    ]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {tok}:1: token {token!r} contains whitespace\n"


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_project_jobs_below_one_is_an_error_line(fixture_dir, tmp_path, capsys, jobs):
    out = tmp_path / "out.roles"
    assert main(project_args(fixture_dir, out, extra=["--jobs", jobs])) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert captured.out == ""
    assert not out.exists()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs, sentences, cpus, workers",
    [(5000, 2, 8, 2), (5000, 5, 3, 3), (3, 5, 8, 3), (5000, 5, None, None),
     (2, 1, 8, None), (1, 5, 8, None), (0, 5, 8, None)],
)
def test_worker_pool_is_capped_by_sentences_and_cpus(
    toy_corpus, monkeypatch, jobs, sentences, cpus, workers
):
    import concurrent.futures

    import roleproj.pipeline as pipeline

    RecordingPool.started = []
    # run_corpus imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = pipeline.PipelineConfig(model="total")
    corpus = toy_corpus[:sentences]
    got = pipeline.run_corpus(corpus, cfg, jobs=jobs)
    assert RecordingPool.started == ([] if workers is None else [workers])
    assert got == [pipeline.run_pipeline(b, cfg) for b in corpus]


@pytest.mark.parametrize("argv", [
    ["--help"], ["project", "--help"], ["evaluate", "--help"], ["sigtest", "--help"],
    ["stats", "--help"], ["fixtures", "--help"], ["--version"], [], ["nosuch"],
    ["project"], ["evaluate", "--gold"], ["sigtest", "--iterations", "x"],
    ["stats", "--bogus"],
])
def test_parser_of_the_named_command_prints_what_the_full_parser_prints(
    monkeypatch, capsys, argv
):
    def run():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr()

    got = run()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run() == got


def test_parser_adds_only_the_named_commands_arguments(capsys):
    project = ["project", "--align", "a", "--out", "o"]
    assert cli.build_parser().parse_args(project).align == "a"
    assert cli.build_parser("project").parse_args(project).align == "a"
    with pytest.raises(SystemExit):
        cli.build_parser("evaluate").parse_args(project)
    assert "invalid choice: 'project'" in capsys.readouterr().err


def test_a_missing_or_unknown_command_is_called_command_in_the_error(monkeypatch, capsys):
    # Only the parser with every subcommand prints these; it names the
    # subcommand argument by its dest, not by the metavar that a parser of
    # one subcommand sets.
    monkeypatch.setenv("COLUMNS", "80")

    def stderr(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err.splitlines()

    usage = "usage: roleproj [-h] [--version] {project,evaluate,sigtest,stats,fixtures} ..."
    assert stderr([]) == [usage, "roleproj: error: the following arguments are required: command"]
    usage_line, error = stderr(["nosuch"])
    assert usage_line == usage
    # Python versions differ in how they quote the choices that follow
    assert error.startswith(
        "roleproj: error: argument command: invalid choice: 'nosuch' (choose from "
    )


# --- each command loads its own modules, numpy at the first graph -----------

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_MAIN = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "roleproj")
from roleproj import cli
at_import = loaded()
code = cli.main(json.loads(sys.argv[1]))
added = [name for name in loaded() if name not in at_import]
print(json.dumps([code, "numpy" in sys.modules, at_import, added]))
"""

CLI_IMPORTS = ["roleproj", "roleproj.cli", "roleproj.corpus", "roleproj.errors"]


def run_fresh(code, *args) -> str:
    """Run ``code`` in a fresh interpreter that imports roleproj from src/;
    return the last line it prints."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def main_fresh(argv) -> tuple[int, bool, list, list]:
    """Exit code of ``cli.main(argv)``, whether it loaded numpy, the roleproj
    modules that ``import roleproj.cli`` loaded and those ``main`` added."""
    return tuple(json.loads(run_fresh(RUN_MAIN, json.dumps(argv))))


RUN_PARSER = """
import json, sys
from roleproj import cli
try:
    cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(name for name in sys.modules if name.split(".")[0] == "roleproj")]))
"""


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0), (["--help"], 0), (["project", "--help"], 0), (["nosuch"], 2),
])
def test_version_help_and_an_unknown_command_load_no_command_module(argv, code):
    # --model's choices come from the package, not from the pipeline
    assert json.loads(run_fresh(RUN_PARSER, json.dumps(argv))) == [code, CLI_IMPORTS]


@pytest.mark.parametrize("command", ["evaluate", "fixtures", "word"])
def test_commands_without_arrays_never_import_numpy(fixture_dir, tmp_path, command):
    # Each command also loads only its own modules.
    argv, added = {
        "evaluate": (["evaluate", "--gold", fx(fixture_dir, "tgt.roles"),
                      "--pred", fx(fixture_dir, "expected_perfect.roles")],
                     ["roleproj.evaluation"]),
        "fixtures": (["fixtures", "--out-dir", str(tmp_path / "fx")], ["roleproj.fixtures"]),
        "word": (project_args(fixture_dir, tmp_path / "out.roles", "word"),
                 ["roleproj.pipeline", "roleproj.projection"]),
    }[command]
    assert main_fresh(argv) == (0, False, CLI_IMPORTS, added)


def test_a_constituent_model_imports_numpy_at_its_first_graph(fixture_dir, tmp_path):
    out = tmp_path / "out.roles"
    assert main_fresh(project_args(fixture_dir, out))[:2] == (0, True)
    assert out.read_bytes() == (fixture_dir / "figure1" / "expected_perfect.roles").read_bytes()


def test_a_solve_set_on_the_pipeline_before_any_graph_is_the_one_called(fixture_dir):
    code = """
import json, sys
from roleproj import pipeline
from roleproj.corpus import load_corpus
(b,) = load_corpus(**json.loads(sys.argv[1]))
calls = []
def wrapper(graph, model):
    from roleproj.matcher import solve
    calls.append(model)
    return solve(graph, model)
pipeline.solve = wrapper
assert "numpy" not in sys.modules
for model in ("perfect", "edgecover"):
    pipeline.run_pipeline(b, pipeline.PipelineConfig(model=model))
from roleproj import matcher, similarity
print(calls, pipeline.solve is wrapper, pipeline.build_graph is matcher.build_graph,
      pipeline.UnitSimilarity is similarity.UnitSimilarity)
"""
    paths = json.dumps(fixture_set_paths(fixture_dir / "figure1"))
    assert run_fresh(code, paths) == "['perfect', 'edgecover'] True True True"


def test_wrappers_put_on_the_cli_before_main_are_the_ones_called(fixture_dir, tmp_path):
    # The names a tracer wraps on the cli resolve as attributes, and a
    # command calls them through the cli's globals: run_corpus is set
    # before the pipeline is bound, score read and then wrapped.
    names = ("load_corpus", "run_corpus", "roles_file_text", "score", "stratified_shuffling")
    resolve = f"""
from roleproj import cli
print(all(callable(getattr(cli, name)) for name in {names!r}))
"""
    assert run_fresh(resolve) == "True"
    code = """
import json, sys
from roleproj import cli
calls = []
def run_corpus(corpus, cfg, jobs=1):
    from roleproj.pipeline import run_corpus
    calls.append("run_corpus")
    return run_corpus(corpus, cfg, jobs=jobs)
cli.run_corpus = run_corpus
score = cli.score
def wrapper(gold, pred):
    calls.append("score")
    return score(gold, pred)
cli.score = wrapper
codes = [cli.main(json.loads(argv)) for argv in sys.argv[1:]]
print(codes, calls, cli.run_corpus is run_corpus, cli.score is wrapper)
"""
    project = project_args(fixture_dir, tmp_path / "out.roles", "word")
    evaluate = ["evaluate", "--gold", fx(fixture_dir, "tgt.roles"),
                "--pred", str(tmp_path / "out.roles")]
    got = run_fresh(code, json.dumps(project), json.dumps(evaluate))
    assert got == "[0, 0] ['run_corpus', 'score'] True True"


def test_spawned_workers_bind_the_array_layers_themselves(fixture_dir):
    # A spawned worker unpickles its tasks into a fresh pipeline module.
    code = """
import json, multiprocessing, sys
from roleproj import pipeline
from roleproj.corpus import load_corpus
multiprocessing.set_start_method("spawn")
corpus = load_corpus(**json.loads(sys.argv[1]))
cfg = pipeline.PipelineConfig(model="perfect")
print(pipeline.run_corpus(corpus, cfg, jobs=2) == pipeline.run_corpus(corpus, cfg))
"""
    assert run_fresh(code, json.dumps(fixture_set_paths(fixture_dir / "toy"))) == "True"
