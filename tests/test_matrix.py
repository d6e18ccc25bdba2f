"""The model × filter table on the benchmark's generated corpora.

Each row of ``tests/golden/matrix.tsv`` is one in-process ``roleproj
project`` run on the ``short`` or ``long`` corpus of
``perfbench/corpus_gen.py`` at seed 7: the sha256 of its ``.roles`` output
and of its provenance lines, and its P/R/F1 against the generated
``tgt.roles``.  The runs go through ``cli.main``, so the rows also pin how
the flags become a configuration.  A change that moves any projected role
changes a row.  After a change that is meant to move roles, rewrite the
file with

    PYTHONPATH=src python tests/test_matrix.py

and say in the change's notes which rows changed and why.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest
from test_corpus import load_corpus_gen

from roleproj.cli import main
from roleproj.corpus import read_roles_file
from roleproj.evaluation import score

GOLDEN = Path(__file__).resolve().parent / "golden" / "matrix.tsv"
SEED = 7
WORKLOADS = {"short": (150, (20, 30)), "long": (50, (50, 70))}
FILTERS = ("none", "na", "nc", "na,nc")
RUNS = [(model, f) for model in ("word", "perfect", "edgecover", "total") for f in FILTERS]
RUNS += [(model, "arg") for model in ("perfect", "edgecover", "total")]
HEADER = "workload\tseed\tmodel\tfilter\troles_sha256\tprovenance_sha256\tP\tR\tF1"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def workload_rows(workload: str, work_dir: Path) -> list[str]:
    """The table's rows of one workload, computed afresh in ``work_dir``."""
    sentences, lengths = WORKLOADS[workload]
    files = load_corpus_gen().generate(work_dir, workload, SEED, sentences, lengths)
    gold = read_roles_file(files["tgt.roles"])
    rows = []
    for model, filters in RUNS:
        out = work_dir / f"{model}-{filters}.roles"
        provenance = work_dir / f"{model}-{filters}.prov.jsonl"
        argv = [
            "project", "--model", model, "--filter", filters,
            "--src-trees", files["src.trees"], "--tgt-trees", files["tgt.trees"],
            "--align", files["align"], "--src-roles", files["src.roles"],
            "--out", str(out), "--provenance", str(provenance),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        report = score(gold, read_roles_file(out))
        rows.append("\t".join([
            workload, str(SEED), model, filters, sha256(out), sha256(provenance),
            f"{report.precision:.6f}", f"{report.recall:.6f}", f"{report.f1:.6f}",
        ]))
    return rows


def golden_rows(workload: str) -> list[str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert lines[0] == HEADER
    return [line for line in lines[1:] if line.split("\t", 1)[0] == workload]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_model_and_filter_keeps_its_row(tmp_path, workload):
    assert workload_rows(workload, tmp_path) == golden_rows(workload)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = [row for w in WORKLOADS for row in workload_rows(w, Path(tmp) / w)]
    GOLDEN.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
