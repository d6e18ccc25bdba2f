#!/usr/bin/env python3
"""roleproj benchmark: projection throughput per model, with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload short --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run generates a seeded synthetic corpus under ``.bench_work/``,
measures set-up (cold import plus first corpus load, in fresh processes),
then runs rounds until ``--seconds`` have passed.  A round runs every
model over the whole corpus, then ``evaluate`` and ``sigtest``.  In the
first round every graph the pipeline solved is checked against a
reference cost, and every later pass must reproduce that round's
``.roles`` bytes.  See README.md for the metrics and how they are taken.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
layers' functions from outside (see tracing.py) and prints the per-layer
metrics instead.  Human-readable lines go to stderr; the last line of
stdout is one JSON object.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import corpus_gen  # noqa: E402
import host_speed  # noqa: E402
import tracing  # noqa: E402

MODELS = ("word", "total", "perfect", "edgecover")
SOLVED = ("total", "perfect", "edgecover")
# Each model's default filter, pinned so that every commit is measured on
# the same configuration.
FILTER_ARG = {"word": "none", "total": "arg", "perfect": "na", "edgecover": "arg"}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "short": {"sentences": 150, "lengths": (20, 30), "cli": False},
    "long": {"sentences": 50, "lengths": (50, 70), "cli": False},
    "cli": {"sentences": 300, "lengths": (8, 16), "cli": True},
}
SETUP_PROBES = 9
EVAL_REPEATS = 5  # evaluate and sigtest calls per round
MIN_ROUNDS = 3
REPEAT_S = 0.5  # a model's passes repeat within a round while under this
MAX_REPEATS = 5
MIN_TRACE_ROUNDS = 2
HARD_STOP_S = 100  # no optional round starts after this, whatever --seconds says
SIGTEST_ITERATIONS = 10000  # the command's default


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least 10 of n samples beyond it."""
    return math.floor(100 * (n - 10) / n)


def percentile(values, q: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


class Roleproj:
    """The program under test, imported from the checkout's source tree."""

    def __init__(self):
        import roleproj.cli
        import roleproj.corpus
        import roleproj.pipeline

        self.cli = roleproj.cli
        self.corpus = roleproj.corpus
        self.pipeline = roleproj.pipeline

    def load(self, files):
        return self.corpus.load_corpus(
            align_path=files["align"],
            src_trees_path=files["src.trees"],
            tgt_trees_path=files["tgt.trees"],
            src_roles_path=files["src.roles"],
        )

    def config(self, model: str):
        filters = frozenset() if FILTER_ARG[model] == "none" else {FILTER_ARG[model]}
        return self.pipeline.PipelineConfig(model=model, filters=frozenset(filters))


@dataclasses.dataclass
class Pass:
    """One pass; times are in reference-host seconds (see host_speed.py)."""

    load: float
    write: float
    per_sentence: list
    failures: list
    results: list
    scale: float  # reference-host seconds per measured second, on average


class Bench:
    def __init__(self, rp: Roleproj, files: dict, n: int, workdir: Path,
                 clock: host_speed.Clock):
        self.clock = clock
        self.rp = rp
        self.files = files
        self.n = n
        self.workdir = workdir
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}

    # -- passes -----------------------------------------------------------

    def inprocess_pass(self, model: str, tracer=None) -> Pass:
        """load_corpus, run_pipeline per sentence, roles_file_text to disk."""
        rp = self.rp
        cfg = rp.config(model)
        run = rp.pipeline.run_pipeline
        span = tracer.span if tracer else (lambda _name, fn, *a: fn(*a))
        out_path = self.workdir / f"{model}.roles"
        per_sentence, raw, failures, results, anns = [], [], [], [], []
        start = time.perf_counter()
        corpus, load_s = self.clock.timed(span, "corpus.load", rp.load, self.files)
        for k, b in enumerate(corpus):
            if tracer:
                tracer.sentence = k
            scale = self.clock.scale()
            t = time.perf_counter()
            try:
                projected = span("pipeline.run_pipeline", run, b, cfg)
                ann = projected.annotation
            except Exception as exc:  # any exception is one failed sentence
                failures.append(f"{model} sentence {k}: {type(exc).__name__}: {exc}")
                projected = None
                ann = dataclasses.replace(b.src_roles, roles=(), predicate=-1)
            raw.append(time.perf_counter() - t)
            per_sentence.append(raw[-1] * scale)
            results.append(projected)
            anns.append(ann)
        if tracer:
            tracer.sentence = None
        text, write_s = self.clock.timed(span, "corpus.write", self._write, out_path, anns)
        self._account(len(corpus), len(failures), failures)
        self._check_bytes(model, text, "in-process pass")
        return Pass(load_s, write_s, per_sentence, failures, results,
                    sum(per_sentence) / max(sum(raw), 1e-12))

    def _write(self, path: Path, anns) -> str:
        text = self.rp.corpus.roles_file_text(anns)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text

    def cli(self, argv) -> tuple[float, object, str]:
        """Run a roleproj command in-process; return (seconds, exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()

        def main():
            try:
                return self.rp.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a traceback is a failure
                return f"{type(exc).__name__}: {exc}"

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, wall = self.clock.timed(main)
        if code != 0:
            log(f"roleproj {argv[0]} exited with {code!r}: {err.getvalue().strip()}")
        return wall, code, out.getvalue()

    def cli_project(self, model: str, jobs: int) -> float:
        f = self.files
        out = self.workdir / f"cli-{model}.roles"
        wall, code, _ = self.cli([
            "project", "--model", model, "--filter", FILTER_ARG[model],
            "--src-trees", f["src.trees"], "--tgt-trees", f["tgt.trees"],
            "--align", f["align"], "--src-roles", f["src.roles"],
            "--out", str(out), "--jobs", str(jobs),
        ])
        if code != 0:
            # a failed command loses every sentence it was given
            self._account(self.n, self.n, [f"{model} project --jobs {jobs}: {code}"])
        else:
            self._account(self.n, 0, [])
            self._check_bytes(model, out.read_text(encoding="utf-8"),
                              f"project --jobs {jobs}")
        return wall

    def _account(self, attempted, failed, messages) -> None:
        self.attempted += attempted
        self.failed += failed
        for msg in messages[:3]:
            log(f"failed: {msg}")

    def _check_bytes(self, model: str, text: str, what: str) -> None:
        ref = self.reference.setdefault(model, text)
        if text != ref:
            self.error(f"{model}: {what} output differs from the reference pass")

    def error(self, msg: str) -> None:
        if msg not in self.errors:
            log(f"CHECK FAILED: {msg}")
            self.errors.append(msg)

    # -- checks -----------------------------------------------------------

    def reference_passes(self) -> dict[str, Pass]:
        """One pass per model whose output every later pass must reproduce;
        check every solved graph's cost."""
        import roleproj.oracle

        solved, passes = [], {}
        for model in MODELS:
            tracer = tracing.Tracer()

            def on_solve(tr, args, kwargs, result, model=model):
                solved.append((tr.sentence, model, args[0], result.cost))

            hooked = tracer.wrap(self.rp.pipeline, "solve", "matcher.solve", on_solve)
            try:
                passes[model] = self.inprocess_pass(model, tracer)
            finally:
                tracer.restore()
            if not hooked:
                log("cost check skipped: roleproj.pipeline.solve is gone")
        checked, unchecked, errors = checks.check_costs(solved, roleproj.oracle)
        for msg in errors[:5]:
            self.error(msg)
        log(f"cost check: {checked - len(errors)} of {checked} graphs match the "
            f"reference cost, {unchecked} graphs without a reference")
        # the check itself must reject a wrong cost
        for sentence, model, graph, cost in solved:
            if checks.reference_cost(graph, model, roleproj.oracle) is not None:
                _, _, bad = checks.check_costs(
                    [(sentence, model, graph, cost + 1.0)], roleproj.oracle)
                if not bad:
                    self.error("cost check accepted a deliberately wrong cost")
                break
        return passes

    def evaluate(self, pred: Path) -> float:
        wall, code, out = self.cli(["evaluate", "--gold", self.files["tgt.roles"],
                                    "--pred", str(pred)])
        self._check_stable("evaluate", code, out)
        return wall

    def sigtest(self, pred_a: Path, pred_b: Path) -> float:
        wall, code, out = self.cli([
            "sigtest", "--gold", self.files["tgt.roles"], "--pred-a", str(pred_a),
            "--pred-b", str(pred_b), "--iterations", str(SIGTEST_ITERATIONS),
        ])
        self._check_stable("sigtest", code, out)
        return wall

    def _check_stable(self, what: str, code, out: str) -> None:
        if code != 0:
            self.error(f"{what} exited with {code!r}")
            return
        ref = self.reference.setdefault(what, out)
        if out != ref:
            self.error(f"{what} output changed between rounds")


def generate(workload: str, seed: int, workdir: Path) -> tuple[dict, bool]:
    """Corpus files, and whether generating them again gave the same bytes."""
    spec = WORKLOADS[workload]
    files = corpus_gen.generate(workdir / "corpus", workload, seed,
                                spec["sentences"], spec["lengths"])
    again = corpus_gen.generate(workdir / "corpus-again", workload, seed,
                                spec["sentences"], spec["lengths"])
    same = corpus_gen.digest(files) == corpus_gen.digest(again)
    shutil.rmtree(workdir / "corpus-again")
    return files, same


def measure_setup(workdir: Path, n: int, clock: host_speed.Clock) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        clock.expire()
        before = clock.scale()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
             str(workdir / "corpus")],
            capture_output=True, text=True, timeout=60, check=True,
        )
        count, seconds = proc.stdout.split()
        if int(count) != n:
            raise RuntimeError(f"set-up probe loaded {count} sentences, expected {n}")
        clock.expire()
        times.append(float(seconds) * (before + clock.scale()) / 2)
    return statistics.median(times)


def sentence_times(passes: list[Pass]) -> list[float]:
    """Per sentence, the median over rounds."""
    return [statistics.median(ts) for ts in zip(*(p.per_sentence for p in passes))]


def typical_pass(passes: list[Pass]) -> float:
    """Seconds of a warm pass: the median over rounds of each stage (load,
    every sentence, write), summed."""
    return (statistics.median(p.load for p in passes)
            + sum(sentence_times(passes))
            + statistics.median(p.write for p in passes))


def rounds(start: float, seconds: float, first: int, minimum: int):
    """Round numbers from ``first``: ``minimum`` rounds in all, then more
    while the next one, if it lasts as long as the last, ends by
    ``start + seconds``."""
    r, last = first, 0.0
    while r < minimum or (time.perf_counter() - start + last <= seconds
                          and time.perf_counter() - start < HARD_STOP_S):
        began = time.perf_counter()
        yield r
        last = time.perf_counter() - began
        r += 1


def repeated(fn) -> list:
    """Samples of fn(): at least one, more while they take under REPEAT_S."""
    samples, start = [], time.perf_counter()
    while not samples or (len(samples) < MAX_REPEATS
                          and time.perf_counter() - start < REPEAT_S):
        samples.append(fn())
    return samples


def timed_rounds(bench: Bench, cli_workload: bool, seconds: float) -> dict:
    """The reference round, then rounds while the next should end within
    ``seconds`` of the start."""
    commands = {m: [] for m in MODELS}
    eval_s, sig_s = [], []
    perfect, word = (bench.workdir / f"{'cli-' if cli_workload else ''}{m}.roles"
                     for m in ("perfect", "word"))
    start = time.perf_counter()
    # the reference round is one of the timed rounds
    passes = {m: [p] for m, p in bench.reference_passes().items()}
    if cli_workload:
        for model in MODELS:  # the --jobs 1 reference for --jobs 2
            bench.cli_project(model, jobs=1)
    r = 0
    for r in rounds(start, seconds, first=1, minimum=MIN_ROUNDS):
        for model in MODELS[r % 4:] + MODELS[: r % 4]:
            if cli_workload:
                commands[model] += repeated(lambda: bench.cli_project(model, jobs=2))
            if model in SOLVED or not cli_workload:
                passes[model] += repeated(lambda: bench.inprocess_pass(model))
        for _ in range(EVAL_REPEATS):
            eval_s.append(bench.evaluate(perfect))
            sig_s.append(bench.sigtest(perfect, word))
    r += 1
    log(f"{r} timed rounds in {time.perf_counter() - start:.1f}s")

    metrics = {}
    for model in MODELS:
        seconds_per_pass = (statistics.median(commands[model]) if cli_workload
                            else typical_pass(passes[model]))
        metrics[f"{model}.sent_per_s"] = (bench.n / seconds_per_pass, "1/s")
    q = tail_percentile(bench.n)
    for model in SOLVED:
        per_sentence = sentence_times(passes[model])
        metrics[f"{model}.sent_ms_p50"] = (1e3 * statistics.median(per_sentence), "ms")
        metrics[f"{model}.sent_ms_tail"] = (1e3 * percentile(per_sentence, q), "ms")
    log(f"sent_ms_tail is p{q} over {bench.n} sentences "
        f"(each the median of {r} rounds)")
    metrics["evaluate_s"] = (statistics.median(eval_s), "s")
    metrics["sigtest_s"] = (statistics.median(sig_s), "s")
    return metrics


# -- traced run ---------------------------------------------------------------

def install_layer_wrappers(tracer: tracing.Tracer, rp: Roleproj, counts: dict) -> None:
    import roleproj.lap
    import roleproj.similarity

    pipe = rp.pipeline

    def count(name, value):
        counts[name] = counts.get(name, 0) + value

    def on_matrix(tr, args, kwargs, result):
        count("similarity.cells", len(args[1]) * len(args[2]))

    def on_graph(tr, args, kwargs, g):
        count("matcher.padding_nodes",
              sum(g.weights.shape) - g.n_src_real - g.n_tgt_real)

    def on_strip(tr, args, kwargs, result):
        count("matcher.zero_links_stripped", len(args[0].links) - len(result.links))

    def on_lap(tr, args, kwargs, result):
        n = len(args[0])
        count("lap.calls", 1)
        count("lap.n3_sum", n ** 3)

    def on_adm(tr, args, kwargs, adm):
        count("lap.tight_extra_cells", int(adm.sum()) - adm.shape[0])

    tracer.wrap(pipe, "apply_word_filters", "similarity.filter")
    tracer.wrap(pipe, "UnitSimilarity", "similarity.matrix")
    tracer.wrap(roleproj.similarity.UnitSimilarity, "matrix", "similarity.matrix", on_matrix)
    tracer.wrap(pipe, "argument_filter", "projection.units")
    tracer.wrap(pipe, "resolve_role_units", "projection.units")
    tracer.wrap(pipe, "project", "projection.project")
    tracer.wrap(pipe, "project_word_based", "projection.project")
    tracer.wrap(pipe, "strip_zero_links", "projection.project", on_strip)
    tracer.wrap(pipe, "build_graph", "matcher.build_graph", on_graph)
    tracer.wrap(pipe, "solve", "matcher.solve")
    tracer.wrap(roleproj.lap, "solve_lap", "lap.solve_lap", on_lap)
    tracer.wrap(roleproj.lap, "admissible_cells", "lap.admissible", on_adm)
    tracer.wrap(roleproj.lap, "lexmin_perfect_matching", "lap.lexmin")


def result_counts(results, counts: dict) -> None:
    """Counters read off the projected annotations the pipeline returned."""
    for p in results:
        if p is None:
            continue
        if any("argument filter skipped" in w for w in p.warnings):
            counts["projection.arg_skipped"] = counts.get("projection.arg_skipped", 0) + 1
        for prov in p.provenance.values():
            for key, flag in (("projection.unprojected_roles", prov.unprojected),
                              ("projection.inexact_tilings", prov.inexact_tiling)):
                counts[key] = counts.get(key, 0) + int(flag)


LAYER_SPANS = {
    "corpus.load_ms": "corpus.load",
    "corpus.write_ms": "corpus.write",
    "similarity.filter_ms": "similarity.filter",
    "similarity.matrix_ms": "similarity.matrix",
    "projection.units_ms": "projection.units",
    "projection.project_ms": "projection.project",
    "matcher.build_graph_ms": "matcher.build_graph",
    "lap.solve_lap_ms": "lap.solve_lap",
    "lap.admissible_ms": "lap.admissible",
    "lap.lexmin_ms": "lap.lexmin",
    "pipeline.self_ms": "pipeline.run_pipeline",
}
ROUND_COUNTS = (
    "similarity.cells", "projection.arg_skipped", "projection.unprojected_roles",
    "projection.inexact_tilings", "matcher.padding_nodes",
    "matcher.zero_links_stripped", "lap.calls", "lap.n3_sum", "lap.tight_extra_cells",
)


def traced_run(bench: Bench, seconds: float, trace_path: Path) -> dict:
    rp = bench.rp
    tracer = tracing.Tracer()
    untraced = {m: [] for m in MODELS}
    traced = {m: [] for m in MODELS}
    layer = {name: [] for name in LAYER_SPANS}
    solve_ms = {m: [] for m in SOLVED}
    failures = {m: [] for m in MODELS}
    counts: dict = {}
    start = time.perf_counter()
    r = 0
    for r in rounds(start, seconds, first=0, minimum=MIN_TRACE_ROUNDS):
        counts = {}
        round_self: dict = {}
        for model in MODELS[r % 4:] + MODELS[: r % 4]:
            untraced[model].append(bench.inprocess_pass(model))
            mark = tracer.mark()
            install_layer_wrappers(tracer, rp, counts)
            try:
                p = tracer.span(f"pass.{model}", bench.inprocess_pass, model, tracer)
            finally:
                tracer.restore()
            traced[model].append(p)
            failures[model].append(len(p.failures))
            result_counts(p.results, counts)
            selfs = tracer.self_times(mark)
            for name, value in selfs.items():
                round_self[name] = round_self.get(name, 0.0) + value * p.scale
            if model in SOLVED:
                solve_ms[model].append(
                    1e3 * selfs.get("matcher.solve", 0.0) * p.scale / bench.n)
        for metric, span in LAYER_SPANS.items():
            layer[metric].append(1e3 * round_self.get(span, 0.0) / bench.n)
    r += 1
    log(f"{r} traced rounds in {time.perf_counter() - start:.1f}s")

    metrics = {}  # times from the fastest traced round, as in timed_rounds
    for metric in LAYER_SPANS:
        metrics[metric] = (statistics.median(layer[metric]), "ms")
    for model in SOLVED:
        metrics[f"matcher.solve_ms.{model}"] = (statistics.median(solve_ms[model]), "ms")
    for name in ROUND_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    for model in MODELS:
        metrics[f"matcher.solve_failures.{model}"] = (max(failures[model]), "count")
        delta = (bench.n / typical_pass(traced[model])
                 - bench.n / typical_pass(untraced[model]))
        metrics[f"tracing.{model}.sent_per_s_delta"] = (delta, "1/s")

    metrics.update(jobs_speedup(bench))
    metrics.update(cli_overhead(bench, tracer))
    metrics.update(evaluation_layer(bench, tracer))
    drop_missing(metrics, tracer.missing)
    tracer.write(trace_path)
    log(f"spans written to {trace_path}")
    return metrics


def drop_missing(metrics: dict, missing: set) -> None:
    """A wrapped name that no longer exists leaves its metrics unmeasured."""
    if not missing:
        return
    log(f"missing (not measured): {sorted(missing)}")
    depends = {
        "pipeline.apply_word_filters": ["similarity.filter_ms"],
        "pipeline.UnitSimilarity": ["similarity.matrix_ms"],
        "UnitSimilarity.matrix": ["similarity.matrix_ms", "similarity.cells"],
        "pipeline.argument_filter": ["projection.units_ms"],
        "pipeline.resolve_role_units": ["projection.units_ms"],
        "pipeline.project": ["projection.project_ms"],
        "pipeline.strip_zero_links": ["matcher.zero_links_stripped"],
        "pipeline.build_graph": ["matcher.build_graph_ms", "matcher.padding_nodes"],
        "pipeline.solve": [f"matcher.solve_ms.{m}" for m in SOLVED],
        "lap.solve_lap": ["lap.solve_lap_ms", "lap.calls", "lap.n3_sum"],
        "lap.admissible_cells": ["lap.admissible_ms", "lap.tight_extra_cells"],
        "lap.lexmin_perfect_matching": ["lap.lexmin_ms"],
        "cli.score": ["evaluation.score_ms"],
        "cli.stratified_shuffling": ["evaluation.sigtest_s"],
        "cli.load_corpus": ["cli.project_overhead_ms"],
        "cli.run_corpus": ["cli.project_overhead_ms"],
        "cli.roles_file_text": ["cli.project_overhead_ms"],
        "evaluation.stratified_shuffling": ["evaluation.sigtest_peak_mb"],
    }
    for name in missing:
        short = name.replace("roleproj.", "")
        for metric in depends.get(short, ()):
            metrics.pop(metric, None)


def jobs_speedup(bench: Bench) -> dict:
    """run_corpus at jobs=1 against jobs=2 on the same inputs, untraced;
    each the faster of two runs, in alternating order."""
    rp = bench.rp
    run_corpus = getattr(rp.pipeline, "run_corpus", None)
    if run_corpus is None:
        log("missing (not measured): roleproj.pipeline.run_corpus")
        return {}
    corpus = rp.load(bench.files)
    out, t1_sum, t2_sum = {}, 0.0, 0.0
    for model in MODELS:
        cfg = rp.config(model)
        times = {1: float("inf"), 2: float("inf")}
        for jobs in (1, 2, 2, 1):
            start = time.perf_counter()
            try:
                run_corpus(corpus, cfg, jobs=jobs)
            except Exception as exc:  # counted as failed sentences
                bench._account(bench.n, bench.n, [f"{model} run_corpus jobs={jobs}: {exc}"])
            else:
                bench._account(bench.n, 0, [])
            times[jobs] = min(times[jobs], time.perf_counter() - start)
        t1_sum += times[1]
        t2_sum += times[2]
        out[f"pipeline.jobs2_speedup.{model}"] = (times[1] / times[2], "ratio")
    out["pipeline.jobs2_speedup"] = (t1_sum / t2_sum, "ratio")
    return out


def cli_overhead(bench: Bench, tracer: tracing.Tracer) -> dict:
    """project --jobs 2 minus its load, run_corpus and serialisation."""
    rp = bench.rp
    overheads = []
    for model in MODELS:
        mark = tracer.mark()
        for attr in ("load_corpus", "run_corpus", "roles_file_text"):
            tracer.wrap(rp.cli, attr, f"cli.{attr}")
        scale = bench.clock.scale()
        start = time.perf_counter()
        try:
            bench.cli_project(model, jobs=2)
        finally:
            tracer.restore()
        wall = time.perf_counter() - start
        inner = sum(tracer.total_times(mark).values())
        overheads.append(1e3 * (wall - inner) * scale)
    return {"cli.project_overhead_ms": (statistics.median(overheads), "ms")}


def evaluation_layer(bench: Bench, tracer: tracing.Tracer) -> dict:
    rp = bench.rp
    perfect, word = bench.workdir / "cli-perfect.roles", bench.workdir / "cli-word.roles"
    out = {}
    scale = bench.clock.scale()
    mark = tracer.mark()
    tracer.wrap(rp.cli, "score", "evaluation.score")
    tracer.wrap(rp.cli, "stratified_shuffling", "evaluation.sigtest")
    try:
        bench.evaluate(perfect)
        bench.sigtest(perfect, word)
    finally:
        tracer.restore()
    totals = tracer.total_times(mark)
    out["evaluation.score_ms"] = (
        1e3 * totals.get("evaluation.score", 0.0) * scale / bench.n, "ms")
    out["evaluation.sigtest_s"] = (totals.get("evaluation.sigtest", 0.0) * scale, "s")

    import roleproj.evaluation

    shuffle = getattr(roleproj.evaluation, "stratified_shuffling", None)
    if shuffle is None:
        tracer.missing.add("roleproj.evaluation.stratified_shuffling")
        return out
    read = rp.corpus.read_roles_file
    gold = read(bench.files["tgt.roles"])
    a, b = read(perfect), read(word)
    tracemalloc.start()
    try:
        shuffle(gold, a, b, SIGTEST_ITERATIONS, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out["evaluation.sigtest_peak_mb"] = (peak / 2 ** 20, "MB")
    return out


# -- entry point -------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        files, deterministic = generate(workload, seed, workdir)
        clock = host_speed.Clock()
        setup_s = measure_setup(workdir, spec["sentences"], clock)
        bench = Bench(Roleproj(), files, spec["sentences"], workdir, clock)
        if not deterministic:
            bench.error("the same seed generated different corpus files")
        if trace:
            bench.reference_passes()
            for model in MODELS:
                bench.cli_project(model, jobs=1)
            metrics = traced_run(bench, seconds, WORK / f"trace-{workload}-{seed}.jsonl")
        else:
            metrics = {"setup_s": (setup_s, "s")}
            metrics.update(timed_rounds(bench, spec["cli"], seconds))
            metrics["ok_frac"] = (1.0 - bench.failed / bench.attempted, "frac")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in sorted(metrics.items()):
        log(f"{workload:6s} {name:34s} {value:14.6g} {unit}")
    log(f"{workload:6s} failed {bench.failed} of {bench.attempted} sentence runs")
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "roleproj" / "__init__.py").is_file():
        log(f"error: no roleproj source tree at {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    # worker processes started by `project --jobs N` import from here too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
