"""Command-line surface: projection runs, evaluation, significance tests,
correspondence statistics, and fixture generation.

Exit codes: 0 success, 1 validation/configuration error, 2 I/O error.
Each command checks its output paths, with ``_check_outputs``, before it
reads an input.
Every projection run writes a JSON manifest next to its output recording
the configuration, input digests, and per-sentence warnings; identical
inputs and configuration produce identical manifests.

``project`` stacks a run's settings, the ``--config`` lines and the flags
over them, and ``PipelineConfig.from_settings`` parses them: a bad value
from either source, such as an unknown filter, is an ``error:`` line.

A command loads only the modules it runs: importing this module and
building its parser, as ``--version`` and ``--help`` do, read just
``corpus`` and ``errors``.  The names it takes from ``pipeline`` and
``evaluation`` bind into its globals when a command needs them, or when
one is first read as a module attribute, and never over a name already
set, so a wrapper put on this module before ``main`` runs is the one a
command calls.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import MODELS, __version__, deferred_imports
from .corpus import load_corpus, read_lines, read_roles_file, roles_file_text, write_text
from .errors import MAX_CELLS, ConfigError, ToolkitError, located

_bind, __getattr__ = deferred_imports(globals(), {
    "pipeline": ("SETTINGS", "PipelineConfig", "build_instance", "run_corpus"),
    "evaluation": ("correspondence_stats", "score", "stratified_shuffling"),
})

# A projection run's input files, in ``project --help`` order: flag dests,
# keys of the manifest's inputs and, with ``_path``, ``load_corpus`` keywords.
INPUTS = ("src_trees", "tgt_trees", "src_tok", "tgt_tok", "align", "src_roles")


def _sha256(path) -> str:
    import hashlib  # loads OpenSSL; only a projection run's manifest needs it

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _settings(args) -> dict[str, str]:
    """A run's text settings: the ``--config`` lines, with the flags over them."""
    settings = {}
    for lineno, raw in enumerate(read_lines(args.config) if args.config else ()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in SETTINGS:
            raise ToolkitError(f"{args.config}:{lineno + 1}: unknown config entry {line!r}")
        settings[key] = value.strip()
    flags = {"model": args.model, "filter": args.filter, "fill_gaps": args.fill_gaps}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    return settings


def _oracle_check(bisentences, cfg: PipelineConfig) -> tuple[int, int]:
    """``oracle.check`` each graph within the size guard; return the number
    of sentences checked and of graphs skipped, unsolved, above the guard."""
    # Imported here: both load numpy, which a command that builds no graph
    # never imports.
    from . import oracle
    from .matcher import solve

    _bind("pipeline")
    checked = skipped = 0
    for k, b in enumerate(bisentences):
        with located(f"sentence {k} ({cfg.model})"):
            graph = build_instance(b, cfg).graph
            if graph is None:
                continue
            if graph.sim.size > MAX_CELLS:
                skipped += 1
                continue
            oracle.check(graph, cfg.model, solve(graph, cfg.model))
        checked += 1
    return checked, skipped


def _load_corpus(args):
    """The corpus of the input files that a command's flags name."""
    return load_corpus(**{f"{name}_path": getattr(args, name, None) for name in INPUTS})


def _check_outputs(*outputs: tuple[str, str | None]) -> None:
    """Refuse a command's outputs, given as (name, path) pairs, before it
    reads any input.  Two outputs that name the same file, which the later
    write would destroy, are a ``ConfigError``.  An output that is empty or
    a directory, or whose directory is missing or a file, is the ``OSError``
    that opening it would raise.  An output may still overwrite an input."""
    outputs = [(name, path) for name, path in outputs if path is not None]
    seen = {}
    for name, path in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{seen[real]} and {name} name the same file: {path}")
        seen[real] = name
    for _, path in outputs:
        if not path:
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        try:  # the trailing separator makes a file there ENOTDIR, as in open
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def cmd_project(args) -> int:
    import json

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    _check_outputs(("--out", args.out),
                   ("the manifest of --out", args.out + ".manifest.json"),
                   ("--provenance", args.provenance))
    _bind("pipeline")
    cfg = PipelineConfig.from_settings(_settings(args))
    if args.src_roles is None:
        raise ToolkitError("--src-roles is required")
    if cfg.model != "word":
        missing = [
            flag
            for flag, path in (("--src-trees", args.src_trees), ("--tgt-trees", args.tgt_trees))
            if path is None
        ]
        if missing:
            raise ToolkitError(
                f"model {cfg.model!r} needs constituent trees on both sides; "
                f"missing {', '.join(missing)}"
            )
    corpus = _load_corpus(args)
    # Hashed before any output is opened, which may be one of the inputs.
    inputs = {
        name: {"path": str(path), "sha256": _sha256(path)}
        for name in INPUTS
        if (path := getattr(args, name)) is not None
    }
    if args.oracle and cfg.model == "word":
        print("oracle check skipped: the word model builds no graph to check")
    elif args.oracle:
        checked, skipped = _oracle_check(corpus, cfg)
        print(f"oracle check passed on {checked} sentence(s); "
              f"{skipped} graph(s) above {MAX_CELLS} cells not checked")

    projected = run_corpus(corpus, cfg, jobs=args.jobs)
    write_text(args.out, roles_file_text([p.annotation for p in projected]))
    if args.provenance:
        write_text(args.provenance, "".join(
            json.dumps(p.to_record(k), sort_keys=True, ensure_ascii=False) + "\n"
            for k, p in enumerate(projected)
        ))

    warnings = [
        {"sentence": k, "warnings": list(p.warnings)}
        for k, p in enumerate(projected)
        if p.warnings
    ]
    manifest = {
        "tool": "roleproj",
        "version": __version__,
        "config": cfg.to_dict(),
        "inputs": inputs,
        "warnings": warnings,
    }
    write_text(args.out + ".manifest.json",
               json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


def _report(result, out) -> int:
    """Print a result's text and write its TSV to ``out``, if given."""
    print(result.format_text())
    if out:
        write_text(out, result.to_tsv())
    return 0


def cmd_evaluate(args) -> int:
    _check_outputs(("--out", args.out))
    _bind("evaluation")
    gold = read_roles_file(args.gold)
    pred = read_roles_file(args.pred)
    return _report(score(gold, pred), args.out)


def cmd_sigtest(args) -> int:
    _check_outputs(("--out", args.out))
    _bind("evaluation")
    gold = read_roles_file(args.gold)
    pred_a = read_roles_file(args.pred_a)
    pred_b = read_roles_file(args.pred_b)
    result = stratified_shuffling(gold, pred_a, pred_b, args.iterations, args.seed)
    return _report(result, args.out)


def cmd_stats(args) -> int:
    _check_outputs(("--out", args.out))
    _bind("evaluation")
    return _report(correspondence_stats(_load_corpus(args), args.threshold), args.out)


def cmd_fixtures(args) -> int:
    from . import fixtures

    if not args.out_dir:  # joined onto "", the files would land in the working directory
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), args.out_dir)
    for path in fixtures.emit(args.out_dir):
        print(path)
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``roleproj`` parser.  When ``command`` names a subcommand, only
    that subcommand is registered, under a metavar that lists all five, so
    its usage, help and errors stay the same.  Otherwise all five are, with
    no metavar: the errors for a missing or unknown command call the
    argument ``command``."""
    parser = argparse.ArgumentParser(
        prog="roleproj",
        description="Project labeled spans across word-aligned bi-sentences "
        "and evaluate the projections.",
    )
    parser.add_argument("--version", action="version", version=f"roleproj {__version__}")
    names = ("project", "evaluate", "sigtest", "stats", "fixtures")
    named = command in names
    metavar = "{" + ",".join(names) + "}" if named else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def subcommand(name, func, help):
        if named and command != name:
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p.add_argument

    if arg := subcommand("project", cmd_project, "project source roles onto the target side"):
        arg("--model", choices=MODELS)
        arg("--filter", help="none, or a comma list of na, nc and arg")
        arg("--fill-gaps", action="store_const", const="yes")
        for name in INPUTS:
            arg("--" + name.replace("_", "-"), required=name == "align")
        arg("--out", required=True)
        arg("--config")
        arg("--provenance")
        arg("--oracle", action="store_true",
            help="check the cost and links of every graph of at most "
            f"{MAX_CELLS} cells against brute force")
        arg("--jobs", type=int, default=1)

    if arg := subcommand("evaluate", cmd_evaluate, "exact-match scoring against gold roles"):
        arg("--gold", required=True)
        arg("--pred", required=True)
        arg("--out")

    if arg := subcommand("sigtest", cmd_sigtest, "stratified-shuffling significance test"):
        arg("--gold", required=True)
        arg("--pred-a", required=True)
        arg("--pred-b", required=True)
        arg("--iterations", type=int, default=10000)
        arg("--seed", type=int, default=1)
        arg("--out")

    if arg := subcommand("stats", cmd_stats, "constituent correspondence statistics"):
        arg("--src-trees", required=True)
        arg("--tgt-trees", required=True)
        arg("--align", required=True)
        arg("--threshold", type=float, default=0.5)
        arg("--out")

    if arg := subcommand("fixtures", cmd_fixtures,
                         "emit the bundled example bi-sentence and toy corpus"):
        arg("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
