#!/usr/bin/env python3
"""Run every projection model on the bundled worked-example bi-sentence and
print the resulting annotations side by side, plus the constituent alignment
weight table for the perfect-matching model."""

import os
import tempfile

from roleproj import fixtures
from roleproj.corpus import load_corpus, serialize_roles
from roleproj.matcher import dump_weight_table, solve
from roleproj.pipeline import PipelineConfig, build_instance, run_pipeline


def main():
    # Read as `roleproj project` reads the files `roleproj fixtures` writes.
    with tempfile.TemporaryDirectory() as tmp:
        fixtures.emit(tmp)
        path = os.path.join(tmp, "figure1")
        (b,) = load_corpus(
            src_trees_path=os.path.join(path, "src.trees"),
            tgt_trees_path=os.path.join(path, "tgt.trees"),
            align_path=os.path.join(path, "align"),
            src_roles_path=os.path.join(path, "src.roles"),
        )
    print("source:", " ".join(b.src.surfaces))
    print("target:", " ".join(b.tgt.surfaces))
    print("links: ", " ".join(f"{s}-{t}" for s, t in sorted(b.links)))
    print("gold:  ", fixtures.FIGURE1["tgt.roles"].rstrip("\n").replace("\n", "  "))
    print()

    configs = [
        PipelineConfig(model="word"),
        PipelineConfig(model="word", fill_gaps=True),
        PipelineConfig(model="perfect"),
        PipelineConfig(model="perfect", filters=frozenset({"na"})),
        PipelineConfig(model="edgecover"),
        PipelineConfig(model="edgecover", filters=frozenset({"arg"})),
        PipelineConfig(model="total"),
    ]
    for cfg in configs:
        out = run_pipeline(b, cfg)
        name = cfg.model + ("+fill" if cfg.fill_gaps else "")
        filt = ",".join(sorted(cfg.filters)) or "none"
        print(f"{name:12s} filter={filt:5s} ->",
              serialize_roles(out.annotation).replace("\n", "  "))

    print("\nweight table (perfect matching, no filter); chosen cells marked *:")
    g = build_instance(b, PipelineConfig(model="perfect")).graph
    print(dump_weight_table(g, solve(g, "perfect")))


if __name__ == "__main__":
    main()
