"""One cold start: import roleproj and load a corpus, print the seconds taken.

Usage: python3 setup_probe.py SRC_DIR CORPUS_DIR
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
corpus_dir = sys.argv[2]

import roleproj.cli  # noqa: E402  (the import a `roleproj` command pays)
from roleproj.corpus import load_corpus  # noqa: E402

corpus = load_corpus(
    align_path=f"{corpus_dir}/align",
    src_trees_path=f"{corpus_dir}/src.trees",
    tgt_trees_path=f"{corpus_dir}/tgt.trees",
    src_roles_path=f"{corpus_dir}/src.roles",
)
print(len(corpus), time.perf_counter() - start)
