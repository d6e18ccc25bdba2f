"""Seeded synthetic parallel corpora for the benchmark.

Each bi-sentence gets a random PTB-style bracketing on both sides, a mix of
content and function POS tags (so the ``na`` and ``nc`` filters mask
something), a noisy near-diagonal word alignment with unaligned words and
some one-to-many links, source roles on constituents plus a few
non-constituent spans (so inexact tiling occurs), and gold target roles.

Only ``random.Random`` seeded from the workload name and the seed is used,
so the same (workload, seed) pair always gives byte-identical files.
Sentence lengths are stratified over the workload's range rather than
drawn independently, and so is the share of unaligned predicates, so
corpora of different seeds carry the same mix of the two properties that
drive cost most and differ only in structure.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

PHRASE_LABELS = ("NP", "VP", "PP", "S", "SBAR", "ADJP", "ADVP")
PHRASE_WEIGHTS = (30, 22, 18, 12, 6, 7, 5)
CONTENT_POS = ("NN", "NNS", "NNP", "VB", "VBD", "VBZ", "JJ", "RB")
FUNCTION_POS = ("DT", "IN", "CC", "PRP", "TO", "MD", "WDT")
PUNCT_POS = (",", ".")
ROLE_LABELS = ("A0", "A1", "A2", "A3", "AM-LOC", "AM-TMP", "AM-MNR")
FRAMES = ("COMMITMENT", "MOTION", "GIVING", "STATEMENT", "PERCEPTION", "CAUSATION")
SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "be", "do")

UNALIGNED_PREDICATES = 0.12

FILES = ("src.trees", "tgt.trees", "align", "src.roles", "tgt.roles")


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 3)))


def _pos_tags(rng: random.Random, n: int) -> list[str]:
    tags = []
    for k in range(n):
        r = rng.random()
        if r < 0.55:
            tags.append(rng.choice(CONTENT_POS))
        elif r < 0.93 or k == 0:
            tags.append(rng.choice(FUNCTION_POS))
        else:
            tags.append(rng.choice(PUNCT_POS))
    return tags


def _bracket(rng: random.Random, lo: int, hi: int, words, tags, label: str,
             phrases: list) -> str:
    """Random bracketing of tokens lo..hi (inclusive) under ``label``.

    Appends the (lo, hi) span of every phrase node to ``phrases``.
    """
    if lo == hi and rng.random() < 0.7:
        return f"({tags[lo]} {words[lo]})"
    phrases.append((lo, hi))
    if lo == hi:  # unary phrase over a single preterminal
        return f"({label} ({tags[lo]} {words[lo]}))"
    width = hi - lo + 1
    n_children = min(width, rng.choice((2, 2, 2, 3, 3, 4)))
    cuts = sorted(rng.sample(range(lo + 1, hi + 1), n_children - 1))
    bounds = [lo] + cuts + [hi + 1]
    parts = []
    for a, b in zip(bounds, bounds[1:]):
        child = rng.choices(PHRASE_LABELS, PHRASE_WEIGHTS)[0]
        parts.append(_bracket(rng, a, b - 1, words, tags, child, phrases))
    return f"({label} {' '.join(parts)})"


def _alignment(rng: random.Random, n: int, m: int, unaligned: float):
    links = set()
    for i in range(n):
        if rng.random() < unaligned:
            continue
        j = round(i * (m - 1) / max(n - 1, 1)) + rng.choice((-1, 0, 0, 0, 1))
        j = min(max(j, 0), m - 1)
        links.add((i, j))
        if rng.random() < 0.1:  # one-to-many
            links.add((i, min(max(j + rng.choice((-1, 1)), 0), m - 1)))
    return links


def _gold_span(span, links):
    """Gold target role: the interval spanned by the role's aligned words."""
    lo, hi = span
    image = sorted({t for s, t in links if lo <= s <= hi})
    return (image[0], image[-1]) if image else None


def _roles_block(k, frame, predicate, roles) -> str:
    lines = [f"#{k} {frame} {predicate}"]
    for label in sorted(roles):
        lo, hi = roles[label]
        lines.append(f"{label}\t{lo}-{hi}")
    return "\n".join(lines)


def bisentence(rng: random.Random, n: int, unaligned: float, pred_aligned: bool):
    """One generated bi-sentence as the text of its five file records."""
    m = max(2, n + rng.randint(-n // 10, n // 10))
    src_words = [_word(rng) for _ in range(n)]
    tgt_words = [_word(rng) for _ in range(m)]
    src_tags = _pos_tags(rng, n)
    tgt_tags = _pos_tags(rng, m)
    predicate = rng.randrange(n)
    src_tags[predicate] = rng.choice(("VB", "VBD", "VBZ"))
    src_phrases: list[tuple[int, int]] = []
    src_tree = _bracket(rng, 0, n - 1, src_words, src_tags, "S", src_phrases)
    tgt_tree = _bracket(rng, 0, m - 1, tgt_words, tgt_tags, "S", [])
    links = _alignment(rng, n, m, unaligned)
    links = {(s, t) for s, t in links if s != predicate}
    if pred_aligned:
        links.add((predicate, min(round(predicate * (m - 1) / max(n - 1, 1)), m - 1)))

    candidates = [s for s in src_phrases if not s[0] <= predicate <= s[1]]
    rng.shuffle(candidates)
    roles: dict[str, tuple[int, int]] = {}
    taken: set[int] = {predicate}
    labels = rng.sample(ROLE_LABELS, rng.randint(2, 4))
    for label in labels:
        if rng.random() < 0.12 and n > 4:
            # non-constituent span: a random interval avoiding the predicate
            lo = rng.randrange(n - 1)
            hi = min(n - 1, lo + rng.randint(1, 3))
            span = (lo, hi)
        elif candidates:
            span = candidates.pop()
        else:
            break
        if any(t in taken for t in range(span[0], span[1] + 1)):
            continue
        taken.update(range(span[0], span[1] + 1))
        roles[label] = span
    if not roles:
        p = predicate + 1 if predicate + 1 < n else predicate - 1
        roles["A1"] = (p, p)

    gold = {}
    for label, span in roles.items():
        g = _gold_span(span, links)
        if g is not None:
            gold[label] = g
    tgt_pred = sorted(t for s, t in links if s == predicate)
    frame = rng.choice(FRAMES)
    return {
        "src.trees": src_tree,
        "tgt.trees": tgt_tree,
        "align": " ".join(f"{s}-{t}" for s, t in sorted(links)),
        "src.roles": (frame, predicate, roles),
        "tgt.roles": (frame, tgt_pred[0] if tgt_pred else -1, gold),
    }


def generate(out_dir, workload: str, seed: int, n_sentences: int,
             lengths: tuple[int, int], unaligned: float = 0.15) -> dict:
    """Write the corpus files into ``out_dir``; return {name: path}."""
    rng = random.Random(f"roleproj-bench:{workload}:{seed}")
    lo, hi = lengths
    strata = list(range(lo, hi + 1))
    lengths = sorted(strata[k % len(strata)] for k in range(n_sentences))
    # An unaligned predicate disables the arg filter and sets the slow tail
    # of edgecover and total, so its share (12%, as measured on real
    # corpora) is fixed too and spread evenly over the lengths.
    n_unaligned = round(UNALIGNED_PREDICATES * n_sentences)
    unaligned_at = {int((j + 0.5) * n_sentences / n_unaligned) for j in range(n_unaligned)}
    plan = [(n, k not in unaligned_at) for k, n in enumerate(lengths)]
    rng.shuffle(plan)
    records = {name: [] for name in FILES}
    for k, (n, pred_aligned) in enumerate(plan):
        rec = bisentence(rng, n, unaligned, pred_aligned)
        for name in ("src.trees", "tgt.trees", "align"):
            records[name].append(rec[name])
        for name in ("src.roles", "tgt.roles"):
            records[name].append(_roles_block(k, *rec[name]))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in FILES:
        sep = "\n\n" if name.endswith(".roles") else "\n"
        path = out_dir / name
        path.write_text(sep.join(records[name]) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def digest(paths: dict) -> str:
    h = hashlib.sha256()
    for name in FILES:
        h.update(name.encode())
        h.update(Path(paths[name]).read_bytes())
    return h.hexdigest()
