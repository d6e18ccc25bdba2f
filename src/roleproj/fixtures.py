"""Bundled demonstration data: a single worked-example bi-sentence and a
five-sentence toy corpus.

The worked example is the promise/versprechen pair whose noisy alignment
misses both "be" and "kommen" and links "time" to "pünktlich": word-level
projection of the MESSAGE role lands on the truncated span "pünktlich zu",
while constituent-level projection recovers the full clause "pünktlich zu
kommen".  `emit` writes all files (inputs, gold, and expected outputs) into
a directory; the acceptance tests compare pipeline output against the
expected files byte for byte.
"""

from __future__ import annotations

import os

from .corpus import write_text

_TOY_SRC_TREES = [
    "(S (NP (NNP Kim)) (VP (VBD promised) (S (TO to) (VP (VB be) (PP (IN on) (NN time))))))",
    "(S (NP (DT The) (NN cat)) (VP (VBZ sleeps)))",
    "(S (NP (NNP Anna)) (VP (VBD saw) (NP (DT the) (JJ small) (NN dog))))",
    "(S (NP (PRP They)) (VP (VBP need) (NP (DT an) (NN opportunity) (S (TO to) (VB talk)))))",
    "(S (NP (PRP She)) (VP (VBD nodded) (ADVP (RB quickly))))",
]

_TOY_TGT_TREES = [
    "(S (NP (NE Kim)) (VP (VVFIN versprach) ($, ,) (S (ADJD pünktlich) (PTKZU zu) (VVINF kommen))))",
    "(S (NP (ART Die) (NN Katze)) (VVFIN schläft))",
    "(S (NP (NE Anna)) (VVFIN sah) (NP (ART den) (ADJA kleinen) (NN Hund)))",
    "(S (NP (PPER Sie)) (VVFIN brauchen) (NP (ART eine) (NN Chance)) (S ($, ,) (PTKZU zu) (VVINF reden)))",
    "(S (NP (PPER Sie)) (VVFIN nickte))",
]

_TOY_ALIGN = [
    "0-0 1-1 2-4 5-3",
    "0-0 1-1 2-2",
    "0-0 1-1 2-2 3-3 4-4",
    "0-0 1-1 2-2 3-3 4-5 5-6",
    "0-0 1-1",
]

_TOY_SRC_ROLES = [
    "#0 COMMITMENT 1\nMESSAGE\t2-5\nSPEAKER\t0-0",
    "#1 SLEEP 2\nSLEEPER\t0-1",
    "#2 PERCEPTION 1\nPERCEIVER\t0-0\nPHENOMENON\t2-4",
    "#3 NEEDING 1\nREQUIREMENT\t2-5\nREQUIRER\t0-0",
    "#4 GESTURE 1\nAGENT\t0-0\nMANNER\t2-2",
]

_TOY_TGT_ROLES = [
    "#0 COMMITMENT 1\nMESSAGE\t3-5\nSPEAKER\t0-0",
    "#1 SLEEP 2\nSLEEPER\t0-1",
    "#2 PERCEPTION 1\nPERCEIVER\t0-0\nPHENOMENON\t2-4",
    "#3 NEEDING 1\nREQUIREMENT\t2-6\nREQUIRER\t0-0",
    "#4 GESTURE 1\nAGENT\t0-0",
]

# A fixed system-output file over the toy corpus with planned errors, for
# hand-checked evaluation: 4 exact hits, 3 spurious roles, 3 missed roles.
_TOY_PRED_ROLES = [
    "#0 COMMITMENT 1\nMESSAGE\t3-5\nSPEAKER\t0-0",
    "#1 SLEEP 2\nSLEEPER\t0-0",
    "#2 PERCEPTION 1\nPERCEIVER\t0-0\nPHENOMENON\t2-3",
    "#3 NEEDING 1\nEXTRA\t4-6\nREQUIRER\t0-0",
    "#4 GESTURE 1",
]

FIGURE1 = {
    "src.tok": "Kim_NNP promised_VBD to_TO be_VB on_IN time_NN\n",
    "tgt.tok": "Kim_NE versprach_VVFIN ,_$, pünktlich_ADJD zu_PTKZU kommen_VVINF\n",
    "src.trees": _TOY_SRC_TREES[0] + "\n",
    "tgt.trees": _TOY_TGT_TREES[0] + "\n",
    "align": _TOY_ALIGN[0] + "\n",
    "src.roles": _TOY_SRC_ROLES[0] + "\n",
    "tgt.roles": _TOY_TGT_ROLES[0] + "\n",
    # expected pipeline outputs
    "expected_perfect.roles": "#0 COMMITMENT 1\nMESSAGE\t3-5\nSPEAKER\t0-0\n",
    "expected_word_fill.roles": "#0 COMMITMENT 1\nMESSAGE\t3-4\nSPEAKER\t0-0\n",
}

TOY = {
    "src.trees": "\n".join(_TOY_SRC_TREES) + "\n",
    "tgt.trees": "\n".join(_TOY_TGT_TREES) + "\n",
    "align": "\n".join(_TOY_ALIGN) + "\n",
    "src.roles": "\n\n".join(_TOY_SRC_ROLES) + "\n",
    "tgt.roles": "\n\n".join(_TOY_TGT_ROLES) + "\n",
    "pred.roles": "\n\n".join(_TOY_PRED_ROLES) + "\n",
}


def emit(out_dir) -> list[str]:
    """Write both fixture sets under out_dir/figure1 and out_dir/toy."""
    written = []
    for name, blob in (("figure1", FIGURE1), ("toy", TOY)):
        directory = os.path.join(out_dir, name)
        os.makedirs(directory, exist_ok=True)
        for filename, content in sorted(blob.items()):
            path = os.path.join(directory, filename)
            write_text(path, content)
            written.append(path)
    return written
