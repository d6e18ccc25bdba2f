"""Data model for bi-sentences, their word-filter views, the file-format
parsers, and the ``.roles`` writer.

Four line-oriented UTF-8 text formats, all parallel by line/block number:

``*.tok``
    One sentence per line, whitespace-free ``surface_POS`` tokens separated
    by single spaces.  The last underscore separates surface from tag.

``*.trees``
    One bracketed constituency tree per line, ``(LABEL (POS word) ...)``.
    The literal line ``-`` means "no tree for this sentence".

``*.align``
    One line of space-separated ``i-j`` word links per sentence, 0-based,
    source index first.  An empty line is an empty alignment.

``*.roles``
    Blocks separated by one blank line.  First line of a block is
    ``#<sentence-no> <frame-name> <predicate-index>``; each following line
    is ``ROLE<TAB>lo-hi[,lo-hi...]`` with inclusive 0-based token spans.
    A predicate index of -1 means "no known predicate position"; none is lower.

Token indexing is 0-based everywhere and spans are inclusive intervals.
``.roles`` is the one format written: in a canonical form (alphabetically
sorted role labels, spans sorted by start), so that reading a canonical
``.roles`` file and writing it again reproduces the input byte for byte.
The tests check the same round trip for the other three formats with
writers of their own.

Tree lines are lexed by spacing out the brackets and calling
``str.split()``, so every token is a bracket or an atom, and parsed in a
single pass over the tokens.  A well-formed preterminal ``(POS word)``, four
tokens, costs one loop step, and about half the nodes of a tree are
preterminals.  The character offsets in tree errors are computed only when
an error is raised, by lexing the line again with a regular expression
that splits on the same whitespace as ``str.split()``.  An alignment
line is accepted by one regular expression match and its numbers are
converted in bulk; it is walked pair by pair only to name its first bad
pair.

A ``.roles`` file in the layout ``roles_file_text`` writes is likewise
accepted by one regular expression match over the whole file, then split
into blocks and lines with ``str.split`` and built into one
``RoleAnnotation`` per block.  The block-by-block parser runs only when
that match or a check fails: it names the first error, and reads the
layouts the match leaves out, such as whitespace-only separator lines.
``RoleAnnotation`` checks a role of one span without sorting or pairing
its spans.

A ``BiSentence`` holds its word links as a frozenset of (source, target)
token index pairs and takes the sentence lengths from its sentences
alone.  ``parse_alignment``, the one reader given those lengths,
range-checks the links with its file and line; ``BiSentence`` checks that
its trees, roles and links fit its sentences.

Sentences and trees hold no Python object per token or node.  A
``Sentence`` is two parallel tuples, surfaces and tags, indexed by token
position; a ``ParseTree`` is one tuple per node attribute (label, span,
children), indexed by preorder node id.  A collection stops tracking a
tuple that holds only strings, ints and untracked tuples, so a loaded
corpus keeps a few tracked objects per sentence whatever the sentence
length.

The whole-file readers and ``load_corpus`` prefix every error with where it
happened: ``path:line:`` for tree, token and alignment lines,
``path: block k:`` for role blocks and ``sentence k:`` for a record whose
parts disagree.  A number of more than 4,300 digits, past the interpreter's
integer conversion limit, is a FormatError of its line or block.
"""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass

from .errors import ConfigError, FormatError, ValidationError, located

Span = tuple[int, int]


@dataclass(frozen=True)
class Sentence:
    """The tokens of a sentence as two parallel tuples, indexed by position."""

    surfaces: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if not self.surfaces:
            raise ValidationError("sentence must contain at least one token")
        if len(self.surfaces) != len(self.tags):
            raise ValidationError(
                f"{len(self.surfaces)} surfaces but {len(self.tags)} tags: "
                "a sentence needs one tag per token"
            )

    def __len__(self):
        return len(self.surfaces)


@dataclass(frozen=True)
class ParseTree:
    """A constituency tree as parallel tuples indexed by preorder node id.

    Node 0 is the root.  ``spans[n]`` is node n's inclusive token interval
    and ``children[n]`` its child ids, left to right; ``children[n] == ()``
    marks a preterminal, whose label is the token's tag.  The tree keeps
    no parent links: ``projection.argument_filter`` walks down from the root.
    """

    sentence: Sentence
    labels: tuple[str, ...]
    spans: tuple[Span, ...]
    children: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=True)
class RoleAnnotation:
    """One frame per sentence plus a mapping from role label to a set of spans."""

    frame: str
    roles: tuple[tuple[str, frozenset[Span]], ...]
    predicate: int

    def __post_init__(self):
        if self.predicate < -1:
            raise ValidationError(f"bad predicate index {self.predicate} in frame {self.frame}")
        roles = self.roles
        if len({label for label, _ in roles}) != len(roles):
            raise ValidationError(f"duplicate role labels in frame {self.frame}")
        for label, spans in roles:
            if len(spans) == 1:  # most roles: nothing to sort or pair
                ((lo, hi),) = spans
                if lo > hi or lo < 0:
                    raise ValidationError(f"bad span {lo}-{hi} for role {label}")
                continue
            ordered = sorted(spans)
            for (lo, hi) in ordered:
                if lo > hi or lo < 0:
                    raise ValidationError(f"bad span {lo}-{hi} for role {label}")
            for (_, hi), (lo2, _) in zip(ordered, ordered[1:]):
                if lo2 <= hi:
                    raise ValidationError(f"overlapping spans within role {label}")

    @classmethod
    def make(cls, frame: str, roles: dict[str, set[Span]], predicate: int) -> "RoleAnnotation":
        items = tuple(sorted((label, frozenset(spans)) for label, spans in roles.items()))
        return cls(frame, items, predicate)

    def spans_of(self, label: str) -> frozenset[Span]:
        for lab, spans in self.roles:
            if lab == label:
                return spans
        raise KeyError(label)

    def tokens_of(self, label: str) -> frozenset[int]:
        return frozenset(
            i for lo, hi in self.spans_of(label) for i in range(lo, hi + 1)
        )

    def max_index(self) -> int:
        top = self.predicate
        for _, spans in self.roles:
            for _, hi in spans:
                top = max(top, hi)
        return top


@dataclass(frozen=True)
class BiSentence:
    """A sentence pair, its word links as (source, target) token indices,
    and optionally its trees and source role annotation."""

    src: Sentence
    tgt: Sentence
    links: frozenset[tuple[int, int]]
    src_tree: ParseTree | None = None
    tgt_tree: ParseTree | None = None
    src_roles: RoleAnnotation | None = None

    def __post_init__(self):
        # load_corpus passes each tree's own Sentence, which needs no check.
        for tree, sent, side in ((self.src_tree, self.src, "source"),
                                 (self.tgt_tree, self.tgt, "target")):
            if (tree is not None and tree.sentence is not sent
                    and tree.sentence.surfaces != sent.surfaces):
                raise ValidationError(f"{side} tree tokens do not match the sentence")
        if self.src_roles is not None and self.src_roles.max_index() >= len(self.src):
            raise ValidationError("source role annotation index out of range")
        n_src, n_tgt = len(self.src), len(self.tgt)
        for s, t in self.links:
            if not (0 <= s < n_src and 0 <= t < n_tgt):
                raise ValidationError(f"link {s}-{t} out of range for lengths {n_src}/{n_tgt}")


# ---------------------------------------------------------------------------
# Word filters

# POS prefixes counted as content words: nouns, verbs, adjectives, adverbs,
# covering both the Penn Treebank and the TIGER tagsets.
DEFAULT_CONTENT_PREFIXES = frozenset(
    {"NN", "JJ", "RB", "VB", "NE", "VV", "VA", "VM", "ADJ", "ADV"}
)


@dataclass(frozen=True)
class BiSentenceView:
    """A bi-sentence with exclusion masks applied for similarity purposes.

    The word filters are views, never edits: token indices in any output
    still refer to the original sentence.
    """

    bisentence: BiSentence
    included_src: frozenset[int]
    included_tgt: frozenset[int]
    links: frozenset[tuple[int, int]]


def apply_word_filters(b: BiSentence, filters, content_pos_prefixes) -> BiSentenceView:
    """The view of ``b`` under the word filters (``na``, ``nc``) in ``filters``.

    ``na`` keeps the tokens that have a link, and every link.  ``nc`` then
    keeps the tokens whose tag starts with one of ``content_pos_prefixes``,
    and the links whose two ends it keeps; a token with no tag, even one
    ``na`` excluded, is a ``ValidationError``.  ``na`` reads the unfiltered
    links, so a content word linked only to a function word survives
    ``na,nc``.
    """
    links = b.links
    if "na" in filters:
        inc_src, inc_tgt = {s for s, _ in links}, {t for _, t in links}
    else:
        inc_src, inc_tgt = range(len(b.src)), range(len(b.tgt))
    if "nc" in filters:
        prefixes = tuple(content_pos_prefixes)
        for sentence in (b.src, b.tgt):
            if not all(sentence.tags):
                surface = next(w for w, tag in zip(sentence.surfaces, sentence.tags) if not tag)
                raise ValidationError(f"token {surface!r} has no POS tag")
        src_tags, tgt_tags = b.src.tags, b.tgt.tags
        inc_src = {i for i in inc_src if src_tags[i].startswith(prefixes)}
        inc_tgt = {j for j in inc_tgt if tgt_tags[j].startswith(prefixes)}
        links = frozenset((s, t) for s, t in links if s in inc_src and t in inc_tgt)
    return BiSentenceView(b, frozenset(inc_src), frozenset(inc_tgt), links)


# ---------------------------------------------------------------------------
# Bracketed trees


# Bracket/atom lexing, used only to find the character offset of an error.
# Its k-th match is the k-th token of parse_tree's str.split() lexing: in a
# str pattern \s matches exactly the characters for which str.isspace() is
# true, the set str.split() splits on.
_LEXEME_RE = re.compile(r"[()]|[^\s()]+")


def _lexeme_offset(line: str, k: int) -> int:
    """Character offset of the k-th bracket/atom token of a tree line."""
    return next(itertools.islice(_LEXEME_RE.finditer(line), k, None)).start()


def parse_tree(line: str) -> ParseTree:
    """Parse one Penn-style bracketed tree line into a ParseTree.

    The line is lexed into bracket and atom tokens by spacing out the
    brackets and splitting on whitespace, then parsed in one pass: a
    well-formed preterminal, the four tokens ``(``, POS, word, ``)``, is
    consumed in one step and becomes a node at once, ``(`` opens a
    constituent labelled by the next token, and ``)`` closes it.  A
    preterminal runs the same checks as a ``(`` at its position, so every
    error fires on the same input as with one step per token.
    Raises FormatError with a character offset for unbalanced or malformed
    bracketings.
    Offsets appear only in errors, so they are found by lexing the line
    again when one is raised.  The parse keeps its own stack of open
    constituents, so tree depth is bounded by memory, not by the
    interpreter's recursion limit.
    """
    labels: list[str] = []  # preorder, like the other per-node lists
    spans: list[Span | None] = []  # a constituent's span is set when it closes
    children: list[tuple[int, ...] | None] = []
    surfaces: list[str] = []
    tags: list[str] = []
    # One [node_id, has_word, child_ids] frame per open constituent.
    # A frame gets a word only in a malformed preterminal, which the next
    # token rejects: a well-formed one is consumed in one step.
    stack: list[list] = []
    toks = line.replace("(", " ( ").replace(")", " ) ").split()
    n = len(toks)
    k = 0
    while k < n:
        text = toks[k]
        if not stack and labels:
            raise FormatError(f"trailing material at offset {_lexeme_offset(line, k)}")
        if text == "(":
            node_id = len(labels)
            if stack:
                frame = stack[-1]
                if frame[1]:
                    raise FormatError(
                        f"child constituent after word at offset {_lexeme_offset(line, k)}"
                    )
                frame[2].append(node_id)
            # A token is never empty, so "in" tells a bracket from an atom;
            # the end of the line stands in as a bracket.
            label = toks[k + 1] if k + 1 < n else ")"
            if label in "()":
                raise FormatError(
                    f"expected node label at offset {_lexeme_offset(line, k) + 1}"
                )
            labels.append(label)
            if k + 3 < n and toks[k + 3] == ")" and toks[k + 2] not in "()":
                # A well-formed preterminal: "(", POS, word, ")".
                i = len(surfaces)
                surfaces.append(toks[k + 2])
                tags.append(label)
                spans.append((i, i))
                children.append(())
                k += 4
            else:
                spans.append(None)
                children.append(None)
                stack.append([node_id, False, []])
                k += 2
            continue
        if not stack:
            raise FormatError(f"expected '(' at offset {_lexeme_offset(line, k)}")
        if text == ")":
            node_id, _, child_ids = stack.pop()
            if not child_ids:
                raise FormatError(f"empty constituent '{labels[node_id]}'")
            spans[node_id] = (spans[child_ids[0]][0], spans[child_ids[-1]][1])
            children[node_id] = tuple(child_ids)
        else:
            frame = stack[-1]
            if frame[2]:
                raise FormatError(
                    f"word after child constituent at offset {_lexeme_offset(line, k)}"
                )
            if frame[1]:
                raise FormatError(
                    f"second word under one preterminal at offset {_lexeme_offset(line, k)}"
                )
            frame[1] = True
        k += 1
    if not labels:
        raise FormatError("empty tree line")
    if stack:
        raise FormatError(f"unbalanced brackets: missing ')' at offset {len(line)}")
    return ParseTree(
        Sentence(tuple(surfaces), tuple(tags)),
        tuple(labels),
        tuple(spans),
        tuple(children),
    )


# ---------------------------------------------------------------------------
# Word alignments

# A whole well-formed line: whitespace-separated "i-j" pairs.  \s matches
# exactly what str.split() splits on.  The digits must be [0-9], not \d,
# because int() also converts "1_0", "+1" and the digits of other scripts.
_ALIGN_LINE_RE = re.compile(r"\s*(?:[0-9]+-[0-9]+(?:\s+[0-9]+-[0-9]+)*)?\s*")
_LINK_RE = re.compile(r"([0-9]+)-([0-9]+)")


def parse_alignment(line: str, n_src: int, n_tgt: int) -> frozenset[tuple[int, int]]:
    """The links of a Pharaoh-style line of ``i-j`` pairs; duplicates collapse.

    One match accepts a well-formed line and its numbers are converted in
    bulk.  A line is walked pair by pair only when it has an error, to name
    its first bad pair.
    """
    if _ALIGN_LINE_RE.fullmatch(line):
        try:
            nums = list(map(int, line.replace("-", " ").split()))
        except ValueError:  # more digits than int() converts: named below
            pass
        else:
            src, tgt = nums[0::2], nums[1::2]
            if not nums or (max(src) < n_src and max(tgt) < n_tgt):
                return frozenset(zip(src, tgt))
    for part in line.split():
        m = _LINK_RE.fullmatch(part)
        if not m:
            raise FormatError(f"malformed alignment pair {part!r}")
        try:
            s, t = int(m.group(1)), int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise FormatError(f"malformed alignment pair {part!r}") from None
        if s >= n_src or t >= n_tgt:
            raise FormatError(
                f"alignment link {s}-{t} out of range for lengths {n_src}/{n_tgt}"
            )
    raise AssertionError(f"no bad pair in the rejected alignment line {line!r}")


# ---------------------------------------------------------------------------
# Tokenized sentences


def parse_tok_line(line: str) -> Sentence:
    surfaces, tags = [], []
    for item in line.split(" "):
        if not item:
            raise FormatError("empty token (double space?) in .tok line")
        if item.split() != [item]:
            raise FormatError(f"token {item!r} contains whitespace")
        surface, sep, pos = item.rpartition("_")
        if not sep or not surface or not pos:
            raise FormatError(f"token {item!r} is not of the form surface_POS")
        surfaces.append(surface)
        tags.append(pos)
    return Sentence(tuple(surfaces), tuple(tags))


# ---------------------------------------------------------------------------
# Role annotations

_HEADER_RE = re.compile(r"^#([0-9]+) (\S+) (-?[0-9]+)$")
_SPAN_RE = re.compile(r"^([0-9]+)-([0-9]+)$")

# A whole .roles file in the layout ``roles_file_text`` writes: blocks
# separated by one empty line, a final newline or none, and no whitespace
# but the header's two spaces and a role line's tab.  No line in it is
# blank, so it splits into the same blocks and lines as ``read_roles_file``
# splits any file into, and each line passes ``parse_roles_block``'s checks.
_ROLES_BLOCK = r"#[0-9]+ \S+ -?[0-9]+(?:\n\S+\t[0-9]+-[0-9]+(?:,[0-9]+-[0-9]+)*)*"
_ROLES_FILE_RE = re.compile(rf"{_ROLES_BLOCK}(?:\n\n{_ROLES_BLOCK})*\n?")


def parse_roles_block(block: str) -> tuple[int, RoleAnnotation]:
    """The sentence number and annotation of one .roles block: a header, then role lines."""
    lines = [ln for ln in block.split("\n") if ln.strip()]
    if not lines:
        raise FormatError("empty roles block")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise FormatError(f"bad roles header {lines[0]!r}")
    try:
        sent_no, frame, predicate = int(m.group(1)), m.group(2), int(m.group(3))
    except ValueError:  # more digits than int() converts
        raise FormatError(f"bad roles header {lines[0]!r}") from None
    roles: dict[str, set[Span]] = {}
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(f"unknown field layout in role line {line!r}")
        label, span_text = fields
        if label.split() != [label]:
            raise FormatError(f"bad role label {label!r} in role line {line!r}")
        if label in roles:
            raise ValidationError(f"duplicate role label {label!r}")
        spans = set()
        for piece in span_text.split(","):
            sm = _SPAN_RE.match(piece)
            if not sm:
                raise FormatError(f"bad span {piece!r} in role line {line!r}")
            try:
                spans.add((int(sm.group(1)), int(sm.group(2))))
            except ValueError:  # more digits than int() converts
                raise FormatError(f"bad span {piece!r} in role line {line!r}") from None
        roles[label] = spans
    return sent_no, RoleAnnotation.make(frame, roles, predicate)


def serialize_roles(ann: RoleAnnotation, sentence_no: int = 0) -> str:
    """Canonical block text: labels alphabetical, spans sorted by start."""
    lines = [f"#{sentence_no} {ann.frame} {ann.predicate}"]
    for label, spans in sorted(ann.roles):
        span_text = ",".join(f"{lo}-{hi}" for lo, hi in sorted(spans))
        lines.append(f"{label}\t{span_text}")
    return "\n".join(lines)


def merge_spans(spans) -> tuple[Span, ...]:
    """The sorted maximal intervals covering inclusive spans, joining spans
    that overlap or touch: two collections cover the same tokens exactly
    when their merges are equal."""
    out: list[Span] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# Whole-file readers/writers


def read_text(path) -> str:
    """A whole UTF-8 text file; every input file is read through here.

    A leading byte-order mark, which some editors write, is not text.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_text(path, text: str) -> None:
    """Write a whole UTF-8 text file; every output file is written through here."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_lines(path) -> list[str]:
    """The lines of a text file, without their newlines."""
    return [line.rstrip("\n") for line in io.StringIO(read_text(path))]


def _parse_lines(path, parse) -> list:
    """``parse`` of each line of a file; an error names the file and line."""
    out = []
    for lineno, line in enumerate(read_lines(path), 1):
        with located(f"{path}:{lineno}"):
            out.append(parse(line))
    return out


def read_trees_file(path) -> list[ParseTree | None]:
    return _parse_lines(path, lambda line: None if line == "-" else parse_tree(line))


def read_tok_file(path) -> list[Sentence]:
    return _parse_lines(path, parse_tok_line)


def read_roles_file(path) -> list[RoleAnnotation]:
    """The annotations of a .roles file, read in one pass if it can be.

    A file that ``_roles_in_one_pass`` does not take, such as one with an
    error, is parsed block by block, which names its first error.
    """
    text = read_text(path)
    anns = _roles_in_one_pass(text)
    return _roles_block_by_block(path, text) if anns is None else anns


def _roles_in_one_pass(text: str) -> list[RoleAnnotation] | None:
    """The annotations of a well-formed file in the canonical layout, or None.

    One match accepts the whole file; then its lines are split and each
    role's numbers converted at once.  None means the match rejected the
    file, a number has more digits than ``int()`` converts, a block carries
    the wrong sentence number, or an annotation is invalid.
    """
    if not _ROLES_FILE_RE.fullmatch(text):
        return None
    anns = []
    try:
        for k, block in enumerate(text.rstrip("\n").split("\n\n")):
            header, *lines = block.split("\n")
            sent_no, frame, predicate = header.split(" ")
            if int(sent_no[1:]) != k:
                return None
            roles = []
            for line in lines:
                label, span_text = line.split("\t")
                if "," in span_text:
                    nums = list(map(int, span_text.replace(",", "-").split("-")))
                    spans = frozenset(zip(nums[0::2], nums[1::2]))
                else:
                    lo, hi = span_text.split("-")
                    spans = frozenset(((int(lo), int(hi)),))
                roles.append((label, spans))
            roles.sort()
            anns.append(RoleAnnotation(frame, tuple(roles), int(predicate)))
    except (ValueError, ValidationError):
        return None
    return anns


def _roles_block_by_block(path, text: str) -> list[RoleAnnotation]:
    blocks = [b for b in re.split(r"\n\s*\n", text) if b.strip()]
    anns = []
    for k, block in enumerate(blocks):
        with located(f"{path}: block {k}"):
            sent_no, ann = parse_roles_block(block)
        if sent_no != k:
            raise FormatError(f"{path}: block {k} carries sentence number {sent_no}")
        anns.append(ann)
    return anns


def roles_file_text(annotations) -> str:
    """The ``.roles`` text of annotations; ``""`` for none."""
    blocks = [serialize_roles(ann, k) for k, ann in enumerate(annotations)]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def _side(trees_path, tok_path, name) -> tuple[list[Sentence], list[ParseTree | None]]:
    """The sentences and trees of one side, from a .trees file, a .tok file or both."""
    trees = read_trees_file(trees_path) if trees_path else None
    toks = read_tok_file(tok_path) if tok_path else None
    if trees is None:
        if toks is None:
            raise ConfigError(f"no {name}-side sentences: need a .trees or .tok file")
        return toks, [None] * len(toks)
    if toks is None:
        toks = [None] * len(trees)
    elif len(trees) != len(toks):
        raise ValidationError(f"{name} trees/tok files are not parallel")
    sentences = []
    for k, (tree, sent) in enumerate(zip(trees, toks)):
        if tree is None and sent is None:
            raise ValidationError(f"{name} sentence {k} has neither tree nor tokens")
        if tree is not None and sent is not None and tree.sentence != sent:
            raise ValidationError(f"{name} tree and tok disagree for sentence {k}")
        sentences.append(sent if tree is None else tree.sentence)
    return sentences, trees


def load_corpus(
    *,
    align_path,
    src_trees_path=None,
    src_tok_path=None,
    tgt_trees_path=None,
    tgt_tok_path=None,
    src_roles_path=None,
) -> list[BiSentence]:
    """Assemble parallel files into BiSentence records.

    Each side needs a .trees or a .tok file (or both, in which case they
    must agree).  All provided files must be parallel; mismatched record
    counts raise ValidationError.  An error in one line or block names its
    file and line (``path:line:``) or block (``path: block k:``); an error
    in assembling a record names its sentence (``sentence k:``).
    """
    src_sents, src_trees = _side(src_trees_path, src_tok_path, "source")
    tgt_sents, tgt_trees = _side(tgt_trees_path, tgt_tok_path, "target")
    if len(src_sents) != len(tgt_sents):
        raise ValidationError("source and target files are not parallel")
    n = len(src_sents)

    align_lines = read_lines(align_path)
    if len(align_lines) != n:
        raise ValidationError("alignment file is not parallel with the sentences")

    src_roles = read_roles_file(src_roles_path) if src_roles_path else [None] * n
    if len(src_roles) != n:
        raise ValidationError("roles file is not parallel with the sentences")

    out = []
    for k, (src, tgt, line) in enumerate(zip(src_sents, tgt_sents, align_lines)):
        with located(f"{align_path}:{k + 1}"):
            links = parse_alignment(line, len(src), len(tgt))
        with located(f"sentence {k}"):
            out.append(BiSentence(src, tgt, links, src_trees[k], tgt_trees[k], src_roles[k]))
    return out
