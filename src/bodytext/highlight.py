"""Locate sentences in the body-text stream and color them in the replica
markup.

The stream is the text of the kept lines in reading order, with every
whitespace run collapsed to one space, plus a run table that gives the
source (block, offset) of each run: a stretch of a block whose words are
joined by single spaces, so that within it stream and block offsets map
1:1.  An end-of-line hyphen is written as ``"\\n"``: it may match ``-`` or
nothing, so sentences taken from the dehyphenated output still match.
The stream also keeps its flat text, with those optional hyphens removed.
A sentence with no ``-`` can only skip optional hyphens, so it is located
by substring search in the flat text; a sentence with a ``-`` is compiled
into a regular expression that lets each ``-`` take a literal or an
optional hyphen.  Injection wraps each run of source text the matched
range covers in ``<span class="hl" style="color:...">`` tags, so no wrap
holds a tag.  Every other byte of the replica is left untouched, so
removing the wraps restores the original exactly.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .assembly import _normalize
from .columns import iter_segments
from .errors import FormatError, PipelineError
from .metrics import PageLineTree
from .replica import HL_CLASS, CharRef, ReplicaDocument, TextBlock

_OPEN_TMPL = '<span class="%s" style="color:%s">' % (HL_CLASS, "%s")
_CLOSE = "</span>"
_PIECE_RE = re.compile(r"\S+(?: \S+)*")  # a single-spaced stretch
_UNIT_RE = re.compile(r"-+|[^-]")     # a run of '-' or one other character
_COLOR_RE = re.compile(r"#?[0-9A-Za-z]+")
_OPEN_RE = re.compile(re.escape(_OPEN_TMPL).replace("%s", '[^"]*'))
_WRAP_RE = re.compile(_OPEN_RE.pattern + "(.*?)" + re.escape(_CLOSE), re.S)


@dataclass(frozen=True, slots=True)
class Stream:
    """Stream text and its run table: the run starting at stream offset
    ``starts[i]`` is block ``runs[i][0]`` from offset ``runs[i][1]``.
    ``flat`` is ``text`` without its optional hyphens, and ``hyphens``
    holds their flat offsets: each sits before the flat character at its
    offset."""

    text: str
    starts: list[int]
    runs: list[tuple[int, int]]
    flat: str
    hyphens: list[int]

    def __len__(self) -> int:
        return len(self.text)

    def run(self, k: int) -> int:
        """Index of the run holding stream offset ``k``."""
        return bisect_right(self.starts, k) - 1

    def ref(self, k: int) -> CharRef:
        """Source of the non-space character at stream offset ``k``."""
        i = self.run(k)
        b, t = self.runs[i]
        return CharRef(b, t + k - self.starts[i])


@dataclass(slots=True)
class HighlightSpan:
    start: CharRef
    end: CharRef
    blocks: tuple[int, ...]        # block indices the match covers, in order


def build_stream(tree: PageLineTree, model) -> Stream:
    """Stream of the kept lines in reading order.

    Whitespace runs collapse to a single space; line boundaries insert one
    unless the line's text ends with a hyphen, which becomes an optional
    hyphen instead (the joined text may or may not contain it); a hyphen
    followed by whitespace stays literal, as dehyphenate keeps it.
    """
    pieces: list[str] = []
    starts: list[int] = []
    runs: list[tuple[int, int]] = []
    hyphens: list[int] = []
    size = 0
    pending_space = False
    for segment in iter_segments(tree, model):
        for line in segment.lines:
            for block in line.blocks:
                text = block.text
                for m in _PIECE_RE.finditer(text):
                    if (pending_space or m.start()) and pieces:
                        pieces.append(" ")
                        size += 1
                    pending_space = False
                    starts.append(size)
                    runs.append((block.index, m.start()))
                    pieces.append(m.group())
                    size += len(pieces[-1])
                if text and text[-1].isspace():
                    pending_space = True
            if line.text.endswith("-"):
                pieces[-1] = pieces[-1][:-1] + "\n"     # optional hyphen
                hyphens.append(size - 1 - len(hyphens))
                pending_space = False
            else:
                pending_space = True
    text = "".join(pieces)
    return Stream(text, starts, runs, text.replace("\n", ""), hyphens)


def _pattern(target: str) -> re.Pattern:
    """Regular expression for ``target`` in the stream text.

    Optional hyphens may be skipped before any character, and each ``-``
    of the target takes one stream hyphen, literal or optional.  So a run
    of m ``-`` that ends the target takes the next m stream hyphens.  Any
    other run of m ``-`` must cover the whole run of stream hyphens it
    meets: at least m hyphens, at most m of them literal.  Written as
    these conditions, a failed match does not retry every way of taking
    or skipping the optional hyphens, which costs time exponential in the
    length of the run.  A target that opens with any other character
    opens with that character, so the engine can skip ahead to it; the
    caller extends such a match back over the optional hyphens before it.
    """
    parts = []
    for unit in _UNIT_RE.finditer(target):
        m = len(unit.group())
        if unit.group()[0] != "-":
            parts.append((r"\n*" if unit.start() else "")
                         + re.escape(unit.group()))
        elif unit.end() == len(target):
            parts.append(r"[\n-]{%d}" % m)
        else:
            parts.append(r"(?=[\n-]{%d})(?:\n*-){0,%d}" % (m, m))
    return re.compile("".join(parts))


def locate_sentence(stream: Stream, sentence: str,
                    warnings: list[str] | None = None) -> HighlightSpan:
    """First occurrence of the sentence in the stream.

    Raises PipelineError when absent; warns (if given a sink) on multiple
    occurrences and returns the first.
    """
    target = _normalize(sentence)
    if not target:
        raise PipelineError("cannot locate an empty sentence")
    found = _occurrences(stream, target)
    first = next(found, None)
    if first is None:
        raise PipelineError(f"sentence absent from body text: {target[:50]!r}")
    if warnings is not None and next(found, None) is not None:
        warnings.append(f"sentence occurs more than once; first match used: "
                        f"{target[:50]!r}")

    start, last = first
    while target[0] != "-" and start and stream.text[start - 1] == "\n":
        start -= 1
    runs = stream.runs[stream.run(start):stream.run(last) + 1]
    return HighlightSpan(start=stream.ref(start), end=stream.ref(last),
                         blocks=tuple(dict.fromkeys(b for b, _ in runs)))


def _occurrences(stream: Stream, target: str):
    """Text offsets (first, last character) of each non-overlapping
    occurrence of ``target``, in order, as ``finditer`` of ``_pattern``
    gives them.  A target with no ``-`` can only skip optional hyphens, so
    its occurrences are those in the flat text, mapped back by counting
    the optional hyphens before each end."""
    if "-" in target:
        for m in _pattern(target).finditer(stream.text):
            yield m.start(), m.end() - 1
        return
    hyphens = stream.hyphens
    f = stream.flat.find(target)
    while f >= 0:
        last = f + len(target) - 1
        yield (f + bisect_right(hyphens, f),
               last + bisect_right(hyphens, last))
        f = stream.flat.find(target, last + 1)


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------


def _span_insertions(blocks: list[TextBlock], span: HighlightSpan,
                     color: str) -> list[tuple[int, int, str]]:
    """(source offset, rank, tag) of each tag the span needs; rank 0, a
    closing tag, goes before rank 1, an opening tag, at one offset.

    Each text run of a block's source map that the span covers gets one
    wrap; a character reference is covered whole, and a wrap that starts
    where the previous one ends extends it.
    """
    open_tag = _OPEN_TMPL % color
    out: list[tuple[int, int, str]] = []
    for b in span.blocks:
        if not 0 <= b < len(blocks):
            raise PipelineError(f"highlight references unknown block {b}")
        block = blocks[b]
        t_first = span.start.t if b == span.start.b else 0
        t_end = span.end.t + 1 if b == span.end.b else len(block.text)
        runs = iter(block.source_map)        # read four ints at a time
        for offset, length, src_start, src_end in zip(runs, runs, runs, runs):
            lo = max(t_first, offset) - offset
            hi = min(t_end, offset + length) - offset
            if lo >= hi:
                continue
            if length == src_end - src_start:
                start, end = src_start + lo, src_start + hi
            else:
                start, end = src_start, src_end
            if out and out[-1][0] == start:
                out[-1] = (end, 0, _CLOSE)
            else:
                out += [(start, 1, open_tag), (end, 0, _CLOSE)]
    return out


def inject_colors(doc: ReplicaDocument,
                  spans: list[tuple[HighlightSpan, str]]) -> bytes:
    """Apply all highlight spans to the original markup in one pass.

    Spans must not overlap; the output is independent of their order.
    Their block indices are positions in ``doc.blocks``, as
    enumerate_blocks numbered them.  Refuses a source that already holds
    highlight wraps, since stripping would remove those too.
    """
    for _, color in spans:
        if not _COLOR_RE.fullmatch(color):
            raise FormatError(f"invalid color {color!r}")
    if _OPEN_RE.search(doc.source):
        raise PipelineError("the replica already holds highlight spans")
    ordered = sorted(spans, key=lambda sc: (sc[0].start.b, sc[0].start.t))
    for (a, _), (b, _) in zip(ordered, ordered[1:]):
        if (b.start.b, b.start.t) <= (a.end.b, a.end.t):
            raise PipelineError("overlapping highlight spans")

    insertions: list[tuple[int, int, str]] = []
    for span, color in ordered:
        insertions.extend(_span_insertions(doc.blocks, span, color))

    source = doc.source
    pieces: list[str] = []
    done = 0
    # equal (offset, rank): the insertion listed last goes first
    for pos, _, tag in sorted(reversed(insertions), key=lambda i: i[:2]):
        pieces += (source[done:pos], tag)
        done = pos
    pieces.append(source[done:])
    return "".join(pieces).encode("utf-8")


def inject_color(doc: ReplicaDocument, span: HighlightSpan,
                 color: str) -> bytes:
    """Single-span variant of inject_colors."""
    return inject_colors(doc, [(span, color)])


def strip_highlights(html: str | bytes) -> bytes:
    """Remove injected highlight tags, restoring the pre-injection bytes.

    A wrap holds only text, so each one ends at the next ``</span>``.
    """
    if isinstance(html, bytes):
        html = html.decode("utf-8")
    html = _WRAP_RE.sub(r"\1", html)
    if _OPEN_RE.search(html):
        raise PipelineError("unbalanced highlight span in input")
    return html.encode("utf-8")
