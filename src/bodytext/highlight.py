"""Locate sentences in the body-text character stream and color them in the
replica markup.

The stream is the sequence of characters of the kept lines in reading
order, each carrying its (block, offset) provenance.  Matching normalizes
whitespace runs on both sides and treats an end-of-line hyphen as
optionally absent, so sentences taken from the dehyphenated output still
match.  Injection wraps the matched range in ``<span class="hl"
style="color:...">`` tags: partial coverage of the boundary blocks at the
text level, whole middle blocks at the element level.  Every other byte of
the replica is left untouched, so stripping the tags restores the original
exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .assembly import _normalize
from .columns import iter_segments
from .errors import PipelineError
from .metrics import PageLineTree
from .replica import CharRef, ReplicaDocument, TextBlock

HL_CLASS = "hl"
_OPEN_TMPL = '<span class="%s" style="color:%s">' % (HL_CLASS, "%s")
_CLOSE = "</span>"


@dataclass(frozen=True, slots=True)
class StreamChar:
    """One stream character and its source: offset ``t`` of block ``b``
    (both None for a collapsed space)."""

    char: str
    b: int | None
    t: int | None = None
    optional: bool = False      # end-of-line hyphen: may match '-' or nothing


@dataclass
class HighlightSpan:
    start: CharRef
    end: CharRef
    blocks: tuple[int, ...] = ()   # block indices the match covers, in order


def build_stream(tree: PageLineTree, model) -> list[StreamChar]:
    """Character stream of the kept lines in reading order.

    Whitespace runs collapse to a single unanchored space; line boundaries
    insert one unless the line ends with a hyphen, which becomes an optional
    element instead (the joined text may or may not contain it).
    """
    stream: list[StreamChar] = []
    pending_space = False
    for segment in iter_segments(tree, model):
        for line in segment.lines:
            for block in line.blocks:
                for t, c in enumerate(block.text):
                    if c.isspace():
                        pending_space = True
                        continue
                    if pending_space and stream:
                        stream.append(StreamChar(" ", None))
                    pending_space = False
                    stream.append(StreamChar(c, block.index, t))
            if stream and stream[-1].char == "-" and not stream[-1].optional:
                last = stream[-1]
                stream[-1] = StreamChar("-", last.b, last.t, optional=True)
                pending_space = False
            else:
                pending_space = True
    return stream


def _match_at(stream: list[StreamChar], i: int, target: str) -> int | None:
    """Try to match ``target`` starting at stream index i; returns the index
    one past the last consumed element, or None.  Optional elements may be
    consumed or skipped (consumed preferred, with backtracking)."""
    attempts = [(i, 0)]
    seen = set()
    while attempts:
        k, j = attempts.pop()
        while True:
            if j == len(target):
                return k
            if k >= len(stream):
                break
            element = stream[k]
            if element.optional:
                if (k, j) in seen:
                    break
                seen.add((k, j))
                attempts.append((k + 1, j))          # skip branch
                if element.char == target[j]:
                    k, j = k + 1, j + 1              # consume branch
                    continue
                break
            if element.char != target[j]:
                break
            k, j = k + 1, j + 1
    return None


def locate_sentence(stream: list[StreamChar], sentence: str,
                    warnings: list[str] | None = None) -> HighlightSpan:
    """First occurrence of the sentence in the stream.

    Raises PipelineError when absent; warns (if given a sink) on multiple
    occurrences and returns the first.
    """
    target = _normalize(sentence)
    if not target:
        raise PipelineError("cannot locate an empty sentence")
    matches: list[tuple[int, int]] = []
    i = 0
    while i < len(stream):
        end = _match_at(stream, i, target)
        if end is not None:
            matches.append((i, end))
            if len(matches) > 1:
                break
            i = end
        else:
            i += 1
    if not matches:
        raise PipelineError(f"sentence absent from body text: {target[:50]!r}")
    if len(matches) > 1 and warnings is not None:
        warnings.append(f"sentence occurs more than once; first match used: "
                        f"{target[:50]!r}")

    first, end = matches[0]
    anchored = [e for e in stream[first:end] if e.b is not None]
    blocks: list[int] = []
    for e in anchored:
        if not blocks or blocks[-1] != e.b:
            blocks.append(e.b)
    return HighlightSpan(start=CharRef(anchored[0].b, anchored[0].t),
                         end=CharRef(anchored[-1].b, anchored[-1].t),
                         blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------


@dataclass
class _Insertion:
    pos: int
    rank: int    # 0 = closing tag, 1 = opening tag (order within one offset)
    text: str


def _block_by_index(doc: ReplicaDocument) -> dict[int, TextBlock]:
    blocks = {}
    for _, obj in doc.iter_objects():
        if obj.kind == "text_block" and obj.block is not None:
            blocks[obj.block.index] = obj.block
    return blocks


def _char_src(block: TextBlock, t: int) -> tuple[int, int]:
    """Source range of character ``t`` of the block's text."""
    for seg in block.segments:
        if seg.text_offset <= t < seg.text_offset + seg.length:
            if seg.length == seg.src_end - seg.src_start:
                off = seg.src_start + (t - seg.text_offset)
                return (off, off + 1)
            return (seg.src_start, seg.src_end)     # character reference
    raise PipelineError(f"block {block.index}: no source for offset {t}")


def _span_insertions(doc_blocks, span: HighlightSpan, color: str,
                     ) -> list[_Insertion]:
    open_tag = _OPEN_TMPL % color
    out: list[_Insertion] = []
    blocks = span.blocks or tuple(range(span.start.b, span.end.b + 1))
    for b in blocks:
        block = doc_blocks.get(b)
        if block is None:
            raise PipelineError(f"highlight references unknown block {b}")
        t_first = span.start.t if b == span.start.b else 0
        t_last = span.end.t if b == span.end.b else len(block.text) - 1
        whole = t_first == 0 and t_last == len(block.text) - 1
        if whole and b not in (span.start.b, span.end.b):
            if block.elem_span is None:
                raise PipelineError(f"block {b} has no element source span")
            out.append(_Insertion(block.elem_span[0], 1, open_tag))
            out.append(_Insertion(block.elem_span[1], 0, _CLOSE))
        else:
            out.append(_Insertion(_char_src(block, t_first)[0], 1, open_tag))
            out.append(_Insertion(_char_src(block, t_last)[1], 0, _CLOSE))
    return out


def inject_colors(doc: ReplicaDocument,
                  spans: list[tuple[HighlightSpan, str]]) -> bytes:
    """Apply all highlight spans to the original markup in one pass.

    Spans must not overlap; the output is independent of their order.
    """
    ordered = sorted(spans, key=lambda sc: (sc[0].start.b, sc[0].start.t))
    for (a, _), (b, _) in zip(ordered, ordered[1:]):
        if (b.start.b, b.start.t) <= (a.end.b, a.end.t):
            raise PipelineError("overlapping highlight spans")

    doc_blocks = _block_by_index(doc)
    insertions: list[_Insertion] = []
    for span, color in ordered:
        insertions.extend(_span_insertions(doc_blocks, span, color))

    source = doc.source
    for ins in sorted(insertions, key=lambda i: (i.pos, i.rank), reverse=True):
        source = source[:ins.pos] + ins.text + source[ins.pos:]
    return source.encode("utf-8")


def inject_color(doc: ReplicaDocument, span: HighlightSpan,
                 color: str) -> bytes:
    """Single-span variant of inject_colors."""
    return inject_colors(doc, [(span, color)])


_OPEN_RE = re.compile(re.escape('<span class="%s"' % HL_CLASS) + r'[^>]*>')
_ANY_SPAN_RE = re.compile(r"<span\b[^>]*>|</span>")


def strip_highlights(html: str | bytes) -> bytes:
    """Remove injected highlight tags, restoring the pre-injection bytes."""
    if isinstance(html, bytes):
        html = html.decode("utf-8")
    removals: list[tuple[int, int]] = []
    for m in _OPEN_RE.finditer(html):
        depth = 1
        for tok in _ANY_SPAN_RE.finditer(html, m.end()):
            depth += 1 if tok.group().startswith("<span") else -1
            if depth == 0:
                removals.append((m.start(), m.end()))
                removals.append((tok.start(), tok.end()))
                break
        else:
            raise PipelineError("unbalanced highlight span in input")
    for start, end in sorted(removals, reverse=True):
        html = html[:start] + html[end:]
    return html.encode("utf-8")
