"""Alignment of surviving lines into paragraphs and sentences.

Lines are read column by column and joined without hard breaks.  A line
opens a new paragraph when the gap to the line above exceeds the normal
spacing tolerance or when it is indented relative to that line; the first
line of a column or page continues the open paragraph.  End-of-line hyphens
are deleted at the join (kept only when a supplied word list knows the
compound).  Paragraphs carry text only: the per-character provenance that
highlighting needs to find a sentence again in the replica lives in
``ExtractionResult.stream`` (see highlight.build_stream).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .columns import iter_segments
from .metrics import DocumentStats, Line, PageLineTree, Thresholds
from .postag import PosTagger
from .removal import RemovalLog


@dataclass
class Sentence:
    text: str


@dataclass
class Paragraph:
    text: str
    sentences: list[Sentence] = field(default_factory=list)


@dataclass
class BodyText:
    paragraphs: list[Paragraph] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "\n\n".join(p.text for p in self.paragraphs)

    def sentences(self):
        for paragraph in self.paragraphs:
            yield from paragraph.sentences


def _trailing_word(pieces: list[str]) -> str:
    """Final run of non-space characters of ``"".join(pieces)``, read from
    the non-empty pieces without joining them."""
    parts = []
    for piece in reversed(pieces):
        if piece[-1].isspace():
            break
        word = piece.rsplit(None, 1)[-1]
        parts.append(word)
        if len(word) < len(piece):
            break
    return "".join(reversed(parts))


def dehyphenate(lines: list[str], hyphen_words: set[str] | None = None) -> str:
    """Join line texts into one paragraph, handling trailing hyphens.

    Lines are joined with a space unless the text so far ends with a
    hyphen.  Default: that hyphen is deleted and the fragments
    concatenated.  With a word list: the hyphen stays when
    fragment-hyphen-fragment forms a listed compound.
    """
    pieces: list[str] = []           # non-empty, joined once at the end
    for i, text in enumerate(lines):
        if pieces and pieces[-1][-1] == "-":
            compound = hyphen_words and (
                _trailing_word(pieces) + (text.split(None, 1) or [""])[0]
            ).lower() in hyphen_words
            if not compound:
                pieces[-1] = pieces[-1][:-1]
                if not pieces[-1]:
                    pieces.pop()
        elif i:
            pieces.append(" ")
        if text:
            pieces.append(text)
    return "".join(pieces)


def assemble(tree: PageLineTree, model, stats: DocumentStats,
             thresholds: Thresholds,
             hyphen_words: set[str] | None = None) -> BodyText:
    """Fold the kept lines into paragraphs in reading order.

    A line starts a new paragraph when the gap to the previous kept line
    exceeds base_ls + gamma4, or when its leftmost block starts right of
    the previous line's.  Both conditions read "the line above" literally:
    they apply only while the previous kept line sits higher on the same
    page (so removed material widens the gap), and a column or page jump
    continues the open paragraph.
    """
    body = BodyText()
    lines: list[str] = []

    def flush():
        if lines:
            body.paragraphs.append(
                Paragraph(text=dehyphenate(lines, hyphen_words)))
            lines.clear()

    previous: Line | None = None
    previous_page: int | None = None
    for segment in iter_segments(tree, model):
        for line in segment.lines:
            if (previous is not None
                    and previous_page == segment.page.page_number
                    and previous.y > line.y):
                gap = previous.y - line.y
                if (gap > stats.base_ls + thresholds.gamma4
                        or round(line.x) > round(previous.x)):
                    flush()
            lines.append(line.text)
            previous = line
            previous_page = segment.page.page_number
    flush()
    return body


# ---------------------------------------------------------------------------
# Sentence segmentation
# ---------------------------------------------------------------------------

_TERMINATORS = ".!?"
_CLOSERS = "\"')]}”’»"
_OPENERS = "\"'“‘«("

# tokens whose trailing period does not end a sentence
_ABBREVIATIONS = {
    "fig.", "figs.", "tab.", "eq.", "eqs.", "sec.", "secs.", "no.", "nos.",
    "vol.", "al.", "e.g.", "i.e.", "cf.", "vs.", "resp.", "dr.", "mr.",
    "mrs.", "ms.", "prof.", "st.", "jr.", "sr.", "ca.", "approx.",
}
_SINGLE_CAP_RE = re.compile(r"^[A-Z]\.$")


def _sentence_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _TERMINATORS:
            j = i + 1
            if ch == "." and j < n and text[j] == ".":   # ellipsis
                i += 1
                continue
            while j < n and text[j] in _CLOSERS:
                j += 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            follows = (k > j and k < n
                       and (text[k].isupper() or text[k].isdigit()
                            or text[k] in _OPENERS))
            if follows and ch == ".":
                word = text[:i + 1].rsplit(None, 1)[-1].lstrip(_OPENERS)
                if word.lower() in _ABBREVIATIONS or _SINGLE_CAP_RE.match(word):
                    i += 1
                    continue
            if follows:
                spans.append((start, j))
                start = k
                i = k
                continue
        i += 1
    if start < n:
        spans.append((start, n))
    return spans


def _normalize(text: str) -> str:
    """Collapse whitespace runs to one space; sentences are compared in
    this form when located (highlight) and when scored (evaluate)."""
    return " ".join(text.split())


def segment_sentences(paragraph: str) -> list[str]:
    """Split a paragraph after . ! ? followed by an upper/digit/quote opener;
    common abbreviations and single-initial periods do not split."""
    return [paragraph[a:b] for a, b in _sentence_spans(paragraph)]


def finalize_sentences(body: BodyText) -> BodyText:
    for paragraph in body.paragraphs:
        paragraph.sentences = [
            Sentence(text=paragraph.text[a:b])
            for a, b in _sentence_spans(paragraph.text)]
    return body


# ---------------------------------------------------------------------------
# Caption removal and output
# ---------------------------------------------------------------------------

_CAPTION_OPENERS = {"table", "figure", "fig."}
_CAPTION_NUMBER_RE = re.compile(r"^\d+[.:]?$")


def remove_captions(body: BodyText, tagger: PosTagger,
                    log: RemovalLog | None = None) -> BodyText:
    """Drop caption paragraphs: "Table"/"Figure"/"Fig." + number, where the
    third word is not a verb.  A tagger failure keeps the paragraph."""
    kept = []
    for paragraph in body.paragraphs:
        tokens = paragraph.text.split()
        if (len(tokens) >= 2 and tokens[0].lower() in _CAPTION_OPENERS
                and _CAPTION_NUMBER_RE.match(tokens[1])):
            try:
                is_verb = (len(tokens) >= 3
                           and tagger.tag(tokens[2], 3) == "VERB")
            except Exception as exc:
                if log is not None:
                    log.warnings.append(
                        f"tagger failed on {tokens[2] if len(tokens) > 2 else ''!r}"
                        f" ({exc}); keeping paragraph")
                kept.append(paragraph)
                continue
            if not is_verb:
                if log is not None:
                    log.captions.append(paragraph.text)
                continue
        kept.append(paragraph)
    body.paragraphs = kept
    return body


def emit(body: BodyText) -> bytes:
    """UTF-8 output: one line per paragraph, blank-line separated, trailing
    newline; an empty body is an empty file."""
    if not body.paragraphs:
        return b""
    return ("\n\n".join(p.text for p in body.paragraphs) + "\n").encode("utf-8")
