"""Nonbody-text removal: a shallow feature pass, then deep in-area passes.

Shallow removal drops non-textual objects, rotated blocks, and blocks whose
font size falls outside the body-font interval.  Deep removal works inside
the body-text printing area: margin sidings, the references tail, special
lines (over-indented or containing a wide inserted gap), and finally the
backward scan that threads a Boolean flag through four per-line tests.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .columns import Segment, bt_area, iter_segments
from .metrics import (DocumentStats, Line, PageLineTree, Thresholds,
                      char_tbk_density, group_lines)
from .replica import ReplicaDocument, Page, PageObject, TextBlock

# characters accepted as sentence-ending punctuation (straight, curly, CJK)
PUNCTUATION = set(".!?:;,)]}\"'”’»…"
                  "。！？：；，）】」』")

_REFERENCE_HEADINGS = {"references", "bibliography"}
_NUMBERING_RE = re.compile(r"^[\[(]?\d+[\])]?\.?$")


@dataclass
class BlockVerdict:
    page: int
    x: float
    y: float
    preview: str
    reasons: set[str]


@dataclass
class LineVerdict:
    page: int
    column_id: int | None
    x: float
    y: float
    preview: str
    removed: bool
    reasons: set[str] = field(default_factory=set)
    p_before: bool | None = None
    p_after: bool | None = None


@dataclass
class RemovalState:
    """Backward-scan state: the predecessor-removed flag."""

    p: bool = False


@dataclass
class RemovalLog:
    """Audit trail of everything removed and why."""

    blocks: list[BlockVerdict] = field(default_factory=list)
    lines: list[LineVerdict] = field(default_factory=list)
    captions: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_jsonl(self) -> str:
        rows = []
        for b in self.blocks:
            rows.append({"level": "block", "page": b.page, "x": b.x, "y": b.y,
                         "preview": b.preview, "removed": True,
                         "reasons": sorted(b.reasons)})
        for ln in self.lines:
            rows.append({"level": "line", "page": ln.page,
                         "column": ln.column_id, "x": ln.x, "y": ln.y,
                         "preview": ln.preview, "removed": ln.removed,
                         "reasons": sorted(ln.reasons)})
        for text in self.captions:
            rows.append({"level": "paragraph", "preview": text[:60],
                         "removed": True, "reasons": ["caption"]})
        return "\n".join(json.dumps(r, ensure_ascii=False) for r in rows)


def _preview(text: str) -> str:
    return text[:60]


# ---------------------------------------------------------------------------
# Shallow removal
# ---------------------------------------------------------------------------


def shallow_remove(doc: ReplicaDocument, base_fs: float,
                   thresholds: Thresholds,
                   abstract_band: tuple[int, float, float] | None = None,
                   log: RemovalLog | None = None) -> ReplicaDocument:
    """Drop non-textual objects, rotated blocks, and off-size blocks.

    Keeps blocks with base_fs - delta2 < font size < base_fs + delta2 (open
    interval).  Blocks inside ``abstract_band`` (page, y_top, y_bottom) are
    exempt from the font filter only.  Returns a new document whose pages
    hold flat lists of the surviving text blocks; the input is unchanged.
    """
    log = log if log is not None else RemovalLog()
    lo, hi = base_fs - thresholds.delta2, base_fs + thresholds.delta2
    kept: dict[int, list[PageObject]] = {id(page): [] for page in doc.pages}
    for page, obj in doc.iter_objects():
        if obj.kind != "text_block" or obj.block is None:
            if obj.kind in ("image", "line"):
                log.blocks.append(BlockVerdict(
                    page=page.number,
                    x=obj.absolute_start[0] if obj.absolute_start else 0.0,
                    y=obj.absolute_start[1] if obj.absolute_start else 0.0,
                    preview=f"<{obj.kind}>", reasons={"non_textual"}))
            continue
        block = obj.block
        reasons = set()
        if block.rotated:
            reasons.add("rotated")
        exempt = (abstract_band is not None
                  and block.page_number == abstract_band[0]
                  and abstract_band[2] < block.y < abstract_band[1])
        if not exempt and not (lo < block.font_size < hi):
            reasons.add("font_size")
        if reasons:
            log.blocks.append(BlockVerdict(
                page=page.number, x=block.x, y=block.y,
                preview=_preview(block.text), reasons=reasons))
        else:
            kept[id(page)].append(PageObject(
                kind="text_block", relative_start=obj.absolute_start,
                height=obj.height, block=block,
                absolute_start=obj.absolute_start))
    pages = [Page(number=page.number, width=page.width, height=page.height,
                  objects=kept[id(page)]) for page in doc.pages]
    return ReplicaDocument(pages=pages, page_width=doc.page_width,
                           page_height=doc.page_height,
                           warnings=doc.warnings, source=doc.source)


def find_abstract_band(blocks: list[TextBlock], delta1: float,
                       ) -> tuple[int, float, float] | None:
    """Locate the vertical band between an "Abstract" line and the line
    holding "Introduction", so the abstract survives the font filter even
    when set in a smaller face.  Returns (page, y_top, y_bottom), exclusive.
    """
    upright = [b for b in blocks if not b.rotated]
    tree = group_lines(upright, delta1)
    for page in tree.pages:
        for i, line in enumerate(page.lines):
            text = line.text.strip().rstrip(":").strip().lower()
            if text != "abstract":
                continue
            bottom = 0.0
            for later in page.lines[i + 1:]:
                if "introduction" in later.text.lower():
                    bottom = later.y
                    break
            return (page.page_number, line.y, bottom)
    return None


# ---------------------------------------------------------------------------
# Deep removal passes
# ---------------------------------------------------------------------------


def remove_sidings(tree: PageLineTree, model,
                   log: RemovalLog | None = None) -> None:
    """Drop every block starting left of w_m or right of W - w_m.

    Boundary-inclusive keep: a block exactly on the margin bound stays.
    Covers line-number gutters, including the paired-number variant whose
    single block starts in the left margin.
    """
    log = log if log is not None else RemovalLog()
    for page in tree.pages:
        lo, hi = bt_area(model.for_page(page.page_number))
        kept_lines = []
        for line in page.lines:
            kept = []
            for block in line.blocks:
                x = round(block.x)
                if x < lo or x > hi:
                    log.blocks.append(BlockVerdict(
                        page=page.page_number, x=block.x, y=block.y,
                        preview=_preview(block.text), reasons={"siding"}))
                else:
                    kept.append(block)
            if kept:
                line.blocks = kept
                kept_lines.append(line)
            else:
                log.lines.append(LineVerdict(
                    page=page.page_number, column_id=line.column_id,
                    x=line.x, y=line.y, preview=_preview(line.text),
                    removed=True, reasons={"siding"}))
        page.lines = kept_lines


def remove_references(tree: PageLineTree, model, stats: DocumentStats,
                      log: RemovalLog | None = None,
                      strategy: str = "keyword") -> None:
    """Remove the references section (and everything after it).

    keyword: find the first line reading exactly "References" or
    "Bibliography" that opens a column or sits under a gap larger than the
    base line spacing; drop it and the whole tail of the reading order.
    sweep: detect hanging-indent numbered entries per column and drop those
    lines only.
    """
    log = log if log is not None else RemovalLog()
    if strategy == "sweep":
        _remove_references_sweep(tree, model, log)
        return

    segments = iter_segments(tree, model)
    found = False
    doomed: set[int] = set()
    for segment in segments:
        for i, line in enumerate(segment.lines):
            if found:
                doomed.add(id(line))
                continue
            text = line.text.strip().lower()
            if text not in _REFERENCE_HEADINGS:
                continue
            first_of_column = i == 0
            gap_above = segment.lines[i - 1].y - line.y if i > 0 else None
            if first_of_column or (gap_above is not None
                                   and gap_above > stats.base_ls):
                found = True
                doomed.add(id(line))
    if not found:
        log.warnings.append("no references heading found; nothing removed")
        return
    _drop_lines(tree, doomed, log, "reference")


def _remove_references_sweep(tree: PageLineTree, model, log: RemovalLog) -> None:
    """Numbered-entry detection: a nested flush boundary inside a column.

    Reference entries hang: a numbering block at the column left followed by
    body text at a fixed x, with continuation lines flush to that same x.
    """
    doomed: set[int] = set()
    for segment in iter_segments(tree, model):
        left = segment.column_left
        # candidate nested boundary: most common second-alignment x
        counts: dict[int, int] = {}
        for line in segment.lines:
            for block in line.blocks:
                x = round(block.x)
                if x > left:
                    counts[x] = counts.get(x, 0) + 1
        if not counts:
            continue
        x_star = max(sorted(counts), key=lambda x: counts[x])
        if counts[x_star] < 2:
            continue
        flags = [_is_reference_line(line, left, x_star) for line in segment.lines]
        # only runs of two or more consecutive such lines qualify
        i = 0
        while i < len(flags):
            if flags[i]:
                j = i
                while j < len(flags) and flags[j]:
                    j += 1
                if j - i >= 2:
                    for line in segment.lines[i:j]:
                        doomed.add(id(line))
                i = j
            else:
                i += 1
    if doomed:
        _drop_lines(tree, doomed, log, "reference")
    else:
        log.warnings.append("sweep strategy found no reference entries")


def _is_reference_line(line: Line, left: int, x_star: int) -> bool:
    xs = [round(b.x) for b in line.blocks]
    if x_star not in xs:
        return False
    for block, x in zip(line.blocks, xs):
        if x >= x_star:
            break
        if x != left or not _NUMBERING_RE.match(block.text.strip()):
            return False
    return True


def remove_special_lines(tree: PageLineTree, model, thresholds: Thresholds,
                         log: RemovalLog | None = None) -> None:
    """Drop over-indented lines and lines holding a wide inserted gap.

    A line is removed when its leftmost block starts more than gamma2 past
    its column's left boundary (display math, text on figures, centered
    front matter), or when any of its blocks contains inserted spacing wider
    than gamma3.
    """
    log = log if log is not None else RemovalLog()
    doomed: set[int] = set()
    reasons: dict[int, str] = {}
    for segment in iter_segments(tree, model):
        for line in segment.lines:
            if round(line.x) - segment.column_left > thresholds.gamma2:
                doomed.add(id(line))
                reasons[id(line)] = "indent_gamma2"
            elif any(gap > thresholds.gamma3
                     for block in line.blocks
                     for _, gap in block.internal_gaps):
                doomed.add(id(line))
                reasons[id(line)] = "whitespace_gamma3"
    _drop_lines(tree, doomed, log, reasons)


def _drop_lines(tree: PageLineTree, doomed: set[int], log: RemovalLog,
                reason) -> None:
    for page in tree.pages:
        kept = []
        for line in page.lines:
            if id(line) in doomed:
                why = reason if isinstance(reason, str) else reason[id(line)]
                log.lines.append(LineVerdict(
                    page=page.page_number, column_id=line.column_id,
                    x=line.x, y=line.y, preview=_preview(line.text),
                    removed=True, reasons={why}))
            else:
                kept.append(line)
        page.lines = kept


# ---------------------------------------------------------------------------
# Backward scan
# ---------------------------------------------------------------------------


@dataclass
class LineContext:
    """Per-line inputs to the four tests, fixed before the scan starts."""

    gap_above: float | None
    gap_below: float | None
    column_left: int


def nbt_tests(line: Line, context: LineContext, stats: DocumentStats,
              thresholds: Thresholds) -> dict[str, bool]:
    """The four per-line tests; True means the test flags the line.

    spacing      both neighbor gaps (where a neighbor exists) fall outside
                 (base_ls - gamma4, base_ls + gamma4)
    density      characters per block below base_cbd / gamma5
    punctuation  the rightmost block does not end with punctuation
    indentation  the leftmost block starts right of the column boundary
    """
    lo = stats.base_ls - thresholds.gamma4
    hi = stats.base_ls + thresholds.gamma4
    above_out = context.gap_above is None or not (lo < context.gap_above < hi)
    below_out = context.gap_below is None or not (lo < context.gap_below < hi)

    stripped = line.blocks[-1].text.rstrip()
    ends_with_punct = bool(stripped) and stripped[-1] in PUNCTUATION

    return {
        "spacing": above_out and below_out,
        "density": char_tbk_density(line) < stats.base_cbd / thresholds.gamma5,
        "punctuation": not ends_with_punct,
        "indentation": round(line.x) > context.column_left,
    }


def backward_removal(tree: PageLineTree, model, stats: DocumentStats,
                     thresholds: Thresholds,
                     log: RemovalLog | None = None) -> RemovalState:
    """Scan lines backward (last page first; rightmost column bottom-up)
    and apply the flag-threaded rules:

    1. indentation and density  -> remove, P <- 1
    2. P = 0, spacing and punctuation -> remove, P <- 0
    3. otherwise keep, P <- 0

    A single all-digits block in the bottom 5% of its page is removed as a
    page number before the rules run (P <- 1, the general removed rule).
    Neighbor gaps are measured on the line set as it stands when the scan
    starts.
    """
    log = log if log is not None else RemovalLog()
    segments = iter_segments(tree, model)
    order: list[tuple[Segment, int, Line, LineContext]] = []
    for segment in segments:
        for i, line in enumerate(segment.lines):
            gap_above = segment.lines[i - 1].y - line.y if i > 0 else None
            gap_below = (line.y - segment.lines[i + 1].y
                         if i + 1 < len(segment.lines) else None)
            order.append((segment, i, line,
                          LineContext(gap_above, gap_below,
                                      segment.column_left)))

    state = RemovalState(p=False)
    doomed: set[int] = set()
    for pos in range(len(order) - 1, -1, -1):
        segment, i, line, context = order[pos]
        p_before = state.p
        verdict = LineVerdict(
            page=segment.page.page_number, column_id=segment.column_id,
            x=line.x, y=line.y, preview=_preview(line.text), removed=False,
            p_before=p_before)

        if _is_page_number(line, segment.page):
            verdict.removed = True
            verdict.reasons = {"page_number"}
            state.p = True
        else:
            tests = nbt_tests(line, context, stats, thresholds)
            if tests["indentation"] and tests["density"]:
                verdict.removed = True
                verdict.reasons = {"rule1"}
                state.p = True
            elif not state.p and tests["spacing"] and tests["punctuation"]:
                verdict.removed = True
                verdict.reasons = {"rule2"}
                state.p = False
            else:
                state.p = False

        verdict.p_after = state.p
        log.lines.append(verdict)
        if verdict.removed:
            doomed.add(id(line))

    for page in tree.pages:
        page.lines = [line for line in page.lines if id(line) not in doomed]
    return state


def _is_page_number(line: Line, page) -> bool:
    if len(line.blocks) != 1 or page.height <= 0:
        return False
    return line.text.strip().isdigit() and line.y <= 0.05 * page.height
