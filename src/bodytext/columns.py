"""Column structure detection via vertical line sweeping.

Sweeping a vertical line across each page and counting block starting
points per x-pixel produces a histogram whose dominant peaks are the column
left boundaries: most lines in a column are flush left, so their first
blocks stack on one x.  The margin width and the body-text printing area
follow from the first one or two peaks.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter, itemgetter

from .errors import PipelineError
from .metrics import Line, PageLines, PageLineTree, Thresholds, _mode

# column_id of lines that span the full printing area (one-column inserts
# such as an abstract block in a two-column page)
SPAN_COLUMN = -1


@dataclass
class SweepHistogram:
    """counts[i] = number of block starting points with rounded x == i."""

    counts: list[int]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("x,count\n")
        for x, count in enumerate(self.counts):
            out.write(f"{x},{count}\n")
        return out.getvalue()


@dataclass
class ColumnModel:
    """Detected layout: major column lefts, margin width, printing area."""

    column_lefts: list[int]
    k: int                               # number of histogram peaks
    margin_width: int
    minor_columns: list[int] = field(default_factory=list)

    def for_page(self, page_number: int) -> "ColumnModel":
        return self

    def column_left(self, column_id: int | None) -> int:
        # spanning inserts are processed like the leftmost column
        if column_id is None or column_id == SPAN_COLUMN:
            return self.column_lefts[0]
        return self.column_lefts[column_id]


class PageModels:
    """Per-parity column models (--split-parity); pages dispatch by parity."""

    def __init__(self, models: dict[int, ColumnModel]):
        self.models = models

    def for_page(self, page_number: int) -> ColumnModel:
        return self.models[page_number % 2]


def sweep(tree: PageLineTree) -> SweepHistogram:
    """Aggregate starting-x counts of every block over all pages."""
    width = max((int(page.width) for page in tree.pages), default=0)
    counts = [0] * (width + 1)
    for block in tree.blocks():
        x = round(block.x)
        if 0 <= x <= width:
            counts[x] += 1
    return SweepHistogram(counts=counts)


def detect_columns(hist: SweepHistogram, thresholds: Thresholds) -> ColumnModel:
    """Find the column left boundaries as the dominant histogram peaks.

    A peak is a local maximum within a +-delta1 window whose count reaches
    peak_fraction of the global maximum; near-duplicates inside the window
    merge into the higher count (the smaller x on ties).  The first peak
    sets the margin width, promoted past a narrow leading minor column
    (e.g. a line-number gutter) when the gap to the second peak is below
    gamma1.
    """
    counts = hist.counts
    if not counts or max(counts) == 0:
        raise PipelineError("no column structure: the sweep histogram is empty")
    window = max(1, int(thresholds.delta1))
    cutoff = thresholds.peak_fraction * max(counts)

    peaks: list[int] = []
    for x, count in enumerate(counts):
        if count < cutoff or count == 0:
            continue
        lo = max(0, x - window)
        hi = min(len(counts) - 1, x + window)
        neighborhood = counts[lo:hi + 1]
        if count < max(neighborhood):
            continue
        # ties inside the window resolve to the smallest x
        if counts.index(max(neighborhood), lo, hi + 1) != x:
            continue
        if peaks and x - peaks[-1] <= window:
            if count > counts[peaks[-1]]:
                peaks[-1] = x
            continue
        peaks.append(x)

    if not peaks:
        raise PipelineError("no column structure: no qualifying peaks")

    margin = peaks[0]
    minors: list[int] = []
    majors = list(peaks)
    if len(peaks) > 1 and peaks[1] - peaks[0] < thresholds.gamma1:
        # the first column is too narrow to carry body text
        margin = peaks[1]
        minors = [peaks[0]]
        majors = peaks[1:]

    return ColumnModel(column_lefts=majors, k=len(peaks), margin_width=margin,
                       minor_columns=minors)


def bt_area(model: ColumnModel, width: int) -> tuple[int, int]:
    """Symmetric horizontal bounds of the body-text printing area of a page
    ``width`` pixels wide."""
    return (model.margin_width, width - model.margin_width)


def assign_columns(tree: PageLineTree, model, thresholds: Thresholds) -> None:
    """Split each visual row by column, tag spanning inserts, and leave each
    page's lines in reading order.

    Rows are reshaped in place into per-column lines carrying column_id.
    With exactly two major columns, a row with a block starting beyond the
    second column's left boundary but none aligned to it belongs to a
    one-column insert spanning the printing area (SPAN_COLUMN); such rows
    stay whole.  Rows adjacent to a spanning run that align with no column
    boundary (a short closing line of the insert) are absorbed into the
    region, keeping it vertically contiguous.  With one major column this
    is a no-op beyond tagging.

    The reading order is fixed here, once: per page, the bands of rows with
    one spanning status top-down.  A spanning band keeps its rows; a
    columnar band lists its lines column by column, leftmost first.
    """
    for page in tree.pages:
        lefts = model.for_page(page.page_number).column_lefts
        rows = sorted(page.lines, key=lambda ln: -ln.y)
        spanning = [False] * len(rows)
        if len(lefts) == 2:
            spanning = _spanning_rows(rows, lefts, thresholds)
        new_lines: list[Line] = []
        for is_span, band in groupby(zip(rows, spanning), key=itemgetter(1)):
            if is_span:
                for row, _ in band:
                    row.column_id = SPAN_COLUMN
                    new_lines.append(row)
            else:
                # rows fall strictly in y, so a stable sort by column keeps
                # each column top-down
                new_lines.extend(sorted(
                    (ln for row, _ in band for ln in _split_row(row, lefts)),
                    key=attrgetter("column_id")))
        page.lines = new_lines


def _spanning_rows(rows: list[Line], lefts: list[int],
                   thresholds: Thresholds) -> list[bool]:
    """Per-row spanning classification with region smoothing.

    A candidate row reaches beyond the second column boundary with nothing
    aligned to it.  A lone candidate is an ordinary two-column row whose
    right part is an indented paragraph opening, not an insert: true
    inserts (title blocks, abstracts) occupy at least two consecutive rows.
    Rows adjacent to a surviving run that align with no column boundary
    (a short closing line of the insert) are absorbed to keep the region
    vertically contiguous.
    """
    d1 = thresholds.delta1
    c2 = lefts[1]
    spanning = []
    for row in rows:
        beyond = any(b.x > c2 + d1 for b in row.blocks)
        at_c2 = any(abs(b.x - c2) <= d1 for b in row.blocks)
        spanning.append(beyond and not at_c2)

    for i in range(len(rows)):
        if (spanning[i] and (i == 0 or not spanning[i - 1])
                and (i + 1 == len(rows) or not spanning[i + 1])):
            spanning[i] = False

    aligned = [_is_aligned(row, lefts, thresholds) for row in rows]
    changed = any(spanning)
    while changed:
        changed = False
        for i in range(len(rows)):
            if spanning[i] or aligned[i]:
                continue
            if ((i > 0 and spanning[i - 1])
                    or (i + 1 < len(rows) and spanning[i + 1])):
                spanning[i] = True
                changed = True
    return spanning


def _is_aligned(row: Line, lefts: list[int], thresholds: Thresholds) -> bool:
    return any(abs(b.x - left) <= thresholds.delta1
               for b in row.blocks for left in lefts)


def _split_row(row: Line, lefts: list[int]) -> list[Line]:
    buckets: dict[int, list] = {}
    for block in row.blocks:
        cid = 0
        # the sweep found each left at a rounded x, so test the same
        for i, left in enumerate(lefts):
            if round(block.x) >= left:
                cid = i
        buckets.setdefault(cid, []).append(block)
    lines = []
    for cid in sorted(buckets):
        # per-column representative y: blocks from different columns may sit
        # a few pixels apart within one visual row, and column-local gap
        # measurements must not inherit the other column's jitter
        y = max(b.y for b in buckets[cid])
        lines.append(Line(blocks=buckets[cid], y=y, column_id=cid))
    return lines


@dataclass
class Segment:
    """A maximal run of consecutive lines of one page with one column_id."""

    page: PageLines
    column_id: int
    lines: list[Line]
    column_left: int = 0


def iter_segments(tree: PageLineTree, model) -> list[Segment]:
    """Reading order over the whole document.

    ``assign_columns`` leaves each page's lines in reading order, and
    removal only deletes lines or replaces them in place, so the segments
    are each page's maximal runs of lines with one column_id.  The backward
    removal traversal is exactly this order reversed.

    Each segment carries the left boundary used by indentation-based tests.
    Columnar segments take their column's detected boundary.  A spanning
    segment is its own block of text: its boundary is the modal leftmost x
    when most of its lines are flush to it (a one-column insert such as an
    abstract), else the leftmost column's boundary (centered material like
    title lines has no flush edge and should read as indented).
    """
    segments: list[Segment] = []
    for page in tree.pages:
        page_model = model.for_page(page.page_number)
        for cid, run in groupby(page.lines, key=attrgetter("column_id")):
            lines = list(run)
            left = (_flush_left(lines, page_model) if cid == SPAN_COLUMN
                    else page_model.column_left(cid))
            segments.append(Segment(page=page, column_id=cid, lines=lines,
                                    column_left=left))
    return segments


def _flush_left(band: list[Line], model: ColumnModel) -> int:
    xs = Counter(round(line.x) for line in band)
    mode = _mode(xs)
    if xs[mode] * 2 > len(band):
        return mode
    return model.column_lefts[0]
