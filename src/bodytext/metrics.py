"""Document-wide text statistics and the page/line/block tree.

Three baselines drive everything downstream: the modal font size by
character count (the body font), the modal inter-line gap within columns
(the body line spacing), and the document-average characters-per-block line
density.  Lines are formed greedily from blocks sorted by descending y.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import FormatError, PipelineError
from .replica import TextBlock


@dataclass
class Thresholds:
    """Tunable pixel/point tolerances; see the config file or CLI flags.

    delta1  line y-tolerance: blocks within this are on the same line
    delta2  font-size half-width of the body-font interval
    gamma1  minimum width of a major column
    gamma2  indentation beyond which a line is a special (removed) line
    gamma3  intra-block whitespace beyond which a line is removed
    gamma4  half-width of the normal line-gap interval
    gamma5  density divisor: a sparse line has density < base / gamma5
    peak_fraction  histogram local maxima at least this fraction of the
                   global maximum count as column peaks
    """

    delta1: float = 5.0
    delta2: float = 3.0
    gamma1: float = 144.0
    gamma2: float = 50.0
    gamma3: float = 50.0
    gamma4: float = 3.0
    gamma5: float = 10.0
    peak_fraction: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"threshold {f.name} must be positive")

    @classmethod
    def from_file(cls, path) -> "Thresholds":
        """Read a flat key=value file; '#' starts a comment."""
        values = {}
        names = {f.name for f in fields(cls)}
        for lineno, raw in enumerate(
                Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in names:
                raise FormatError(f"{path}:{lineno}: unknown threshold {key!r}")
            try:
                values[key] = float(value.strip())
            except ValueError:
                raise FormatError(f"{path}:{lineno}: {value.strip()!r} is not "
                                  f"a number") from None
        return cls(**values)

    def replace(self, **overrides) -> "Thresholds":
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update({k: v for k, v in overrides.items() if v is not None})
        return Thresholds(**values)


@dataclass
class DocumentStats:
    base_fs: float
    base_ls: int
    base_cbd: float
    font_size_histogram: dict[float, int]
    gap_histogram: dict[int, int]


@dataclass
class Line:
    """Blocks on one visual line, ordered left to right by starting x."""

    blocks: list[TextBlock]
    y: float
    column_id: int | None = None

    @property
    def x(self) -> float:
        """Starting x of the leftmost block."""
        return self.blocks[0].x

    @property
    def text(self) -> str:
        return "".join(b.text for b in self.blocks)


@dataclass
class PageLines:
    page_number: int
    width: float
    height: float
    lines: list[Line] = field(default_factory=list)


@dataclass
class PageLineTree:
    pages: list[PageLines]

    def all_lines(self):
        for page in self.pages:
            yield from page.lines

    def blocks(self):
        for line in self.all_lines():
            yield from line.blocks


def _mode(hist: dict) -> float:
    """Key with the largest count; ties go to the smaller key."""
    best = max(hist.values())
    return min(key for key, count in hist.items() if count == best)


def font_size_mode(blocks) -> float:
    """Font size enclosing the most characters; ties go to the smaller size."""
    hist = font_size_histogram(blocks)
    if not hist:
        raise PipelineError("no text: document has no non-empty text blocks")
    return _mode(hist)


def font_size_histogram(blocks) -> dict[float, int]:
    hist: dict[float, int] = {}
    for block in blocks:
        if block.text:
            hist[block.font_size] = hist.get(block.font_size, 0) + len(block.text)
    return hist


def group_lines(blocks, delta1: float,
                page_dims: dict[int, tuple[float, float]] | None = None,
                ) -> PageLineTree:
    """Greedy same-line grouping per page, in decreasing-y order.

    A block joins the current line if its y is within delta1 of the line's
    representative y (the y of the first block assigned); otherwise it opens
    a new line.  Within a line blocks are ordered by starting x.  Rotated
    blocks must have been excluded already.
    """
    by_page: dict[int, list[TextBlock]] = {}
    for block in blocks:
        by_page.setdefault(block.page_number, []).append(block)

    pages = []
    for number in sorted(by_page):
        width, height = (page_dims or {}).get(number, (0.0, 0.0))
        page = PageLines(page_number=number, width=width, height=height)
        ordered = sorted(by_page[number], key=lambda b: (-b.y, b.x, b.index))
        current: Line | None = None
        for block in ordered:
            if current is not None and abs(block.y - current.y) <= delta1:
                current.blocks.append(block)
            else:
                current = Line(blocks=[block], y=block.y)
                page.lines.append(current)
        for line in page.lines:
            line.blocks.sort(key=lambda b: (b.x, b.index))
        pages.append(page)
    return PageLineTree(pages=pages)


def line_spacing_mode(tree: PageLineTree, model) -> int:
    """Modal gap between column-consecutive lines, in integer pixels."""
    hist = gap_histogram(tree, model)
    if not hist:
        raise PipelineError("insufficient lines: no column has two lines")
    return _mode(hist)


def gap_histogram(tree: PageLineTree, model) -> dict[int, int]:
    """Histogram of rounded gaps between consecutive lines in each column."""
    from .columns import iter_segments

    hist: dict[int, int] = {}
    for segment in iter_segments(tree, model):
        for upper, lower in zip(segment.lines, segment.lines[1:]):
            gap = round(upper.y - lower.y)
            hist[gap] = hist.get(gap, 0) + 1
    return hist


_WS_RE = re.compile(r"\s", re.UNICODE)


def char_tbk_density(line: Line) -> float:
    """Non-whitespace characters per block on the line."""
    chars = sum(len(_WS_RE.sub("", b.text)) for b in line.blocks)
    return chars / len(line.blocks)


def base_cbd(tree: PageLineTree) -> float:
    """Document average of the per-line character/block density."""
    densities = [char_tbk_density(line) for line in tree.all_lines()]
    if not densities:
        raise PipelineError("no lines: cannot compute the density baseline")
    return sum(densities) / len(densities)


def compute_stats(blocks, tree: PageLineTree, model,
                  base_fs: float | None = None) -> DocumentStats:
    """Bundle the three baselines plus their histograms."""
    fs_hist = font_size_histogram(blocks)
    if base_fs is None:
        base_fs = font_size_mode(blocks)
    g_hist = gap_histogram(tree, model)
    if not g_hist:
        raise PipelineError("insufficient lines: no column has two lines")
    return DocumentStats(base_fs=base_fs, base_ls=_mode(g_hist),
                         base_cbd=base_cbd(tree),
                         font_size_histogram=fs_hist, gap_histogram=g_hist)
