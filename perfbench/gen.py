"""Seeded replica generator for the benchmark.

Builds HTML+CSS replicas in the converter's idiom (class-encoded geometry,
bottom-origin coordinates, one absolutely positioned block per text run)
together with their gold body text, the block texts extraction must
remove, the body text the extractor is expected to emit, and a naive
storage-order dump of the block texts.  Nothing here imports the package
under test: gold and expectations are derived from how the page was laid
out, never from the extractor.

Layout discipline (the detection assumptions the paper states):

* most lines of every column are flush left, so paragraphs run three or
  more lines and only about half open with an indent (the others open
  under a doubled gap);
* a column or page break never coincides with a paragraph break: the
  extractor continues the open paragraph across a column jump, so every
  column after the first opens with continuation lines, and headings and
  floats are only placed where a paragraph of at least two lines fits
  below them;
* in two-column pages, floats (tables, figures, display math) sit in the
  left column: an indented sparse row in the right column reads as a
  one-column insert spanning the page;
* sentences are unique within a document, so every sentence has exactly
  one match when it is located for highlighting.

The one nonconforming kind (display math interrupting a sentence) records
the body text the extractor emits for it, which splits the interrupted
paragraph in two; its expected scores follow from that text.
"""

from __future__ import annotations

import html as html_mod
import random
from dataclasses import dataclass, field

PAGE_W, PAGE_H = 612, 792
BASE_FS, BASE_LS = 12, 14
C1, C2 = 72, 312
TOP = PAGE_H - 92
BOTTOM = 62               # lowest body line; page numbers sit at y=30
INDENT = 12.0
WIDTH_2COL = 46           # characters per body line
WIDTH_1COL = 70

_PREFIX = {"left": "x", "bottom": "y", "height": "hh", "font-size": "fs",
           "width": "ww"}

# Lowercase, letters only: body text carries no digits, so table cells and
# figure labels (which all contain one) can never occur in correct output.
# No abbreviations, and no word the removal passes key on.
_WORDS = """
accurate adaptive aligned analysis approach argument assumption average
baseline behaviour between boundary bounded careful carried central change
choice clean clear column combined common compact complete consistent
content context continuous correct coverage criterion current dataset decide
decision default dense density detail detector direct distance document
domain dominant early effect effective efficient element empirical entire
estimate evidence exact example expected explicit extraction faithful final
finding first fixed flow formal frequent general geometry given global good
gradual heading histogram holds improved independent initial input insert
interval judgement kernel known label large layout learned length level
limit linear local long lower majority margin marker matching measure method
middle minor missing modal model modest narrow natural nearby neutral noise
normal notion observed offset often ordinary original output overall page
paragraph partial particular pattern peak placement plain position practical
precise prior problem process prose quality random rather reading reason
recent recovery regular relative reliable remaining repeated result robust
rough rule running sample scale second section segment sensible sentence
separate sequence several shallow short signal similar simple single small
smooth source sparse spacing stable standard static steady strong structure
study subtle summary support surface survey symbol system target technique
tested thorough threshold typical uniform unusual useful usual value variant
various vertical visible whole wider window written
""".split()

_HEADING_WORDS = """Background Design Experiments Evaluation Discussion Analysis
Method Overview Setup Limitations Outlook Motivation Findings Procedure
Results Baselines Ablation Measurements""".split()

_CAPTION_NOUNS = """Accuracy Runtime Coverage Precision Recall Layout Spacing
Density Histogram Overview Breakdown Comparison""".split()


@dataclass
class Doc:
    """One generated replica and everything the benchmark checks it with."""

    name: str
    html: str
    css: str
    gold: str                     # BT format: paragraphs, blank-line separated
    expected_bt: str              # what the extractor emits (== gold if conforming)
    removed: list[str]
    naive: str                    # storage-order dump of the block texts
    conforming: bool = True


@dataclass
class _Block:
    page: int
    x: float
    y: float
    parts: list                   # str or ("gap", width)
    font_size: float
    transform: str | None = None

    @property
    def text(self) -> str:
        return "".join(" " if isinstance(p, tuple) else p for p in self.parts)


@dataclass
class _Container:
    page: int
    x: float
    y: float
    width: float
    height: float
    children: list = field(default_factory=list)


def _dehyphenate(lines: list[str]) -> str:
    """Join lines the way the paper's joiner does: drop a line-end hyphen and
    concatenate, otherwise insert one space."""
    out = ""
    for line in lines:
        if not out:
            out = line
        elif out.endswith("-"):
            out = out[:-1] + line
        else:
            out += " " + line
    return out


class _Text:
    """Seeded prose with unique sentences, wrapped to exact line counts."""

    def __init__(self, rng: random.Random, hyphen_rate: float):
        self.rng = rng
        self.hyphen_rate = hyphen_rate
        self.used: set[str] = set()

    def _sentence_words(self) -> list[str]:
        words = [self.rng.choice(_WORDS) for _ in range(self.rng.randint(7, 15))]
        if len(words) > 9 and self.rng.random() < 0.4:
            k = self.rng.randint(3, len(words) - 4)
            words[k] += ","
        return words

    @staticmethod
    def _render(words: list[str], end: str) -> str:
        text = " ".join(words).rstrip(",")
        return text[0].upper() + text[1:] + end

    def _wrap(self, sentences: list[str], width: int, salt: int) -> list[str]:
        """Greedy wrap; a long word that overflows is split with a hyphen
        when its seeded position says so."""
        words = " ".join(sentences).split(" ")
        lines: list[str] = []
        line = ""
        for i, word in enumerate(words):
            candidate = f"{line} {word}" if line else word
            if len(candidate) <= width:
                line = candidate
                continue
            split = (len(word) >= 8 and word.isalpha()
                     and ((i * 7919 + salt) % 1000) < self.hyphen_rate * 1000)
            if split:
                cut = min(len(word) - 3, width - len(line) - 2)
                if cut >= 3:
                    lines.append(f"{line} {word[:cut]}-" if line
                                 else f"{word[:cut]}-")
                    line = word[cut:]
                    continue
            lines.append(line)
            line = word
        if line:
            lines.append(line)
        return lines

    def paragraph(self, n_lines: int, width: int, end: str = "."):
        """Exactly ``n_lines`` wrapped lines ending a sentence on the last
        line.  Returns (lines, sentences)."""
        for _ in range(200):
            salt = self.rng.randrange(1000)
            drafts: list[list[str]] = []
            lines: list[str] = []
            while len(lines) < n_lines:
                drafts.append(self._sentence_words())
                lines = self._wrap([self._render(w, ".") for w in drafts],
                                   width, salt)
            last = drafts[-1]
            while True:
                sentences = [self._render(w, ".") for w in drafts[:-1]]
                sentences.append(self._render(last, end))
                lines = self._wrap(sentences, width, salt)
                if len(lines) <= n_lines or len(last) <= 4:
                    break
                last = last[:-1]
            if len(lines) == n_lines and not (set(sentences) & self.used) \
                    and len(set(sentences)) == len(sentences):
                self.used.update(sentences)
                return lines, sentences
        raise RuntimeError(f"could not fill a {n_lines}-line paragraph")

    def phrase(self, k: int) -> str:
        return " ".join(self.rng.choice(_WORDS) for _ in range(k))


class _Builder:
    """Block/container store and HTML emission (class-encoded geometry)."""

    def __init__(self):
        self.blocks: list[_Block] = []
        self.containers: list[_Container] = []
        self.pages = 0

    def add(self, page, x, y, parts, font_size=BASE_FS, transform=None):
        if isinstance(parts, str):
            parts = [parts]
        if x < 0 or y < 0:
            raise ValueError(f"block off the page at ({x}, {y})")
        self.blocks.append(_Block(page, x, y, parts, font_size, transform))

    def page_ys(self, page: int) -> list[float]:
        return sorted({b.y for b in self.blocks if b.page == page},
                      reverse=True)

    def emit(self) -> tuple[str, str, str]:
        """Returns (html, css, naive storage-order dump)."""
        values: dict[tuple[str, float], str] = {}
        decls: list[str] = []

        def cls(prop: str, value: float) -> str:
            key = (prop, round(value, 3))
            if key not in values:
                values[key] = f"{_PREFIX[prop]}{len(values)}"
                decls.append(f".{values[key]} {{ {prop}: {key[1]}px; }}")
            return values[key]

        def block_html(b: _Block, indent: str) -> str:
            classes = ["t", cls("left", b.x), cls("bottom", b.y),
                       cls("height", b.font_size + 2),
                       cls("font-size", b.font_size)]
            style = (f' style="transform: matrix({b.transform})"'
                     if b.transform else "")
            inner = "".join(
                f'<span class="{cls("width", p[1])}"> </span>'
                if isinstance(p, tuple) else html_mod.escape(p, quote=False)
                for p in b.parts)
            return f'{indent}<div class="{" ".join(classes)}"{style}>{inner}</div>'

        pages_html, dump = [], []
        for number in range(1, self.pages + 1):
            rows = [f'  <div id="pf{number:x}" class="pf w0 h0" '
                    f'data-page-no="{number}">']
            texts = []
            for c in self.containers:
                if c.page != number:
                    continue
                rows.append(f'    <div class="c {cls("left", c.x)} '
                            f'{cls("bottom", c.y)} {cls("width", c.width)} '
                            f'{cls("height", c.height)}">')
                rows.append(f'      <img class="{cls("left", 0.0)} '
                            f'{cls("bottom", 0.0)} {cls("width", c.width)} '
                            f'{cls("height", c.height)}" src="img.png"/>')
                for child in c.children:
                    rows.append(block_html(child, "      "))
                    texts.append(child.text)
                rows.append("    </div>")
            for b in self.blocks:
                if b.page == number:
                    rows.append(block_html(b, "    "))
                    texts.append(b.text)
            rows.append("  </div>")
            pages_html.append("\n".join(rows))
            dump.append(" ".join(texts))

        html = ('<!DOCTYPE html>\n<html>\n<head>\n'
                '<link rel="stylesheet" href="style.css"/>\n'
                '</head>\n<body>\n<div id="page-container">\n'
                + "\n".join(pages_html)
                + '\n</div>\n</body>\n</html>\n')
        css = "\n".join([
            ".pf { position: relative; }",
            ".t { position: absolute; white-space: pre; }",
            ".c { position: absolute; }",
            f".w0 {{ width: {PAGE_W}px; }}",
            f".h0 {{ height: {PAGE_H}px; }}",
        ] + decls) + "\n"
        return html, css, "\n\n".join(dump) + "\n"


@dataclass
class Kind:
    """Feature switches of one layout kind."""

    name: str
    columns: int = 1
    abstract: bool = False
    tables: bool = False
    figures: bool = False
    math: bool = False
    deep_math: bool = False
    mid_math: bool = False           # nonconforming
    wide_gap: bool = False
    gutter: bool = False
    watermark: bool = False
    running_header: bool = False
    references: bool = False
    hyphen_rate: float = 0.15


# The fixture corpus's layout kinds, one feature each (plus page numbers
# and occasional hyphenation everywhere).
CORPUS_KINDS = [
    Kind("single_column"),
    Kind("two_column", columns=2),
    Kind("abstract_insert", columns=2, abstract=True),
    Kind("table_doc", columns=2, tables=True, wide_gap=True),
    Kind("figure_doc", columns=2, figures=True),
    Kind("display_math_end", math=True),
    Kind("display_math_midpara", mid_math=True),
    Kind("gutter_doc", gutter=True),
    Kind("watermark_doc", watermark=True, running_header=True),
    Kind("references_doc", columns=2, references=True),
    Kind("hyphenation_doc", hyphen_rate=0.6),
    Kind("deep_indent_math", deep_math=True),
]

# Every nonbody kind the paper removes, in one two-column paper.
LONG_KIND = Kind("long_paper", columns=2, abstract=True, tables=True,
                 figures=True, math=True, running_header=True,
                 references=True, hyphen_rate=0.25)


class _Flow:
    """Pours paragraphs and floats down the columns of ``pages`` pages."""

    def __init__(self, kind: Kind, pages: int, rng: random.Random):
        self.kind = kind
        self.rng = rng
        self.b = _Builder()
        self.b.pages = pages
        self.text = _Text(rng, kind.hyphen_rate)
        self.width = WIDTH_2COL if kind.columns == 2 else WIDTH_1COL
        self.slots = [(p, x) for p in range(1, pages + 1)
                      for x in ((C1, C2) if kind.columns == 2 else (C1,))]
        self.slot = 0
        self.y: float | None = None     # y of the last placed row, None = fresh
        self.tops: dict[int, float] = {}
        self.gold: list[list[str]] = []          # line texts per paragraph
        self.expected: list[list[str]] = []
        self.removed: list[str] = []
        self.counters = {"table": 0, "figure": 0, "section": 1, "ref": 0}
        self.conforming = True
        self.reserve_lines = 0

    # -- geometry ------------------------------------------------------------

    @property
    def page(self) -> int:
        return self.slots[self.slot][0]

    @property
    def x(self) -> float:
        return self.slots[self.slot][1]

    @property
    def last_slot(self) -> bool:
        return self.slot == len(self.slots) - 1

    def _top(self) -> float:
        return self.tops.get(self.page, TOP)

    def _next_y(self, gap: float) -> float:
        return self._top() if self.y is None else self.y - gap

    def capacity(self, gap: float, step: float = BASE_LS) -> int:
        y0 = self._next_y(gap)
        return 0 if y0 < BOTTOM else int((y0 - BOTTOM) // step) + 1

    def fits(self, height: float) -> bool:
        """Room for ``height`` px of material plus a two-line paragraph
        opening under a 20 px gap."""
        if self.y is None:
            return False
        return self.y - height - 20 - BASE_LS >= BOTTOM

    def _row(self, gap: float) -> float:
        y = self._next_y(gap)
        self.y = y
        return y

    def _next_column(self):
        self.slot += 1
        self.y = None

    # -- body text -----------------------------------------------------------

    def _body_lines(self, lines, first_x: float, gap: float):
        for i, line in enumerate(lines):
            y = self._row(gap if i == 0 else BASE_LS)
            self.b.add(self.page, first_x if i == 0 else self.x, y, line)

    def paragraph(self, gap_after_float: float | None = None, end="."):
        """Place one paragraph at the current position, splitting it into
        the next column when it does not fit (so no paragraph break ever
        falls on a column top).  In the last column it stays clear of the
        space reserved for the references."""
        indent = self.rng.random() < 0.5
        if gap_after_float is not None:
            gap = gap_after_float
        else:
            gap = BASE_LS if indent or self.y is None else 2 * BASE_LS
        here = self.capacity(gap)
        n = self.rng.randint(4, 9)
        split = 0
        if self.last_slot:
            n = max(2, min(n, here - self.reserve_lines))
        elif n + 3 > here:
            if here < 2:
                raise RuntimeError("layout invariant broken: no room to open")
            split = here
            n = min(max(n, here + 1), here + 4)
        lines, _ = self.text.paragraph(n, self.width, end)
        first_x = self.x + (INDENT if indent else 0.0)
        self._body_lines(lines[:split] if split else lines, first_x, gap)
        if split:
            self._next_column()
            self._body_lines(lines[split:], self.x, BASE_LS)
        self.gold.append(lines)
        self.expected.append(lines)

    # -- nonbody material ----------------------------------------------------

    def heading(self):
        self.counters["section"] += 1
        words = self.rng.sample(_HEADING_WORDS, self.rng.randint(1, 3))
        y = self._row(28.0)
        self.b.add(self.page, self.x, y,
                   f"{self.counters['section']} {' '.join(words)}")
        self.paragraph(gap_after_float=20.0)

    def _caption(self, label: str):
        self.counters[label] += 1
        noun = self.rng.choice(_CAPTION_NOUNS)
        text = (f"{label.capitalize()} {self.counters[label]}. {noun} "
                f"{self.text.phrase(self.rng.randint(2, 5))}.")
        y = self._row(20.0)
        self.b.add(self.page, self.x, y, text)
        self.removed.append(text)

    def _cell(self) -> str:
        return self.rng.choice(["%d.%d" % (self.rng.randint(0, 9),
                                           self.rng.randint(0, 9)),
                                str(self.rng.randint(10, 99)),
                                "v%d" % self.rng.randint(1, 9)])

    def table(self):
        rows = self.rng.randint(2, 4)
        for i in range(rows):
            y = self._row(20.0 if i == 0 else 18.0)
            for j in range(4):
                cell = self._cell()
                self.b.add(self.page, self.x + 30 + j * 52, y, cell)
                self.removed.append(cell)
        self._caption("table")
        self.paragraph(gap_after_float=20.0)

    def figure(self):
        height = 120.0
        top = self.y - 20
        cont = _Container(self.page, self.x + 20, top - height, 180, height)
        labels = [(10, 100, "lt%d" % self.rng.randint(1, 9)),
                  (10, 60, "lv%d" % self.rng.randint(1, 9)),
                  (30, 6, "e0"), (90, 6, "e50"), (150, 6, "e99")]
        for rx, ry, text in labels:
            cont.children.append(_Block(self.page, rx, ry, [text], BASE_FS))
            self.removed.append(text)
        self.b.containers.append(cont)
        self.y = top - height
        self._caption("figure")
        self.paragraph(gap_after_float=20.0)

    def _math_rows(self, indent: float):
        for i in range(self.rng.randint(1, 2)):
            y = self._row(20.0 if i == 0 else 18.0)
            x = self.x + indent
            parts = ["f(x%d)" % self.rng.randint(0, 9), "=",
                     "%d" % self.rng.randint(1, 9), "+", "g(y)", "."]
            for part in parts:
                self.b.add(self.page, x, y, part)
                x += (len(part) + 1) * BASE_FS * 0.5

    def math(self, indent: float = 30.0):
        """Display math between paragraphs: the preceding paragraph ends
        with a colon, the following one opens under the gap."""
        self._math_rows(indent)
        self.paragraph(gap_after_float=20.0)

    def mid_math(self):
        """Display math interrupting a sentence (nonconforming): the
        extractor breaks the paragraph at the gap, the gold does not."""
        while True:
            lines, _ = self.text.paragraph(6, self.width)
            cut = next((c for c in (3, 4, 5)
                        if not lines[c - 1].endswith((".", "-"))), None)
            if cut:
                break
        self._body_lines(lines[:cut], self.x + INDENT, BASE_LS)
        self._math_rows(30.0)
        self._body_lines(lines[cut:], self.x, 20.0)
        self.gold.append(lines)
        self.expected.extend([lines[:cut], lines[cut:]])
        self.conforming = False

    def wide_gap(self):
        y = self._row(20.0)
        left = f"row {self.rng.randint(1, 9)} total"
        right = f"sum {self.rng.randint(10, 99)}"
        self.b.add(self.page, self.x, y, [left, ("gap", 60.0), right])
        self.removed.append(f"{left} {right}")
        self.paragraph(gap_after_float=20.0)

    def references(self):
        y = self._row(28.0)
        self.b.add(self.page, self.x, y, "References")
        gap = 20.0
        for _ in range(2):
            self.counters["ref"] += 1
            y = self._row(gap)
            year = self.rng.randint(1990, 2020)
            self.b.add(self.page, self.x, y, f"[{self.counters['ref']}]")
            self.b.add(self.page, self.x + 22, y,
                       f"A. Writer. {self.text.phrase(3).capitalize()}. {year}.")
            y = self._row(BASE_LS)
            self.b.add(self.page, self.x + 22, y,
                       f"Journal of {self.text.phrase(2).title()}, {year % 17}.")
            gap = 18.0
        y = self._row(28.0)
        self.b.add(self.page, self.x, y, "Appendix A")
        for i in range(2):
            y = self._row(20.0 if i == 0 else BASE_LS)
            self.b.add(self.page, self.x, y, self.text.phrase(6) + ".")

    REFS_HEIGHT = 28 + 20 + 14 + 18 + 14 + 28 + 20 + 14

    # -- page furniture ------------------------------------------------------

    def front_matter(self):
        """Title, authors, affiliation and a spanning abstract in a smaller
        face; the columns below start at y=540 under "1 Introduction"."""
        p = 1
        title = self.text.phrase(4).title()
        self.b.add(p, (PAGE_W - len(title) * 9) / 2, 700, title, font_size=18)
        self.b.add(p, 225, 676, "Alex Rivera and Sam Okafor")
        self.b.add(p, 230, 658, "Department of Examples, Sample University",
                   font_size=8)
        self.b.add(p, 282, 630, "Abstract")
        lines = []
        while len(lines) < 3:
            line = self.text.paragraph(1, 64)[0][0]
            if len(line) >= 48:
                lines.append(line)
        closing = self.text.paragraph(1, 34)[0]
        y = 610.0
        for text in lines:
            cut = _spanning_cut(text, 150, 9)
            self.b.add(p, 150, y, text[:cut], font_size=9)
            self.b.add(p, 150 + cut * 4.5, y, text[cut:], font_size=9)
            y -= 12
        self.b.add(p, 150, y, closing[0], font_size=9)
        self.gold.append(lines + closing)
        self.expected.append(lines + closing)
        self.tops[1] = 540.0
        self.b.add(p, C1, 540, "1 Introduction")
        self.y = 540.0
        self.paragraph(gap_after_float=20.0)

    def finish_pages(self):
        for page in range(1, self.b.pages + 1):
            ys = self.b.page_ys(page)
            if self.kind.gutter:
                for i, y in enumerate(ys, 1):
                    self.b.add(page, 30, y, str(i))
                self.b.add(page, 30, 350, [str(len(ys) + 1), ("gap", 480.0),
                                           str(len(ys) + 1)])
            if self.kind.running_header:
                self.b.add(page, 72, PAGE_H - 40, f"Preprint page {page}",
                           font_size=8)
            if self.kind.watermark:
                self.b.add(page, 200, 400, "UNREVIEWED COPY", font_size=14,
                           transform="0.707,-0.707,0.707,0.707,0,0")
            self.b.add(page, PAGE_W / 2 - 9, 30, str(page))


def _spanning_cut(text: str, x: float, font_size: float) -> int:
    """Index after the first space whose following block starts beyond the
    second column boundary (how converters split wide lines)."""
    cw = font_size * 0.5
    for i, ch in enumerate(text):
        if ch == " " and x + (i + 1) * cw > C2 + 5 and i + 1 < len(text):
            return i + 1
    raise ValueError(f"line too short to span the columns: {text!r}")


def _options(flow: _Flow) -> list[tuple[str, float]]:
    """Floats and headings the kind allows in the current column, floats
    first, with the height each needs above the paragraph that follows."""
    k, left = flow.kind, flow.x == C1
    options = []
    if left:
        if k.tables:
            options.append(("table", 20 + 3 * 18 + 20))
        if k.figures:
            options.append(("figure", 20 + 120 + 20))
        if k.math:
            options.append(("math", 20 + 18))
        if k.deep_math:
            options.append(("deep_math", 20 + 18))
        if k.mid_math and flow.conforming:
            options.append(("mid_math", 6 * BASE_LS + 20 + 18 + 2 * BASE_LS))
    if k.wide_gap:
        options.append(("wide_gap", 20))
    options.append(("heading", 28))
    return options


def build(kind: Kind, pages: int, seed: int, name: str = "") -> Doc:
    """One document.  Each column carries exactly one float or heading, in
    a fixed rotation over what the kind allows there, placed at a seeded
    height; paragraph lengths and all text are seeded too.  So documents
    of one kind and size differ in content but hardly in structure."""
    rng = random.Random(f"{kind.name}/{pages}/{seed}")
    flow = _Flow(kind, pages, rng)
    if kind.abstract:
        flow.front_matter()
    reserve = flow.REFS_HEIGHT + 2 * BASE_LS if kind.references else 0
    flow.reserve_lines = int(reserve // BASE_LS) + 1
    placed_in = -1
    target_y = 0.0
    while True:
        if flow.last_slot and flow.y is not None \
                and flow.capacity(2 * BASE_LS) - flow.reserve_lines < 4:
            break
        if placed_in != flow.slot and target_y == 0.0:
            target_y = rng.uniform(400, 650)
        if flow.y is not None and placed_in != flow.slot and flow.y <= target_y:
            options = _options(flow)
            item, height = options[(flow.slot // kind.columns) % len(options)]
            placed_in, target_y = flow.slot, 0.0
            extra = reserve if flow.last_slot else 0
            if item in ("math", "deep_math"):
                # the paragraph above a display ends with a colon
                flow.paragraph(end=":")
                if flow.x == C1 and flow.fits(height + extra):
                    flow.math(30.0 if item == "math" else 110.0)
            elif flow.fits(height + extra):
                getattr(flow, item)()
            continue
        flow.paragraph()
    if kind.references:
        flow.references()
    flow.finish_pages()
    html, css, naive = flow.b.emit()
    gold = "\n\n".join(_dehyphenate(p) for p in flow.gold) + "\n"
    expected = "\n\n".join(_dehyphenate(p) for p in flow.expected) + "\n"
    return Doc(name=name or f"{kind.name}_{pages}p", html=html, css=css,
               gold=gold, expected_bt=expected, removed=flow.removed,
               naive=naive, conforming=flow.conforming)


def long_docs(seed: int, count: int, pages: int) -> list[Doc]:
    return [build(LONG_KIND, pages, seed * 1000 + i, f"long_{i}")
            for i in range(count)]


def corpus(seed: int) -> list[Doc]:
    """Every corpus kind at one to four pages, in a seeded order."""
    docs = [build(kind, pages, seed, f"{kind.name}_{pages}p")
            for kind in CORPUS_KINDS for pages in (1, 2, 3, 4)]
    random.Random(seed).shuffle(docs)
    return docs
