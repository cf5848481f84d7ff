"""The synthetic fixture corpus used by the acceptance suite.

Each factory builds one replica with its gold body text and removed-text
list.  MANIFEST maps fixture names to their expectations: conforming
fixtures must score F1 = 1.00 in every applicable category; the one
deliberately nonconforming fixture documents exactly how it fails (a
spurious paragraph break after removed display math splits one sentence).

Layout discipline matters: the detection assumptions require most lines in
every column to be flush left, so paragraphs here run three or more lines
and only some of them open with an indent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from replica_builder import Fixture, ReplicaBuilder, spanning_line

C1, C2 = 72, 312


@dataclass
class FixtureCase:
    fixture: Fixture
    conforming: bool = True
    # nonconforming only: expected (tp, fp, fn) per category
    expected: dict[str, tuple[int, int, int]] = field(default_factory=dict)


def single_column() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    col = p.column(C1)
    col.paragraph([
        "Document analysis begins with a faithful rendering of every",
        "object on the page, including text runs and their positions,",
        "which later stages consume without touching the source again.",
    ], indent=0)
    col.heading("1 Introduction")
    col.paragraph([
        "Clean extraction requires complete sentences and the original",
        "paragraph boundaries, which are lost by naive text dumps that",
        "walk the markup in storage order instead of reading order and",
        "interleave marginal material with the prose.",
    ])
    col.paragraph([
        "Earlier converters mix headings, footers, and labels into the",
        "running text, which degrades any downstream language task fed",
        "with the result.",
    ], indent=0)
    col.two_line_heading("2 A Longer Heading That Wraps", "Onto a Second Line")
    col.paragraph([
        "The approach described here relies only on geometry and a few",
        "robust document statistics collected in one pass, so it needs",
        "neither markup heuristics nor trained models, and it carries",
    ])
    p.page_number("1")

    p2 = b.page()
    col = p2.column(C1)
    col.paragraph([
        "across page boundaries without interrupting the paragraph it",
        "was reconstructing when the previous page ended.",
    ], continues=True, gap_before=None)
    col.paragraph([
        "A second page also carries its own full paragraph so that the",
        "font and spacing statistics stay firmly anchored to the body",
        "values throughout the document.",
    ])
    p2.page_number("2")
    return b.build("single_column")


def two_column() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    left = p.column(C1)
    left.paragraph([
        "Two column layouts dominate conference proceedings, so the",
        "reading order must follow each column to its bottom before",
        "moving right, then hop to the next page and repeat the walk.",
    ], indent=0)
    left.heading("1 Overview")
    left.paragraph([
        "A paragraph may start in the left column and continue across",
        "the column boundary without any visible marker beyond the",
        "flow of its sentences, so the joiner has to bridge columns",
        "silently whenever the geometry says the column simply ended.",
    ])
    left.paragraph([
        "The left column then closes with a paragraph that spills",
        "over into the right column, as most paragraphs do in dense",
        "two column typesetting, where the column bottom lands in",
    ], indent=0)
    right = p.column(C2)
    right.paragraph([
        "the middle of a sentence more often than between them.",
    ], continues=True, gap_before=None)
    right.paragraph([
        "The right column then opens a paragraph of its own, printed",
        "flush left so that the second boundary registers clearly in",
        "the aggregated histogram of starting points.",
    ], indent=0)
    right.heading("2 Continuation")
    right.paragraph([
        "Text can also continue from the bottom of one page onto the",
        "next page, and the extractor must bridge that break exactly",
        "as it bridges columns, because this sentence only reaches",
    ])
    p.page_number("1")

    p2 = b.page()
    left2 = p2.column(C1)
    left2.paragraph([
        "its period here on the following page of the document.",
    ], continues=True, gap_before=None)
    left2.paragraph([
        "A final paragraph closes the fixture with several lines of",
        "ordinary prose, keeping the flush share of the first column",
        "above the threshold while its last sentence crosses into",
    ], indent=0)
    right2 = p2.column(C2)
    right2.paragraph([
        "the second column and finishes the page there.",
    ], continues=True, gap_before=None)
    right2.paragraph([
        "The second page fills its right column too, so both parity",
        "classes of pages present the same two column geometry to",
        "the detector when it aggregates the starting points.",
    ], indent=0)
    p2.page_number("2")
    return b.build("two_column")


def abstract_insert() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    p.centered("Improving the Extraction of Clean Text", 700, font_size=18)
    p.centered("Alice Park and Taylor Reyes", 676)
    p.centered("Department of Examples, Sample University", 658, font_size=8)
    p.centered("Abstract", 630)

    span = p.column(150, top=610)
    abstract_lines = [
        spanning_line(t, 150, 9, C2) for t in [
            "This report studies the recovery of running prose from richly",
            "formatted pages and shows that simple geometric statistics locate",
            "the body reliably. The method needs no training data and keeps",
        ]]
    # short closing line: a single block that reaches into neither column,
    # absorbed into the spanning region by contiguity
    abstract_lines.append("the original sentence flow intact.")
    span.paragraph(abstract_lines, indent=0, font_size=9, line_spacing=12,
                   gap_before=None)

    left = p.column(C1, top=540)
    left.heading("1 Introduction", gap_before=None)
    left.paragraph([
        "The opening section sits below the spanning front matter and",
        "uses the full two column grid for the remaining content, so",
        "the sweep sees both boundaries at full strength.",
    ], indent=0, gap_before=None)
    left.paragraph([
        "Several more sentences pad the left column so that the flush",
        "share stays above one half at all times, as the layout",
        "detection assumes for every major column of the page.",
    ])
    left.paragraph([
        "Each paragraph ends with ordinary punctuation to satisfy",
        "the formatting conventions that the removal rules exploit,",
        "and the last one runs past the column bottom straight into",
    ], indent=0)
    right = p.column(C2, top=540)
    right.paragraph([
        "the right column, where its closing sentence ends.",
    ], continues=True, gap_before=None)
    right.paragraph([
        "The right column holds parallel material of the same shape",
        "so both columns present the expected flush left profile to",
        "the detector, whatever order the sweep visits them in.",
    ], indent=0)
    right.paragraph([
        "More discussion follows in a second paragraph that keeps",
        "the column populated all the way toward the page bottom,",
        "with every line flush against the boundary.",
    ])
    right.paragraph([
        "A closing paragraph rounds out the right column nicely and",
        "ends, like all the others, with a period.",
    ], indent=0)
    p.page_number("1")
    return b.build("abstract_insert")


def table_doc() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    left = p.column(C1)
    left.paragraph([
        "Table 1 shows the accuracy of every configuration we tried",
        "during the study, aggregated over ten held out samples and",
        "reported with one digit after the decimal point.",
    ], indent=0)
    left.table([
        ["cfg", "prA", "rcA", "f1A"],
        ["v1x", "86.4", "90.2", "88.3"],
        ["v2x", "87.9", "91.5", "89.7"],
    ])
    left.caption(["Table 1. Accuracy across configurations."])
    left.paragraph([
        "The prose resumes after the float with a fresh paragraph",
        "that keeps the left column dense enough for the statistics",
        "to stay anchored to the body line spacing.",
    ], indent=0)
    left.paragraph([
        "One more paragraph pads the column below the table so the",
        "flush starting points clearly outnumber the aligned cell",
        "coordinates inside the float, and it carries over into",
    ])
    right = p.column(C2)
    right.paragraph([
        "the right column before it reaches its final period.",
    ], continues=True, gap_before=None)
    right.paragraph([
        "The right column carries uninterrupted prose so the page",
        "keeps a healthy share of ordinary body lines, because the",
        "baselines average over every line of the document.",
    ], indent=0)
    right.paragraph([
        "Additional sentences continue here and close with a period,",
        "giving the spacing histogram more mass at the body value.",
    ])
    right.wide_gap_line("left side text", "far right cell")
    right.paragraph([
        "A final paragraph follows the wide gap line and survives,",
        "since only the line containing the inserted gap is dropped.",
    ], indent=0)
    p.page_number("1")
    fx = b.build("table_doc")
    fx.removed.append("left side text far right cell")
    return fx


def figure_doc() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    left = p.column(C1)
    left.paragraph([
        "Figures carry sparse labels that sit far from the column",
        "edge and must never leak into the extracted running text,",
        "however close their font is to the body face.",
    ], indent=0)
    p.figure(C1 + 20, 580, 180, 120, labels=[
        (10, 100, "lt7"),
        (10, 60, "lv9"),
        (30, 6, "e0"),
        (90, 6, "e50"),
        (150, 6, "e100"),
    ])
    left2 = p.column(C1, top=440)
    left2.caption(["Figure 2. Loss curves over training epochs."],
                  gap_before=None)
    left2.paragraph([
        "After the figure the text returns to the normal rhythm of",
        "the column and continues with the discussion of the curves",
        "that the removed labels used to annotate.",
    ], indent=0)
    left2.paragraph([
        "A further paragraph keeps the flush count of the column",
        "well clear of the label coordinates inside the figure box",
        "and flows onward across the column boundary into",
    ])
    right = p.column(C2)
    right.paragraph([
        "the second column, completing its thought there.",
    ], continues=True, gap_before=None)
    right.paragraph([
        "The right column again holds plain paragraphs whose lines",
        "are flush with the column boundary for the sweep to find,",
        "page after page, at exactly the same coordinate.",
    ], indent=0)
    right.paragraph([
        "Discussion continues with a couple of extra sentences, so",
        "the statistics lean toward the body values comfortably and",
        "the density baseline stays representative.",
    ])
    p.page_number("1")
    return b.build("figure_doc")


def display_math_end() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    col = p.column(C1)
    col.paragraph([
        "Before any removal step the pipeline gathers statistics",
        "from every line of the document, and once the baselines",
        "exist it writes the training objective as follows:",
    ], indent=0)
    col.display_math([
        ["L(w)", "=", "sum", "k", "(y", "k", "-", "f(x", "k", "))", "2", "."],
    ])
    col.paragraph([
        "We then continue with a genuinely new paragraph after the",
        "equation, whose boundary coincides with the removed block,",
        "so the break the gap induces is the true one.",
    ])
    col.paragraph([
        "Further text keeps the single column fixture long enough",
        "for the spacing histogram to settle on the body value and",
        "for the density average to stay high.",
    ], indent=0)
    p.page_number("1")
    return b.build("display_math_end")


def display_math_midpara() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    col = p.column(C1)
    col.paragraph([
        "This fixture violates the clean boundary assumption on",
        "purpose, because a display equation interrupts a sentence",
        "of the running text, whose opening half is",
    ], indent=0)
    col.display_math([
        ["g(z)", "=", "z", "+", "1", ","],
    ])
    # geometrically a continuation, but the gap over the removed display
    # triggers a paragraph break: the gold keeps it one paragraph
    col.paragraph([
        "while this closing half completes the interrupted sentence.",
    ], continues=True, gap_before=20.0)
    col.paragraph([
        "An ordinary second paragraph follows so the fixture also",
        "has correct material to score against the gold annotation,",
        "with all of its lines flush against the boundary.",
    ], indent=0)
    p.page_number("1")
    return b.build(
        "display_math_midpara",
        notes="nonconforming: mid-sentence display math; the gap over the "
              "removed block splits the sentence and its paragraph")


def gutter_doc() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    col = p.column(C1)
    col.paragraph([
        "Review drafts often print line numbers in the margin, one",
        "per text line, which together form a narrow minor column",
        "to the left of the prose.",
    ], indent=0)
    col.paragraph([
        "The sweep must classify that gutter as minor and promote",
        "the margin to the first major boundary before the removal",
        "passes begin their work.",
    ])
    col.paragraph([
        "Body lines continue so the page carries enough flush",
        "content for both the gutter and the text column to",
        "register their peaks side by side.",
    ], indent=0)
    p.gutter_numbers(x=30)
    p.gutter_pair(7, 350, x=30)
    p.page_number("1")
    return b.build("gutter_doc")


def watermark_doc() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    p.header("Working copy, not for distribution", font_size=8)
    p.watermark("UNREVIEWED COPY", x=200, y=400)
    col = p.column(C1)
    col.paragraph([
        "A rotated banner crosses this page diagonally and a small",
        "running header sits above the text, yet neither may leak",
        "into the output of the extraction.",
    ], indent=0)
    col.paragraph([
        "The body continues beneath the watermark unaffected, since",
        "rotation is visible in the transform matrix of the block",
        "and the header face is far below the body size.",
    ])
    col.paragraph([
        "One more paragraph keeps the statistics representative of",
        "ordinary prose rather than of the decorations.",
    ], indent=0)
    p.page_number("1")
    return b.build("watermark_doc")


def references_doc() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    left = p.column(C1)
    left.paragraph([
        "The closing sections of a paper list sources that the",
        "extraction must drop together with anything printed after",
        "them, appendices included.",
    ], indent=0)
    left.paragraph([
        "The body ends here with a sentence that stays in the",
        "output because it precedes the heading in reading order.",
    ])
    left.paragraph([
        "A third paragraph keeps the left column populated so its",
        "boundary stays the dominant peak of the page, and it runs",
        "across the gutter into the second column, where",
    ], indent=0)
    right = p.column(C2)
    right.paragraph([
        "it finishes ahead of the reference list. That prose also",
        "survives the cut, while everything from the heading down",
        "disappears from the body text entirely.",
    ], continues=True, gap_before=None)
    right.heading("References")
    right.paragraph([
        [(0.0, "[1]"), (22.0, "A. Writer. On fast layout analysis. 2019.")],
        [(22.0, "Journal of Synthetic Examples, 4(2).")],
    ], indent=0, gap_before=20.0, body=False)
    right.paragraph([
        [(0.0, "[2]"), (22.0, "B. Scholar. Page geometry at scale. 2021.")],
    ], indent=0, gap_before=18.0, body=False)
    right.heading("Appendix A")
    right.paragraph([
        "Appendix material printed after the references is dropped",
        "with them, whatever it contains.",
    ], indent=0, body=False)
    p.page_number("1")
    return b.build("references_doc")


def hyphenation_doc() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    col = p.column(C1)
    col.paragraph([
        "Line wrapping inserts hyphens that the joiner removes, re-",
        "storing words such as restoring without leaving any trace",
        "of the original break behind.",
    ], indent=0)
    col.paragraph([
        "A second paragraph exercises another split, where the ex-",
        "traction of hyphenated fragments must reconstruct the full",
        "word before sentences are segmented.",
    ])
    col.paragraph([
        "The last paragraph runs to the end of the fixture without",
        "any hyphenation at all, three plain lines of prose that",
        "close with an ordinary period.",
    ], indent=0)
    p.page_number("1")
    return b.build("hyphenation_doc")


def deep_indent_math() -> Fixture:
    b = ReplicaBuilder()
    p = b.page()
    col = p.column(C1)
    col.paragraph([
        "Deeply indented display material exceeds the indentation",
        "threshold and is removed before the backward scan even",
        "runs, by the special line pass alone:",
    ], indent=0)
    col.display_math([
        ["h(x)", "=", "max(0,", "x)", "."],
    ], indent=110)
    col.paragraph([
        "Centered front matter in single column documents behaves",
        "the same way, so this fixture needs no second removal",
        "mechanism beyond the indentation rule.",
    ])
    col.paragraph([
        "Trailing prose keeps the density and the spacing baseline",
        "firmly at their body values for the whole page.",
    ], indent=0)
    p.page_number("1")
    return b.build("deep_indent_math")


def column_top_indent() -> Fixture:
    """A paragraph ends at the bottom of the left column and an indented
    one opens the right column."""
    b = ReplicaBuilder()
    p = b.page()
    left = p.column(C1)
    left.paragraph([
        "Paragraph breaks that fall exactly at a column boundary are",
        "common in typeset proceedings, because the column bottom is",
        "indifferent to where the author chose to end a paragraph.",
    ], indent=0)
    left.heading("1 Breaks at Boundaries")
    left.paragraph([
        "An indented first line is the only geometric evidence that",
        "a paragraph opens, and it stays visible whichever column the",
        "line happens to land in on the printed page.",
    ])
    left.paragraph([
        "This paragraph closes the left column with its last sentence",
        "ending on the bottom line, so nothing spills over into the",
        "next column and the break coincides with the column end.",
    ], indent=0)
    right = p.column(C2)
    right.paragraph([
        "The right column therefore opens a fresh paragraph, and its",
        "indented first line tells the reader so even though the line",
        "above it in reading order sits at the foot of another column.",
    ])
    right.paragraph([
        "Another flush paragraph follows so that the second column",
        "keeps most of its lines against the boundary, which the",
        "detector needs when it aggregates the starting points.",
    ], indent=0)
    right.paragraph([
        "A last paragraph of ordinary prose finishes the page with",
        "several complete sentences. It ends with a period.",
    ], indent=0)
    p.page_number("1")
    return b.build("column_top_indent")


def page_top_indent() -> Fixture:
    """A paragraph ends at the bottom of page 1 and an indented one opens
    page 2."""
    b = ReplicaBuilder()
    p = b.page()
    col = p.column(C1)
    col.paragraph([
        "Page boundaries behave like column boundaries for the joiner,",
        "since the last line of one page and the first line of the",
        "next are neighbors in reading order but not on the paper.",
    ], indent=0)
    col.heading("1 Pages")
    col.paragraph([
        "A paragraph that ends on the last line of a page leaves the",
        "next page to open a new one, which it marks by indenting its",
        "first line exactly as any other paragraph would.",
    ])
    col.paragraph([
        "This paragraph runs down to the bottom of the first page and",
        "finishes its final sentence there, so the page break and the",
        "paragraph break fall in the same place.",
    ], indent=0)
    p.page_number("1")

    p2 = b.page()
    col = p2.column(C1)
    col.paragraph([
        "The second page begins with an indented line, and that indent",
        "alone separates this paragraph from the one that closed the",
        "previous page of the document.",
    ])
    col.paragraph([
        "A flush paragraph follows to keep the statistics anchored to",
        "the body values and most lines against the column boundary,",
        "as the layout detection assumes.",
    ], indent=0)
    p2.page_number("2")
    return b.build("page_top_indent")


def heading_column_top() -> Fixture:
    """A heading opens the right column, and an indented paragraph
    follows it."""
    b = ReplicaBuilder()
    p = b.page()
    left = p.column(C1)
    left.paragraph([
        "Section headings sometimes land at the very top of a column,",
        "where the heading is removed as a short unpunctuated line and",
        "the paragraph below it must still open on its own.",
    ], indent=0)
    left.paragraph([
        "Several flush lines keep the first column anchored to its",
        "left boundary, so that the sweep reports it as a major column",
        "with the share of flush lines the detection expects.",
    ])
    left.paragraph([
        "The left column ends with this paragraph, whose closing",
        "sentence finishes on the last line of the column and leaves",
        "nothing to continue at the top of the next one.",
    ], indent=0)
    right = p.column(C2)
    right.heading("2 Method", gap_before=None)
    right.paragraph([
        "Below the heading an indented paragraph begins, and it must",
        "not be merged into the paragraph that ended at the foot of",
        "the left column just before it in reading order.",
    ])
    right.paragraph([
        "A flush paragraph fills out the right column with enough",
        "lines to present the expected profile to the detector,",
        "and every one of its sentences ends with a period.",
    ], indent=0)
    p.page_number("1")
    return b.build("heading_column_top")


def build_all() -> dict[str, FixtureCase]:
    cases = {}
    for factory in (single_column, two_column, abstract_insert, table_doc,
                    figure_doc, display_math_end, gutter_doc, watermark_doc,
                    references_doc, hyphenation_doc, deep_indent_math,
                    column_top_indent, page_top_indent, heading_column_top):
        fx = factory()
        cases[fx.name] = FixtureCase(fixture=fx)
    mid = display_math_midpara()
    # the interrupted sentence surfaces as two incomplete fragments (fp)
    # and one missing gold sentence (fn); same at paragraph level
    cases[mid.name] = FixtureCase(
        fixture=mid, conforming=False,
        expected={"sentences": (1, 2, 1), "paragraphs": (1, 2, 1)})
    return cases


def scaling_doc(pages: int) -> Fixture:
    """Identical single-column pages for the runtime-scaling criterion."""
    b = ReplicaBuilder()
    for _ in range(pages):
        p = b.page()
        col = p.column(C1)
        for k in range(6):
            col.paragraph([
                "Synthetic body copy fills this page with uniform lines",
                "to measure how the running time grows with the page",
                "count; every page is identical, so the fit is clean.",
            ], indent=0)
        p.page_number(str(p.number))
    return b.build(f"scaling_{pages}")
