"""Shallow and deep nonbody-text removal."""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from bodytext import removal
from bodytext.columns import ColumnModel, detect_columns, sweep
from bodytext.metrics import (DocumentStats, Line, PageLines, PageLineTree,
                              Thresholds)
from bodytext.removal import (LineContext, RemovalLog, backward_removal,
                              find_abstract_band, nbt_tests, remove_references,
                              remove_sidings, remove_special_lines,
                              shallow_remove)
from bodytext.replica import (Page, PageObject, ReplicaDocument, TextBlock,
                              enumerate_blocks, resolve_absolute)
from helpers import block, line, single_column_model, tree, two_column_model

T = Thresholds()


def stats(base_fs=12.0, base_ls=14, base_cbd=40.0):
    return DocumentStats(base_fs=base_fs, base_ls=base_ls, base_cbd=base_cbd)


def doc_of(objects):
    page = Page(number=1, width=612, height=792, objects=objects)
    doc = ReplicaDocument(pages=[page])
    return resolve_absolute(doc)


def text_obj(text, x=72.0, y=700.0, font_size=12.0, rotated=False):
    blk = TextBlock(text=text, font_size=font_size, rotated=rotated)
    return PageObject(kind="text_block", relative_start=(x, y), block=blk,
                      height=font_size + 2)


# -- shallow removal -----------------------------------------------------------

def test_shallow_font_interval_open():
    doc = doc_of([text_obj("small", font_size=8),
                  text_obj("kept", font_size=10, y=650),
                  text_obj("edge", font_size=9, y=600),
                  text_obj("big", font_size=15, y=550)])
    out = shallow_remove(doc, 12.0, T)
    texts = [o.block.text for _, o in out.iter_objects()]
    assert texts == ["kept"]


def test_shallow_rotated_watermark():
    doc = doc_of([text_obj("Working draft not for distribution",
                           rotated=True),
                  text_obj("body", y=650)])
    out = shallow_remove(doc, 12.0, T)
    assert [o.block.text for _, o in out.iter_objects()] == ["body"]


def test_shallow_image_removed_child_survives():
    child = text_obj("label", x=10, y=10)
    fig = PageObject(kind="image", relative_start=(100, 400), width=200,
                     height=100, children=[child])
    doc = doc_of([fig, text_obj("body", y=650)])
    log = RemovalLog()
    out = shallow_remove(doc, 12.0, T, log=log)
    texts = [o.block.text for _, o in out.iter_objects()]
    assert sorted(texts) == ["body", "label"]
    assert any("non_textual" in v.reasons for v in log.blocks)
    # the surviving child keeps its resolved absolute position
    label = next(o for _, o in out.iter_objects() if o.block.text == "label")
    assert (label.block.x, label.block.y) == (110, 410)


def test_abstract_band_exempts_font_filter():
    objs = [text_obj("Abstract", x=280, y=700),
            text_obj("tiny abstract prose here", x=150, y=680, font_size=9),
            text_obj("1 Introduction", x=72, y=650),
            text_obj("body text", x=72, y=630)]
    doc = doc_of(objs)
    blocks = enumerate_blocks(doc)
    band = find_abstract_band(blocks, T.delta1)
    assert band is not None and band[0] == 1
    out = shallow_remove(doc, 12.0, T, abstract_band=band)
    texts = [o.block.text for _, o in out.iter_objects()]
    assert "tiny abstract prose here" in texts


def test_abstract_band_absent():
    doc = doc_of([text_obj("plain body")])
    assert find_abstract_band(enumerate_blocks(doc), T.delta1) is None


_HEADINGS = ["Abstract", "ABSTRACT:", "abstract :", " Abstract ", "Abs tract",
             "Abstracts", "Abstract.", "Abstract: :", "An abstract", "Ab"]


@st.composite
def _heading_line(draw, y, page):
    """Blocks of one line whose joined text is a heading or a near miss,
    cut at random and mixed with ':' and whitespace-only blocks."""
    text = draw(st.sampled_from(_HEADINGS))
    cuts = sorted(draw(st.sets(st.integers(1, len(text) - 1), max_size=4)))
    parts = [text[i:j] for i, j in zip([0] + cuts, cuts + [len(text)])]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(parts)))
        parts.insert(at, draw(st.sampled_from([":", " ", "\t", " : "])))
    return [block(part, x=100.0 + 20 * i, y=y, page=page)
            for i, part in enumerate(parts)]


@st.composite
def _abstract_pages(draw):
    blocks = []
    for page in range(1, draw(st.integers(1, 3)) + 1):
        y = 700.0
        for kind in draw(st.lists(st.sampled_from(
                ["body", "heading", "intro", "rotated"]), max_size=6)):
            if kind == "heading":
                blocks += draw(_heading_line(y, page))
            else:
                text = {"body": "Body text of the page.", "intro":
                        "1 Introduction", "rotated": "Abstract"}[kind]
                blocks.append(block(text, y=y, page=page,
                                    rotated=kind == "rotated"))
            y -= draw(st.sampled_from([3.0, 14.0, 30.0]))
    for i, b in enumerate(blocks):
        b.index = i
    return blocks


class _Everything:
    def __contains__(self, key):
        return True


@given(_abstract_pages())
@settings(max_examples=300, deadline=None)
def test_abstract_page_skip_is_exact(blocks):
    # the band equals the one found when every page is grouped into lines
    with mock.patch.object(removal, "_ABSTRACT_PARTS", _Everything()):
        unfiltered = find_abstract_band(blocks, T.delta1)
    assert find_abstract_band(blocks, T.delta1) == unfiltered


def test_abstract_heading_cut_into_blocks():
    blocks = [block(" ", x=260, y=700), block("Abs", x=280, y=700),
              block("tract", x=300, y=700), block(" ", x=330, y=700),
              block(":", x=340, y=700), block("1 Introduction", x=72, y=650)]
    assert find_abstract_band(blocks, T.delta1) == (1, 700, 650)
    blocks[3].text = "x"
    assert find_abstract_band(blocks, T.delta1) is None


# -- sidings --------------------------------------------------------------------

def test_sidings_boundaries():
    rows = [line(["gutter"], y=700, x=40),
            line(["kept edge"], y=686, x=72),
            line(["far right"], y=672, x=560),
            line(["right edge"], y=658, x=540)]
    t = tree(rows)
    for ln in t.pages[0].lines:
        ln.column_id = 0
    remove_sidings(t, single_column_model(), RemovalLog())
    texts = [ln.text for ln in t.pages[0].lines]
    assert texts == ["kept edge", "right edge"]


def test_sidings_warn_on_a_page_without_printing_area():
    # a margin of half the page width or more removes every block
    rows = [line("body text", y=700 - 14 * i, x=310) for i in range(3)]
    for ln in rows:
        ln.column_id = 0
    t = tree(rows)
    log = RemovalLog()
    remove_sidings(t, ColumnModel(column_lefts=[306], k=1, margin_width=306),
                   log)
    assert log.warnings == ["page 1 has no printing area: a margin of 306 px "
                            "on a page 612 px wide"]
    assert t.pages[0].lines == []
    log = RemovalLog()
    remove_sidings(tree(rows), single_column_model(), log)
    assert log.warnings == []


def test_sidings_use_each_page_width():
    # the right bound of a 612 px page is 540, even when another page of
    # the document is 792 px wide
    narrow = [line("body", y=700 - 14 * i) for i in range(3)]
    wide = [line("body", y=500, page=2), line("wide right", y=486, x=700, page=2)]
    t = PageLineTree(pages=[
        PageLines(1, 612.0, 792.0, narrow + [line("far right", y=600, x=560)]),
        PageLines(2, 792.0, 612.0, wide)])
    remove_sidings(t, detect_columns(sweep(t), T), RemovalLog())
    assert [[ln.text for ln in page.lines] for page in t.pages] == [
        ["body"] * 3, ["body", "wide right"]]


def test_sidings_paired_gutter_numbers():
    ln = line(["7 7"], y=400, x=30)
    ln.blocks[0].internal_gaps = [480.0]
    body = line(["body line"], y=400, x=72)
    t = tree([Line_merge(ln, body)])
    for row in t.pages[0].lines:
        row.column_id = 0
    remove_sidings(t, single_column_model(), RemovalLog())
    assert [ln.text for ln in t.pages[0].lines] == ["body line"]


def test_sidings_partial_line_measures_only_kept_blocks():
    ln = line(["12", "kept words", "x"], y=700, x=40, column_id=0, step=60)
    t = tree([ln])
    log = RemovalLog()
    remove_sidings(t, single_column_model(), log)
    (kept,) = t.pages[0].lines
    assert [b.text for b in kept.blocks] == ["kept words", "x"]
    assert kept.text == "kept wordsx"
    assert kept.density == 5          # (9 + 1) characters over 2 blocks
    assert [v.preview for v in log.blocks] == ["12"]
    assert log.lines == []


def Line_merge(a, b):
    return Line(sorted(a.blocks + b.blocks, key=lambda blk: blk.x), a.y,
                a.column_id)


def test_sidings_noop_without_margin_content():
    t = tree([line(["a"], y=700), line(["b"], y=686)])
    for ln in t.pages[0].lines:
        ln.column_id = 0
    remove_sidings(t, single_column_model(), RemovalLog())
    assert len(t.pages[0].lines) == 2


# -- references ------------------------------------------------------------------

def _refs_tree(heading_y, gap_ok=True):
    rows = [line(["Body sentence one."], y=700),
            line(["Body sentence two."], y=686)]
    rows.append(line(["References"], y=heading_y))
    rows.append(line(["[1] Someone. Title. 2020."], y=heading_y - 20))
    t = tree(rows)
    for ln in t.pages[0].lines:
        ln.column_id = 0
    return t


def test_references_gap_branch():
    t = _refs_tree(heading_y=658)     # gap 28 > base_ls
    remove_references(t, single_column_model(), stats(), RemovalLog())
    assert [ln.text for ln in t.pages[0].lines] == [
        "Body sentence one.", "Body sentence two."]


def test_references_first_line_of_column():
    rows = [line(["left body."], y=700, column_id=0),
            line(["References"], y=700, x=312, column_id=1),
            line(["[1] X."], y=686, x=312, column_id=1)]
    t = tree(rows)
    remove_references(t, two_column_model(), stats(), RemovalLog())
    assert [ln.text for ln in t.pages[0].lines] == ["left body."]


def test_bibliography_heading_variant():
    rows = [line(["Body sentence one."], y=700),
            line(["Bibliography"], y=658),
            line(["[1] Someone. Title. 2020."], y=638)]
    t = tree(rows)
    for ln in t.pages[0].lines:
        ln.column_id = 0
    remove_references(t, single_column_model(), stats(), RemovalLog())
    assert [ln.text for ln in t.pages[0].lines] == ["Body sentence one."]


def test_references_inline_phrase_ignored():
    rows = [line(["see references therein for more."], y=700),
            line(["after line."], y=658)]
    t = tree(rows)
    for ln in t.pages[0].lines:
        ln.column_id = 0
    log = RemovalLog()
    remove_references(t, single_column_model(), stats(), log)
    assert len(t.pages[0].lines) == 2
    assert log.warnings


def test_references_normal_gap_not_triggered():
    t = _refs_tree(heading_y=672)     # gap 14 == base_ls, mid column
    remove_references(t, single_column_model(), stats(), RemovalLog())
    assert len(t.pages[0].lines) == 4


def test_references_sweep_strategy():
    rows = [line(["Body text stays in place."], y=700)]
    y = 660
    for i in (1, 2):
        rows.append(Line([block(f"[{i}]", x=72, y=y),
                          block("A. Writer. Title.", x=94, y=y)], y=y))
        rows.append(line(["continuation of the entry."], y=y - 14, x=94))
        y -= 34
    t = tree(rows)
    for ln in t.pages[0].lines:
        ln.column_id = 0
    remove_references(t, single_column_model(), stats(), RemovalLog(),
                      strategy="sweep")
    assert [ln.text for ln in t.pages[0].lines] == ["Body text stays in place."]


# -- special lines ----------------------------------------------------------------

def test_special_indent_threshold():
    rows = [line(["normal line here."], y=700, x=72),
            line(["indented start"], y=686, x=120),       # 48: kept
            line(["formula body"], y=672, x=130)]          # 58 > 50: removed
    t = tree(rows)
    for ln in t.pages[0].lines:
        ln.column_id = 0
    remove_special_lines(t, single_column_model(), T, RemovalLog())
    assert [ln.x for ln in t.pages[0].lines] == [72, 120]


def test_special_internal_gap():
    wide = line(["left part right part"], y=700)
    wide.blocks[0].internal_gaps = [60.0]
    narrow = line(["left and right"], y=686)
    narrow.blocks[0].internal_gaps = [30.0]
    t = tree([wide, narrow])
    for ln in t.pages[0].lines:
        ln.column_id = 0
    remove_special_lines(t, single_column_model(), T, RemovalLog())
    assert [ln.text for ln in t.pages[0].lines] == ["left and right"]


# -- the four tests ------------------------------------------------------------------

def test_nbt_spacing():
    ln = line(["anything"])
    out = nbt_tests(ln, LineContext(28, 28, 72), stats(), T)
    assert out["spacing"] is True
    out = nbt_tests(ln, LineContext(14, 28, 72), stats(), T)
    assert out["spacing"] is False
    out = nbt_tests(ln, LineContext(None, 28, 72), stats(), T)
    assert out["spacing"] is True   # absent neighbor passes vacuously


def test_nbt_density_sparse_math():
    ln = line(["where", "E", "=", "mc", "2", "."])
    assert 1.8 < 11 / 6 < 1.9
    out = nbt_tests(ln, LineContext(14, 14, 72), stats(base_cbd=20.0), T)
    assert out["density"] is True       # 11/6 < 20/10
    out = nbt_tests(ln, LineContext(14, 14, 72), stats(base_cbd=15.0), T)
    assert out["density"] is False      # 11/6 > 1.5


def test_nbt_punctuation():
    ends_colon = line(["results are as follows:"])
    assert nbt_tests(ends_colon, LineContext(14, 14, 72), stats(), T)[
        "punctuation"] is False
    heading = line(["Results"])
    assert nbt_tests(heading, LineContext(14, 14, 72), stats(), T)[
        "punctuation"] is True


def test_nbt_indentation():
    flush = line(["text"], x=72)
    indented = line(["text"], x=73)
    assert nbt_tests(flush, LineContext(14, 14, 72), stats(), T)[
        "indentation"] is False
    assert nbt_tests(indented, LineContext(14, 14, 72), stats(), T)[
        "indentation"] is True


# -- backward scan --------------------------------------------------------------------

def run_backward(rows, base_cbd=40.0):
    t = tree(rows)
    for ln in t.pages[0].lines:
        if ln.column_id is None:
            ln.column_id = 0
    log = RemovalLog()
    backward_removal(t, single_column_model(), stats(base_cbd=base_cbd), T, log)
    return t, log


def test_standalone_title_removed_by_rule2():
    rows = [line(["An earlier sentence ends here."], y=700),
            line(["4 Experiments"], y=672),
            line(["The experiments were run on standard machines and"], y=652),
            line(["they complete within seconds."], y=638)]
    t, log = run_backward(rows)
    kept = [ln.text for ln in t.pages[0].lines]
    assert "4 Experiments" not in kept
    assert len(kept) == 3
    verdict = next(v for v in log.lines if v.preview.startswith("4 Exp"))
    assert verdict.reasons == {"rule2"} and verdict.p_before is False
    assert verdict.p_after is False     # rule 2 resets the flag


def test_display_math_flag_protects_line_above():
    rows = [line(["We define the loss as"], y=700),
            line(["L", "=", "x", "+", "1", ","], y=680, x=102),
            line(["z", "=", "L", "-", "2", "."], y=662, x=102),
            line(["where z stays bounded."], y=642)]
    t, log = run_backward(rows)
    kept = [ln.text for ln in t.pages[0].lines]
    assert kept == ["We define the loss as", "where z stays bounded."]
    math_verdicts = [v for v in log.lines if v.x == 102]
    assert all(v.reasons == {"rule1"} and v.p_after is True
               for v in math_verdicts)
    top = next(v for v in log.lines if v.preview.startswith("We define"))
    assert top.removed is False and top.p_before is True


def test_flush_last_line_never_rule1():
    rows = [line(["A paragraph line that is long enough to be dense."], y=700),
            line(["end."], y=686)]
    t, _ = run_backward(rows)
    assert [ln.text for ln in t.pages[0].lines] == [
        "A paragraph line that is long enough to be dense.", "end."]


def test_page_number_footer_heuristic():
    rows = [line(["Body content line with text."], y=700),
            line(["body continues with more words here."], y=686),
            line(["3"], y=30, x=300)]
    t, log = run_backward(rows)
    assert all(ln.y > 30 for ln in t.pages[0].lines)
    verdict = next(v for v in log.lines if v.preview == "3")
    assert verdict.reasons == {"page_number"} and verdict.p_after is True


def _random_rows(rng):
    rows = []
    y = 700.0
    for i in range(rng.randint(2, 14)):
        sparse = rng.random() < 0.3
        indented = rng.random() < 0.4
        x = 72 + (rng.choice([1, 30, 48]) if indented else 0)
        if sparse:
            texts = [rng.choice("abcXY=+.") for _ in range(rng.randint(2, 6))]
        else:
            n = rng.randint(25, 60)
            texts = ["".join(rng.choice("abc def ghij") for _ in range(n))
                     + rng.choice([".", "", ":", ","])]
        rows.append(line(texts, y=y, x=x))
        y -= rng.choice([12, 14, 14, 14, 20, 28])
    return rows


def test_backward_monotone_deterministic_and_guarded():
    # acceptance criterion 3: >= 1000 randomized cases
    rng = random.Random(37)
    for _ in range(1000):
        seed = rng.getrandbits(32)
        t1, log1 = run_backward(_random_rows(random.Random(seed)),
                                base_cbd=30.0)
        t2, log2 = run_backward(_random_rows(random.Random(seed)),
                                base_cbd=30.0)
        v1 = [(v.y, v.removed, tuple(sorted(v.reasons))) for v in log1.lines]
        v2 = [(v.y, v.removed, tuple(sorted(v.reasons))) for v in log2.lines]
        assert v1 == v2                                   # determinism
        kept_ys = {ln.y for ln in t1.pages[0].lines}
        all_ys = {v.y for v in log1.lines}
        assert kept_ys <= all_ys                          # monotone
        for v in log1.lines:
            if v.reasons == {"rule1"}:
                assert round(v.x) > 72                    # flush guard
        # flag soundness: a rule-2 removal happens only with the flag down,
        # i.e. the previously scanned line was kept or itself a rule-2 removal
        scan = list(log1.lines)
        for prev, cur in zip(scan, scan[1:]):
            if cur.reasons == {"rule2"}:
                assert cur.p_before is False
                assert (not prev.removed) or prev.reasons == {"rule2"}


def test_verdicts_removed_iff_reasons():
    t, log = run_backward(_random_rows(random.Random(99)))
    for v in log.lines:
        assert v.removed == bool(v.reasons)
