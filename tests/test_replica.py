"""Replica ingestion: parsing, style resolution, coordinate math."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bodytext.errors import ReplicaFormatError, ReplicaParseError
from bodytext.replica import (Page, PageObject, ReplicaDocument, TextBlock,
                              enumerate_blocks, parse_replica,
                              resolve_absolute)

CSS = """
.pf { position: relative; } .t { position: absolute; } .c { position: absolute; }
.w0 { width: 612px; } .h0 { height: 792px; }
.x1 { left: 72px; } .y1 { bottom: 700px; }
.x2 { left: 100px; } .y2 { bottom: 500px; }
.hh { height: 14px; } .fs { font-size: 12px; }
.wimg { width: 200px; } .himg { height: 100px; }
"""


def page_html(body, number=1):
    return (f'<div id="page-container">'
            f'<div id="pf{number:x}" class="pf w0 h0" data-page-no="{number}">'
            f'{body}</div></div>')


def test_minimal_single_block():
    doc = parse_replica(page_html('<div class="t x1 y1 hh fs">Hello.</div>'),
                        CSS)
    assert len(doc.pages) == 1
    assert (doc.pages[0].width, doc.pages[0].height) == (612, 792)
    blocks = enumerate_blocks(resolve_absolute(doc))
    assert len(blocks) == 1
    assert blocks[0].text == "Hello."
    assert (blocks[0].x, blocks[0].y) == (72.0, 700.0)
    assert blocks[0].font_size == 12.0


def test_kind_discrimination():
    html = page_html('<img class="x1 y1 wimg himg" src="i.png"/>'
                     '<div class="t x1 y2 hh fs">One</div>'
                     '<div class="t x2 y2 hh fs">Two</div>')
    doc = parse_replica(html, CSS)
    kinds = [obj.kind for _, obj in doc.iter_objects()]
    assert kinds.count("image") == 1
    assert kinds.count("text_block") == 2
    image = next(o for _, o in doc.iter_objects() if o.kind == "image")
    assert (image.width, image.height) == (200.0, 100.0)


def test_rotation_flag():
    html = page_html('<div class="t x1 y1 hh fs" '
                     'style="transform: matrix(0.7,-0.7,0.7,0.7,0,0)">W</div>'
                     '<div class="t x2 y2 hh fs">plain</div>')
    blocks = enumerate_blocks(resolve_absolute(parse_replica(html, CSS)))
    assert [b.rotated for b in blocks] == [True, False]


@pytest.mark.parametrize("transform", [
    "rotate(180deg)", "scale(-1)", "scaleX(-2)", "matrix(-1,0,0,1,0,0)"])
def test_transform_that_reverses_the_baseline_rotates(transform):
    html = page_html('<div class="t x1 y1 hh fs" style="transform: '
                     f'{transform}">W</div>')
    doc = parse_replica(html, CSS)
    assert enumerate_blocks(resolve_absolute(doc))[0].rotated
    assert not doc.warnings


@pytest.mark.parametrize("transform", [
    "rotate(90deg)", "rotate(1.5708rad)", "rotate(100grad)",
    "rotate(.25turn)", "rotate(90DEG)", "ROTATE( -.5E2deg )",
    "rotate(+1e2grad)"])
def test_rotation_in_every_angle_unit(transform):
    css = CSS + f".rot {{ transform: {transform}; }}"
    html = page_html('<div class="t x1 y1 hh fs rot">W</div>'
                     f'<div class="t x2 y2 hh fs" style="transform: '
                     f'{transform}">V</div>')
    doc = parse_replica(html, css)
    assert [b.rotated for b in enumerate_blocks(resolve_absolute(doc))] == [
        True, True]
    assert not doc.warnings


@pytest.mark.parametrize("transform, warned", [
    ("rotate(90)", True), ("skewX(10deg)", True), ("matrix(1, 0)", True),
    ("none", False), ("NONE", False), ("rotate(0turn)", False),
    ("rotate(0)", False), ("translate(3px, 4px)", False),
    ("translateY(-2px)", False), ("scale(2)", False), ("scaleX(0.5)", False),
    ("scaleY(-1)", False), ("MATRIX(0.25, 0, 0, 0.25, 0, 0)", False),
    ("matrix(1,0,0.3,1,0,0)", False)])
def test_unreadable_transform_warns(transform, warned):
    html = page_html(f'<div class="t x1 y1 hh fs" style="transform: '
                     f'{transform}">W</div>')
    doc = parse_replica(html, CSS)
    assert not enumerate_blocks(resolve_absolute(doc))[0].rotated
    assert any("transform that cannot be read" in w
               for w in doc.warnings) == warned


def test_rule_object_and_container():
    html = page_html('<div class="x1 y1 wimg hh"></div>'
                     '<div class="c x1 y2"><div class="t x1 y1 hh fs">in</div></div>')
    doc = parse_replica(html, CSS)
    kinds = sorted(obj.kind for _, obj in doc.iter_objects())
    assert kinds == ["container", "line", "text_block"]


def test_resolve_parent_child():
    html = page_html('<div class="c x2 y2">'
                     '<div class="t xb yb hh fs">child</div>'
                     '<div class="t xp yd hh fs">pt, leading dot</div>'
                     '<div class="t xe yn hh fs">exponents</div></div>')
    css = CSS + (".xb { left: 10px; } .yb { bottom: 5px; }"
                 ".xp { left: 7.5pt; } .yd { bottom: .5px; }"
                 ".xe { left: 1e2px; } .yn { bottom: -2.5E-1px; }")
    doc = resolve_absolute(parse_replica(html, css))
    assert [(b.x, b.y) for b in enumerate_blocks(doc)] == [
        (110.0, 505.0), (110.0, 500.5), (200.0, 499.75)]


def test_resolve_three_level_chain():
    html = page_html('<div class="c xa ya"><div class="c xb yb">'
                     '<div class="t xc yc hh fs">deep</div></div></div>')
    css = (CSS + ".xa{left:50px}.ya{bottom:50px}.xb{left:10px}.yb{bottom:10px}"
                 ".xc{left:5px}.yc{bottom:5px}")
    doc = resolve_absolute(parse_replica(html, css))
    block = enumerate_blocks(doc)[0]
    assert (block.x, block.y) == (65.0, 65.0)


def _random_tree_doc(rng, nodes=1000):
    """Random container tree with text-block leaves; returns
    (doc, {id(obj): path_sum})."""
    objects = []
    expected = {}
    containers = []
    for _ in range(nodes):
        rel = (rng.uniform(-20, 20), rng.uniform(-20, 20))
        if rng.random() < 0.3:
            obj = PageObject(kind="text_block", relative_start=rel,
                             block=TextBlock("t"))
        else:
            obj = PageObject(kind="container", relative_start=rel)
        if containers and rng.random() < 0.7:
            parent = rng.choice(containers)
            parent.children.append(obj)
            px, py = expected[id(parent)]
            expected[id(obj)] = (px + rel[0], py + rel[1])
        else:
            objects.append(obj)
            expected[id(obj)] = rel
        if obj.block is None:
            containers.append(obj)
    page = Page(number=1, width=612, height=792, objects=objects)
    return ReplicaDocument(pages=[page]), expected


def test_resolution_matches_path_sum_oracle():
    # acceptance criterion 3: >= 1000 randomized cases
    rng = random.Random(42)
    for trial in range(1000):
        doc, expected = _random_tree_doc(rng, nodes=30)
        resolve_absolute(doc)
        for _, obj in doc.iter_objects():
            want = expected[id(obj)]
            assert obj.absolute_start == pytest.approx(want)
            assert obj.block is None or (
                (obj.block.x, obj.block.y) == obj.absolute_start)


def test_resolution_idempotent():
    rng = random.Random(7)
    doc, _ = _random_tree_doc(rng, nodes=200)
    resolve_absolute(doc)
    first = [obj.absolute_start for _, obj in doc.iter_objects()]
    resolve_absolute(doc)
    second = [obj.absolute_start for _, obj in doc.iter_objects()]
    assert first == second


def test_enumerate_page_then_preorder():
    html = ('<div id="page-container">'
            '<div id="pf1" class="pf w0 h0" data-page-no="1">'
            '<div class="t x1 y1 hh fs">a</div><div class="t x2 y1 hh fs">b</div></div>'
            '<div id="pf2" class="pf w0 h0" data-page-no="2">'
            '<div class="t x1 y1 hh fs">c</div><div class="t x2 y1 hh fs">d</div></div>'
            '</div>')
    blocks = enumerate_blocks(resolve_absolute(parse_replica(html, CSS)))
    assert [b.text for b in blocks] == ["a", "b", "c", "d"]
    assert [b.page_number for b in blocks] == [1, 1, 2, 2]
    assert [b.index for b in blocks] == [0, 1, 2, 3]


def test_enumerate_nested_preorder_position():
    html = page_html('<div class="t x1 y1 hh fs">before</div>'
                     '<div class="c x2 y2"><div class="t x1 y1 hh fs">inside</div></div>'
                     '<div class="t x2 y1 hh fs">after</div>')
    blocks = enumerate_blocks(resolve_absolute(parse_replica(html, CSS)))
    assert [b.text for b in blocks] == ["before", "inside", "after"]


def test_enumerate_empty_page():
    doc = parse_replica(page_html(""), CSS)
    assert enumerate_blocks(resolve_absolute(doc)) == []


def test_text_preserved_through_ingest():
    texts = ["alpha beta", "g&mma <tag>", "trailing  spaces  "]
    import html as html_mod
    body = "".join(f'<div class="t x1 y1 hh fs">{html_mod.escape(t)}</div>'
                   for t in texts)
    blocks = enumerate_blocks(resolve_absolute(parse_replica(page_html(body),
                                                             CSS)))
    assert [b.text for b in blocks] == texts


def test_internal_gap_spans():
    css = CSS + "._g { width: 60px; }"
    html = page_html('<div class="t x1 y1 hh fs">ab<span class="_g"> </span>cd</div>')
    blocks = enumerate_blocks(resolve_absolute(parse_replica(html, css)))
    assert blocks[0].text == "ab cd"
    assert blocks[0].internal_gaps == [60.0]


def test_bytes_input_accepted():
    html = page_html('<div class="t x1 y1 hh fs">bytes ok</div>')
    doc = parse_replica(html.encode("utf-8"), CSS.encode("utf-8"))
    assert enumerate_blocks(resolve_absolute(doc))[0].text == "bytes ok"


def test_line_break_inside_block_normalized():
    html = page_html('<div class="t x1 y1 hh fs">two\nlines</div>')
    doc = parse_replica(html, CSS)
    assert enumerate_blocks(resolve_absolute(doc))[0].text == "two lines"
    assert any("line break" in w for w in doc.warnings)


def test_missing_page_container_fatal():
    with pytest.raises(ReplicaFormatError):
        parse_replica('<div id="pf1" class="pf w0 h0"></div>', CSS)


def test_malformed_markup_offset():
    bad = page_html('<div class="t x1 y1 hh fs">x</span>')
    with pytest.raises(ReplicaParseError) as err:
        parse_replica(bad, CSS)
    assert err.value.offset is not None


@pytest.mark.parametrize("head", ["<style>.q{left:1px}", "<SCRIPT>a < b",
                                  "<title>A </span>", "<span>"])
def test_unclosed_element_fails_at_end_of_input(head):
    html = head + page_html('<div class="t x1 y1 hh fs">\u00e9</div>')
    with pytest.raises(ReplicaParseError, match="unclosed") as err:
        parse_replica(html, CSS)
    assert err.value.offset == len(html.encode("utf-8"))


@pytest.mark.parametrize("title", ["</span>x", "a <div>b</div> &amp; c",
                                   "<div class='t x1 y1 hh fs'>no</div>"])
def test_title_content_is_raw_text(title):
    html = (f"<html><head><title>{title}</TITLE ></head><body>"
            + page_html('<div class="t x1 y1 hh fs">body</div>')
            + "</body></html>")
    doc = resolve_absolute(parse_replica(html, CSS))
    assert [b.text for b in enumerate_blocks(doc)] == ["body"]
    assert doc.warnings == []


def test_unknown_class_warns_then_strict_raises():
    html = page_html('<div class="t zz9 x1 y1 hh fs">x</div>')
    doc = parse_replica(html, CSS)
    assert any("zz9" in w for w in doc.warnings)
    with pytest.raises(ReplicaFormatError):
        parse_replica(html, CSS, strict=True)


def test_duplicate_page_numbers_fatal():
    html = ('<div id="page-container">'
            '<div class="pf w0 h0" data-page-no="1"></div>'
            '<div class="pf w0 h0" data-page-no="1"></div></div>')
    with pytest.raises(ReplicaFormatError):
        parse_replica(html, CSS)


def test_pages_sorted_by_number():
    html = ('<div id="page-container">'
            '<div class="pf w0 h0" data-page-no="2">'
            '<div class="t x1 y1 hh fs">two</div></div>'
            '<div class="pf w0 h0" data-page-no="1">'
            '<div class="t x1 y1 hh fs">one</div></div></div>')
    doc = parse_replica(html, CSS)
    assert [p.number for p in doc.pages] == [1, 2]
    blocks = enumerate_blocks(resolve_absolute(doc))
    assert [b.text for b in blocks] == ["one", "two"]


def test_out_of_bounds_flagged_not_dropped():
    css = CSS + ".far { left: 9000px; }"
    html = page_html('<div class="t far y1 hh fs">off</div>')
    doc = resolve_absolute(parse_replica(html, css))
    assert len(enumerate_blocks(doc)) == 1
    assert any("outside the page bounds" in w for w in doc.warnings)
    warnings = list(doc.warnings)
    assert resolve_absolute(doc).warnings == warnings


def test_bounds_use_each_page_width():
    # x = 700 is inside a 792 px wide landscape page 2, though page 1 is
    # only 612 px wide
    css = CSS + (".wl { width: 792px; } .hs { height: 612px; }"
                 " .xl { left: 700px; }")
    html = ('<div id="page-container">'
            '<div class="pf w0 h0" data-page-no="1">'
            '<div class="t x1 y1 hh fs">portrait</div></div>'
            '<div class="pf wl hs" data-page-no="2">'
            '<div class="t xl y2 hh fs">landscape</div></div></div>')
    doc = resolve_absolute(parse_replica(html, css))
    assert not any("outside the page bounds" in w for w in doc.warnings)
    assert any("page 2 size 792.0x612.0" in w for w in doc.warnings)


def test_top_origin_fallback():
    css = CSS + ".tp { top: 78px; } .tn { top: -5px; }"
    html = page_html('<div class="t x1 tp hh fs">converted</div>'
                     '<div class="t x1 tn hh fs">above</div>')
    doc = resolve_absolute(parse_replica(html, css))
    # y = page_height - top - height = 792 - 78 - 14, and 792 + 5 - 14
    assert [(b.x, b.y) for b in enumerate_blocks(doc)] == [
        (72.0, 700.0), (72.0, 783.0)]
    assert doc.warnings.count("converted a top-origin coordinate") == 2
    # a second call, as extract makes on a caller-resolved document,
    # replaces its warnings instead of adding to them
    warnings = list(doc.warnings)
    resolve_absolute(doc)
    assert doc.warnings == warnings


@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=1, max_size=8))
@settings(max_examples=200)
def test_resolution_chain_is_prefix_sum(offsets):
    parent = None
    root_objects = []
    for rel in offsets:
        obj = PageObject(kind="container", relative_start=rel)
        if parent is None:
            root_objects.append(obj)
        else:
            parent.children.append(obj)
        parent = obj
    doc = ReplicaDocument(
        pages=[Page(number=1, width=612, height=792, objects=root_objects)])
    resolve_absolute(doc)
    sx = sy = 0.0
    for (dx, dy), (_, obj) in zip(offsets, doc.iter_objects()):
        sx, sy = sx + dx, sy + dy
        assert obj.absolute_start == pytest.approx((sx, sy))
