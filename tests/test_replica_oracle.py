"""The package's one-pattern replica parser against the HTMLParser-based
reference (``reference_replica.py``): equal documents, or the same error
at the same byte offset."""

import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from bodytext.errors import FormatError
from bodytext.replica import parse_replica
from fixtures import build_all, scaling_doc
from reference_replica import reference_parse_replica

CSS = """
.pf{position:relative}.t{position:absolute}
.w0{width:612px}.h0{height:792px}.hh{height:14px}.fs{font-size:12px}
.x1{left:72px}.x2{left:300px}.y1{bottom:700px}.y2{bottom:686px}
.wimg{width:200px}.himg{height:100px}._g{width:60px}
"""


# the reference's offset for an unclosed raw-text element depends on the
# Python version (see reference_replica.py)
_UNCLOSED_RAW_TEXT = re.compile(
    r"unclosed <(script|style|title)> at end of input")


def _outcome(parse, html, css):
    try:
        return asdict(parse(html, css))
    except FormatError as exc:
        message, offset = str(exc), getattr(exc, "offset", None)
        if _UNCLOSED_RAW_TEXT.match(message):
            message, offset = message.partition(" (byte offset")[0], None
        return type(exc).__name__, message, offset


def _assert_agree(html, css):
    assert _outcome(parse_replica, html, css) == _outcome(
        reference_parse_replica, html, css)


@pytest.mark.parametrize("name", sorted(build_all()))
def test_fixtures_agree(name):
    fixture = build_all()[name].fixture
    _assert_agree(fixture.html, fixture.css)


def test_scaling_documents_agree():
    for pages in range(1, 17):
        fixture = scaling_doc(pages)
        _assert_agree(fixture.html, fixture.css)


_WORDS = ["alpha", "Beta", "x", " ", "  ", "\r\n", "\t", "a < b", "q > p"]
# a numeric reference without ";" is followed by a space here: a hex
# digit would make it no reference at all, after which the standard
# library's parser may read the rest of the input as text
_REFS = ["&amp;", "&amp", "&lt;", "&#65;", "&#65 ", "&#x41;", "&#X41 ",
         "&#160;", "&T", "&T;", "&nbsp", "&#xD800;", "&#9999999;",
         "&notin", "&ampx;"]


@st.composite
def _tag(draw, name):
    """``name`` in either case, opening a tag whose attributes use either
    quote style."""
    upper = draw(st.booleans())
    quote = draw(st.sampled_from(['"', "'"]))

    def attrs(**values):
        return "".join(f" {k.upper() if upper else k}={quote}{v}{quote}"
                       for k, v in values.items())
    return (name.upper() if upper else name), attrs


# whitespace the leaf-div token may take in front of a div
_SPACE = ["", " ", "\t", "\r", "\n", "\f", "\r\n  "]
# the content of a leaf-shaped div: one run of plain text, or one that
# only looks like it (a reference, a span, a self-closing div after space)
_LEAF_TEXT = ["alpha", " x\ny ", "a > b", "\t", "a&amp;b", "<span>b</span>",
              " <div/>x", '\n<div class="a"/>y', "\t<DIV class=q />z",
              '\f<div class="a"/> \r\n']


@st.composite
def _text(draw):
    parts = draw(st.lists(st.one_of(
        st.sampled_from(_WORDS), st.sampled_from(_REFS),
        st.just("<!-- note -->"), st.just("<br>"), st.just("<img/>"),
        st.just('<span class="_g"> </span>'),
        # a self-closing div is no leaf: the space before it and the text
        # after it stay in this block
        st.builds("{}{}{}".format, st.sampled_from(_SPACE),
                  st.sampled_from(["<div/>", '<div class="a"/>',
                                   "<DIV class=q />"]),
                  st.sampled_from(["", "x", "&amp;"]))),
        min_size=1, max_size=8))
    text = "".join(parts)
    if draw(st.booleans()):
        tag, attrs = draw(_tag("span"))
        text = f"<{tag}{attrs(**{'class': 'fs'})}>{text}</{tag}>"
    return text


@st.composite
def _block(draw, kind=None):
    tag, attrs = draw(_tag("div"))
    close = "</" + tag + draw(st.sampled_from(["", " ", "\t"])) + ">"
    kind = kind or draw(st.sampled_from(["text", "text", "leaf", "image",
                                         "rule", "empty", "nested",
                                         "nested"]))
    cls = draw(st.sampled_from(["t x1 y1 hh fs", "t x2 y2 hh fs",
                                "t x1 y2 hh fs zz", "t x1 y1"]))
    if kind == "image":
        slash = draw(st.sampled_from(["", "/", " /"]))
        return f"<img{attrs(**{'class': 'x1 y1 wimg himg'})}{slash}>"
    if kind == "rule":
        return f"<{tag}{attrs(**{'class': 'x1 y1 wimg hh'})}>{close}"
    if kind == "empty":
        return f"<{tag}{attrs(**{'class': cls})}>{close}"
    if kind == "nested":
        # stray text around the inner div, and space before it, go to the
        # container's stray-text warning
        before = draw(st.sampled_from(["", "&amp;", "<b>s</b>"]))
        inner = draw(st.sampled_from(_SPACE)) + draw(
            st.one_of(_block("leaf"), _block()))
        after = draw(st.sampled_from(["", "y"]))
        return (f"<{tag}{attrs(**{'class': 'x1 y2'})}>{before}{inner}{after}"
                f"{close}")
    style = draw(st.sampled_from(
        ["", "transform: rotate(90deg)", "transform:matrix(0,1,-1,0,0,0)"]))
    extra = {"style": style} if style else {}
    text = (draw(st.sampled_from(_LEAF_TEXT)) if kind == "leaf"
            else draw(_text()))
    return f"<{tag}{attrs(**{'class': cls}, **extra)}>{text}{close}"


@st.composite
def _document(draw):
    head = draw(st.lists(st.sampled_from([
        "<!DOCTYPE html>", "<!-- a comment with <div> inside -->",
        "<style>/* .a > .b */ .q{left:1px}</style>",
        "<STYLE type='text/css'>.r{bottom:2px}</STYLE>",
        "<script>if (a < b && c > d) { x = '</div>'; }</script>",
        "<title>A title</title>", "<title>A </span> &amp; <b>t</title>",
        "<meta charset='utf-8'>", "\r\n",
        "<?xml version='1.0'?>"]), max_size=4))
    blocks = draw(st.lists(st.tuples(st.sampled_from(_SPACE), _block()),
                           max_size=5))
    newline = draw(st.sampled_from(["", "\n", "\r\n"]))
    html = ("".join(head) + '<div id="page-container">'
            + '<div class="pf w0 h0" data-page-no="1">'
            + "".join(space + block for space, block in blocks)
            + newline + "</div></div>" + newline)
    # a dropped or a stray closing tag must fail at the same byte
    mutation = draw(st.sampled_from(["none", "none", "drop", "stray"]))
    if mutation == "drop":
        at = draw(st.sampled_from([m.start() for m in re.finditer("</", html)]))
        html = html[:at] + html[html.index(">", at) + 1:]
    elif mutation == "stray":
        at = draw(st.sampled_from([m.end() for m in re.finditer(">", html)]))
        html = html[:at] + "</span>" + html[at:]
    return html


@given(_document())
@settings(max_examples=300, deadline=None)
def test_drawn_markup_agrees(html):
    _assert_agree(html, CSS)


@given(_document())
@settings(max_examples=50, deadline=None)
def test_drawn_markup_agrees_as_bytes_under_strict(html):
    html = html.encode("utf-8")
    assert _outcome(lambda h, c: parse_replica(h, c, strict=True),
                    html, CSS) == _outcome(
        lambda h, c: reference_parse_replica(h, c, strict=True), html, CSS)
