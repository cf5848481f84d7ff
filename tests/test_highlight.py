"""Sentence location in the character stream and span injection."""

import random

import pytest

from bodytext.errors import PipelineError
from bodytext.highlight import (build_stream, inject_color,
                                inject_colors, locate_sentence,
                                strip_highlights)
from bodytext.metrics import Thresholds, group_lines
from bodytext.replica import (CharRef, enumerate_blocks, parse_replica,
                              resolve_absolute)
from helpers import single_column_model

T = Thresholds()

CSS = """
.pf{position:relative}.t{position:absolute}
.w0{width:612px}.h0{height:792px}
.hh{height:14px}.fs{font-size:12px}
.xa{left:72px}.xb{left:200px}.xc{left:320px}
.y1{bottom:700px}.y2{bottom:686px}.y3{bottom:672px}
"""


def make_doc(rows):
    """rows: list of lists of (xclass, text) per line, one page."""
    body = ""
    ys = ["y1", "y2", "y3"]
    for i, row in enumerate(rows):
        for xcls, text in row:
            body += f'<div class="t {xcls} {ys[i]} hh fs">{text}</div>'
    html = ('<div id="page-container">'
            f'<div id="pf1" class="pf w0 h0" data-page-no="1">{body}</div>'
            '</div>')
    doc = resolve_absolute(parse_replica(html, CSS))
    blocks = enumerate_blocks(doc)
    t = group_lines(blocks, T.delta1, {1: (612.0, 792.0)})
    for page in t.pages:
        for ln in page.lines:
            ln.column_id = 0
    return doc, t


def test_locate_substring_within_block():
    doc, t = make_doc([[("xa", "abcdef")]])
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "cde")
    assert (span.start.b, span.start.t) == (0, 2)
    assert (span.end.b, span.end.t) == (0, 4)


def test_locate_across_blocks():
    doc, t = make_doc([[("xa", "Hello wo"), ("xb", "rld.")]])
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "world.")
    assert span.start.b == 0 and span.end.b == 1
    assert span.blocks == (0, 1)


def test_locate_absent_raises():
    doc, t = make_doc([[("xa", "abcdef")]])
    stream = build_stream(t, single_column_model())
    with pytest.raises(PipelineError):
        locate_sentence(stream, "zzz")


def test_locate_multiple_warns_first_wins():
    doc, t = make_doc([[("xa", "dup text here")], [("xa", "dup text here")]])
    stream = build_stream(t, single_column_model())
    warnings = []
    span = locate_sentence(stream, "dup text", warnings)
    assert span.start.b == 0
    assert warnings


def test_locate_dehyphenated_sentence():
    doc, t = make_doc([[("xa", "clean extrac-")], [("xa", "tion works.")]])
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "clean extraction works.")
    assert span.start == CharRef(0, 0)
    assert span.end.b == 1


def test_locate_kept_hyphen_also_matches():
    doc, t = make_doc([[("xa", "state-")], [("xa", "of-the-art.")]])
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "state-of-the-art.")
    assert span.start.b == 0 and span.end.b == 1


def test_inject_single_block_minimal_edit():
    doc, t = make_doc([[("xa", "abcdef")]])
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "cde")
    out = inject_color(doc, span, "#ff0000").decode()
    assert out.count('<span class="hl"') == 1
    assert 'ab<span class="hl" style="color:#ff0000">cde</span>f' in out
    assert strip_highlights(out) == doc.source.encode()


def test_inject_three_blocks_three_sites():
    doc, t = make_doc([[("xa", "one tw"), ("xb", "o middle th"),
                        ("xc", "ree end.")]])
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "two middle three")
    out = inject_color(doc, span, "#00ff00").decode()
    assert out.count('<span class="hl"') == 3
    assert strip_highlights(out) == doc.source.encode()


def test_inject_disjoint_spans_commute():
    doc, t = make_doc([[("xa", "First sentence here.")],
                       [("xa", "Second sentence there.")]])
    stream = build_stream(t, single_column_model())
    s1 = locate_sentence(stream, "First sentence here.")
    s2 = locate_sentence(stream, "Second sentence there.")
    one = inject_colors(doc, [(s1, "#f00"), (s2, "#0f0")])
    two = inject_colors(doc, [(s2, "#0f0"), (s1, "#f00")])
    assert one == two


def test_inject_overlap_rejected():
    doc, t = make_doc([[("xa", "overlap target text")]])
    stream = build_stream(t, single_column_model())
    a = locate_sentence(stream, "overlap target")
    b = locate_sentence(stream, "target text")
    with pytest.raises(PipelineError):
        inject_colors(doc, [(a, "#f00"), (b, "#0f0")])


def test_visible_text_unchanged():
    doc, t = make_doc([[("xa", "alpha beta "), ("xb", "gamma.")]])
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "beta gamma.")
    out = inject_color(doc, span, "#123456")
    doc2 = resolve_absolute(parse_replica(out, CSS))
    assert [b.text for b in enumerate_blocks(doc2)] == ["alpha beta ", "gamma."]


def test_roundtrip_random_docs():
    # acceptance criterion 3: >= 1000 randomized cases
    rng = random.Random(41)
    xcls = ["xa", "xb", "xc"]
    for _ in range(1000):
        rows = []
        words = []
        for r in range(rng.randint(1, 3)):
            row = []
            for c in range(rng.randint(1, 3)):
                text = "".join(rng.choice("abcd ef") for _ in range(
                    rng.randint(3, 10))).strip() or "x"
                row.append((xcls[c], text))
                words.append(text)
            rows.append(row)
        doc, t = make_doc(rows)
        stream = build_stream(t, single_column_model())
        target = "".join(e.char for e in stream)
        target = " ".join(target.split())
        if not target:
            continue
        lo = rng.randint(0, max(0, len(target) - 2))
        hi = rng.randint(lo + 1, len(target))
        piece = target[lo:hi].strip()
        if not piece:
            continue
        span = locate_sentence(stream, piece)
        out = inject_color(doc, span, "#abc")
        assert strip_highlights(out) == doc.source.encode()


def test_gap_span_inside_highlight_nests():
    css = CSS + "._g{width:60px}"
    html = ('<div id="page-container">'
            '<div id="pf1" class="pf w0 h0" data-page-no="1">'
            '<div class="t xa y1 hh fs">ab<span class="_g"> </span>cd</div>'
            '</div></div>')
    doc = resolve_absolute(parse_replica(html, css))
    blocks = enumerate_blocks(doc)
    t = group_lines(blocks, T.delta1, {1: (612.0, 792.0)})
    for ln in t.pages[0].lines:
        ln.column_id = 0
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "ab cd")
    out = inject_color(doc, span, "#f00").decode()
    assert strip_highlights(out) == doc.source.encode()
    doc2 = resolve_absolute(parse_replica(out, css))
    assert enumerate_blocks(doc2)[0].text == "ab cd"
