"""Sentence location in the body-text stream and span injection."""

import random
import re
import time

import pytest

from bodytext.assembly import assemble, finalize_sentences
from bodytext.errors import PipelineError
from bodytext.highlight import (Stream, _pattern, build_stream, inject_color,
                                inject_colors, locate_sentence,
                                strip_highlights)
from bodytext.metrics import DocumentStats, Thresholds, group_lines
from bodytext.pipeline import ExtractOptions, extract
from bodytext.replica import (CharRef, enumerate_blocks, parse_replica,
                              resolve_absolute)
from fixtures import scaling_doc
from helpers import line, single_column_model, tree

T = Thresholds()

CSS = """
.pf{position:relative}.t{position:absolute}
.w0{width:612px}.h0{height:792px}
.hh{height:14px}.fs{font-size:12px}
.xa{left:72px}.xb{left:200px}.xc{left:320px}
.y1{bottom:700px}.y2{bottom:686px}.y3{bottom:672px}
.ff{font-family:serif}
"""


def _markup(text, rng):
    """``text`` as the converter may write it: some words in an inline
    span, some characters as character references."""
    words = []
    for word in text.split(" "):
        word = "".join(f"&#{ord(c)};" if rng.random() < 0.2 else c
                       for c in word)
        if word and rng.random() < 0.3:
            word = f'<span class="ff">{word}</span>'
        words.append(word)
    return " ".join(words)


def make_doc(rows, rng=None):
    """rows: list of lists of (xclass, text) per line, one page.  Given a
    random generator, the text is written through ``_markup``."""
    body = ""
    ys = ["y1", "y2", "y3"]
    for i, row in enumerate(rows):
        for xcls, text in row:
            if rng is not None:
                text = _markup(text, rng)
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


def test_locate_across_a_run_of_hyphen_lines():
    # 24 lines of "----": each ends in an optional hyphen, the others stay
    rows = ([line("a", y=700)]
            + [line("----", y=686 - 14 * i) for i in range(24)]
            + [line("b", y=350)])
    stream = build_stream(tree(rows), single_column_model())
    assert stream.text == "a " + "---\n" * 24 + "b"
    assert locate_sentence(stream, "-" * 96 + "b").start.t == 0
    assert locate_sentence(stream, "a " + "-" * 72 + "b").end.t == 0
    start = time.perf_counter()
    for absent in ("a " + "-" * 71 + "b", "-" * 96 + "c"):
        with pytest.raises(PipelineError):
            locate_sentence(stream, absent)
    # retrying each way to take or skip 24 optional hyphens takes seconds
    assert time.perf_counter() - start < 1.0


def test_hyphen_before_whitespace_stays_literal():
    # a line whose text ends in "- " or in "-" and a no-break-space block is
    # not joined at the hyphen, so the stream keeps the hyphen and a space
    for rows in ([[("xa", "We study the state- ")],
                  [("xa", "of the art. It works.")]],
                 [[("xa", "We study the state-"), ("xb", "&#160;")],
                  [("xa", "of the art. It works.")]]):
        doc, t = make_doc(rows)
        body = finalize_sentences(assemble(
            t, single_column_model(), DocumentStats(12.0, 14, 40.0), T))
        stream = build_stream(t, single_column_model())
        assert stream.text == "We study the state- of the art. It works."
        sentences = [s.text for s in body.sentences()]
        assert len(sentences) == 2
        for sentence in sentences:
            locate_sentence(stream, sentence)


def _one_run_stream(text):
    """A stream of one run over block 0, so that ``ref(k).t == k``."""
    hyphens = [m.start() - j for j, m in enumerate(re.finditer("\n", text))]
    return Stream(text, [0], [(0, 0)], text.replace("\n", ""), hyphens)


def _oracle(text, target):
    """(start, last, more than once) by ``_pattern``, or None if absent."""
    matches = _pattern(target).finditer(text)
    first = next(matches, None)
    if first is None:
        return None
    start = first.start()
    while start and text[start - 1] == "\n":
        start -= 1
    return start, first.end() - 1, next(matches, None) is not None


def test_substring_search_agrees_with_pattern():
    # targets with no '-' are found in the flat text, not by _pattern
    rng = random.Random(7)
    hits = 0
    for _ in range(20_000):
        text = "".join(rng.choice("ab-\n ") for _ in range(rng.randint(1, 24)))
        if rng.random() < 0.5:
            flat = text.replace("\n", "").replace("-", " ")
            lo = rng.randint(0, len(flat))
            target = flat[lo:lo + rng.randint(1, 8)]
        else:
            target = "".join(rng.choice("ab ") for _ in range(rng.randint(1, 5)))
        target = " ".join(target.split())
        if not target:
            continue
        expected = _oracle(text, target)
        warnings = []
        try:
            span = locate_sentence(_one_run_stream(text), target, warnings)
        except PipelineError:
            assert expected is None, (text, target)
            continue
        assert (span.start.t, span.end.t, bool(warnings)) == expected, \
            (text, target)
        hits += 1
    assert hits > 5_000


def test_run_table_splits_at_other_whitespace():
    # a run is a single-spaced stretch; a double space, a tab and a
    # no-break space each end one
    doc, t = make_doc([[("xa", "ab  cd\tef&#160;gh ij")], [("xa", "kl mn")]])
    blocks = enumerate_blocks(doc)
    stream = build_stream(t, single_column_model())
    assert stream.text == "ab cd ef gh ij kl mn"
    assert stream.starts == [0, 3, 6, 9, 15]
    assert stream.runs == [(0, 0), (0, 4), (0, 7), (0, 10), (1, 0)]
    for k, c in enumerate(stream.text):
        if c != " " or k in (11, 17):      # spaces inside a run map too
            ref = stream.ref(k)
            assert blocks[ref.b].text[ref.t] == c
    span = locate_sentence(stream, "ef gh ij kl")
    assert (span.start, span.end) == (CharRef(0, 7), CharRef(1, 1))
    assert span.blocks == (0, 1)


def test_highlighted_output_rereads_under_strict():
    fixture = scaling_doc(1)
    result = extract(fixture.html, fixture.css)
    sentence = next(result.body.sentences()).text
    out = inject_color(result.doc, locate_sentence(result.stream, sentence),
                       "#f00")
    again = extract(out, fixture.css, options=ExtractOptions(strict=True))
    assert again.bt_bytes == result.bt_bytes
    assert not [w for w in again.doc.warnings if "unknown class" in w]


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


@pytest.mark.parametrize("index", [-1, 2])
def test_inject_rejects_a_block_outside_the_block_list(index):
    # -1 would otherwise name the last block, and 2 is len(doc.blocks)
    doc, t = make_doc([[("xa", "alpha beta")], [("xa", "gamma delta")]])
    assert len(doc.blocks) == 2
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "beta")
    span.blocks = (index,)
    with pytest.raises(PipelineError,
                       match=f"highlight references unknown block {index}"):
        inject_colors(doc, [(span, "#f00")])


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
        for r in range(rng.randint(1, 3)):
            row = []
            for c in range(rng.randint(1, 3)):
                text = "".join(rng.choice("abcd ef") for _ in range(
                    rng.randint(3, 10))).strip() or "x"
                row.append((xcls[c], text))
            rows.append(row)
        doc, t = make_doc(rows, rng)
        stream = build_stream(t, single_column_model())
        target = stream.text.replace("\n", "-")
        target = " ".join(target.split())
        if not target:
            continue
        lo = rng.randint(0, max(0, len(target) - 2))
        hi = rng.randint(lo + 1, len(target))
        piece = target[lo:hi].strip()
        if not piece:
            continue
        span = locate_sentence(stream, piece)
        out = inject_color(doc, span, "#abc").decode()
        assert strip_highlights(out) == doc.source.encode()
        # each wrap holds text only, so it nests inside the inline spans
        assert all("<" not in wrapped for wrapped in
                   re.findall(r'<span class="hl"[^>]*>(.*?)</span>', out))


def test_inject_refuses_highlighted_source():
    # stripping would remove the wrap that was already there as well
    doc, t = make_doc([[("xa", 'plain <span class="hl" style="color:#f00">'
                               'red</span> text')]])
    stream = build_stream(t, single_column_model())
    span = locate_sentence(stream, "plain")
    with pytest.raises(PipelineError):
        inject_color(doc, span, "#0f0")


def test_strip_unclosed_wrap_raises():
    with pytest.raises(PipelineError):
        strip_highlights('<div><span class="hl" style="color:#f00">ab</div>')


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


@pytest.mark.parametrize("ref, text", [
    ("a&amp b", "a& b"),                      # no ";": range ends at "p"
    ("a&#65 b", "aA b"),
    ("AT&T", "AT&T"),                         # unknown name, ends a block
    ("&#9999999999999999999;", "&#9999999999999999999;"),    # too large
    ("&#xD800;", "&#xD800;"),                 # a surrogate
], ids=["named-without-semicolon", "numeric-without-semicolon",
        "unknown-name", "code-point-too-large", "surrogate"])
def test_character_reference_round_trip(ref, text):
    fixture = scaling_doc(1)
    html = fixture.html.replace("uniform lines<", f"uniform {ref}<", 1)
    result = extract(html, fixture.css)
    assert f"uniform {text} to measure".encode() in result.bt_bytes
    sentence = next(s.text for s in result.body.sentences() if text in s.text)
    out = inject_colors(result.doc, [
        (locate_sentence(result.stream, sentence), "#f00")])
    assert strip_highlights(out) == html.encode()
