"""Linear-time guards: an operation timed at size n and at 8n.

Linear code takes about 8 times as long at 8n and quadratic code about 64
times; the bound of 16 leaves room for host noise.  Each size takes the
minimum of 3 runs.
"""

from __future__ import annotations

import time
from dataclasses import replace

from bodytext.assembly import segment_sentences
from bodytext.columns import assign_columns, detect_columns, sweep
from bodytext.errors import PipelineError
from bodytext.highlight import (HighlightSpan, inject_colors, locate_sentence,
                                strip_highlights)
from bodytext.metrics import Thresholds
from bodytext.pipeline import extract
from bodytext.replica import (CharRef, enumerate_blocks, parse_replica,
                              resolve_absolute)
from fixtures import scaling_doc
from helpers import line, tree, two_column_model

RATIO_BOUND = 16


def _best_of_3(fn, arg) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return min(times)


def _ratio(fn, make, n) -> float:
    small, large = make(n), make(8 * n)
    return _best_of_3(fn, large) / _best_of_3(fn, small)


def _paragraph(chars: int) -> str:
    sentence = "Results improve by two points in Fig. 3 of the study. "
    return (sentence * (chars // len(sentence) + 1))[:chars]


def test_segment_sentences_linear():
    ratio = _ratio(segment_sentences, _paragraph, 40_000)
    assert ratio < RATIO_BOUND, f"8x longer paragraph took {ratio:.1f}x"


def _parse_fixture(fixture) -> None:
    parse_replica(fixture.html, fixture.css)


def test_parse_replica_linear():
    ratio = _ratio(_parse_fixture, scaling_doc, 8)
    assert ratio < RATIO_BOUND, f"8x more pages took {ratio:.1f}x"


def _unterminated_tag(attributes: int):
    # a start tag that never closes: a token pattern that retries its
    # attributes in other splits fails here in quadratic time or worse
    fixture = scaling_doc(1)
    return replace(fixture,
                   html=fixture.html + "<div" + ' class="t" x=1' * attributes)


def test_unterminated_start_tag_linear():
    ratio = _ratio(_parse_fixture, _unterminated_tag, 10_000)
    assert ratio < RATIO_BOUND, f"8x more attributes took {ratio:.1f}x"


def _open_comments(count: int):
    fixture = scaling_doc(1)
    return replace(fixture, html=fixture.html + "<!--" * count)


def test_unterminated_comments_linear():
    # each '<!--' that a scan for its '-->' runs to the end from makes
    # the parse quadratic
    ratio = _ratio(_parse_fixture, _open_comments, 2_000)
    assert ratio < RATIO_BOUND, f"8x more comments took {ratio:.1f}x"


def _whole_block_spans(pages: int):
    """``scaling_doc(pages)`` and one span over each whole block, built
    without locating anything."""
    fixture = scaling_doc(pages)
    doc = resolve_absolute(parse_replica(fixture.html, fixture.css))
    spans = [(HighlightSpan(CharRef(b.index, 0),
                            CharRef(b.index, len(b.text) - 1), (b.index,)),
              "#ff0000")
             for b in enumerate_blocks(doc) if b.text]
    return doc, spans


def test_inject_colors_linear():
    ratio = _ratio(lambda arg: inject_colors(*arg), _whole_block_spans, 8)
    assert ratio < RATIO_BOUND, f"8x more pages took {ratio:.1f}x"


def test_strip_highlights_linear():
    ratio = _ratio(strip_highlights,
                   lambda pages: inject_colors(*_whole_block_spans(pages)), 8)
    assert ratio < RATIO_BOUND, f"8x more pages took {ratio:.1f}x"


def _locate_absent(stream) -> None:
    # one word off a sentence of every page, so the search meets many
    # near misses
    try:
        locate_sentence(stream, "to measure how the running time grows with "
                                "the page count; every page is identical.")
    except PipelineError:
        return
    raise AssertionError("the target should be absent")


def _stream(pages: int):
    fixture = scaling_doc(pages)
    return extract(fixture.html, fixture.css).stream


def test_locate_sentence_linear():
    ratio = _ratio(_locate_absent, _stream, 8)
    assert ratio < RATIO_BOUND, f"8x more pages took {ratio:.1f}x"


def _assign(arg) -> None:
    rows, model = arg
    assign_columns(tree(rows), model, Thresholds())


def _wide_rows(blocks: int):
    """8 rows of ``blocks`` blocks set 10 px apart, and the model that the
    sweep finds for them: one column left under nearly every block."""
    rows = [line(["w"] * blocks, y=700 - 14 * i, step=10) for i in range(8)]
    model = detect_columns(sweep(tree(rows, width=72 + 10.0 * blocks)),
                           Thresholds())
    assert len(model.column_lefts) == blocks - 1
    return rows, model


def test_assign_columns_linear_in_column_lefts():
    # each block finds its column among all the lefts
    ratio = _ratio(_assign, _wide_rows, 150)
    assert ratio < RATIO_BOUND, f"8x more blocks and lefts took {ratio:.1f}x"


def _chain_above_run(rows: int):
    """``rows`` rows aligned to no column left above a two-row spanning
    run, on a two-column page: the run absorbs the whole chain."""
    chain = [line("closer", y=10_000 - 14 * i, x=150) for i in range(rows)]
    run = [line(["wide", "tail"], y=10_000 - 14 * (rows + i), x=150,
                step=250) for i in range(2)]
    return chain + run, two_column_model()


def test_assign_columns_linear_in_spanning_chain():
    ratio = _ratio(_assign, _chain_above_run, 400)
    assert ratio < RATIO_BOUND, f"8x longer chain took {ratio:.1f}x"
