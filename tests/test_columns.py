"""Column detection by vertical sweep, printing area, assignment."""

import random
from itertools import groupby
from operator import attrgetter, itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from bodytext.columns import (SPAN_COLUMN, assign_columns, bt_area,
                              detect_columns, iter_segments, sweep)
from bodytext.errors import PipelineError
from bodytext.metrics import Line, Thresholds, group_lines
from bodytext.pipeline import extract, extract_from_document
from bodytext.removal import RemovalLog, _drop_lines
from bodytext.replica import parse_replica
from fixtures import build_all
from helpers import (block, line, single_column_model, tree,
                     two_column_model)

T = Thresholds()


def make_hist(counts: dict[int, int], width=612):
    arr = [0] * (width + 1)
    for x, n in counts.items():
        arr[x] = n
    import bodytext.columns as c
    return c.SweepHistogram(counts=arr)


def test_sweep_single_column_counts():
    lines = [line(f"l{i}", y=700 - 14 * i, x=72) for i in range(10)]
    hist = sweep(tree(lines))
    assert hist.counts[72] == 10
    assert sum(hist.counts) == 10


def test_sweep_two_column_fixture_peaks():
    rng = random.Random(23)
    blocks = []
    y = 10000.0
    for _ in range(40):
        blocks.append(block("a", x=72, y=y)); y -= 14
    for _ in range(38):
        blocks.append(block("b", x=312, y=y)); y -= 14
    for _ in range(6):
        blocks.append(block("c", x=rng.choice([110, 150, 201, 260, 400, 433]),
                            y=y)); y -= 14
    t = group_lines(blocks, 5.0, {1: (612.0, 11000.0)})
    hist = sweep(t)
    assert hist.counts[72] == 40 and hist.counts[312] == 38
    assert sum(hist.counts) == 84
    model = detect_columns(hist, T)
    assert model.column_lefts == [72, 312] and model.k == 2


def test_sweep_empty_tree():
    hist = sweep(tree([]))
    assert sum(hist.counts) == 0


def test_sweep_total_equals_block_count():
    # acceptance criterion 3: >= 1000 randomized cases
    rng = random.Random(29)
    for _ in range(1000):
        n = rng.randint(0, 50)
        blocks = [block("b", x=rng.uniform(0, 612), y=3000 - 14 * i)
                  for i in range(n)]
        t = group_lines(blocks, 5.0, {1: (612.0, 3100.0)})
        assert sum(sweep(t).counts) == n


def test_detect_single_peak():
    model = detect_columns(make_hist({72: 40}), T)
    assert model.k == 1 and model.column_lefts == [72]
    assert model.margin_width == 72


def test_detect_two_peaks_with_noise():
    model = detect_columns(make_hist({72: 40, 312: 38, 150: 6, 200: 5}), T)
    assert model.k == 2
    assert model.column_lefts == [72, 312]


def test_minor_column_promotion():
    model = detect_columns(make_hist({30: 35, 72: 40}), T)
    assert model.k == 2
    assert model.minor_columns == [30]
    assert model.column_lefts == [72]
    assert model.margin_width == 72


def test_jittered_peaks_merge():
    model = detect_columns(make_hist({72: 30, 74: 20, 312: 28}), T)
    assert model.column_lefts == [72, 312]


def test_detect_no_peaks_errors():
    with pytest.raises(PipelineError):
        detect_columns(make_hist({}), T)


def test_detect_page_permutation_invariant():
    rng = random.Random(31)
    blocks = []
    for page in (1, 2, 3):
        y = 3000.0
        for _ in range(12):
            blocks.append(block("a", x=72, y=y, page=page)); y -= 14
        for _ in range(11):
            blocks.append(block("b", x=312, y=y, page=page)); y -= 14
    dims = {p: (612.0, 3100.0) for p in (1, 2, 3)}
    base = detect_columns(sweep(group_lines(blocks, 5.0, dims)), T)
    for b in blocks:
        b.page_number = {1: 3, 2: 1, 3: 2}[b.page_number]
    permuted = detect_columns(sweep(group_lines(blocks, 5.0, dims)), T)
    assert base.column_lefts == permuted.column_lefts
    assert base.k == permuted.k


def test_bt_area_single_column():
    model = detect_columns(make_hist({72: 40}), T)
    assert bt_area(model, 612) == (72, 540)


def test_bt_area_promoted_margin():
    model = detect_columns(make_hist({30: 35, 72: 40}), T)
    assert bt_area(model, 612) == (72, 540)


def test_bt_area_both_major():
    model = detect_columns(make_hist({72: 40, 312: 38}), T)
    assert bt_area(model, 612) == (72, 540)
    assert model.column_lefts == [72, 312]


# -- column assignment and spanning regions -----------------------------------

def _two_col_rows():
    rows = []
    y = 700.0
    for i in range(6):
        rows.append(line([f"L{i}", f"R{i}"], y=y, x=72, step=240))
        y -= 14
    return rows


def test_assign_pure_two_column():
    rows = _two_col_rows()
    t = tree(rows)
    assign_columns(t, two_column_model(), T)
    ids = {ln.column_id for ln in t.pages[0].lines}
    assert ids == {0, 1}
    assert len(t.pages[0].lines) == 12


def test_assign_spanning_region():
    rows = []
    y = 700.0
    for i in range(3):   # wide abstract rows: second block beyond c2
        rows.append(line([f"A{i} first part", "tail"], y=y, x=150,
                         step=200))
        y -= 12
    rows.append(line(["short closer"], y=y, x=150))  # absorbed
    y -= 22
    for i in range(4):
        rows.append(line([f"L{i}", f"R{i}"], y=y, x=72, step=240))
        y -= 14
    t = tree(rows)
    assign_columns(t, two_column_model(), T)
    span = [ln for ln in t.pages[0].lines if ln.column_id == SPAN_COLUMN]
    assert len(span) == 4
    segs = iter_segments(t, two_column_model())
    assert [s.column_id for s in segs] == [SPAN_COLUMN, 0, 1]
    assert segs[0].column_left == 150
    # the page's lines already are the reading order
    assert [ln for s in segs for ln in s.lines] == t.pages[0].lines


def test_assign_single_column_noop():
    rows = [line([f"l{i}"], y=700 - 14 * i, x=72) for i in range(4)]
    t = tree(rows)
    assign_columns(t, single_column_model(), T)
    assert all(ln.column_id == 0 for ln in t.pages[0].lines)
    assert len(t.pages[0].lines) == 4


def test_isolated_indent_row_is_not_spanning():
    rows = _two_col_rows()
    # an indented right-column paragraph opening with no left partner
    rows.insert(3, line(["Indented opener"], y=655, x=360))
    t = tree(rows)
    assign_columns(t, two_column_model(), T)
    assert all(ln.column_id != SPAN_COLUMN for ln in t.pages[0].lines)
    opener = next(ln for ln in t.pages[0].lines if ln.x == 360)
    assert opener.column_id == 1


def test_backward_order_is_reverse_reading_order():
    rows = _two_col_rows()
    t = tree(rows)
    model = two_column_model()
    assign_columns(t, model, T)
    segs = iter_segments(t, model)
    forward = [ln.text for s in segs for ln in s.lines]
    assert forward == [f"L{i}" for i in range(6)] + [f"R{i}" for i in range(6)]


def test_band_order_survives_removal_of_a_spanning_band():
    rows = [line([f"a{i}", f"b{i}"], y=700 - 14 * i, x=72, step=240)
            for i in range(3)]
    rows += [line([f"s{i}", "wide"], y=650 - 14 * i, x=150, step=300)
             for i in range(2)]
    rows += [line([f"c{i}", f"d{i}"], y=600 - 14 * i, x=72, step=240)
             for i in range(2)]
    t = tree(rows)
    model = two_column_model()
    assign_columns(t, model, T)
    spanning = {id(ln): "test" for ln in t.pages[0].lines
                if ln.column_id == SPAN_COLUMN}
    assert len(spanning) == 2
    _drop_lines(t, spanning, RemovalLog())
    # the left column below the insert is still read after the right
    # column above it
    assert [[ln.text for ln in s.lines] for s in iter_segments(t, model)] == [
        ["a0", "a1", "a2"], ["b0", "b1", "b2"], ["c0", "c1"], ["d0", "d1"]]


@pytest.mark.parametrize("dx", [-0.3, 0.6])
@pytest.mark.parametrize("name", ["two_column", "abstract_insert",
                                  "table_doc", "figure_doc",
                                  "references_doc"])
def test_subpixel_translation_keeps_columns(name, dx):
    # the sweep finds a column left at a rounded x, so a second column at
    # x = 311.7 peaks at 312 and must still be assigned to it
    fixture = build_all()[name].fixture
    plain = extract(fixture.html, fixture.css)
    assert plain.model.k == 2
    doc = parse_replica(fixture.html, fixture.css)
    for page in doc.pages:
        for obj in page.objects:
            x, y = obj.relative_start
            obj.relative_start = (x + dx, y)
    assert extract_from_document(doc).bt_bytes == plain.bt_bytes


# -- the parent's assignment, kept as the oracle ------------------------------
# It smooths spanning regions by repeated passes until nothing changes, and
# finds a block's column by testing it against every left.

def _reference_assign_columns(tree, model, thresholds):
    for page in tree.pages:
        lefts = model.for_page(page.page_number).column_lefts
        rows = sorted(page.lines, key=lambda ln: -ln.y)
        spanning = [False] * len(rows)
        if len(lefts) == 2:
            spanning = _reference_spanning_rows(rows, lefts, thresholds)
        new_lines = []
        for is_span, band in groupby(zip(rows, spanning), key=itemgetter(1)):
            if is_span:
                for row, _ in band:
                    row.column_id = SPAN_COLUMN
                    new_lines.append(row)
            else:
                new_lines.extend(sorted(
                    (ln for row, _ in band
                     for ln in _reference_split_row(row, lefts)),
                    key=attrgetter("column_id")))
        page.lines = new_lines


def _reference_spanning_rows(rows, lefts, thresholds):
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
    aligned = [any(abs(b.x - left) <= d1 for b in row.blocks
                   for left in lefts) for row in rows]
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


def _reference_split_row(row, lefts):
    buckets = {}
    for b in row.blocks:
        cid = 0
        for i, left in enumerate(lefts):
            if round(b.x) >= left:
                cid = i
        buckets.setdefault(cid, []).append(b)
    return [Line(blocks=buckets[cid], y=max(b.y for b in buckets[cid]),
                 column_id=cid) for cid in sorted(buckets)]


# x offsets from a column left: within delta1 (5), on its edge, just past
# it, and the halves that round to either side
_JITTER = st.one_of(st.sampled_from([0, 0.5, -0.5, 1.5, -2.5, 4.9, -4.9, 5,
                                     -5, 5.5, -5.5]),
                    st.floats(-6, 6, allow_nan=False))
# a row's block starts: on the two columns, beyond the second with nothing
# at it, or aligned to no left at all
_ROW = st.one_of(
    st.tuples(st.builds(lambda j: 72 + j, _JITTER),
              st.builds(lambda j: 312 + j, _JITTER)),
    st.tuples(st.builds(lambda j: 72 + j, _JITTER)),
    st.tuples(st.builds(lambda j: 312 + j, _JITTER)),
    st.tuples(st.sampled_from([72, 150, 60]),
              st.sampled_from([318, 330, 400, 317.5])),
    st.tuples(st.sampled_from([60, 150, 200.5, 250, 290])),
)


@st.composite
def _page_blocks(draw):
    """The blocks of a page drawn row by row, 14 px apart with y jitter
    under delta1, and runs of wide rows with unaligned chains above and
    below them."""
    rows = draw(st.lists(_ROW, max_size=24))
    blocks = []
    for r, xs in enumerate(rows):
        for x in xs:
            dy = draw(st.sampled_from([0, 0, 1.5, -2]))
            blocks.append(block("w", x=x, y=700 - 14 * r + dy,
                                index=len(blocks)))
    return blocks


@given(_page_blocks(),
       st.sampled_from([two_column_model(), single_column_model(),
                        two_column_model((72, 240)),
                        two_column_model((72, 240, 408))]))
@settings(max_examples=300, deadline=None)
def test_assign_columns_matches_reference(blocks, model):
    new = group_lines(blocks, T.delta1, {1: (612.0, 792.0)})
    old = group_lines(blocks, T.delta1, {1: (612.0, 792.0)})
    assign_columns(new, model, T)
    _reference_assign_columns(old, model, T)

    def shape(t):
        return [(ln.column_id, ln.y, [b.index for b in ln.blocks])
                for ln in t.pages[0].lines] if t.pages else []
    assert shape(new) == shape(old)
