"""Baselines and line grouping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bodytext.errors import FormatError, PipelineError
from bodytext.metrics import (Thresholds, base_cbd, font_size_histogram,
                              font_size_mode, gap_histogram, group_lines,
                              line_spacing_mode)
from helpers import block, line, single_column_model, tree


# -- thresholds -------------------------------------------------------------

def test_threshold_defaults():
    t = Thresholds()
    assert (t.delta1, t.delta2, t.gamma1, t.gamma2, t.gamma3, t.gamma4,
            t.gamma5) == (5.0, 3.0, 144.0, 50.0, 50.0, 3.0, 10.0)


def test_thresholds_must_be_positive():
    for bad in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Thresholds(delta1=bad)


def test_thresholds_from_file(tmp_path):
    path = tmp_path / "conf"
    path.write_text("delta1 = 6\ngamma2=40  # looser\n")
    t = Thresholds.from_file(path)
    assert t.delta1 == 6.0 and t.gamma2 == 40.0 and t.delta2 == 3.0
    (tmp_path / "bad").write_text("nonsense\n")
    with pytest.raises(FormatError):
        Thresholds.from_file(tmp_path / "bad")


# -- font size mode ----------------------------------------------------------

def test_font_mode_unique():
    blocks = [block("a" * 100, font_size=12), block("b" * 20, font_size=10)]
    assert font_size_mode(blocks) == 12


def test_font_mode_tie_breaks_smaller():
    blocks = [block("a" * 50, font_size=9), block("b" * 50, font_size=11)]
    assert font_size_mode(blocks) == 9


def test_font_mode_matches_histogram_oracle():
    rng = random.Random(3)
    for _ in range(300):
        blocks = [block("x" * rng.randint(1, 40),
                        font_size=rng.choice([8, 9, 10, 11, 12]))
                  for _ in range(rng.randint(1, 30))]
        hist = {}
        for b in blocks:
            hist[b.font_size] = hist.get(b.font_size, 0) + len(b.text)
        best = max(hist.values())
        want = min(s for s, c in hist.items() if c == best)
        assert font_size_mode(blocks) == want
        assert font_size_histogram(blocks) == hist


def test_font_mode_empty_errors():
    with pytest.raises(PipelineError):
        font_size_mode([])
    with pytest.raises(PipelineError):
        font_size_mode([block("", font_size=12)])


@given(st.lists(st.tuples(st.integers(1, 30), st.sampled_from([8, 10, 12])),
                min_size=1, max_size=20), st.randoms())
@settings(max_examples=200)
def test_font_mode_permutation_invariant(spec, rnd):
    blocks = [block("z" * n, font_size=fs) for n, fs in spec]
    mode = font_size_mode(blocks)
    rnd.shuffle(blocks)
    assert font_size_mode(blocks) == mode


# -- line grouping -----------------------------------------------------------

def test_group_same_line_within_delta():
    blocks = [block("a", y=700), block("b", x=150, y=697)]
    t = group_lines(blocks, 5.0)
    assert len(t.pages[0].lines) == 1


def test_group_separate_lines_beyond_delta():
    blocks = [block("b", y=691), block("a", y=700)]
    t = group_lines(blocks, 5.0)
    ys = [ln.y for ln in t.pages[0].lines]
    assert ys == [700, 691]


def _greedy_reference(blocks, delta1):
    """Independent greedy clone used as the grouping oracle."""
    groups = []
    for b in sorted(blocks, key=lambda b: (-b.y, b.x, b.index)):
        if groups and abs(b.y - groups[-1][0]) <= delta1:
            groups[-1][1].append(b)
        else:
            groups.append((b.y, [b]))
    return [frozenset(id(b) for b in grp) for _, grp in groups]


def test_grouping_matches_reference_oracle():
    # acceptance criterion 3: >= 1000 randomized cases
    rng = random.Random(11)
    for _ in range(1000):
        blocks = [block(f"b{i}", x=rng.uniform(0, 500),
                        y=rng.choice(range(0, 300, 3)), index=i)
                  for i in range(rng.randint(1, 40))]
        got = group_lines(blocks, 5.0)
        partitions = [frozenset(id(b) for b in ln.blocks)
                      for ln in got.pages[0].lines]
        assert partitions == _greedy_reference(blocks, 5.0)


def test_grouping_partitions_blocks():
    rng = random.Random(5)
    blocks = [block(f"b{i}", x=rng.uniform(0, 500), y=rng.uniform(0, 700),
                    index=i) for i in range(200)]
    t = group_lines(blocks, 5.0)
    seen = [b for ln in t.pages[0].lines for b in ln.blocks]
    assert sorted(b.index for b in seen) == list(range(200))
    for ln in t.pages[0].lines:
        xs = [b.x for b in ln.blocks]
        assert xs == sorted(xs)
        for b in ln.blocks:
            assert abs(b.y - ln.y) <= 5.0


def test_grouping_is_per_page():
    blocks = [block("p1", y=700, page=1), block("p2", y=700, page=2)]
    t = group_lines(blocks, 5.0)
    assert [p.page_number for p in t.pages] == [1, 2]
    assert all(len(p.lines) == 1 for p in t.pages)


# -- line spacing -------------------------------------------------------------

def test_line_spacing_constant():
    t = tree([line("a", y=700), line("b", y=686), line("c", y=672),
              line("d", y=658)])
    assert line_spacing_mode(t, single_column_model()) == 14


def test_line_spacing_ignores_minority():
    lines = []
    y = 700.0
    for i in range(10):
        lines.append(line(f"l{i}", y=y))
        y -= 14
    y -= 14  # one paragraph gap of 28
    for i in range(2):
        lines.append(line(f"m{i}", y=y))
        y -= 28
    t = tree(lines)
    assert line_spacing_mode(t, single_column_model()) == 14


def test_line_spacing_mixed_mode_oracle():
    rng = random.Random(9)
    gaps = [14] * 60 + [15] * 40
    rng.shuffle(gaps)
    y, lines = 2000.0, []
    for i, gap in enumerate(gaps + [0]):
        lines.append(line(f"l{i}", y=y))
        y -= gap
    t = tree(lines, height=2100)
    hist = {}
    for a, b in zip(lines, lines[1:]):
        g = round(a.y - b.y)
        hist[g] = hist.get(g, 0) + 1
    assert hist[14] == 60 and hist[15] == 40
    assert line_spacing_mode(t, single_column_model()) == 14
    assert gap_histogram(t, single_column_model()) == hist


def test_line_spacing_insufficient_lines():
    with pytest.raises(PipelineError):
        line_spacing_mode(tree([line("only", y=700)]), single_column_model())


# -- density -------------------------------------------------------------------

def test_density_single_block():
    assert line(["Hello world."]).density == 11


def test_density_formula():
    ln = line(["E", "=", "mc", "2"])
    assert ln.density == pytest.approx(1.25)


def test_density_unicode_whitespace_excluded():
    ln = line(["a b c"])          # nbsp and space both excluded
    assert ln.density == 3


def test_density_matches_scan_oracle():
    # acceptance criterion 3: >= 1000 randomized cases
    rng = random.Random(13)
    alphabet = "ab c d\te"
    for _ in range(1000):
        texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
                 for _ in range(rng.randint(1, 6))]
        ln = line(texts)
        want = sum(1 for t in texts for ch in t if not ch.isspace()) / len(texts)
        assert ln.density == pytest.approx(want)


# -- document average ----------------------------------------------------------

def test_base_cbd_mean():
    t = tree([line(["x" * 10], y=700), line(["y" * 20], y=680)])
    assert base_cbd(t) == 15


def test_base_cbd_single_line():
    t = tree([line(["abcde"], y=700)])
    assert base_cbd(t) == 5


def test_base_cbd_matches_summation_oracle():
    rng = random.Random(17)
    lines, total = [], 0.0
    for i in range(50):
        texts = ["w" * rng.randint(1, 30) for _ in range(rng.randint(1, 5))]
        lines.append(line(texts, y=700 - 14 * i))
        total += sum(len(t) for t in texts) / len(texts)
    t = tree(lines, height=1500)
    assert base_cbd(t) == pytest.approx(total / 50, abs=1e-9)


def test_base_cbd_empty_errors():
    with pytest.raises(PipelineError):
        base_cbd(tree([]))
