"""Small constructors shared by the unit tests."""

from __future__ import annotations

from bodytext.columns import ColumnModel
from bodytext.metrics import Line, PageLines, PageLineTree
from bodytext.replica import TextBlock


def block(text, x=72.0, y=700.0, font_size=12.0, page=1, index=-1, **kw):
    return TextBlock(text=text, font_size=font_size, x=x, y=y,
                     page_number=page, index=index, **kw)


def line(texts, y=700.0, x=72.0, column_id=0, step=30.0, page=1):
    """A Line whose blocks start at x, x+step, ... on one y."""
    if isinstance(texts, str):
        texts = [texts]
    blocks = [block(t, x=x + i * step, y=y, page=page)
              for i, t in enumerate(texts)]
    return Line(blocks=blocks, y=y, column_id=column_id)


def tree(lines, page=1, width=612.0, height=792.0):
    return PageLineTree(pages=[PageLines(page_number=page, width=width,
                                         height=height, lines=list(lines))])


def single_column_model(left=72):
    return ColumnModel(column_lefts=[left], k=1, margin_width=left)


def two_column_model(lefts=(72, 312)):
    return ColumnModel(column_lefts=list(lefts), k=2, margin_width=lefts[0])
