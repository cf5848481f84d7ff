"""Independent scoring of body text against gold, for the output checks.

This re-derives, without importing the package under test, the counts the
evaluation harness documents: sentences match exactly after whitespace
normalization; an unmatched extracted sentence is an "incomplete" false
positive when it is a strict substring or superstring of an unmatched gold
sentence and an "extra" one otherwise; a paragraph is correct when it
opens with the same sentence as a gold paragraph; a removed table/figure
text still present in the output is a false negative.

The sentence splitter covers the text the generator emits (ASCII): a
break after . ! ? (and any closing quotes or brackets) followed by
whitespace and an uppercase letter, digit or opening quote, except after a
listed abbreviation, a single capital initial, or inside an ellipsis.
"""

from __future__ import annotations

import re
from collections import Counter

_BREAK_RE = re.compile(r"[.!?][\"')\]}”’»]*(?=\s+[A-Z0-9\"'“‘«(])")
_ABBREVIATIONS = frozenset("""fig. figs. tab. eq. eqs. sec. secs. no. nos. vol.
al. e.g. i.e. cf. vs. resp. dr. mr. mrs. ms. prof. st. jr. sr. ca.
approx.""".split())
_OPENERS = "\"'“‘«("
CATEGORIES = ("sentences", "paragraphs", "table_figure_text")


def split_sentences(paragraph: str) -> list[str]:
    sentences, start = [], 0
    for m in _BREAK_RE.finditer(paragraph):
        terminator = m.start()
        if paragraph[terminator] == "." and paragraph[terminator + 1:terminator + 2] == ".":
            continue
        if paragraph[terminator] == ".":
            word = paragraph[start:terminator + 1].split()[-1].lstrip(_OPENERS)
            if word.lower() in _ABBREVIATIONS or re.fullmatch(r"[A-Z]\.", word):
                continue
        sentences.append(paragraph[start:m.end()])
        start = m.end()
        while start < len(paragraph) and paragraph[start].isspace():
            start += 1
    if start < len(paragraph):
        sentences.append(paragraph[start:])
    return sentences


def _norm(text: str) -> str:
    return " ".join(text.split())


def paragraphs(bt: str) -> list[str]:
    return [line for line in bt.splitlines() if line.strip()]


def counts(extracted: str, gold: str, removed: list[str]) -> dict:
    """Counts per category, as plain tuples:
    sentences (tp, fp, fn, fp_incomplete, fp_extra), paragraphs (tp, fp, fn),
    table_figure_text (tp, fp, fn) when ``removed`` is non-empty."""
    ext_pars, gold_pars = paragraphs(extracted), paragraphs(gold)
    ext = [_norm(s) for p in ext_pars for s in split_sentences(p)]
    ref = [_norm(s) for p in gold_pars for s in split_sentences(p)]
    matched = Counter(ext) & Counter(ref)
    tp = sum(matched.values())
    left_ext = Counter(ext) - matched
    left_ref = list((Counter(ref) - matched).elements())
    incomplete = sum(n for s, n in left_ext.items()
                     if any(s != g and (s in g or g in s) for g in left_ref))
    fp = len(ext) - tp
    out = {"sentences": (tp, fp, len(ref) - tp, incomplete, fp - incomplete)}

    ext_first = Counter(_norm(split_sentences(p)[0]) for p in ext_pars)
    ref_first = Counter(_norm(split_sentences(p)[0]) for p in gold_pars)
    ptp = sum((ext_first & ref_first).values())
    out["paragraphs"] = (ptp, len(ext_pars) - ptp, len(gold_pars) - ptp)

    if removed:
        haystack = _norm("\n".join(ext_pars))
        present = sum(1 for t in removed if _norm(t) and _norm(t) in haystack)
        out["table_figure_text"] = (len(removed) - present, 0, present)
    return out


def report_counts(report) -> dict:
    """The same tuples read from the package's EvalReport."""
    out = {}
    for name, c in report.categories.items():
        if name == "sentences":
            out[name] = (c.tp, c.fp, c.fn, c.fp_incomplete, c.fp_extra)
        else:
            out[name] = (c.tp, c.fp, c.fn)
    return out


def f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0
