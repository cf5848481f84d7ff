"""Scoring extracted body text against gold files.

Sentences match exactly after whitespace normalization; an unmatched
extracted sentence is a false positive (an "incomplete" one when it is a
strict substring or superstring of an unmatched gold sentence, an "extra"
one otherwise), and an unmatched gold sentence is a false negative.  A
paragraph is correct when it starts with the same sentence as a gold
paragraph.  Removal of table/figure block texts is checked by containment:
a gold-listed text still present in the output is a false negative; there
is no false-positive category for removal.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass, field

from .assembly import _normalize, segment_sentences
from .errors import FormatError, PipelineError

CATEGORIES = ("sentences", "paragraphs", "table_figure_text")
METRICS = ("precision", "recall", "f1")


@dataclass
class CategoryCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    fp_incomplete: int = 0
    fp_extra: int = 0

    @property
    def precision(self) -> float | None:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else None

    @property
    def recall(self) -> float | None:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else None

    @property
    def f1(self) -> float | None:
        p, r = self.precision, self.recall
        if p is None or r is None or p + r == 0:
            return None
        return 2 * p * r / (p + r)


@dataclass
class EvalReport:
    """Per-document counts for each category."""

    name: str = ""
    categories: dict[str, CategoryCounts] = field(default_factory=dict)

    def metric(self, category: str, metric: str) -> float | None:
        counts = self.categories.get(category)
        return getattr(counts, metric) if counts else None


def parse_bt(text: str | bytes) -> list[str]:
    """Paragraphs of a BT file: one per line, blank-line separated."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"body-text file is not valid UTF-8: {exc}")
    return [line for line in text.splitlines() if line.strip()]


def score(extracted: str | bytes, gold: str | bytes,
          removed_texts: list[str] | None = None,
          name: str = "") -> EvalReport:
    """Score one document. ``removed_texts`` lists table/figure block texts
    that must be absent from the extraction."""
    ext_paragraphs = parse_bt(extracted)
    gold_paragraphs = parse_bt(gold)
    if not gold_paragraphs:
        raise FormatError("gold body text is empty")

    report = EvalReport(name=name)
    ext_split = [[_normalize(s) for s in segment_sentences(p)]
                 for p in ext_paragraphs]
    gold_split = [[_normalize(s) for s in segment_sentences(p)]
                  for p in gold_paragraphs]
    report.categories["sentences"] = _match_sentences(
        [s for ss in ext_split for s in ss], [s for ss in gold_split for s in ss])

    ext_firsts = [ss[0] for ss in ext_split]
    gold_firsts = [ss[0] for ss in gold_split]
    matched = Counter(ext_firsts) & Counter(gold_firsts)
    tp = sum(matched.values())
    report.categories["paragraphs"] = CategoryCounts(
        tp=tp, fp=len(ext_firsts) - tp, fn=len(gold_firsts) - tp)

    if removed_texts:
        haystack = _normalize("\n".join(ext_paragraphs))
        counts = CategoryCounts()
        for text in removed_texts:
            if _normalize(text) and _normalize(text) in haystack:
                counts.fn += 1
            else:
                counts.tp += 1
        report.categories["table_figure_text"] = counts
    return report


def _match_sentences(extracted: list[str], gold: list[str]) -> CategoryCounts:
    ext_counts, gold_counts = Counter(extracted), Counter(gold)
    matched = ext_counts & gold_counts
    tp = sum(matched.values())
    counts = CategoryCounts(tp=tp, fp=len(extracted) - tp, fn=len(gold) - tp)

    # the intersection took every string both sides share, so no leftover
    # extracted sentence equals a leftover gold one
    leftover_ext = list((ext_counts - matched).elements())
    leftover_gold = list((gold_counts - matched).elements())
    for sentence in leftover_ext:
        if any(sentence in g or g in sentence for g in leftover_gold):
            counts.fp_incomplete += 1
        else:
            counts.fp_extra += 1
    return counts


# ---------------------------------------------------------------------------
# Corpus aggregation
# ---------------------------------------------------------------------------


@dataclass
class MetricStats:
    avg: float
    med: float
    max: float
    min: float
    std: float


@dataclass
class CorpusReport:
    documents: list[EvalReport]
    stats: dict[str, dict[str, MetricStats]]   # category -> metric -> stats


def aggregate(reports: list[EvalReport]) -> CorpusReport:
    """Population statistics per metric per category over the corpus."""
    if not reports:
        raise PipelineError("empty corpus: nothing to aggregate")
    stats: dict[str, dict[str, MetricStats]] = {}
    for category in CATEGORIES:
        values_by_metric = {}
        for metric in METRICS:
            values = [r.metric(category, metric) for r in reports]
            values = [v for v in values if v is not None]
            if values:
                values_by_metric[metric] = MetricStats(
                    avg=statistics.fmean(values),
                    med=statistics.median(values),
                    max=max(values), min=min(values),
                    std=statistics.pstdev(values))
        if values_by_metric:
            stats[category] = values_by_metric
    return CorpusReport(documents=list(reports), stats=stats)


def format_metric(value: float) -> str:
    """Two decimals, except that a value below 1 never displays as 1.00:
    precision grows until the rounding stops hiding the shortfall."""
    if value >= 1.0:
        return "1.00"
    digits = 2
    while digits < 10:
        text = f"{value:.{digits}f}"
        if float(text) < 1.0:
            return text
        digits += 1
    return f"{value:.10f}"


_LABELS = {"sentences": "Sentences", "paragraphs": "Paragraphs",
           "table_figure_text": "Text on tables/figures"}


def render_table(corpus: CorpusReport) -> str:
    """Human-readable aggregate table."""
    lines = [f"{'':<22}{'Avg':>8}{'Med':>8}{'Max':>8}{'Min':>8}{'Std':>8}"]
    for category in CATEGORIES:
        if category not in corpus.stats:
            continue
        lines.append(_LABELS[category])
        for metric in METRICS:
            if metric not in corpus.stats[category]:
                continue
            s = corpus.stats[category][metric]
            lines.append(f"  {metric.capitalize():<20}"
                         f"{format_metric(s.avg):>8}{format_metric(s.med):>8}"
                         f"{format_metric(s.max):>8}{format_metric(s.min):>8}"
                         f"{s.std:>8.2f}")
    return "\n".join(lines)


def to_json(corpus: CorpusReport) -> str:
    payload = {
        "documents": [
            {"name": r.name,
             "categories": {
                 cat: {"tp": c.tp, "fp": c.fp, "fn": c.fn,
                       "precision": c.precision, "recall": c.recall,
                       "f1": c.f1}
                 for cat, c in r.categories.items()}}
            for r in corpus.documents],
        "aggregate": {
            cat: {metric: vars(stats)
                  for metric, stats in by_metric.items()}
            for cat, by_metric in corpus.stats.items()},
    }
    return json.dumps(payload, indent=2)
