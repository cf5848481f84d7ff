"""The measured process: runs one workload against the package in ``src/``.

Usage (run.py starts it; the inputs file comes from gen.py via run.py):

    PYTHONPATH=src python3 perfbench/worker.py --workload extract_long \\
        --inputs .perfbench_work/inputs.json --seconds 15 --mode timed

``--mode timed`` runs operations in a closed loop (each starts when the
previous one has finished) for ``--seconds`` and reports end-to-end
figures.  ``--mode traced`` runs two rounds of an untraced and a traced
pass over the inputs, then extracts every input once more under
tracemalloc, and reports per-layer figures.  Either way the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import resource
import statistics
import sys
import time
import tracemalloc

import check
import speed

COLORS = ("#cc0000", "#00aa00", "#0000cc")
TRACE_ROUNDS = 2
LOCATE_BATCH = 16


class Run:
    """Samples, failures and per-document counts of one process.

    Timing samples are (moment, seconds) pairs, the moment being the
    operation's midpoint, so they can be put on the reference speed scale
    afterwards (see speed.py)."""

    def __init__(self, docs):
        self.docs = docs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.input_bytes = 0
        self.item_s: list[tuple[float, float]] = []
        self.work: list[tuple[float, float, int]] = []   # (moment, s, items)
        self.doc_counts: dict[str, dict] = {}
        self.bt: dict[str, bytes] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_bt(self, doc, bt: bytes) -> bool:
        """The extraction scores exactly as the generator expects."""
        text = bt.decode("utf-8")
        got = (doc["expected_counts"] if text == doc["expected_bt"]
               else check.counts(text, doc["gold"], doc["removed"]))
        self.doc_counts[doc["name"]] = got
        self.bt[doc["name"]] = bt
        if got != doc["expected_counts"]:
            self.fail(f"{doc['name']}: scores {got} != expected "
                      f"{doc['expected_counts']}")
            return False
        return True


def _to_tuples(counts: dict) -> dict:
    return {k: tuple(v) for k, v in counts.items()}


def _span(start: float, end: float) -> tuple[float, float]:
    return ((start + end) / 2, end - start)


class Workload:
    """Operations over one workload's inputs; ``op(i)`` runs input i."""

    def __init__(self, api, run: Run, scale: speed.Scale | None = None):
        self.api = api
        self.run = run
        self.scale = scale

    def tick(self):
        """Between timed pieces of a long operation: keep probing."""
        if self.scale is not None:
            self.scale.due()

    def extract(self, doc):
        self.run.input_bytes += doc["bytes"]
        start = time.perf_counter()
        result = self.api.extract(doc["html"], doc["css"])
        bt = result.bt_bytes
        return result, bt, _span(start, time.perf_counter())

    def end_pass(self):
        pass


class ExtractLong(Workload):
    """Item: one document extracted."""

    def op(self, i):
        doc = self.run.docs[i]
        _, bt, sample = self.extract(doc)
        self.run.item_s.append(sample)
        self.run.work.append((*sample, 1))
        self.run.check_bt(doc, bt)


class HighlightAll(Workload):
    """Item: one sentence located; the operation colors them all.

    Sentences are timed in batches of LOCATE_BATCH consecutive calls and
    each batch gives one latency sample, its mean per call: every call
    scans the whole stream, so calls cost about the same, and a single
    few-millisecond call mostly measures the host's momentary load."""

    def op(self, i):
        api, run, doc = self.api, self.run, self.run.docs[i]
        result, bt, sample = self.extract(doc)
        run.work.append((*sample, 0))
        colored, warnings, missing = [], [], 0
        sentences = [s.text for s in result.body.sentences()]
        clock = time.perf_counter
        for first in range(0, len(sentences), LOCATE_BATCH):
            batch = sentences[first:first + LOCATE_BATCH]
            self.tick()
            located = len(colored)
            t0 = clock()
            for k, text in enumerate(batch, first):
                try:
                    span = api.locate_sentence(result.stream, text, warnings)
                except api.PipelineError:
                    missing += 1
                    continue
                colored.append((span, COLORS[k % len(COLORS)]))
            moment, seconds = _span(t0, clock())
            run.item_s.append((moment, seconds / len(batch)))
            run.work.append((moment, seconds, len(colored) - located))
        self.tick()
        t0 = clock()
        injected = api.inject_colors(result.doc, colored)
        stripped = api.strip_highlights(injected)
        run.work.append((*_span(t0, clock()), 0))
        ok = run.check_bt(doc, bt)
        if ok and missing:
            run.fail(f"{doc['name']}: {missing} sentences not located")
        elif ok and stripped != doc["html"].encode("utf-8"):
            run.fail(f"{doc['name']}: strip(inject) differs from the source")


class CorpusEval(Workload):
    """Item: one document extracted, then its extraction and its naive
    dump each scored against gold; each pass ends with the corpus
    aggregate."""

    def __init__(self, api, run, scale=None):
        super().__init__(api, run, scale)
        self.reports = []

    def op(self, i):
        api, run, doc = self.api, self.run, self.run.docs[i]
        start = time.perf_counter()
        _, bt, _ = self.extract(doc)
        removed = doc["removed"] or None
        extracted = api.score(bt, doc["gold"], removed, name=doc["name"])
        naive = api.score(doc["naive"], doc["gold"], removed,
                          name=doc["name"] + "/naive")
        sample = _span(start, time.perf_counter())
        run.item_s.append(sample)
        run.work.append((*sample, 1))
        self.reports.append(extracted)
        if not run.check_bt(doc, bt):
            return
        if check.report_counts(extracted) != run.doc_counts[doc["name"]]:
            run.fail(f"{doc['name']}: eval counts "
                     f"{check.report_counts(extracted)} != independent "
                     f"{run.doc_counts[doc['name']]}")
        elif check.report_counts(naive) != doc["naive_counts"]:
            run.fail(f"{doc['name']}/naive: eval counts "
                     f"{check.report_counts(naive)} != independent "
                     f"{doc['naive_counts']}")

    def end_pass(self):
        """Aggregate and render the corpus scored in the pass just ended."""
        api, run = self.api, self.run
        run.attempted += 1
        start = time.perf_counter()
        corpus = api.aggregate(self.reports)
        table = api.render_table(corpus)
        payload = api.to_json(corpus)
        run.work.append((*_span(start, time.perf_counter()), 0))
        names = [d["name"] for d in json.loads(payload)["documents"]]
        if names != [r.name for r in self.reports] or "Sentences" not in table:
            run.fail("aggregate: rendered corpus does not match the reports")
        self.reports = []


WORKLOADS = {"extract_long": ExtractLong, "highlight_all": HighlightAll,
             "corpus_eval": CorpusEval}


def run_op(workload: Workload, i: int) -> None:
    workload.run.attempted += 1
    failed_before = workload.run.failed
    try:
        workload.op(i)
    except Exception as exc:  # an operation that raises is a failed one
        if workload.run.failed == failed_before:
            workload.run.fail(f"{workload.run.docs[i]['name']}: "
                              f"{type(exc).__name__}: {exc}")


def end_pass(workload: Workload) -> None:
    try:
        workload.end_pass()
    except Exception as exc:
        workload.run.fail(f"end of pass: {type(exc).__name__}: {exc}")


def run_pass(workload: Workload, tracer=None) -> None:
    for i in range(len(workload.run.docs)):
        if tracer is not None:
            tracer.op += 1           # spans of one operation share an id
        run_op(workload, i)
    end_pass(workload)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile.  Below 21 samples no percentile above the median has ten
    samples beyond it, and the median is reported."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def f1_totals(run: Run) -> dict[str, float]:
    """Micro-averaged F1 over the distinct documents of the run."""
    totals = {c: [0, 0, 0] for c in check.CATEGORIES}
    for counts in run.doc_counts.values():
        for category, values in counts.items():
            for j in range(3):
                totals[category][j] += values[j]
    return {c: check.f1(*t) for c, t in totals.items()}


def timed(workload: Workload, seconds: float) -> dict:
    run = workload.run
    # warm-up: lazy set-up (regex compilation, first-call paths) is not
    # what a user pays per document, so one untimed extraction goes first
    workload.api.extract(run.docs[0]["html"], run.docs[0]["css"])
    gc.collect()
    scale = workload.scale = speed.Scale()
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        for i in range(len(run.docs)):
            workload.tick()
            run_op(workload, i)
            if time.perf_counter() >= deadline:
                break
        else:
            workload.tick()
            end_pass(workload)
    scale.take()
    wall = time.perf_counter() - started

    item_s = [s * scale.factor(m) for m, s in run.item_s]
    work_s = sum(s * scale.factor(m) for m, s, _ in run.work)
    items = sum(n for _, _, n in run.work)
    item_tail, tail_pct = tail(item_s)
    f1 = f1_totals(run)
    metrics = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "success_rate": (1.0 - run.failed / max(run.attempted, 1), "ratio"),
        "input_mb_per_s": (run.input_bytes / 1e6 / work_s, "MB/s"),
        "items_per_s": (items / work_s, "1/s"),
        "item_p50_s": (statistics.median(item_s), "s"),
        "item_tail_s": (item_tail, "s"),
        "sentence_f1": (f1["sentences"], "ratio"),
        "paragraph_f1": (f1["paragraphs"], "ratio"),
        "table_figure_f1": (f1["table_figure_text"], "ratio"),
    }
    notes = {
        "wall_s": wall, "probes": len(scale.probes),
        "probe_median_s": statistics.median(scale.probes),
        "raw_item_p50_s": statistics.median(s for _, s in run.item_s),
        "raw_items_per_s": items / sum(s for _, s, _ in run.work),
        "items": items, "item_samples": len(item_s),
        "item_tail_percentile": tail_pct,
    }
    return {"metrics": metrics, "notes": notes}


def traced(workload_cls, api, docs, package) -> dict:
    import spans

    api.extract(docs[0]["html"], docs[0]["css"])      # warm-up, as in timed()
    # two rounds of an untraced and a traced pass; per-layer figures are per
    # pass, and the overhead compares the faster pass of each kind
    tracer = spans.Tracer(package)
    plain_walls, traced_walls, runs, leftover = [], [], [], []
    for _ in range(TRACE_ROUNDS):
        plain = Run(docs)
        start = time.perf_counter()
        run_pass(workload_cls(api, plain))
        plain_walls.append(time.perf_counter() - start)
        traced_run = Run(docs)
        tracer.install()
        try:
            start = time.perf_counter()
            run_pass(workload_cls(api, traced_run), tracer)
            traced_walls.append(time.perf_counter() - start)
        finally:
            leftover += tracer.restore()
        runs += [plain, traced_run]
    problems = []
    if leftover:
        problems.append(f"bindings left patched: {leftover}")
    if any(r.bt != runs[0].bt for r in runs):
        problems.append("traced and untraced runs emitted different BT bytes")

    # memory: every input extracted once more under tracemalloc, one at a
    # time; what each result keeps alive is summed, the peak is the largest
    retained = peak = 0
    tracemalloc.start()
    try:
        for doc in docs:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = api.extract(doc["html"], doc["css"])
            gc.collect()
            current, top = tracemalloc.get_traced_memory()
            retained += current - base
            peak = max(peak, top - base)
            del result
    finally:
        tracemalloc.stop()

    self_s = {k: v / TRACE_ROUNDS for k, v in tracer.self_time().items()}
    extract_wall = tracer.wall_time("pipeline.extract") / TRACE_ROUNDS
    glue = self_s.get("pipeline.extract", 0.0)
    if extract_wall and glue / extract_wall >= 0.05:
        problems.append(f"untraced glue is {glue / extract_wall:.1%} of "
                        f"extract wall time (limit 5%)")
    per_layer = {}
    for module_name, qualname in spans.TRACED:
        name = f"{module_name}.{qualname.rsplit('.', 1)[-1]}"
        per_layer[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        per_layer[f"{name}.calls"] = (
            tracer.calls.get(name, 0) // TRACE_ROUNDS, "count")
    for name in spans.COUNTER_NAMES:
        per_layer[name] = (tracer.counters.get(name, 0) // TRACE_ROUNDS,
                           "count")
    per_layer["highlight.locate_sentence.failed"] = (
        tracer.failed.get("highlight.locate_sentence", 0) // TRACE_ROUNDS,
        "count")
    per_layer["pipeline.extract.wall_s"] = (extract_wall, "s")
    per_layer["pipeline.extract.glue_share"] = (
        glue / extract_wall if extract_wall else 0.0, "ratio")
    per_layer["memory.result_retained_mb"] = (retained / 1e6, "MB")
    per_layer["memory.alloc_peak_mb"] = (peak / 1e6, "MB")
    per_layer["trace.overhead_ratio"] = (min(traced_walls) / min(plain_walls),
                                         "ratio")
    per_layer["trace.spans"] = (len(tracer.spans) // TRACE_ROUNDS, "count")
    return {"metrics": per_layer,
            "notes": {"untraced_pass_s": min(plain_walls),
                      "traced_pass_s": min(traced_walls),
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0},
            "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs),
            "problems": problems + [p for r in runs for p in r.problems]}


class Api:
    """The public functions the workloads call, looked up on their defining
    module at call time, so the tracer's wrappers are the ones called."""

    MODULES = {"extract": "pipeline", "locate_sentence": "highlight",
               "inject_colors": "highlight", "strip_highlights": "highlight",
               "score": "evaluate", "aggregate": "evaluate",
               "render_table": "evaluate", "to_json": "evaluate"}

    def __init__(self, package):
        self._package = package.__name__
        self.PipelineError = package.PipelineError

    def __getattr__(self, name):
        if name not in self.MODULES:
            raise AttributeError(name)
        module = sys.modules[f"{self._package}.{self.MODULES[name]}"]
        return getattr(module, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    args = parser.parse_args(argv)

    with open(args.inputs, encoding="utf-8") as fh:
        docs = json.load(fh)
    for doc in docs:
        doc["expected_counts"] = _to_tuples(doc["expected_counts"])
        doc["naive_counts"] = _to_tuples(doc["naive_counts"])

    import bodytext
    # warnings are counted by the trace; printing them would time stderr
    logging.getLogger("bodytext").setLevel(logging.ERROR)
    api = Api(bodytext)
    workload_cls = WORKLOADS[args.workload]

    if args.mode == "timed":
        run = Run(docs)
        out = timed(workload_cls(api, run), args.seconds)
        out.update(attempted=run.attempted, failed=run.failed,
                   problems=run.problems)
    else:
        out = traced(workload_cls, api, docs, bodytext)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
