"""Self-tests of the benchmark: generator, output checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bodytext  # noqa: E402
from bodytext import evaluate, pipeline  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

def _docs(workload_docs):
    docs = [bench._serialize(d) for d in workload_docs]
    for doc in docs:
        doc["expected_counts"] = worker._to_tuples(doc["expected_counts"])
        doc["naive_counts"] = worker._to_tuples(doc["naive_counts"])
    return docs


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for kind in (gen.CORPUS_KINDS[0], gen.CORPUS_KINDS[3], gen.LONG_KIND):
        a, b = gen.build(kind, 2, 7), gen.build(kind, 2, 7)
        c = gen.build(kind, 2, 8)
        assert (a.html, a.css, a.gold, a.naive) == (b.html, b.css, b.gold,
                                                   b.naive)
        assert a.html != c.html and a.gold != c.gold


def test_every_generated_kind_extracts_as_expected():
    for kind in gen.CORPUS_KINDS + [gen.LONG_KIND]:
        for pages in (1, 3):
            doc = gen.build(kind, pages, 5)
            bt = pipeline.extract(doc.html, doc.css).bt_bytes.decode()
            assert bt == doc.expected_bt, (kind.name, pages)
            assert doc.conforming == (kind.name != "display_math_midpara")
            if doc.conforming:
                assert doc.expected_bt == doc.gold


def test_independent_counts_agree_with_the_package():
    for doc in gen.corpus(3)[:16]:
        bt = pipeline.extract(doc.html, doc.css).bt_bytes.decode()
        for text in (bt, doc.naive):
            report = evaluate.score(text, doc.gold, doc.removed or None)
            assert check.report_counts(report) == check.counts(
                text, doc.gold, doc.removed), doc.name


def test_bt_check_catches_a_dropped_sentence():
    doc = _docs([gen.build(gen.CORPUS_KINDS[1], 1, 2)])[0]
    run = worker.Run([doc])
    bt = pipeline.extract(doc["html"], doc["css"]).bt_bytes.decode()
    first = bt.split("\n\n")[0]
    dropped = bt.replace(check.split_sentences(first)[0] + " ", "", 1)
    assert dropped != bt
    assert run.check_bt(doc, bt.encode())
    assert not run.check_bt(doc, dropped.encode())
    assert run.failed == 1


class _Corrupting(worker.Api):
    """Api whose named function's result is altered by ``corrupt``."""

    def __init__(self, name, corrupt):
        super().__init__(bodytext)
        self._name, self._corrupt = name, corrupt

    def __getattr__(self, name):
        fn = super().__getattr__(name)
        if name != self._name:
            return fn
        return lambda *a, **k: self._corrupt(fn(*a, **k))


def test_highlight_check_catches_a_one_byte_strip_mismatch():
    docs = _docs([gen.build(gen.LONG_KIND, 1, 4, "highlight")])
    clean = worker.Run(docs)
    worker.run_op(worker.HighlightAll(worker.Api(bodytext), clean), 0)
    assert (clean.attempted, clean.failed) == (1, 0)

    def flip(data):
        return data[:100] + bytes([data[100] ^ 1]) + data[101:]

    run = worker.Run(docs)
    worker.run_op(worker.HighlightAll(_Corrupting("strip_highlights", flip),
                                      run), 0)
    assert (run.attempted, run.failed) == (1, 1)


def test_eval_check_catches_a_wrong_count():
    docs = _docs([gen.build(gen.CORPUS_KINDS[3], 1, 6)])

    def off_by_one(report):
        report = copy.deepcopy(report)
        report.categories["sentences"].tp += 1
        return report

    run = worker.Run(docs)
    worker.run_op(worker.CorpusEval(_Corrupting("score", off_by_one), run), 0)
    assert (run.attempted, run.failed) == (1, 1)


def test_tracer_restores_every_binding_and_accounts_for_extract():
    originals = {name: getattr(pipeline, name) for name in dir(pipeline)
                 if callable(getattr(pipeline, name))}
    tracer = spans.Tracer(bodytext)
    tracer.install()
    try:
        assert pipeline.build_stream is not originals["build_stream"]
        doc = gen.build(gen.LONG_KIND, 2, 1)
        bodytext.extract(doc.html, doc.css)
    finally:
        leftover = tracer.restore()
    assert leftover == []
    for name, fn in originals.items():
        assert getattr(pipeline, name) is fn, name
    assert bodytext.extract is originals["extract"]
    assert bodytext.postag.LexiconTagger.tag.__name__ == "tag"
    assert not hasattr(bodytext.postag.LexiconTagger.tag, "__wrapped__")
    self_s = tracer.self_time()
    assert tracer.calls["pipeline.extract"] == 1
    assert self_s["pipeline.extract"] < 0.05 * tracer.wall_time(
        "pipeline.extract")
    assert tracer.counters["highlight.stream_chars"] > 0


def test_restore_reports_bindings_it_did_not_record():
    tracer = spans.Tracer(bodytext)
    tracer.install()
    error = pipeline.PipelineError
    try:
        evaluate.stray = pipeline.build_stream        # a wrapper, unrecorded
        pipeline.PipelineError = ValueError           # a changed binding
    finally:
        leftover = tracer.restore()
        del evaluate.stray
        pipeline.PipelineError = error
    assert leftover == ["bodytext.evaluate.stray",
                        "bodytext.pipeline.PipelineError"]


def test_probe_sets_off_no_garbage_collection():
    live = [[i] for i in range(200_000)]       # a heap for a collection to walk
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(record)
    try:
        for _ in range(5):
            speed.probe()
    finally:
        gc.callbacks.remove(record)
    assert collections == [] and gc.isenabled() and live


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    assert worker.tail(samples) == (90, 90.0)
    assert worker.tail([3, 1, 2]) == (2, 50.0)
