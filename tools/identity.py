"""Output-identity check: digest what the package makes of a fixed set of
documents, and compare two such digests.

    python tools/identity.py dump OUT.json [--root DIR]
    python tools/identity.py compare A.json B.json

``dump`` imports the package, the fixtures and the benchmark generator
from the checkout at DIR (default: the checkout holding this file), so
one copy of this script can dump any tree.  The documents are the
fixtures of ``tests/fixtures.py``, ``scaling_doc(1)`` to
``scaling_doc(64)``, and every input of the three benchmark workloads
(``perfbench/run.py`` ``inputs()``) for seeds 1 to 10.  Each document
gives one record:

* ``bt``: sha256 of the BT bytes;
* ``stream``: sha256 of the stream's text, run starts and runs;
* ``spans``: sha256 of every sentence's located span (or why it was not
  located) and of the multiple-match warnings;
* ``injected``: sha256 of the markup with every located span injected
  (or the error inject_colors raised), and ``restored``, whether
  stripping the wraps gives back the source;
* ``warnings``: the document's and the removal log's warnings;
* ``verdicts``: the removal log counted by level and reason.

A document whose extraction raises records only the error.  ``compare``
prints each document and field that differ, and each document present in
one dump only, and exits 1 if there is any.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from collections import Counter
from pathlib import Path

SEEDS = range(1, 11)
SCALING_PAGES = range(1, 65)
WORKLOADS = ("extract_long", "highlight_all", "corpus_eval")
COLORS = ("#cc0000", "#00aa00", "#0000cc")


def _sha(value) -> str:
    if not isinstance(value, bytes):
        value = json.dumps(value, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def documents():
    """(name, html, css) of every document, in a fixed order."""
    import fixtures
    import run

    for name, case in sorted(fixtures.build_all().items()):
        yield f"fixture/{name}", case.fixture.html, case.fixture.css
    for pages in SCALING_PAGES:
        fx = fixtures.scaling_doc(pages)
        yield f"scaling/{pages}", fx.html, fx.css
    for workload in WORKLOADS:
        for seed in SEEDS:
            for doc in run.inputs(workload, seed):
                yield f"{workload}/{seed}/{doc.name}", doc.html, doc.css


def record(html: str, css: str) -> dict:
    """The digests of one document (see the module docstring)."""
    from bodytext import errors, highlight, pipeline

    try:
        result = pipeline.extract(html, css)
    except errors.BodyTextError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    stream = result.stream
    spans, colored, multiple = [], [], []
    for sentence in result.body.sentences():
        try:
            span = highlight.locate_sentence(stream, sentence.text, multiple)
        except errors.PipelineError as exc:
            spans.append(str(exc))
            continue
        spans.append([span.start.b, span.start.t, span.end.b, span.end.t,
                      list(span.blocks)])
        colored.append((span, COLORS[len(colored) % len(COLORS)]))
    try:
        injected = highlight.inject_colors(result.doc, colored)
        restored = (highlight.strip_highlights(injected)
                    == result.doc.source.encode("utf-8"))
    except errors.BodyTextError as exc:
        injected, restored = f"{type(exc).__name__}: {exc}", None
    log = result.log
    verdicts = Counter()
    for verdict in log.blocks:
        verdicts.update(f"block:{reason}" for reason in verdict.reasons)
    for verdict in log.lines:
        verdicts.update(f"line:{reason}" for reason in verdict.reasons
                        or ["kept"])
    verdicts["paragraph:caption"] += len(log.captions)
    return {
        "bt": _sha(result.bt_bytes),
        "stream": _sha([stream.text, stream.starts, stream.runs]),
        "spans": _sha([spans, multiple]),
        "injected": _sha(injected),
        "restored": restored,
        "warnings": list(result.doc.warnings) + list(log.warnings),
        "verdicts": dict(sorted((k, v) for k, v in verdicts.items() if v)),
    }


def dump(out: Path, root: Path) -> int:
    started = time.perf_counter()
    sys.path[:0] = [str(root / sub) for sub in ("src", "tests", "perfbench")]
    logging.getLogger("bodytext").setLevel(logging.CRITICAL)
    records = {name: record(html, css) for name, html, css in documents()}
    out.write_text(json.dumps({"root": str(root), "documents": records},
                              indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"{len(records)} documents from {root} in "
          f"{time.perf_counter() - started:.1f} s -> {out}")
    return 0


def compare(a: Path, b: Path) -> int:
    docs_a = json.loads(a.read_text(encoding="utf-8"))["documents"]
    docs_b = json.loads(b.read_text(encoding="utf-8"))["documents"]
    differences = 0
    for name in sorted(docs_a.keys() | docs_b.keys()):
        if name not in docs_b or name not in docs_a:
            differences += 1
            print(f"{name}: only in {a if name in docs_a else b}")
            continue
        ra, rb = docs_a[name], docs_b[name]
        for field in sorted(ra.keys() | rb.keys()):
            if ra.get(field) != rb.get(field):
                differences += 1
                print(f"{name}: {field}: {ra.get(field)!r} != "
                      f"{rb.get(field)!r}")
    shared = len(docs_a.keys() & docs_b.keys())
    print(f"{differences} differences; {shared} documents in both dumps")
    return 1 if differences else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p_dump = commands.add_parser("dump", help="digest every document")
    p_dump.add_argument("out", type=Path)
    p_dump.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose package and documents to use")
    p_compare = commands.add_parser("compare", help="compare two dumps")
    p_compare.add_argument("a", type=Path)
    p_compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out, args.root.resolve())
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
