"""End-to-end extraction: parse, analyze layout, remove nonbody text, emit.

The stages and their order:

  parse + resolve -> font baseline -> shallow removal -> line grouping
  -> column sweep/detection + assignment -> spacing/density baselines
  -> sidings -> references -> special lines -> backward scan
  -> paragraph assembly -> caption gate -> sentence segmentation

Each stage is importable on its own; this module only wires them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import assembly, columns, metrics, removal, replica
from .errors import PipelineError
from .highlight import Stream, build_stream
from .postag import LexiconTagger, PosTagger

logger = logging.getLogger(__name__)


@dataclass
class ExtractOptions:
    strict: bool = False
    split_parity: bool = False
    abstract_keywords: bool = True
    refs_strategy: str = "keyword"       # keyword | sweep
    keep_captions: bool = False
    hyphen_words: set[str] | None = None
    tagger: PosTagger = field(default_factory=LexiconTagger)


@dataclass
class ExtractionResult:
    body: assembly.BodyText
    doc: replica.ReplicaDocument
    model: object
    stats: metrics.DocumentStats
    histogram: columns.SweepHistogram
    log: removal.RemovalLog
    stream: Stream

    @property
    def bt_bytes(self) -> bytes:
        return assembly.emit(self.body)


def extract_from_document(doc: replica.ReplicaDocument,
                          thresholds: metrics.Thresholds | None = None,
                          options: ExtractOptions | None = None,
                          ) -> ExtractionResult:
    """Run the analysis pipeline on an already parsed replica."""
    thresholds = thresholds or metrics.Thresholds()
    options = options or ExtractOptions()
    log = removal.RemovalLog()

    replica.resolve_absolute(doc)
    blocks = replica.enumerate_blocks(doc)
    if not blocks:
        raise PipelineError("no text: the replica contains no text blocks")

    base_fs = metrics.font_size_mode(blocks)
    band = None
    if options.abstract_keywords:
        band = removal.find_abstract_band(blocks, thresholds.delta1)

    shallow = removal.shallow_remove(doc, base_fs, thresholds,
                                     abstract_band=band, log=log)
    # walk, do not re-enumerate: highlighting finds each kept block in
    # doc.blocks by the index enumerate_blocks gave it
    kept = [obj.block for _, obj in shallow.iter_objects()]

    dims = {p.number: (p.width, p.height) for p in doc.pages}
    tree = metrics.group_lines(kept, thresholds.delta1, dims)

    histogram = columns.sweep(tree)
    if options.split_parity:
        model = _split_parity_model(tree, thresholds)
    else:
        model = columns.detect_columns(histogram, thresholds)

    columns.assign_columns(tree, model, thresholds)
    stats = metrics.compute_stats(tree, model, base_fs)

    removal.remove_sidings(tree, model, log)
    removal.remove_references(tree, model, stats, log,
                              strategy=options.refs_strategy)
    removal.remove_special_lines(tree, model, thresholds, log)
    removal.backward_removal(tree, model, stats, thresholds, log)

    stream = build_stream(tree, model)

    body = assembly.assemble(tree, model, stats, thresholds,
                             hyphen_words=options.hyphen_words)
    if not options.keep_captions:
        assembly.remove_captions(body, options.tagger, log)
    assembly.finalize_sentences(body)

    for warning in doc.warnings:
        logger.warning("%s", warning)
    for warning in log.warnings:
        logger.warning("%s", warning)

    return ExtractionResult(body=body, doc=doc, model=model, stats=stats,
                            histogram=histogram, log=log, stream=stream)


def _split_parity_model(tree: metrics.PageLineTree,
                        thresholds: metrics.Thresholds) -> columns.PageModels:
    """Detect columns separately for even- and odd-numbered pages."""
    models = {}
    for parity in (0, 1):
        subtree = metrics.PageLineTree(
            pages=[p for p in tree.pages if p.page_number % 2 == parity])
        if subtree.pages:
            models[parity] = columns.detect_columns(columns.sweep(subtree),
                                                    thresholds)
    if not models:
        raise PipelineError("no column structure: empty document")
    if len(models) == 1:
        only = next(iter(models.values()))
        models = {0: only, 1: only}
    return columns.PageModels(models)


def extract(html, css=(), thresholds=None, options=None) -> ExtractionResult:
    """Extract body text from replica markup given as strings or bytes."""
    options = options or ExtractOptions()
    doc = replica.parse_replica(html, css, strict=options.strict)
    return extract_from_document(doc, thresholds, options)


def extract_paths(html_path, css=None, thresholds=None,
                  options=None) -> ExtractionResult:
    """Extract body text from files on disk."""
    options = options or ExtractOptions()
    doc = replica.load_replica(html_path, css, strict=options.strict)
    return extract_from_document(doc, thresholds, options)


def load_hyphen_words(path) -> set[str]:
    """One compound per line, UTF-8; case-insensitive membership."""
    return {line.strip().lower()
            for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()}
