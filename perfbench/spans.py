"""Span tracing of the package's public stage functions, from outside.

The tracer replaces each listed function with a wrapper at every place it
is looked up: the attribute of its defining module (used by callers that
go through ``module.function``) and every name the package bound to it by
``from .module import function`` (for instance
``bodytext.pipeline.build_stream``).  A wrapper records one span per call
(name, start, end, parent span, operation id) in memory and, where a
counter is defined, counts work in or out of the call.  The tracer's own
bookkeeping runs outside the span it belongs to and is charged to no
layer, so a parent's self time is its duration minus the time its child
spans cover, minus the tracer's bookkeeping done inside it.

``Tracer.install`` snapshots the namespace of every package module (and
of every class with a wrapped method) and patches.  ``Tracer.restore``
puts every original back, then compares those namespaces with the
snapshot and reports every binding that differs or still holds a wrapper,
whether the tracer recorded it or not.
"""

from __future__ import annotations

import sys
import time
import types
from dataclasses import dataclass, field

# (module, qualified name) of every wrapped function, grouped by layer.
TRACED = [
    ("replica", "parse_replica"), ("replica", "parse_stylesheets"),
    ("replica", "resolve_absolute"), ("replica", "enumerate_blocks"),
    ("metrics", "font_size_mode"), ("metrics", "group_lines"),
    ("metrics", "compute_stats"),
    ("columns", "sweep"), ("columns", "detect_columns"),
    ("columns", "assign_columns"),
    ("removal", "find_abstract_band"), ("removal", "shallow_remove"),
    ("removal", "remove_sidings"), ("removal", "remove_references"),
    ("removal", "remove_special_lines"), ("removal", "backward_removal"),
    ("highlight", "build_stream"), ("highlight", "locate_sentence"),
    ("highlight", "inject_colors"), ("highlight", "strip_highlights"),
    ("assembly", "assemble"), ("assembly", "remove_captions"),
    ("assembly", "finalize_sentences"), ("assembly", "emit"),
    ("postag", "LexiconTagger.tag"),
    ("evaluate", "score"), ("evaluate", "aggregate"),
    ("evaluate", "render_table"), ("evaluate", "to_json"),
    ("pipeline", "extract"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1              # index into Tracer.spans, -1 for a root
    op: int = 0
    children_s: float = 0.0       # time covered by direct child spans
    overhead_s: float = 0.0       # tracer bookkeeping inside this span

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - self.overhead_s


def _lines(tree) -> int:
    return sum(len(page.lines) for page in tree.pages)


def _text_blocks(doc) -> int:
    return sum(1 for _, obj in doc.iter_objects()
               if obj.kind == "text_block" and obj.block is not None)


def _warnings_arg(args, kwargs):
    if "warnings" in kwargs:
        return kwargs["warnings"]
    return args[2] if len(args) > 2 else None


# Counters: name -> (before(args, kwargs) -> state, after(state, result, args,
# kwargs, parent_name) -> {counter: increment}).  Both run outside the span.
def _removed_lines(key):
    return (lambda a, k: _lines(a[0]),
            lambda s, r, a, k, p: {key: s - _lines(a[0])})


COUNTERS = {
    "replica.enumerate_blocks": (
        None, lambda s, r, a, k, p: {"replica.blocks_out": len(r)}),
    "metrics.group_lines": (
        None, lambda s, r, a, k, p: (
            {"metrics.lines_out": _lines(r)} if p == "pipeline.extract" else {})),
    "removal.find_abstract_band": (
        None, lambda s, r, a, k, p: {
            "removal.find_abstract_band.bands_found": int(r is not None)}),
    "removal.shallow_remove": (
        lambda a, k: _text_blocks(a[0]),
        lambda s, r, a, k, p: {
            "removal.shallow_remove.blocks_removed": s - _text_blocks(r)}),
    "removal.remove_sidings": _removed_lines("removal.remove_sidings.lines_removed"),
    "removal.remove_references": _removed_lines(
        "removal.remove_references.lines_removed"),
    "removal.remove_special_lines": _removed_lines(
        "removal.remove_special_lines.lines_removed"),
    "removal.backward_removal": _removed_lines(
        "removal.backward_removal.lines_removed"),
    "highlight.build_stream": (
        None, lambda s, r, a, k, p: {"highlight.stream_chars": len(r)}),
    "highlight.locate_sentence": (
        lambda a, k: len(_warnings_arg(a, k) or ()),
        lambda s, r, a, k, p: {"highlight.locate_sentence.multi_match":
                               len(_warnings_arg(a, k) or ()) - s}),
    "highlight.inject_colors": (
        None, lambda s, r, a, k, p: {
            "highlight.insertions": 2 * r.count(b'<span class="hl"')}),
    "assembly.assemble": (
        None, lambda s, r, a, k, p: {
            "assembly.paragraphs_out": len(r.paragraphs),
            "assembly.chars_out": sum(len(x.text) for x in r.paragraphs)}),
    "assembly.remove_captions": (
        lambda a, k: len(a[0].paragraphs),
        lambda s, r, a, k, p: {"assembly.captions_removed":
                               s - len(r.paragraphs)}),
    "assembly.finalize_sentences": (
        None, lambda s, r, a, k, p: {
            "assembly.sentences_out": sum(len(x.sentences)
                                          for x in r.paragraphs)}),
    "evaluate.score": (
        None, lambda s, r, a, k, p: {
            "evaluate.fp_incomplete": r.categories["sentences"].fp_incomplete,
            "evaluate.fp_extra": r.categories["sentences"].fp_extra}),
    "pipeline.extract": (
        None, lambda s, r, a, k, p: {"replica.warnings": len(r.doc.warnings)}),
}


COUNTER_NAMES = [
    "replica.blocks_out", "replica.warnings", "metrics.lines_out",
    "removal.find_abstract_band.bands_found",
    "removal.shallow_remove.blocks_removed",
    "removal.remove_sidings.lines_removed",
    "removal.remove_references.lines_removed",
    "removal.remove_special_lines.lines_removed",
    "removal.backward_removal.lines_removed",
    "highlight.stream_chars", "highlight.locate_sentence.multi_match",
    "highlight.insertions",
    "assembly.paragraphs_out", "assembly.chars_out",
    "assembly.captions_removed", "assembly.sentences_out",
    "evaluate.fp_incomplete", "evaluate.fp_extra",
]


@dataclass
class Tracer:
    package: types.ModuleType
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    op: int = 0
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _wrappers: dict[int, object] = field(default_factory=dict)
    _before: dict[int, tuple[object, dict]] = field(default_factory=dict)

    # -- patching ------------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix
                                      or name.startswith(prefix + "."))]

    def _classes(self):
        pkg = self.package.__name__
        return [getattr(sys.modules[f"{pkg}.{module_name}"],
                        qualname.split(".")[0])
                for module_name, qualname in TRACED if "." in qualname]

    def _namespaces(self):
        """(owner, copy of its namespace) keyed by id, for every package
        module and every class with a wrapped method."""
        return {id(o): (o, dict(vars(o)))
                for o in self._modules() + self._classes()}

    def install(self) -> None:
        if self._before:
            raise RuntimeError("tracer already installed")
        pkg = self.package.__name__
        self._before = self._namespaces()
        for module_name, qualname in TRACED:
            module = sys.modules[f"{pkg}.{module_name}"]
            span_name = f"{module_name}.{qualname.rsplit('.', 1)[-1]}"
            if "." in qualname:                      # a method on a class
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(span_name, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(span_name, original)
            for mod in self._modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        self._wrappers[id(wrapper)] = wrapper

    def restore(self) -> list[str]:
        """Put every original back; returns every binding of the package's
        modules and traced classes that differs from the snapshot taken by
        install(), is gone, or holds one of the tracer's wrappers."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        leftover = []
        for owner, after in self._namespaces().values():
            before = self._before.get(id(owner), (owner, {}))[1]
            name = getattr(owner, "__name__", repr(owner))
            for attr, value in after.items():
                if (id(value) in self._wrappers
                        or (attr in before and value is not before[attr])):
                    leftover.append(f"{name}.{attr}")
            leftover += [f"{name}.{attr} (gone)"
                         for attr in before.keys() - after.keys()]
        self._wrappers.clear()
        self._before = {}
        return sorted(leftover)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        before, after = COUNTERS.get(name, (None, None))
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = clock()
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            state = before(args, kwargs) if before else None
            index = len(tracer.spans)
            span = Span(name, 0.0, parent=parent, op=tracer.op)
            tracer.spans.append(span)
            stack.append(index)
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                tracer.failed[name] = tracer.failed.get(name, 0) + 1
                tracer._close(span, stack, parent, t_in)
                raise
            span.end = clock()
            if after:
                parent_name = tracer.spans[parent].name if parent >= 0 else ""
                for key, inc in after(state, result, args, kwargs,
                                      parent_name).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + inc
            tracer._close(span, stack, parent, t_in)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _close(self, span: Span, stack: list[int], parent: int, t_in: float):
        stack.pop()
        if parent >= 0:
            p = self.spans[parent]
            p.children_s += span.duration
            # bookkeeping around this call happened inside the parent
            p.overhead_s += (time.perf_counter() - t_in) - span.duration

    # -- summaries -----------------------------------------------------------

    def self_time(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out

    def wall_time(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)
