"""The replica parser as it was built on ``html.parser.HTMLParser``, kept
as the reference that the package's one-pattern tokenizer is compared
against (``test_replica_oracle.py``).

It resolves every element on its own, with no memo, and takes source
offsets from ``getpos``.  It shares only the style-sheet and transform
reading and the page checks with the package, so it keeps checking the
tokenizer when the style-sheet reading changes.  It reads ``script``,
``style`` and ``title`` content as raw text, as the package does, and
otherwise behaves as the standard library's parser does, which differs
between Python versions on markup the converter does not write (bogus
comments, text after an unterminated construct).  One such difference
reaches the comparison: for a raw-text element left unclosed, Python 3.13
reports the end of the input and earlier versions the end of the start
tag, so the offset of that error is not compared (the package reports
the end of the input, as for every other element left open).  The two
parsers also differ on such markup: the package ends a tag at a ``<``
and lets an unterminated comment run to the end of the input, which
keeps its scan linear.
"""

from __future__ import annotations

import re
from html.entities import html5 as _ENTITIES
from html.parser import HTMLParser

from bodytext.errors import ReplicaFormatError, ReplicaParseError
from bodytext.replica import (_STYLE_BLOCK_RE, _VOID_TAGS, HL_CLASS,
                              PageObject, ReplicaDocument, TextBlock,
                              _build_document, _parse_declarations,
                              parse_stylesheets)


def reference_parse_replica(html, css=(), *, strict: bool = False,
                            ) -> ReplicaDocument:
    """``replica.parse_replica``, parsed by ReferenceParser."""
    if isinstance(html, bytes):
        try:
            html = html.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReplicaParseError(f"input is not valid UTF-8: {exc}",
                                    exc.start) from exc
    if isinstance(css, (str, bytes)):
        css = (css,)
    sheets = list(css) + _STYLE_BLOCK_RE.findall(html)
    parser = ReferenceParser(html, parse_stylesheets(sheets), strict)
    parser.feed(html)
    parser.close()
    return _build_document(parser.top_level, parser.warnings, html)


class _Node:
    """Builder-side element state while its tag is open."""

    __slots__ = ("tag", "attrs", "classes", "inline_style", "children",
                 "text", "text_len", "source_map", "gaps")

    def __init__(self, tag, attrs):
        self.tag = tag
        self.attrs = dict(attrs)
        cls = self.attrs.get("class") or ""
        self.classes = cls.split()
        self.inline_style = self.attrs.get("style") or ""
        self.children: list[PageObject] = []
        self.text: list[str] = []
        self.text_len = 0                # total length of the text pieces
        self.source_map: list[int] = []
        self.gaps: list[float] = []


class ReferenceParser(HTMLParser):
    # ``title`` content is raw text, as in the package
    CDATA_CONTENT_ELEMENTS = ("script", "style", "title")

    def __init__(self, source, classmap, strict):
        super().__init__(convert_charrefs=False)
        self.source = source
        self.classmap = classmap
        self.strict = strict
        self.warnings: list[str] = []
        self.stack: list[_Node] = []
        self.top_level: list[PageObject] = []
        self._line_offsets = [0] + [m.end()
                                    for m in re.finditer("\n", source)]
        self._unknown: set[str] = set()

    # -- position helpers ---------------------------------------------------

    def _offset(self) -> int:
        line, col = self.getpos()
        return self._line_offsets[line - 1] + col

    def _fail(self, message):
        offset = len(self.source[: self._offset()].encode("utf-8"))
        raise ReplicaParseError(message, offset)

    # -- class resolution ---------------------------------------------------

    def _resolve(self, node: _Node) -> dict[str, object]:
        props: dict[str, object] = {}
        for cls in node.classes:
            rule = self.classmap.get(cls)
            if rule is None:
                if cls != HL_CLASS and cls not in self._unknown:
                    self._unknown.add(cls)
                    msg = f"unknown class {cls!r}; defaulting its properties to 0"
                    if self.strict:
                        raise ReplicaFormatError(msg)
                    self.warnings.append(msg)
                continue
            props.update(rule)
        if node.inline_style:
            props.update(_parse_declarations(node.inline_style))
        return props

    # -- tag handlers ---------------------------------------------------------

    def handle_starttag(self, tag, attrs):
        if tag in _VOID_TAGS:
            self.handle_startendtag(tag, attrs)
            return
        self.stack.append(_Node(tag, attrs))

    def handle_startendtag(self, tag, attrs):
        if tag != "img":
            return
        node = _Node(tag, attrs)
        props = self._resolve(node)
        obj = PageObject(
            kind="image",
            relative_start=(props.get("left", 0.0), props.get("bottom", 0.0)),
            width=props.get("width"),
            height=props.get("height"),
        )
        self._attach(obj)

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if not self.stack:
            self._fail(f"unexpected closing tag </{tag}>")
        if self.stack[-1].tag != tag:
            self._fail(
                f"mismatched closing tag </{tag}> (open element is "
                f"<{self.stack[-1].tag}>)")
        node = self.stack.pop()
        if tag == "div":
            self._close_div(node)
        elif tag == "span":
            self._close_span(node)
        # other elements (html, body, head, ...) are transparent

    def _close_span(self, node: _Node):
        # Inline and transparent: text already flowed into the nearest div.
        # A width-resolving class marks inserted spacing inside a text block.
        props = self._resolve(node)
        host = self._nearest_div()
        if host is None:
            return
        if "width" in props:
            host.gaps.append(float(props["width"]))

    def _close_div(self, node: _Node):
        props = self._resolve(node)
        text = "".join(node.text)
        rel = (float(props.get("left", 0.0)), float(props.get("bottom", 0.0)))
        if node.children:
            kind = "container"
            if text.strip():
                self.warnings.append(
                    f"stray text {text.strip()[:30]!r} inside a container div")
            obj = PageObject(kind=kind, relative_start=rel,
                             width=props.get("width"), height=props.get("height"),
                             children=node.children)
        elif text:
            rotated = props.get("rotated", False)
            block = TextBlock(
                text=text.replace("\n", " "),
                font_size=float(props.get("font-size", 0.0)),
                rotated=bool(rotated),
                internal_gaps=node.gaps,
                source_map=tuple(node.source_map),
            )
            if "\n" in text:
                self.warnings.append(
                    "line break inside a text block; replaced with a space")
            if "width" in props:
                self.warnings.append(
                    f"text block {text[:30]!r} carries an explicit width")
            if rotated is None:
                self.warnings.append(
                    f"text block {text[:30]!r} has a transform that cannot "
                    f"be read; taken as upright")
            obj = PageObject(kind="text_block", relative_start=rel,
                             height=props.get("height"), block=block)
        elif props.get("width") is not None and props.get("height") is not None:
            obj = PageObject(kind="line", relative_start=rel,
                             width=props.get("width"), height=props.get("height"))
        else:
            obj = PageObject(kind="container", relative_start=rel,
                             width=props.get("width"), height=props.get("height"))
        obj.attrs = node.attrs
        if "top" in props and "bottom" not in props:
            obj.top = float(props["top"])
        self._attach(obj)

    def _nearest_div(self) -> _Node | None:
        for node in reversed(self.stack):
            if node.tag == "div":
                return node
        return None

    def _attach(self, obj: PageObject):
        # spans are transparent: children attach to the nearest enclosing div,
        # keeping the pre-order identical to the source order
        host = self._nearest_div()
        if host is None:
            self.top_level.append(obj)
        else:
            host.children.append(obj)

    # -- character data -------------------------------------------------------

    def _append_text(self, decoded: str, src_start: int, src_end: int):
        if self.stack and self.stack[-1].tag in self.CDATA_CONTENT_ELEMENTS:
            return
        host = self._nearest_div()
        if host is None:
            if decoded.strip():
                self.warnings.append(
                    f"text outside any element ignored: {decoded.strip()[:30]!r}")
            return
        host.source_map += (host.text_len, len(decoded), src_start, src_end)
        host.text.append(decoded)
        host.text_len += len(decoded)

    def handle_data(self, data):
        start = self._offset()
        self._append_text(data, start, start + len(data))

    def _append_ref(self, decoded, start, length):
        # a reference's range ends where it does, ";" only if present; one
        # that cannot be decoded stays as its literal source text, 1:1
        end = start + length + self.source.startswith(";", start + length)
        self._append_text(decoded or self.source[start:end], start, end)

    def handle_entityref(self, name):
        self._append_ref(_ENTITIES.get(name + ";"), self._offset(),
                         len(name) + 1)

    def handle_charref(self, name):
        try:
            cp = int(name[1:], 16) if name[0] in "xX" else int(name)
        except ValueError:               # more digits than int() converts
            cp = -1
        decoded = (chr(cp) if 0 <= cp <= 0x10FFFF
                   and not 0xD800 <= cp <= 0xDFFF else None)
        self._append_ref(decoded, self._offset(), len(name) + 2)

    def close(self):
        super().close()
        if self.stack:
            self._fail(f"unclosed <{self.stack[-1].tag}> at end of input")
