"""Ingestion of the HTML replica of a PDF into a positioned object tree.

The replica (as produced by a PDF-to-HTML converter) is a ``<div
id="page-container">`` holding one ``div`` per page; pages hold object divs
whose geometry is encoded through CSS classes.  This module resolves every
class reference against the style sheets, builds the page/object tree,
converts coordinates to the internal convention (origin at the lower-left
page corner, y increasing upward), and keeps enough source bookkeeping to
splice styling tags back into the original markup byte-exactly.

Geometry conventions understood by the ingester:

* ``left`` / ``bottom`` give the starting point (lower-left corner) of an
  object relative to its parent; used as-is.
* ``top`` is accepted as a fallback and converted with the page height and
  the node's own height.
* a text block is a div with text content and no structural (div/img)
  children; it has a height but no width.
* ``img`` elements and empty width+height divs are non-textual objects
  (images and drawn rules).
* spans are inline and transparent; a span whose class resolves a ``width``
  marks extra inserted spacing inside a text block.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from html.entities import html5 as _ENTITIES
from html.parser import HTMLParser
from pathlib import Path

from .errors import ReplicaFormatError, ReplicaParseError

IDENTITY = (1.0, 0.0, 0.0, 1.0)

# CSS properties the ingester resolves from class rules / inline styles.
_NUMERIC_PROPS = ("left", "bottom", "top", "width", "height", "font-size")
_VOID_TAGS = {"img", "br", "hr", "meta", "link", "input", "base", "source"}


@dataclass
class TextSegment:
    """Maps a run of a block's text onto the source markup.

    ``length`` decoded characters starting at ``text_offset`` occupy the
    source range [src_start, src_end).  Plain data runs map 1:1; a character
    reference maps one decoded character onto the whole entity.
    """

    text_offset: int
    length: int
    src_start: int
    src_end: int


@dataclass
class TextBlock:
    """A positioned run of text; the atomic unit of all later analysis."""

    text: str
    height: float = 0.0
    font_size: float = 0.0
    rotation: tuple[float, float, float, float] = IDENTITY
    internal_gaps: list[tuple[int, float]] = field(default_factory=list)
    absolute_start: tuple[float, float] | None = None
    index: int = -1                      # document-order index (CharRef.b)
    page_number: int = 0
    elem_span: tuple[int, int] | None = None
    segments: list[TextSegment] = field(default_factory=list)

    @property
    def x(self) -> float:
        return self.absolute_start[0] if self.absolute_start else 0.0

    @property
    def y(self) -> float:
        return self.absolute_start[1] if self.absolute_start else 0.0

    @property
    def rotated(self) -> bool:
        return any(abs(a - b) > 1e-9 for a, b in zip(self.rotation, IDENTITY))


@dataclass(frozen=True)
class CharRef:
    """Source of one end of a located span: block index ``b``, offset ``t``
    within it."""

    b: int
    t: int


@dataclass
class PageObject:
    kind: str                            # text_block | image | line | container
    relative_start: tuple[float, float] = (0.0, 0.0)
    width: float | None = None
    height: float | None = None
    children: list["PageObject"] = field(default_factory=list)
    block: TextBlock | None = None
    absolute_start: tuple[float, float] | None = None
    attrs: dict = field(default_factory=dict)


@dataclass
class Page:
    number: int
    width: float
    height: float
    objects: list[PageObject] = field(default_factory=list)


@dataclass
class ReplicaDocument:
    pages: list[Page]
    page_width: float
    page_height: float
    warnings: list[str] = field(default_factory=list)
    source: str = ""

    def iter_objects(self):
        """Pre-order walk of all objects, page by page."""
        for page in self.pages:
            stack = list(reversed(page.objects))
            while stack:
                obj = stack.pop()
                yield page, obj
                stack.extend(reversed(obj.children))


# ---------------------------------------------------------------------------
# Style sheets
# ---------------------------------------------------------------------------

_RULE_RE = re.compile(r"\.([-\w]+)\s*\{([^}]*)\}")
_NUM_RE = re.compile(r"^(-?\d+(?:\.\d+)?)(px|pt)?$")
_MATRIX_RE = re.compile(r"matrix\(\s*([^)]*)\)")
_ROTATE_RE = re.compile(r"rotate\(\s*(-?\d+(?:\.\d+)?)deg\s*\)")


def _parse_declarations(body: str) -> dict[str, object]:
    """Parse a CSS declaration block into the properties we understand."""
    props: dict[str, object] = {}
    for decl in body.split(";"):
        if ":" not in decl:
            continue
        name, _, value = decl.partition(":")
        name = name.strip().lower()
        value = value.strip()
        if name in _NUMERIC_PROPS:
            m = _NUM_RE.match(value)
            if m:
                props[name] = float(m.group(1))
        elif name in ("transform", "-webkit-transform"):
            mat = _parse_transform(value)
            if mat is not None:
                props["transform"] = mat
    return props


def _parse_transform(value: str) -> tuple[float, float, float, float] | None:
    m = _MATRIX_RE.search(value)
    if m:
        parts = [p.strip() for p in m.group(1).replace(",", " ").split()]
        if len(parts) >= 4:
            try:
                a, b, c, d = (float(p) for p in parts[:4])
                return (a, b, c, d)
            except ValueError:
                return None
    m = _ROTATE_RE.search(value)
    if m:
        t = math.radians(float(m.group(1)))
        return (math.cos(t), math.sin(t), -math.sin(t), math.cos(t))
    return None


def parse_stylesheets(sheets) -> dict[str, dict[str, object]]:
    """Build the class -> properties map; later sheets win per property."""
    classmap: dict[str, dict[str, object]] = {}
    for sheet in sheets:
        if isinstance(sheet, bytes):
            sheet = sheet.decode("utf-8")
        # strip comments so braces inside them cannot confuse the rule scan
        sheet = re.sub(r"/\*.*?\*/", "", sheet, flags=re.S)
        for m in _RULE_RE.finditer(sheet):
            name = m.group(1)
            props = _parse_declarations(m.group(2))
            classmap.setdefault(name, {}).update(props)
    return classmap


_STYLE_BLOCK_RE = re.compile(r"<style[^>]*>(.*?)</style>", re.S | re.I)


# ---------------------------------------------------------------------------
# HTML parsing
# ---------------------------------------------------------------------------


class _Node:
    """Builder-side element state while its tag is open."""

    __slots__ = ("tag", "attrs", "classes", "inline_style", "start", "children",
                 "text", "segments", "gaps", "has_structural_child",
                 "host_text_len")

    def __init__(self, tag, attrs, start):
        self.tag = tag
        self.attrs = dict(attrs)
        cls = self.attrs.get("class") or ""
        self.classes = cls.split()
        self.inline_style = self.attrs.get("style") or ""
        self.start = start
        self.children: list[PageObject] = []
        self.text: list[str] = []
        self.segments: list[TextSegment] = []
        self.gaps: list[tuple[int, float]] = []
        self.has_structural_child = False
        self.host_text_len = 0           # host div's text length at open

    @property
    def text_len(self) -> int:
        return sum(len(t) for t in self.text)


class _ReplicaParser(HTMLParser):
    def __init__(self, source, classmap, strict):
        super().__init__(convert_charrefs=False)
        self.source = source
        self.classmap = classmap
        self.strict = strict
        self.warnings: list[str] = []
        self.stack: list[_Node] = []
        self.top_level: list[PageObject] = []
        self.container_node: PageObject | None = None
        self._line_offsets = [0]
        for i, ch in enumerate(source):
            if ch == "\n":
                self._line_offsets.append(i + 1)
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
                if cls not in self._unknown:
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
        node = _Node(tag, attrs, self._offset())
        if tag == "span":
            host = self._nearest_div()
            node.host_text_len = host.text_len if host else 0
        self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        if tag != "img":
            return
        node = _Node(tag, attrs, self._offset())
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
        end = self.source.find(">", self._offset())
        elem_end = (end + 1) if end >= 0 else len(self.source)
        if tag == "div":
            self._close_div(node, elem_end)
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
            host.gaps.append((node.host_text_len, float(props["width"])))

    def _close_div(self, node: _Node, elem_end: int):
        props = self._resolve(node)
        text = "".join(node.text)
        rel = (float(props.get("left", 0.0)), self._rel_y(props))
        if node.has_structural_child or node.children:
            kind = "container"
            if text.strip():
                self.warnings.append(
                    f"stray text {text.strip()[:30]!r} inside a container div")
            obj = PageObject(kind=kind, relative_start=rel,
                             width=props.get("width"), height=props.get("height"),
                             children=node.children)
        elif text:
            block = TextBlock(
                text=text.replace("\n", " "),
                height=float(props.get("height", 0.0)),
                font_size=float(props.get("font-size", 0.0)),
                rotation=props.get("transform", IDENTITY),
                internal_gaps=node.gaps,
                elem_span=(node.start, elem_end),
                segments=node.segments,
            )
            if "\n" in text:
                self.warnings.append(
                    "line break inside a text block; replaced with a space")
            if "width" in props:
                self.warnings.append(
                    f"text block {text[:30]!r} carries an explicit width")
            obj = PageObject(kind="text_block", relative_start=rel,
                             height=block.height, block=block)
        elif props.get("width") is not None and props.get("height") is not None:
            obj = PageObject(kind="line", relative_start=rel,
                             width=props.get("width"), height=props.get("height"))
        else:
            obj = PageObject(kind="container", relative_start=rel,
                             width=props.get("width"), height=props.get("height"))
        obj.attrs = node.attrs
        self._attach(obj)

    def _rel_y(self, props) -> float:
        if "bottom" in props:
            return float(props["bottom"])
        if "top" in props:
            # converted later, once the page height is known; negative marker
            return -1e9 - float(props["top"])
        return 0.0

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
            host.has_structural_child = True

    # -- character data -------------------------------------------------------

    def _append_text(self, decoded: str, src_start: int, src_end: int):
        if self.stack and self.stack[-1].tag in ("style", "script", "title"):
            return
        host = self._nearest_div()
        if host is None:
            if decoded.strip():
                self.warnings.append(
                    f"text outside any element ignored: {decoded.strip()[:30]!r}")
            return
        host.segments.append(TextSegment(host.text_len, len(decoded),
                                         src_start, src_end))
        host.text.append(decoded)

    def handle_data(self, data):
        start = self._offset()
        self._append_text(data, start, start + len(data))

    def handle_entityref(self, name):
        start = self._offset()
        decoded = _ENTITIES.get(name + ";", "&" + name + ";")
        self._append_text(decoded, start, start + len(name) + 2)

    def handle_charref(self, name):
        start = self._offset()
        try:
            cp = int(name[1:], 16) if name.startswith(("x", "X")) else int(name)
            decoded = chr(cp)
        except ValueError:
            decoded = "&#" + name + ";"
        self._append_text(decoded, start, start + len(name) + 3)

    def close(self):
        super().close()
        if self.stack:
            self._fail(f"unclosed <{self.stack[-1].tag}> at end of input")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def parse_replica(html, css=(), *, strict: bool = False) -> ReplicaDocument:
    """Parse replica markup plus style sheets into a ReplicaDocument.

    ``html`` and each entry of ``css`` may be str or UTF-8 bytes.  Class
    references are resolved to numeric values up front; unknown classes
    default to 0 with a warning (an error under ``strict``).  Coordinates in
    the result are still relative; call resolve_absolute() next.
    """
    if isinstance(html, bytes):
        try:
            html = html.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReplicaParseError(f"input is not valid UTF-8: {exc}",
                                    exc.start) from exc
    if isinstance(css, (str, bytes)):
        css = (css,)
    sheets = list(css) + _STYLE_BLOCK_RE.findall(html)
    classmap = parse_stylesheets(sheets)

    parser = _ReplicaParser(html, classmap, strict)
    parser.feed(html)
    parser.close()

    container = _find_container(parser.top_level)
    if container is None:
        raise ReplicaFormatError('no <div id="page-container"> root found')

    pages = []
    for obj in container.children:
        number = _page_number(obj.attrs)
        if number is None:
            parser.warnings.append("non-page child of the page container skipped")
            continue
        if obj.width is None or obj.height is None:
            raise ReplicaFormatError(f"page {number} has no resolved width/height")
        pages.append(Page(number=number, width=obj.width, height=obj.height,
                          objects=obj.children))
    if not pages:
        raise ReplicaFormatError("page container holds no pages")
    pages.sort(key=lambda p: p.number)
    for a, b in zip(pages, pages[1:]):
        if a.number == b.number:
            raise ReplicaFormatError(f"duplicate page number {a.number}")

    doc = ReplicaDocument(pages=pages, page_width=pages[0].width,
                          page_height=pages[0].height,
                          warnings=parser.warnings, source=html)
    for page in pages:
        if page.width != doc.page_width or page.height != doc.page_height:
            doc.warnings.append(
                f"page {page.number} size {page.width}x{page.height} differs "
                f"from page 1")
        _convert_top_origin(page, doc)
    return doc


def _find_container(objects) -> PageObject | None:
    stack = list(objects)
    while stack:
        obj = stack.pop()
        if obj.attrs.get("id") == "page-container":
            return obj
        stack.extend(obj.children)
    return None


def _page_number(attrs) -> int | None:
    if "data-page-no" in attrs:
        try:
            return int(attrs["data-page-no"])
        except ValueError:
            return None
    ident = attrs.get("id") or ""
    if ident.startswith("pf"):
        try:
            return int(ident[2:], 16)
        except ValueError:
            return None
    return None


def _convert_top_origin(page: Page, doc: ReplicaDocument):
    # 'top'-styled nodes were stored as -(1e9 + top); flip them now that the
    # page height is known: y = page_height - top - height.
    stack = list(page.objects)
    while stack:
        obj = stack.pop()
        x, y = obj.relative_start
        if y <= -1e9 + 1:
            top = -(y + 1e9)
            height = obj.height or (obj.block.height if obj.block else 0.0)
            obj.relative_start = (x, page.height - top - (height or 0.0))
            doc.warnings.append("converted a top-origin coordinate")
        stack.extend(obj.children)


def load_replica(html_path, css=None, *, strict: bool = False) -> ReplicaDocument:
    """Load a replica from disk, discovering linked style sheets if needed.

    ``css`` may be a list of paths, a directory (all ``*.css`` inside), or
    None to follow ``<link rel="stylesheet">`` references next to the HTML.
    """
    html_path = Path(html_path)
    html = html_path.read_text(encoding="utf-8")
    sheets: list[str] = []
    if css is None:
        for link in re.findall(r"<link[^>]*>", html):
            if not re.search(r'rel=["\']stylesheet["\']', link):
                continue
            href = re.search(r'href=["\']([^"\']+)["\']', link)
            if href is None:
                continue
            path = html_path.parent / href.group(1)
            if path.exists():
                sheets.append(path.read_text(encoding="utf-8"))
    else:
        if isinstance(css, (str, Path)):
            css = [css]
        for entry in css:
            entry = Path(entry)
            if entry.is_dir():
                for path in sorted(entry.glob("*.css")):
                    sheets.append(path.read_text(encoding="utf-8"))
            else:
                sheets.append(entry.read_text(encoding="utf-8"))
    return parse_replica(html, sheets, strict=strict)


def resolve_absolute(doc: ReplicaDocument) -> ReplicaDocument:
    """Assign absolute starting points by breadth-first accumulation.

    First-level objects keep their coordinates; deeper objects add the
    parent's absolute starting point.  Always recomputed from the relative
    coordinates, so applying it twice equals applying it once.
    """
    for page in doc.pages:
        queue: list[tuple[PageObject, tuple[float, float] | None]] = [
            (obj, None) for obj in page.objects]
        while queue:
            next_queue = []
            for obj, parent_abs in queue:
                if parent_abs is None:
                    absolute = obj.relative_start
                else:
                    absolute = (obj.relative_start[0] + parent_abs[0],
                                obj.relative_start[1] + parent_abs[1])
                obj.absolute_start = absolute
                if obj.block is not None:
                    obj.block.absolute_start = absolute
                    obj.block.page_number = page.number
                x, y = absolute
                if not (0 <= x <= doc.page_width and 0 <= y <= page.height):
                    doc.warnings.append(
                        f"page {page.number}: object at ({x:g}, {y:g}) is "
                        f"outside the page bounds")
                next_queue.extend((child, absolute) for child in obj.children)
            queue = next_queue
    return doc


def enumerate_blocks(doc: ReplicaDocument) -> list[TextBlock]:
    """Text blocks in document order: page order, pre-order within a page.

    This order defines the block index ``b`` used by CharRef.
    """
    blocks = []
    for page, obj in doc.iter_objects():
        if obj.kind == "text_block" and obj.block is not None:
            obj.block.index = len(blocks)
            obj.block.page_number = page.number
            blocks.append(obj.block)
    return blocks
