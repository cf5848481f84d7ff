"""Ingestion of the HTML replica of a PDF into a positioned object tree.

The replica (as produced by a PDF-to-HTML converter) is a ``<div
id="page-container">`` holding one ``div`` per page; pages hold object divs
whose geometry is encoded through CSS classes.  This module resolves every
class reference against the style sheets, builds the page/object tree,
converts coordinates to the internal convention (origin at the lower-left
page corner, y increasing upward), and gives each text block a flat source
map (see TextBlock), enough to splice styling tags back into the original
markup byte-exactly.

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
* a ``transform`` rotates a text block when it maps the x axis off
  itself, so a scale or a translation keeps it upright; one that cannot be
  read leaves it upright, with a warning.  ``rotate()`` takes every CSS
  angle unit.

The markup is read in one pass of one compiled token pattern, so source
offsets are match positions; ``script``, ``style`` and ``title`` content
is raw text, skipped up to its closing tag.  A leaf text div (a div that
is not self-closing and holds one run of plain text: no tag, no
reference) is one token, together with the whitespace before it, and
becomes its text block directly; every other div is built from its
start tag, content and end tag.
A ``<`` ends a tag's name and unquoted attributes, and an unterminated
comment runs to the end of the input, which keeps the scan linear.  Each
distinct start tag and (class, style) pair is read once.  A character
reference's source range ends where it does (``;`` only if present); one
that cannot be decoded (an unknown name, a surrogate or a code point
beyond U+10FFFF) stays as its literal source text, mapped 1:1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from html import unescape as _unescape
from html.entities import html5 as _ENTITIES
from pathlib import Path

from .errors import ReplicaFormatError, ReplicaParseError

# Class of the wraps that highlighting injects.  It carries no geometry, so
# the ingester treats it as known even though no style sheet defines it.
HL_CLASS = "hl"

# CSS properties the ingester resolves from class rules / inline styles.
_NUMERIC_PROPS = ("left", "bottom", "top", "width", "height", "font-size")
_VOID_TAGS = {"img", "br", "hr", "meta", "link", "input", "base", "source"}


@dataclass(slots=True)
class TextBlock:
    """A positioned run of text; the atomic unit of all later analysis.

    ``x``, ``y`` (the absolute starting point) and ``page_number`` are set
    by resolve_absolute.  ``internal_gaps`` holds the width of each inserted
    spacing inside the block.  ``source_map`` holds (text offset, length,
    source start, source end) of each text run, flat: a plain run maps
    1:1, a decoded character reference maps its text onto all of it.
    """

    text: str
    font_size: float = 0.0
    rotated: bool = False
    internal_gaps: list[float] = field(default_factory=list)
    x: float = 0.0
    y: float = 0.0
    index: int = -1                      # position in ReplicaDocument.blocks
    page_number: int = 0
    source_map: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class CharRef:
    """Source of one end of a located span: block index ``b``, offset ``t``
    within it."""

    b: int
    t: int


@dataclass(slots=True)
class PageObject:
    kind: str                            # text_block | image | line | container
    relative_start: tuple[float, float] = (0.0, 0.0)
    top: float | None = None             # top-origin y, when no bottom given
    width: float | None = None
    height: float | None = None
    children: list["PageObject"] = field(default_factory=list)
    block: TextBlock | None = None
    absolute_start: tuple[float, float] | None = None
    attrs: dict = field(default_factory=dict)


@dataclass(slots=True)
class Page:
    number: int
    width: float
    height: float
    objects: list[PageObject] = field(default_factory=list)


@dataclass(slots=True)
class ReplicaDocument:
    pages: list[Page]
    warnings: list[str] = field(default_factory=list)
    source: str = ""
    blocks: list[TextBlock] = field(default_factory=list)  # enumerate_blocks

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
_NUMBER = r"[+-]?(?:\d*\.)?\d+(?:[eE][+-]?\d+)?"
# a CSS number, unitless, in px, or in pt (4/3 px)
_NUM_RE = re.compile(rf"^({_NUMBER})(px|pt)?$")
_MATRIX_RE = re.compile(r"matrix\(\s*([^)]*)\)", re.I)
_ROTATE_RE = re.compile(rf"rotate\(\s*({_NUMBER})(deg|g?rad|turn)?\s*\)", re.I)
_SCALE_RE = re.compile(rf"scale(y?)x?\(\s*({_NUMBER})", re.I)
_UPRIGHT_RE = re.compile(r"none|translate[xy]?\([^)]*\)", re.I)
_RADIANS_PER = {"deg": math.pi / 180, "grad": math.pi / 200, "rad": 1.0,
                "turn": 2 * math.pi}


def _parse_declarations(body: str) -> dict[str, object]:
    """Parse a CSS declaration block into the properties we understand.

    A ``transform`` is kept as its ``rotated`` flag (see _rotated)."""
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
                number = float(m[1])
                props[name] = number * 4 / 3 if m[2] == "pt" else number
        elif name in ("transform", "-webkit-transform"):
            props["rotated"] = _rotated(value)
    return props


def _rotated(value: str) -> bool | None:
    """Whether a CSS transform turns text off its left-to-right baseline,
    that is, whether it maps the x axis anywhere but onto itself; None when
    it cannot be read.  A scale or a translation keeps text upright."""
    m = _MATRIX_RE.search(value)
    if m:
        parts = m[1].replace(",", " ").split()
        if len(parts) >= 4:
            try:
                return _off_axis(float(parts[0]), float(parts[1]))
            except ValueError:
                return None
    m = _ROTATE_RE.search(value)
    if m and (m[2] or float(m[1]) == 0):     # only 0 may drop its unit
        t = float(m[1]) * _RADIANS_PER[(m[2] or "rad").lower()]
        return _off_axis(math.cos(t), math.sin(t))
    m = _SCALE_RE.search(value)
    if m:
        return not m[1] and float(m[2]) < 0
    return False if _UPRIGHT_RE.fullmatch(value) else None


def _off_axis(a: float, b: float) -> bool:
    """Whether the image (a, b) of the unit x vector leaves the +x axis."""
    return abs(b) > 1e-9 or a < 0


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


# ---------------------------------------------------------------------------
# HTML parsing
# ---------------------------------------------------------------------------

# One token per match; the group that closes last (``lastindex``) names its
# kind, and a comment, doctype or processing instruction has none.  Each
# alternative reads a stretch of input one way only, and a tag stops at a
# '<' outside quotes, so a failed match costs the text it read up to there.
# The first reads a whole leaf text div, with the whitespace before it: a
# div start tag that is not self-closing (a self-closing one ends in '/'),
# one run of plain text and the div's closing tag.
_TOKEN_RE = re.compile(r"""
    (\s*)<[dD][iI][vV](?![^\t\n\r\f\ />\x00<])          # 1 space before a leaf,
    ([^<>"']*(?:(?:"[^"]*"|'[^']*')[^<>"']*)*)(?<!/)>   # 2 the rest of its tag
    ([^<&]+)                                            # 3 and its text
    </\s*[dD][iI][vV](?![^\t\n\r\f\ />\x00<])[^<>]*>
  | ([^<&]+)                                            # 4 text
  | <([a-zA-Z][^\t\n\r\f\ />\x00<]*)                    # 5 start tag name,
    ([^<>"']*(?:(?:"[^"]*"|'[^']*')[^<>"']*)*)>         # 6 and the rest
  | </\s*([a-zA-Z][^\t\n\r\f\ />\x00<]*)[^<>]*>         # 7 end tag name
  | <!--.*?(?:--\s*>|\Z) | <[!?/][^<>]*>
  | &\#([0-9]+|[xX][0-9a-fA-F]+)(?=[^0-9a-fA-F]);?      # 8 numeric reference
  | &([a-zA-Z][-.a-zA-Z0-9]*)(?=[^a-zA-Z0-9]);?         # 9 named reference
  | (&\#?|<)                                            # 10 stray '&' or '<'
""", re.X | re.S)
# attributes as the standard library's tolerant HTML parser reads them
_ATTR_GAP_RE = re.compile(r"(?:\s|/(?!>))*")
_ATTR_RE = re.compile(r"""((?<=['"\s/])[^\s/>][^\s/=>]*)"""
                      r"""(\s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?"""
                      r"""(?:\s|/(?!>))*""")
# elements whose content is raw text, skipped up to the closing tag
_RAW_TEXT_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.I)
                 for tag in ("script", "style", "title")}
# the content of each style element, read apart from the token pass: a
# start tag whose name ends there and that is not self-closing, up to the
# closing tag that ends its raw text
_STYLE_BLOCK_RE = re.compile(
    r"<style(?=[\t\n\r\f />\x00])[^>]*(?<!/)>(.*?)"
    + _RAW_TEXT_END["style"].pattern, re.S | re.I)


def _read_attrs(rest: str):
    """``(attrs, (class, style), self_closing)`` of a start tag, from its
    text between the name and the closing '>'.  Names are lower-cased and
    values unescaped."""
    text = rest + ">"
    attrs: dict[str, str | None] = {}
    k = _ATTR_GAP_RE.match(text).end()
    while m := _ATTR_RE.match(text, k):
        name, assign, value = m.groups()
        if not assign:
            value = None
        elif value[:1] in ("'", '"') and value[-1:] == value[:1]:
            value = value[1:-1]
        attrs[name.lower()] = _unescape(value) if value else value
        k = m.end()
    key = (attrs.get("class") or "", attrs.get("style") or "")
    return attrs, key, text[k:].strip() == "/>"


def _char(digits: str) -> str | None:
    """The character of a numeric reference (``65``, ``x41``), or None for
    a code point that is a surrogate or beyond U+10FFFF."""
    hexa = digits[0] in "xX"
    digits = digits[hexa:].lstrip("0")
    if len(digits) > 7:
        return None
    cp = int(digits or "0", 16 if hexa else 10)
    return None if cp > 0x10FFFF or 0xD800 <= cp < 0xE000 else chr(cp)


def _start(props) -> tuple[float, float]:
    """The relative starting point of resolved properties."""
    return float(props.get("left", 0.0)), float(props.get("bottom", 0.0))


def _top(props) -> float | None:
    """The top-origin y of resolved properties, read only without a
    ``bottom``."""
    top = props.get("top") if "bottom" not in props else None
    return None if top is None else float(top)


class _StartTags(dict):
    """The ``_read_attrs`` of each distinct start-tag text, read once, so
    equal texts share one attribute dict."""

    def __missing__(self, rest):
        parsed = self[rest] = _read_attrs(rest)
        return parsed


class _Node:
    """Builder-side element state while its tag is open; ``pieces`` holds
    the (decoded text, source start, source end) of each text run."""

    __slots__ = ("tag", "attrs", "key", "children", "pieces", "gaps")

    def __init__(self, tag, attrs, key):
        self.tag = tag
        self.attrs = attrs
        self.key = key
        self.children: list[PageObject] = []
        self.pieces: list[tuple[str, int, int]] = []
        self.gaps: list[float] = []


class _ReplicaParser:
    """Builds the object tree in one pass of _TOKEN_RE over the source.

    Equal start-tag texts share one attribute dict, and each distinct
    (class, style) pair is resolved once, when the first element carrying
    it closes, so warnings keep their order.
    """

    def __init__(self, source, classmap, strict):
        self.source = source
        self.classmap = classmap
        self.strict = strict
        self.warnings: list[str] = []
        self.stack: list[_Node] = []
        self.divs: list[_Node] = []     # the open divs, innermost last
        self.top_level: list[PageObject] = []
        self._unknown: set[str] = set()
        self._tags = _StartTags()
        self._props: dict[tuple[str, str], dict[str, object]] = {}

    def _fail(self, message, offset):
        offset = len(self.source[:offset].encode("utf-8"))
        raise ReplicaParseError(message, offset)

    def parse(self) -> list[PageObject]:
        source, stack, divs, tags = (self.source, self.stack, self.divs,
                                     self._tags)
        pos = 0
        while pos is not None:
            tokens, pos = _TOKEN_RE.finditer(source, pos), None
            for m in tokens:
                kind = m.lastindex
                if kind == 3:
                    self._leaf(m)
                    continue
                if kind == 4 or kind == 10:
                    text = m[kind]
                elif kind == 6:
                    parsed = tags[m[6]]
                    tag = m[5].lower()
                    if tag in _RAW_TEXT_END and not parsed[2]:
                        end = _RAW_TEXT_END[tag].search(source, m.end())
                        if end is None:
                            self._fail(f"unclosed <{tag}> at end of input",
                                       len(source))
                        pos = end.end()
                        break
                    self._start_tag(tag, *parsed)
                    continue
                elif kind == 7:
                    self._end_tag(m[7].lower(), m.start())
                    continue
                elif kind == 8:
                    # a reference that cannot be decoded stays literal
                    text = _char(m[8]) or m[0]
                elif kind == 9:
                    text = _ENTITIES.get(m[9] + ";") or m[0]
                else:                            # comment, doctype, PI
                    continue
                if divs:
                    divs[-1].pieces.append((text, m.start(), m.end()))
                elif text.strip():
                    self.warnings.append(f"text outside any element "
                                         f"ignored: {text.strip()[:30]!r}")
        if stack:
            self._fail(f"unclosed <{stack[-1].tag}> at end of input",
                       len(source))
        return self.top_level

    # -- class resolution ---------------------------------------------------

    def _resolve(self, key: tuple[str, str]) -> dict[str, object]:
        """The resolved properties of a (class, style) pair."""
        found = self._props.get(key)
        if found is None:
            classes, style = key
            props: dict[str, object] = {}
            for cls in classes.split():
                rule = self.classmap.get(cls)
                if rule is None:
                    if cls != HL_CLASS and cls not in self._unknown:
                        self._unknown.add(cls)
                        msg = (f"unknown class {cls!r}; defaulting its "
                               f"properties to 0")
                        if self.strict:
                            raise ReplicaFormatError(msg)
                        self.warnings.append(msg)
                    continue
                props.update(rule)
            if style:
                props.update(_parse_declarations(style))
            found = self._props[key] = props
        return found

    # -- tree building --------------------------------------------------------

    def _start_tag(self, tag, attrs, key, self_closing):
        if tag == "img":
            props = self._resolve(key)
            self._attach(PageObject(
                kind="image", relative_start=_start(props),
                width=props.get("width"), height=props.get("height")))
        elif not (self_closing or tag in _VOID_TAGS):
            node = _Node(tag, attrs, key)
            self.stack.append(node)
            if tag == "div":
                self.divs.append(node)

    def _end_tag(self, tag, offset):
        if tag in _VOID_TAGS:
            return
        stack = self.stack
        if not stack:
            self._fail(f"unexpected closing tag </{tag}>", offset)
        if stack[-1].tag != tag:
            self._fail(f"mismatched closing tag </{tag}> (open element is "
                       f"<{stack[-1].tag}>)", offset)
        node = stack.pop()
        if tag == "div":
            self.divs.pop()
            self._close_div(node)
        elif tag == "span":
            self._close_span(node)
        # other elements (html, body, head, ...) are transparent

    def _close_span(self, node: _Node):
        # Inline and transparent: text already flowed into the nearest div.
        # A width-resolving class marks inserted spacing inside a text block.
        width = self._resolve(node.key).get("width")
        if self.divs and width is not None:
            self.divs[-1].gaps.append(float(width))

    def _leaf(self, m):
        """A leaf text div, read whole by the first alternative of
        _TOKEN_RE: one text block with one text run."""
        attrs, key, _ = self._tags[m[2]]
        divs = self.divs
        # the space before the leaf belongs to the enclosing div, whose
        # text only its stray-text check reads, stripped: a space that
        # would lead that text is left out
        if divs and divs[-1].pieces and m.end(1) > m.start():
            divs[-1].pieces.append((m[1], m.start(), m.end(1)))
        text = m[3]
        self._attach(self._text_object(
            self._resolve(key), attrs, text,
            (0, len(text), m.start(3), m.end(3)), []))

    def _close_div(self, node: _Node):
        props = self._resolve(node.key)
        text = "".join([piece for piece, _, _ in node.pieces])
        if text and not node.children:
            source_map, offset = [], 0
            for piece, start, end in node.pieces:
                source_map += (offset, len(piece), start, end)
                offset += len(piece)
            self._attach(self._text_object(props, node.attrs, text,
                                           tuple(source_map), node.gaps))
            return
        width, height = props.get("width"), props.get("height")
        if node.children:
            kind = "container"
            if text.strip():
                self.warnings.append(
                    f"stray text {text.strip()[:30]!r} inside a container div")
        elif width is not None and height is not None:
            kind = "line"
        else:
            kind = "container"
        self._attach(PageObject(
            kind=kind, relative_start=_start(props), width=width,
            height=height, top=_top(props), children=node.children,
            attrs=node.attrs))

    def _text_object(self, props, attrs, text, source_map, gaps):
        """The text-block object of a div with the resolved ``props``,
        with its warnings."""
        rotated = props.get("rotated", False)
        block = TextBlock(
            text=text.replace("\n", " "),
            font_size=float(props.get("font-size", 0.0)),
            rotated=bool(rotated),
            internal_gaps=gaps,
            source_map=source_map,
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
        return PageObject(
            kind="text_block", relative_start=_start(props),
            height=props.get("height"), top=_top(props), block=block,
            attrs=attrs)

    def _attach(self, obj: PageObject):
        # spans are transparent: children attach to the nearest enclosing div,
        # keeping the pre-order identical to the source order
        if self.divs:
            self.divs[-1].children.append(obj)
        else:
            self.top_level.append(obj)


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
    parser = _ReplicaParser(html, parse_stylesheets(sheets), strict)
    return _build_document(parser.parse(), parser.warnings, html)


def _build_document(top_level, warnings, source) -> ReplicaDocument:
    """The document of a parsed object tree: the pages of its page
    container, checked and sorted by number."""
    container = _find_container(top_level)
    if container is None:
        raise ReplicaFormatError('no <div id="page-container"> root found')

    pages = []
    for obj in container.children:
        number = _page_number(obj.attrs)
        if number is None:
            warnings.append("non-page child of the page container skipped")
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

    first = pages[0]
    for page in pages:
        if page.width != first.width or page.height != first.height:
            warnings.append(
                f"page {page.number} size {page.width}x{page.height} differs "
                f"from page 1")
    return ReplicaDocument(pages=pages, warnings=warnings, source=source)


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
    parent's absolute starting point.  A top-origin object's relative y is
    ``page height - top - height``.  Always recomputed from the relative
    coordinates, and the warnings of an earlier call are replaced, so
    applying it twice equals applying it once.
    """
    doc.warnings[:] = [w for w in doc.warnings
                       if w != "converted a top-origin coordinate"
                       and not w.endswith(" is outside the page bounds")]
    for page in doc.pages:
        queue: list[tuple[PageObject, tuple[float, float] | None]] = [
            (obj, None) for obj in page.objects]
        while queue:
            next_queue = []
            for obj, parent_abs in queue:
                absolute = obj.relative_start
                if obj.top is not None:
                    absolute = (absolute[0],
                                page.height - obj.top - (obj.height or 0.0))
                    doc.warnings.append("converted a top-origin coordinate")
                if parent_abs is not None:
                    absolute = (absolute[0] + parent_abs[0],
                                absolute[1] + parent_abs[1])
                obj.absolute_start = absolute
                if obj.block is not None:
                    obj.block.x, obj.block.y = absolute
                    obj.block.page_number = page.number
                x, y = absolute
                if not (0 <= x <= page.width and 0 <= y <= page.height):
                    doc.warnings.append(
                        f"page {page.number}: object at ({x:g}, {y:g}) is "
                        f"outside the page bounds")
                next_queue.extend((child, absolute) for child in obj.children)
            queue = next_queue
    return doc


def enumerate_blocks(doc: ReplicaDocument) -> list[TextBlock]:
    """Number the text blocks in document order (page order, pre-order
    within a page), keep them as ``doc.blocks`` and return that list.

    This is the one place that numbers blocks: a block's ``index`` (the
    ``b`` of a CharRef) is its position in ``doc.blocks``.
    """
    doc.blocks = [obj.block for _, obj in doc.iter_objects()
                  if obj.kind == "text_block" and obj.block is not None]
    for i, block in enumerate(doc.blocks):
        block.index = i
    return doc.blocks
