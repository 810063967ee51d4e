"""Event boundary between concrete XML and forests.

The event vocabulary is deliberately tiny: ``StartElement``,
``StartAttribute``, ``Text``, ``End``, ``Eof``.  Attributes surface as
StartAttribute/Text/End triples placed before the element's other content,
so a forest built from the events has attribute nodes as the first children
of their element, each with a single text child.

Reading is incremental (expat, fed in small chunks); writing is a push
sink that serialises events as they arrive, which is what the streaming
engine needs to emit output before the input is finished.
"""

from __future__ import annotations

import io
import xml.parsers.expat
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Union

from .forest import Forest, NodeKind, Tree

_CHUNK = 4096


@dataclass(frozen=True)
class StartElement:
    name: str


@dataclass(frozen=True)
class StartAttribute:
    name: str


@dataclass(frozen=True)
class Text:
    content: str


@dataclass(frozen=True)
class End:
    pass


@dataclass(frozen=True)
class Eof:
    pass


XmlEvent = Union[StartElement, StartAttribute, Text, End, Eof]
END = End()
EOF = Eof()

#: Push-based consumer of events.
EventSink = Callable[[XmlEvent], None]


class XmlError(ValueError):
    pass


def read_events(source, keep_whitespace: bool = False) -> Iterator[XmlEvent]:
    """Parse XML bytes (or a binary file object, or str) into an event stream.

    Text is coalesced across entity/chunk boundaries.  With the default
    ``keep_whitespace=False``, element text content is stripped of leading
    and trailing whitespace and whitespace-only runs are dropped; attribute
    values are always kept verbatim.  Comments, processing instructions and
    DOCTYPE declarations are skipped.  Malformed input raises
    :class:`XmlError` with the expat position.
    """
    if isinstance(source, str):
        source = source.encode("utf-8")
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(bytes(source))

    parser = xml.parsers.expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True

    pending: List[XmlEvent] = []
    text_buf: List[str] = []

    def flush_text():
        if not text_buf:
            return
        content = "".join(text_buf)
        text_buf.clear()
        if not keep_whitespace:
            content = content.strip()
            if not content:
                return
        pending.append(Text(content))

    def start(name, attrs):
        flush_text()
        pending.append(StartElement(name))
        for i in range(0, len(attrs), 2):
            pending.append(StartAttribute(attrs[i]))
            if attrs[i + 1] != "":
                pending.append(Text(attrs[i + 1]))
            pending.append(END)

    def end(name):
        flush_text()
        pending.append(END)

    def chars(data):
        text_buf.append(data)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars

    def events() -> Iterator[XmlEvent]:
        while True:
            chunk = source.read(_CHUNK)
            try:
                parser.Parse(chunk, not chunk)
            except xml.parsers.expat.ExpatError as e:
                raise XmlError(
                    "XML parse error at line %d, column %d: %s"
                    % (e.lineno, e.offset, str(e))
                ) from None
            yield from pending
            pending.clear()
            if not chunk:
                yield EOF
                return

    return events()


def build_forest(src: Iterable[XmlEvent]) -> Forest:
    """Materialise an event stream as a forest.  Raises on unbalanced input."""
    root: List[Tree] = []
    # stack of (label, kind, children-list) for open nodes
    stack: List[tuple] = []

    def emit(t: Tree):
        (stack[-1][2] if stack else root).append(t)

    for ev in src:
        if isinstance(ev, StartElement):
            stack.append((ev.name, NodeKind.ELEMENT, []))
        elif isinstance(ev, StartAttribute):
            stack.append((ev.name, NodeKind.ATTRIBUTE, []))
        elif isinstance(ev, Text):
            emit(Tree(ev.content, NodeKind.TEXT, ()))
        elif isinstance(ev, End):
            if not stack:
                raise XmlError("unbalanced events: End with no open node")
            label, kind, children = stack.pop()
            if kind is NodeKind.ATTRIBUTE and not children:
                children = [Tree("", NodeKind.TEXT, ())]
            emit(Tree(label, kind, tuple(children)))
        elif isinstance(ev, Eof):
            break
    if stack:
        raise XmlError("unbalanced events: %d nodes still open" % len(stack))
    return tuple(root)


def forest_events(f: Forest) -> Iterator[XmlEvent]:
    """The event stream of a forest (without a trailing Eof).  Walks an
    explicit stack of child iterators, so depth is not limited by Python's
    recursion limit."""
    stack = [iter(f)]
    while stack:
        for t in stack[-1]:
            if t.kind is NodeKind.TEXT:
                yield Text(t.label)
            else:
                yield (StartAttribute(t.label) if t.kind is NodeKind.ATTRIBUTE
                       else StartElement(t.label))
                stack.append(iter(t.children))
                break
        else:
            stack.pop()
            if stack:
                yield END


def _escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(s: str) -> str:
    return _escape_text(s).replace('"', "&quot;")


def write_events(events: Iterable[XmlEvent]) -> bytes:
    """Serialise an event stream to bytes."""
    out = io.BytesIO()
    sink = sink_to(out)
    for ev in events:
        sink(ev)
    return out.getvalue()


def sink_to(out) -> EventSink:
    """An event sink writing serialised XML to a binary file object."""
    writer = _StackWriter(out)
    return writer


class _StackWriter:
    """Serialiser that tracks open element names for proper end tags."""

    def __init__(self, out):
        self.out = out
        self.stack: List[str] = []
        self._tag_open = False
        self._in_attr = False
        self._attr: List[str] = []

    def _close_tag(self):
        if self._tag_open:
            self.out.write(b">")
            self._tag_open = False

    def __call__(self, ev: XmlEvent):
        if isinstance(ev, StartElement):
            self._close_tag()
            self.out.write(("<" + ev.name).encode("utf-8"))
            self.stack.append(ev.name)
            self._tag_open = True
        elif isinstance(ev, StartAttribute):
            if not self._tag_open:
                raise XmlError("attribute event outside a start tag")
            self._in_attr = True
            self._attr = [ev.name]
        elif isinstance(ev, Text):
            if self._in_attr:
                self._attr.append(ev.content)
            else:
                self._close_tag()
                self.out.write(_escape_text(ev.content).encode("utf-8"))
        elif isinstance(ev, End):
            if self._in_attr:
                name, value = self._attr[0], "".join(self._attr[1:])
                self.out.write(
                    (' %s="%s"' % (name, _escape_attr(value))).encode("utf-8")
                )
                self._in_attr = False
            elif self._tag_open:
                self.stack.pop()
                self.out.write(b"/>")
                self._tag_open = False
            else:
                if not self.stack:
                    raise XmlError("unbalanced events: End with no open element")
                self.out.write(("</%s>" % self.stack.pop()).encode("utf-8"))
        elif isinstance(ev, Eof):
            if self.stack:
                raise XmlError("Eof with %d open elements" % len(self.stack))


def forest_to_bytes(f: Forest) -> bytes:
    return write_events(list(forest_events(f)) + [EOF])


def bytes_to_forest(data, keep_whitespace: bool = False) -> Forest:
    return build_forest(read_events(data, keep_whitespace=keep_whitespace))
