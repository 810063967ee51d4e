"""Event boundary between concrete XML and forests.

The event vocabulary is deliberately tiny: ``StartElement``,
``StartAttribute``, ``Text``, ``End``, ``Eof``.  Attributes surface as
StartAttribute/Text/End triples placed before the element's other content,
so a forest built from the events has attribute nodes as the first children
of their element, each with a single text child.

Reading is incremental: :func:`read_events` returns an expat driver that
feeds its source to the parser in small chunks.  Its ``push(step)`` calls
``step(kind, label)`` (a :class:`NodeKind` and a name or text; both None
for an ``End``) for each node start, text and ``End`` straight from the
expat handlers, building no event objects.  When a start's step returns
False, the driver switches expat to handlers that only count depth, and
the next step is that node's ``End``: this is how the streaming engine
skips input no one can read.  Iterating the reader is one more consumer,
which builds the events of each chunk and yields them; :func:`push` runs
either source through a step.

Writing is a push sink that serialises events as they arrive, which is
what the streaming engine needs to emit output before the input is
finished.
"""

from __future__ import annotations

import io
import xml.parsers.expat
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Union

from .forest import Forest, NodeKind, Tree

_CHUNK = 4096

# The reader and the engine build one event per node, so the events with a
# field are slotted rather than frozen (construction takes about half the
# time); they compare and hash by value and are never mutated.

@dataclass(slots=True, unsafe_hash=True)
class StartElement:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class StartAttribute:
    name: str


@dataclass(slots=True, unsafe_hash=True)
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

#: ``step(kind, label)``, what a reader pushes (see the module docstring).
Step = Callable[[Optional[NodeKind], Optional[str]], bool]

_ELEMENT, _ATTRIBUTE, _TEXT = (NodeKind.ELEMENT, NodeKind.ATTRIBUTE,
                              NodeKind.TEXT)


class XmlError(ValueError):
    pass


def read_events(source, keep_whitespace: bool = False) -> XmlReader:
    """Read XML bytes (or a binary file object, or str) once, by
    :meth:`XmlReader.push` or by iterating its events.

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
    return XmlReader(source, keep_whitespace)


#: the event a reader step stands for, by its kind
_EVENT = {_ELEMENT: StartElement, _ATTRIBUTE: StartAttribute, _TEXT: Text}


class XmlReader:
    """An expat driver over one source (see the module docstring)."""

    __slots__ = ("_source", "_keep_whitespace")

    def __init__(self, source, keep_whitespace: bool):
        self._source = source
        self._keep_whitespace = keep_whitespace

    def push(self, step: Step) -> None:
        """Call ``step`` for each node start, text and ``End``; a start
        whose step returns False is skipped to its ``End``."""
        for _ in self._parse(step):
            pass

    def __iter__(self) -> Iterator[XmlEvent]:
        batch: List[XmlEvent] = []
        append = batch.append

        def step(kind, label):
            append(END if kind is None else _EVENT[kind](label))
            return True

        for _ in self._parse(step):
            yield from batch
            batch.clear()
        yield EOF

    def _parse(self, step: Step) -> Iterator[None]:
        """Parse the source a chunk at a time, calling ``step``; yield
        after each chunk."""
        parser = xml.parsers.expat.ParserCreate()
        parser.ordered_attributes = True
        parser.buffer_text = True
        keep_whitespace = self._keep_whitespace
        text_buf: List[str] = []
        skip = 0  # open elements inside a skipped subtree

        def flush_text():
            content = "".join(text_buf)
            text_buf.clear()
            if not keep_whitespace:
                content = content.strip()
                if not content:
                    return
            step(_TEXT, content)

        def start(name, attrs):
            if text_buf:
                flush_text()
            if not step(_ELEMENT, name):
                set_handlers(skip_start, skip_end, None)
                return
            for i in range(0, len(attrs), 2):
                if step(_ATTRIBUTE, attrs[i]) and attrs[i + 1] != "":
                    step(_TEXT, attrs[i + 1])
                step(None, None)

        def end(name):
            if text_buf:
                flush_text()
            step(None, None)

        def set_handlers(on_start, on_end, on_chars):
            parser.StartElementHandler = on_start
            parser.EndElementHandler = on_end
            parser.CharacterDataHandler = on_chars

        def skip_start(name, attrs):
            nonlocal skip
            skip += 1

        def skip_end(name):
            nonlocal skip
            if skip:
                skip -= 1
            else:
                set_handlers(start, end, text_buf.append)
                step(None, None)

        set_handlers(start, end, text_buf.append)
        read = self._source.read
        while True:
            chunk = read(_CHUNK)
            try:
                parser.Parse(chunk, not chunk)
            except xml.parsers.expat.ExpatError as e:
                raise XmlError(
                    "XML parse error at line %d, column %d: %s"
                    % (e.lineno, e.offset, str(e))
                ) from None
            yield
            if not chunk:
                return


def step_args(ev: XmlEvent) -> tuple:
    """The ``(kind, label)`` of the reader step an event stands for."""
    t = type(ev)
    if t is End:
        return None, None
    if t is Text:
        return _TEXT, ev.content
    return (_ELEMENT if t is StartElement else _ATTRIBUTE), ev.name


def push(src: Union[XmlReader, Iterable[XmlEvent]], step: Step) -> None:
    """Push a reader, or an event stream up to its ``Eof``, into ``step``.
    Only a reader skips what the step drops."""
    if isinstance(src, XmlReader):
        src.push(step)
        return
    for ev in src:
        if type(ev) is Eof:
            return
        step(*step_args(ev))


def build_forest(src: Union[XmlReader, Iterable[XmlEvent]]) -> Forest:
    """Materialise a reader, or an event stream up to its ``Eof``, as a
    forest.  Raises on unbalanced input."""
    root: List[Tree] = []
    # stack of (label, kind, children-list) for open nodes
    stack: List[tuple] = []

    def step(kind, label):
        if kind is None:
            if not stack:
                raise XmlError("unbalanced events: End with no open node")
            label, kind, children = stack.pop()
            if kind is _ATTRIBUTE and not children:
                children = [Tree("", _TEXT, ())]
            (stack[-1][2] if stack else root).append(
                Tree(label, kind, tuple(children)))
        elif kind is _TEXT:
            (stack[-1][2] if stack else root).append(Tree(label, _TEXT, ()))
        else:
            stack.append((label, kind, []))
        return True

    push(src, step)
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
