"""Event boundary between concrete XML and forests.

The event vocabulary is deliberately tiny: ``StartElement``,
``StartAttribute``, ``Text``, ``End``, ``Eof``.  Attributes surface as
StartAttribute/Text/End triples placed before the element's other content,
so a forest built from the events has attribute nodes as the first children
of their element, each with a single text child.

Input reaches a consumer as a *step*, ``step(kind, label)`` (a
:class:`NodeKind` and a name or text; both None for an ``End``), called
for each node start, text and ``End``.  Every source keeps one contract:
a step that returns False after a start refuses that node, its insides
and the rest of its level, and the next step is the parent's ``End``, if
it has one.  This is how the streaming engine skips input no one can read.

A refused level is skipped at expat's speed.  Let P be the innermost
element the step took (for a refused attribute, the element itself).
Handlers count the open elements named P up to P's end in the read of
the refusal.  If the level runs on, a byte search from the refused tag
finds the next ``<P`` or ``</P`` followed by whitespace, ``/`` or ``>``;
expat parses the bytes before it with no handlers, and the handlers
count on from there.  No P tag passes uncounted, so a match in a comment
or CDATA section only stops the search early, and expat still checks
every byte.  Input that is not UTF-8 (a UTF-16 byte order mark or NUL
byte first, or another declared encoding) is counted to the end, as is a
level with a P tag after the refused one in the same read.

Reading is incremental: :func:`read_events` returns an expat driver that
feeds its source to the parser in small chunks and steps straight from
the expat handlers, building no event objects; iterating it builds the
events of each chunk and yields them.  :func:`push` runs a reader or an
event stream through a step.

Writing is a push sink, called with the events of one input step, that
serialises them in one write: the streaming engine emits output before
the input is finished.
"""

from __future__ import annotations

import io
import re
import xml.parsers.expat
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Union

from .forest import Forest, Node, NodeKind

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

#: Push-based consumer of output, called with the events of one input step.
EventSink = Callable[[Iterable[XmlEvent]], None]

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
        """Call ``step`` for each node start, text and ``End``, keeping
        the contract of the module docstring."""
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
        read = self._source.read
        text_buf: List[str] = []
        names: List[str] = []  # the open elements the step took (P last)
        # where a level was refused (None once its search is done), its open
        # elements named P, and the number of bytes given to expat
        refused_at, count, total = None, 0, 0
        head, utf8 = b"", True  # the first bytes; is the input UTF-8

        def parse(data, final=False):
            nonlocal total
            total += len(data)
            try:
                parser.Parse(data, final)
            except xml.parsers.expat.ExpatError as e:
                raise XmlError(
                    "XML parse error at line %d, column %d: %s"
                    % (e.lineno, e.offset, str(e))
                ) from None

        def flush_text():
            content = "".join(text_buf)
            text_buf.clear()
            if not keep_whitespace:
                content = content.strip()
                if not content:
                    return
            step(_TEXT, content)

        def start(name, attrs):
            nonlocal refused_at, count
            if text_buf:
                flush_text()
            if step(_ELEMENT, name):
                names.append(name)
                if not attrs:
                    return
                for i in range(0, len(attrs), 2):
                    if not step(_ATTRIBUTE, attrs[i]):
                        break  # the rest of the element goes with it
                    if attrs[i + 1] != "":
                        step(_TEXT, attrs[i + 1])
                    step(None, None)
                else:
                    return
                name = None  # the element's own end closes the level
            elif not names:
                set_handlers(None, None, None)  # a refused root: no more steps
                return
            count = 1 if name == names[-1] else 0  # the refused one, if open
            refused_at = parser.CurrentByteIndex
            set_handlers(skip_start, skip_end, None)

        def end(name):
            if text_buf:
                flush_text()
            names.pop()
            step(None, None)

        def set_handlers(on_start, on_end, on_chars):
            parser.StartElementHandler = on_start
            parser.EndElementHandler = on_end
            parser.CharacterDataHandler = on_chars

        def skip_start(name, attrs):
            nonlocal count
            if name == names[-1]:
                count += 1

        def skip_end(name):
            nonlocal count, refused_at
            if name == names[-1]:
                if count:
                    count -= 1
                else:
                    refused_at = None
                    set_handlers(start, end, text_buf.append)
                    end(name)

        def skip_level(chunk):
            """Skip on in the level left open by ``chunk`` (see the module
            docstring); return the bytes parsed last, b"" at the end."""
            nonlocal refused_at
            name = names[-1].encode()
            mark = re.compile(rb"</?%s[\s/>]" % re.escape(name)).search
            # from after the refused tag's "<"; chunk ends at byte total
            buf = chunk[max(refused_at + 1 - total + len(chunk), 0):]
            refused_at = None
            fed = len(buf)  # the bytes of buf given to expat
            if not utf8 or mark(buf):
                return chunk  # count to the end of the level
            set_handlers(None, None, None)
            hold = len(name) + 3  # a tag may span two reads
            while True:
                more = read(_CHUNK)
                cut = max(len(buf) - hold, 0)
                if cut > fed:
                    parse(buf[fed:cut])
                    fed = cut
                buf = buf[cut:] + more
                fed -= cut
                m = mark(buf)
                if m or not more:
                    break
            at = m.start() if m else len(buf)
            parse(buf[fed:at])
            set_handlers(skip_start, skip_end, None)
            buf = buf[max(at, fed):]
            parse(buf, not more)
            return buf if more else b""

        def xml_decl(version, encoding, standalone):
            nonlocal utf8
            if encoding and encoding.lower() not in ("utf-8", "us-ascii"):
                utf8 = False

        set_handlers(start, end, text_buf.append)
        parser.XmlDeclHandler = xml_decl
        while True:
            chunk = read(_CHUNK)
            if len(head) < 2:  # UTF-16 starts with a BOM or a NUL byte
                head += chunk[:2]
                if b"\0" in head or head[:2] in (b"\xfe\xff", b"\xff\xfe"):
                    utf8 = False
            parse(chunk, not chunk)
            while refused_at is not None and chunk:
                chunk = skip_level(chunk)
            yield
            if not chunk:
                return


def push(src: Union[XmlReader, Iterable[XmlEvent]], step: Step) -> None:
    """Push a reader, or an event stream up to its ``Eof``, into ``step``
    (see the module docstring).  An event stream that ends inside a
    refused level raises :class:`XmlError`, as cut bytes do."""
    if isinstance(src, XmlReader):
        src.push(step)
        return
    depth = 0  # open nodes whose start the step took
    skip = 0  # in a refused level: 1 + its open nodes, the refused one too
    for ev in src:
        t = type(ev)  # event classes have no subclasses
        if t is Eof:
            break
        if skip:
            if t is not End:
                skip += t is not Text
                continue
            skip -= 1
            if skip:
                continue
        if t is End:
            depth -= 1
            step(None, None)
        elif t is Text:
            step(_TEXT, ev.content)
        elif step(_ELEMENT if t is StartElement else _ATTRIBUTE, ev.name):
            depth += 1
        else:
            skip = 2
    if skip and depth + skip > 1:
        raise XmlError("unbalanced events: input ended with %d open elements"
                       % (depth + skip - 1))


def build_forest(src: Union[XmlReader, Iterable[XmlEvent]]) -> Forest:
    """Materialise a reader, or an event stream up to its ``Eof``, as a
    forest.  Raises on unbalanced input."""
    root: List[Node] = []
    # stack of (label, kind, children-list) for open nodes
    stack: List[tuple] = []

    def step(kind, label):
        if kind is None:
            if not stack:
                raise XmlError("unbalanced events: End with no open node")
            label, kind, children = stack.pop()
            if kind is _ATTRIBUTE and not children:
                children = [Node("", _TEXT, ())]
            (stack[-1][2] if stack else root).append(
                Node(label, kind, tuple(children)))
        elif kind is _TEXT:
            (stack[-1][2] if stack else root).append(Node(label, _TEXT, ()))
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
            if t.kind is _TEXT:
                yield Text(t.label)
            else:
                yield (StartElement(t.label) if t.kind is _ELEMENT
                       else StartAttribute(t.label))
                stack.append(iter(t.children))
                break
        else:
            stack.pop()
            if stack:
                yield END


def write_events(events: Iterable[XmlEvent]) -> bytes:
    """Serialise an event stream to bytes, by one call of the sink."""
    out = io.BytesIO()
    sink_to(out)(events)
    return out.getvalue()


def sink_to(out) -> EventSink:
    """An event sink writing serialised XML to a binary file object; it
    keeps the names of the open elements for their end tags.  A call
    makes at most one write, of the bytes of all its events, also when it
    raises :class:`XmlError`.  It looks up ``out.write`` at every write, so
    the file object may replace it."""
    stack: List[str] = []  # the names of the open elements
    tag_open = False  # the last start tag is not closed yet
    # the attribute read: its name, then its escaped text
    attr: Optional[List[str]] = None

    def sink(events: Iterable[XmlEvent]):
        nonlocal tag_open, attr
        parts: List[str] = []
        add = parts.append
        try:
            # event classes have no subclasses: dispatch on the exact type,
            # the most frequent first
            for ev in events:
                t = type(ev)
                if t is End:
                    if attr is not None:
                        add(' %s="%s"' % (attr[0], "".join(attr[1:])))
                        attr = None
                    elif tag_open:
                        stack.pop()
                        add("/>")
                        tag_open = False
                    elif stack:
                        add("</%s>" % stack.pop())
                    else:
                        raise XmlError(
                            "unbalanced events: End with no open element")
                elif t is StartElement:
                    add(("><" if tag_open else "<") + ev.name)
                    stack.append(ev.name)
                    tag_open = True
                elif t is Text:
                    text = ev.content.replace("&", "&amp;").replace(
                        "<", "&lt;").replace(">", "&gt;")
                    if attr is not None:
                        attr.append(text.replace('"', "&quot;"))
                    else:
                        if tag_open:
                            add(">")
                            tag_open = False
                        add(text)
                elif t is StartAttribute:
                    if not tag_open:
                        raise XmlError("attribute event outside a start tag")
                    attr = [ev.name]
                elif t is Eof and stack:
                    raise XmlError("Eof with %d open elements" % len(stack))
        finally:
            if parts:
                out.write("".join(parts).encode("utf-8"))

    return sink


def forest_to_bytes(f: Forest) -> bytes:
    return write_events(forest_events(f))


def bytes_to_forest(data, keep_whitespace: bool = False) -> Forest:
    return build_forest(read_events(data, keep_whitespace=keep_whitespace))
