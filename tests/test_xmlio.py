import random

import pytest

from mfx.forest import NodeKind, attr, elem, text
from mfx.gen import generate_bytes
from mfx.xmlio import (_CHUNK, END, EOF, StartAttribute, StartElement, Text,
                       XmlError, build_forest, bytes_to_forest, forest_events,
                       forest_to_bytes, read_events, write_events)

from util import random_forest


def test_book_events():
    events = list(read_events(b'<book isbn="123"><author>Knuth</author></book>'))
    assert events == [
        StartElement("book"), StartAttribute("isbn"), Text("123"), END,
        StartElement("author"), Text("Knuth"), END, END, EOF,
    ]


def test_empty_element_events():
    assert list(read_events(b"<a/>")) == [StartElement("a"), END, EOF]


def test_build_forest_book():
    f = bytes_to_forest(b'<book isbn="123" price="$99"><author>Knuth'
                        b'</author><title>Art of Programming</title></book>')
    book = f[0]
    assert book.label == "book" and len(book.children) == 4
    kinds = [c.kind for c in book.children]
    assert kinds[:2] == [NodeKind.ATTRIBUTE, NodeKind.ATTRIBUTE]
    assert book.children[0].children[0].label == "123"
    assert book.children[2].children == (text("Knuth"),)


def test_whitespace_dropped_by_default():
    f = bytes_to_forest(b"<a>\n  <b>hi\n  </b>\n</a>")
    assert f == (elem("a", elem("b", text("hi"))),)


def test_whitespace_kept_on_request():
    f = bytes_to_forest(b"<a> <b>hi </b></a>", keep_whitespace=True)
    assert f[0].children[0].label == " "
    assert f[0].children[1].children[0].label == "hi "


def test_comments_and_pis_skipped():
    f = bytes_to_forest(b"<a><!-- c --><?pi data?><b/></a>")
    assert f == (elem("a", elem("b")),)


def test_malformed_is_positioned():
    with pytest.raises(XmlError) as ei:
        bytes_to_forest(b"<a><b></a>")
    assert "line" in str(ei.value)


def test_escaping_roundtrip():
    f = (elem("a", attr("k", 'v"<&'), text("x <&> y")),)
    data = forest_to_bytes(f)
    assert b"&lt;" in data and b"&amp;" in data
    assert bytes_to_forest(data, keep_whitespace=True) == f


def test_unbalanced_sink_rejected():
    with pytest.raises(XmlError):
        write_events([StartElement("a"), EOF])
    with pytest.raises(XmlError):
        build_forest([StartElement("a"), EOF])


def test_roundtrip_random_documents():
    rng = random.Random(21)
    for _ in range(100):
        f = random_forest(rng, budget=18, attrs=True)
        if not f:
            continue
        # wrap in a root so the bytes form a document
        doc = (elem("root", *f),)
        data = forest_to_bytes(doc)
        events = list(read_events(data))
        assert build_forest(iter(events)) == doc
        # event sequence is reproduced exactly after a second trip
        assert list(read_events(write_events(events))) == events


def test_forest_events_inverse():
    rng = random.Random(22)
    for _ in range(100):
        f = random_forest(rng, budget=15, attrs=True)
        events = list(forest_events(f)) + [EOF]
        assert build_forest(iter(events)) == f


def test_deep_chain_survives_a_round_trip():
    # forest_events and forest equality walk explicit stacks, so depth is
    # not bounded by the recursion limit
    data = generate_bytes("deep-chain", 5000)
    f = bytes_to_forest(data)
    assert forest_to_bytes(f) == data
    assert bytes_to_forest(forest_to_bytes(f)) == f


class _CountingReader:
    def __init__(self, data):
        self.data = data
        self.consumed = 0

    def read(self, n):
        chunk = self.data[self.consumed:self.consumed + n]
        self.consumed += len(chunk)
        return chunk


def test_reading_is_incremental():
    # events come out long before the document ends: pulling the first
    # few events consumes only a small prefix of a megabyte-sized input
    body = b"".join(b"<i>%d</i>" % k for k in range(60_000))
    doc = b"<r>" + body + b"</r>"
    assert len(doc) > 500_000
    src = _CountingReader(doc)
    events = iter(read_events(src))
    for _ in range(10):
        next(events)
    assert src.consumed < 65_536


def test_events_keep_order_across_chunks_and_errors_keep_position():
    body = b"".join(b"<i>%d</i>\n" % k for k in range(2000))
    good = list(read_events(b"<r>" + body + b"</r>"))
    items = [ev for k in range(2000)
             for ev in (StartElement("i"), Text(str(k)), END)]
    assert good == [StartElement("r")] + items + [END, EOF]
    got = []
    with pytest.raises(XmlError, match="line 2001, column 2"):
        for ev in read_events(b"<r>" + body + b"</x>"):
            got.append(ev)
    # whole chunks before the malformed one were delivered, in order
    assert got and got == good[:len(got)]


def _random_document(rng, budget):
    """XML bytes with attributes, whitespace-only text, mixed content and,
    now and then, a subtree several read chunks long."""
    out = []

    def node(depth):
        nonlocal budget
        name = rng.choice("abcd")
        attrs = "".join(' %s="%s"' % (k, rng.choice(["", "v", " w "]))
                        for k in rng.sample("xyz", rng.randrange(3)))
        out.append("<%s%s>" % (name, attrs))
        if depth < 6 and rng.random() < 0.05:
            out.append("<big>%s</big>" % "".join(
                '<i n="%d">t%d</i>\n ' % (k, k) for k in range(300)))
        while budget > 0 and rng.random() < 0.6:
            budget -= 1
            r = rng.random()
            if r < 0.2:
                out.append(rng.choice([" ", "\n  ", "x", " y &amp; z "]))
            elif depth < 6:
                node(depth + 1)
        out.append("</%s>" % name)

    node(0)
    return "".join(out).encode()


def _is_start(ev):
    return type(ev) in (StartElement, StartAttribute)


_EVENT = {NodeKind.ELEMENT: StartElement, NodeKind.ATTRIBUTE: StartAttribute,
          NodeKind.TEXT: Text}


def _pushed(reader, decide):
    """The events ``reader.push`` steps through when its step returns
    ``not decide()`` after a start, and False after every text and
    ``End`` (which the reader must ignore)."""
    got = []

    def step(kind, label):
        got.append(END if kind is None else _EVENT[kind](label))
        return kind in (NodeKind.ELEMENT, NodeKind.ATTRIBUTE) and not decide()

    reader.push(step)
    return got + [EOF]


def _without_insides(events, decide):
    """``events`` with the inside of every subtree ``decide`` picks, in
    the order the reader steps through the starts, removed."""
    out, k = [], 0
    while k < len(events):
        ev = events[k]
        out.append(ev)
        k += 1
        if _is_start(ev) and decide():
            depth = 1
            while depth:
                depth += (1 if _is_start(events[k])
                          else -1 if events[k] == END else 0)
                k += 1
            k -= 1  # the closing End is delivered
    return out


def _coin(seed, p):
    r = random.Random(seed)
    return lambda: r.random() < p


def test_dropped_subtrees_lose_exactly_their_insides():
    # steps that drop random starts, in and across read chunks
    rng = random.Random(23)
    for trial in range(60):
        data = _random_document(rng, rng.randrange(5, 120))
        keep = trial % 3 == 0
        full = list(read_events(data, keep_whitespace=keep))
        for p in (0.05, 0.3, 1.0):
            seed = rng.random()
            got = _pushed(read_events(data, keep_whitespace=keep),
                          _coin(seed, p))
            assert got == _without_insides(full, _coin(seed, p))


def test_a_dropped_subtree_longer_than_a_chunk():
    big = b"".join(b'<i n="%d">t%d <e/> u</i>\n' % (k, k) for k in range(400))
    assert len(big) > 2 * _CHUNK
    data = b'<r>before<d k="v">' + big + b'</d>after<d/> tail</r>'
    first_d = iter([False, True])  # <r>, then the first <d>
    got = _pushed(read_events(data), lambda: next(first_d, False))
    assert got == [StartElement("r"), Text("before"), StartElement("d"), END,
                   Text("after"), StartElement("d"), END, Text("tail"), END,
                   EOF]
