import random

import pytest

from mfx.forest import NodeKind, attr, elem, text
from mfx.gen import generate_bytes
from mfx.xmlio import (END, EOF, StartAttribute, StartElement, Text, XmlError,
                       build_forest, bytes_to_forest, forest_events,
                       forest_to_bytes, read_events, write_events)

from util import forest_eq, random_forest


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
    assert forest_eq(bytes_to_forest(forest_to_bytes(f)), f)
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
    events = read_events(src)
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
