import random

import pytest

from mfx.forest import NodeKind
from mfx.gen import generate_bytes
from mfx.xmlio import (_CHUNK, END, EOF, StartAttribute, StartElement, Text,
                       XmlError, build_forest, bytes_to_forest, forest_events,
                       forest_to_bytes, push, read_events, sink_to,
                       write_events)

from util import attr, elem, random_forest, text


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


def test_sink_looks_up_write_at_every_write():
    # a file object may replace its write method once its first byte has
    # arrived, as one that notes the time of its first output does
    class Out:
        def __init__(self):
            self.chunks, self.firsts = [], 0

        def write(self, data):
            self.firsts += 1
            self.write = self.chunks.append
            self.chunks.append(data)

    out = Out()
    sink = sink_to(out)
    for ev in (StartElement("a"), Text("x"), END, EOF):
        sink(ev)
    assert (out.firsts, b"".join(out.chunks)) == (1, b"<a>x</a>")


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


#: markup the reader steps over that holds tags: a skip must not end there
_MARKUP = ("<!-- </a> <a> -->", "<![CDATA[</a><ab>]]>", "<?pi </a> <a>?>")


def _random_document(rng, budget):
    """XML bytes with attributes (some values hold ``>`` and ``/>``),
    whitespace-only text, mixed content, names that share a prefix, end
    tags with whitespace, comments, CDATA sections and processing
    instructions that hold tags and, now and then, a run of siblings
    several read chunks long."""
    out = []

    def big():
        # mostly plain items, now and then markup or a name of the level
        return "".join(
            rng.choice(_MARKUP + ("<a>t</a>", "<ab/>")) if rng.random() < 0.01
            else '<i n="%d">t%d</i>\n ' % (k, k) for k in range(300))

    def node(depth):
        nonlocal budget
        name = rng.choice(["a", "ab", "b", "c"])
        attrs = "".join(' %s="%s"' % (k, rng.choice(["", "v", " w ", "/>",
                                                      "x>"]))
                        for k in rng.sample("xyz", rng.randrange(3)))
        out.append("<%s%s>" % (name, attrs))
        while budget > 0 and rng.random() < 0.6:
            budget -= 1
            r = rng.random()
            if r < 0.2:
                out.append(rng.choice([" ", "\n  ", "x", " y &amp; z "]))
            elif r < 0.3:
                out.append(rng.choice(_MARKUP))
            elif r < 0.33:
                out.append(big() if rng.random() < 0.5
                           else "<big>%s</big>" % big())
            elif depth < 6:
                node(depth + 1)
        out.append(rng.choice(["</%s>", "</%s >", "</%s\n>"]) % name)

    node(0)
    return "".join(out).encode()


class _Trickle:
    """A binary source whose reads return 1 to 17 bytes, so that read
    boundaries fall everywhere."""

    def __init__(self, data, seed):
        self.data, self.at, self.rng = data, 0, random.Random(seed)

    def read(self, n):
        chunk = self.data[self.at:self.at + self.rng.randint(1, 17)]
        self.at += len(chunk)
        return chunk


def _is_start(ev):
    return type(ev) in (StartElement, StartAttribute)


_EVENT = {NodeKind.ELEMENT: StartElement, NodeKind.ATTRIBUTE: StartAttribute,
          NodeKind.TEXT: Text}


def _pushed(src, decide, as_list=False):
    """The events ``xmlio.push`` steps through from a reader, or from its
    events in a list, when its step returns ``not decide()`` after a start,
    and False after every text and ``End`` (which the source must
    ignore)."""
    got = []

    def step(kind, label):
        got.append(END if kind is None else _EVENT[kind](label))
        return kind in (NodeKind.ELEMENT, NodeKind.ATTRIBUTE) and not decide()

    push(iter(src) if as_list else src, step)
    return got + [EOF]


def _without_rest_of_level(events, decide):
    """``events`` as a source steps them when it refuses each start
    ``decide`` picks, in the order the source steps through the starts: the
    rest of a refused node's level, the node's insides included, is skipped
    up to its parent's ``End``, which is delivered."""
    out, k = [], 0
    while k < len(events):
        ev = events[k]
        out.append(ev)
        k += 1
        if _is_start(ev) and decide():
            depth = 1  # the refused node is open
            while events[k] != EOF and (depth or events[k] != END):
                depth += (1 if _is_start(events[k])
                          else -1 if events[k] == END else 0)
                k += 1
    return out


def _coin(seed, p):
    r = random.Random(seed)
    return lambda: r.random() < p


def test_dropped_subtrees_lose_exactly_their_insides():
    # steps that drop random starts, in and across read chunks, from a
    # reader, from a reader of tiny reads and from its events in a list
    rng = random.Random(23)
    for trial in range(60):
        data = _random_document(rng, rng.randrange(5, 120))
        keep = trial % 3 == 0
        full = list(read_events(data, keep_whitespace=keep))
        for p in (0.05, 0.3, 1.0):
            seed = rng.random()
            want = _without_rest_of_level(full, _coin(seed, p))
            for source in ("reader", "list", "trickle"):
                got = _pushed(read_events(
                    _Trickle(data, seed) if source == "trickle" else data,
                    keep_whitespace=keep), _coin(seed, p), source == "list")
                assert got == want, source


def test_a_dropped_subtree_longer_than_a_chunk():
    big = b"".join(b'<i n="%d">t%d <e/> u</i>\n' % (k, k) for k in range(400))
    assert len(big) > 2 * _CHUNK
    # the refused <d> and the rest of its level each span several chunks
    data = (b'<r>before<p><d k="v">' + big + b'</d>after' + big
            + b'<d/> tail</p>last</r>')
    for as_list in (False, True):
        first_d = iter([False, False, True])  # <r>, <p>, then the first <d>
        got = _pushed(read_events(data), lambda: next(first_d, False),
                      as_list)
        assert got == [StartElement("r"), Text("before"), StartElement("p"),
                       StartElement("d"), END, Text("last"), END, EOF]


def test_a_dropped_attribute_skips_the_rest_of_its_element():
    data = b'<r><e a="1" b="2">kids<k>deep</k>more</e>after</r>'
    head = [StartElement("r"), StartElement("e")]
    tail = [END, Text("after"), END, EOF]  # the End of <e> comes next
    for as_list in (False, True):
        for picks, kept in (([False, False, True], []),
                            ([False, False, False, True],
                             [StartAttribute("a"), Text("1"), END])):
            refused = StartAttribute("b" if kept else "a")
            pick = iter(picks)
            got = _pushed(read_events(data), lambda: next(pick, False),
                          as_list)
            assert got == head + kept + [refused] + tail


def test_a_refused_top_level_start_skips_to_the_end_of_the_list():
    # a forest of three trees, the second refused: the third is the rest
    # of the top level, and the list ends at its Eof with nothing open
    events = [StartElement("a"), Text("x"), END,
              StartElement("b"), StartElement("c"), END, Text("y"), END,
              StartElement("d"), StartAttribute("k"), Text("v"), END, END,
              EOF]
    pick = iter([False, True])  # keep <a>, refuse <b>
    got = _pushed(events, lambda: next(pick, False))
    assert got == [StartElement("a"), Text("x"), END, StartElement("b"), EOF]
    pick = iter([False, True])
    assert got == _without_rest_of_level(events, lambda: next(pick, False))


def test_a_list_cut_inside_a_refused_level_is_unbalanced():
    # the step never sees the open nodes of a refused level, so push
    # reports them, with the ones the step saw start, as cut bytes are
    events = [StartElement("a"), StartElement("b"), StartElement("c"),
              Text("t"), StartElement("d")]
    for tail in ([], [EOF]):
        with pytest.raises(XmlError, match="input ended with 4 open"):
            _pushed(events + tail, iter([False, True]).__next__)
    # closed to the top level: balanced, and the parent's End is the last
    # step
    got = _pushed(events + [END] * 4 + [EOF], iter([False, True]).__next__)
    assert got == [StartElement("a"), StartElement("b"), END, EOF]


def _sources(data):
    """The reader of ``data`` by whole chunks and by tiny reads."""
    return read_events(data), read_events(_Trickle(data, 0))


def _third():
    """A choice that refuses the third start and keeps the others."""
    picks = iter([False, False, True])
    return lambda: next(picks, False)


def _items(n):
    return "".join('<i n="%d">t%d</i>\n' % (k, k) for k in range(n))


def test_a_refused_level_named_like_its_parent():
    # the refused inner <p>'s own end does not end the level: the outer
    # <p>'s does, in one chunk and when the level spans several
    for body in ("x", _items(400)):
        data = ("<r><p>a<p>%s</p>%s<p/>tail</p>after</r>"
                % (body, body)).encode()
        assert len(data) < _CHUNK or len(body) > _CHUNK
        for src in _sources(data) + (list(read_events(data)),):
            # keep <r> and <p>, refuse the inner <p>
            got = _pushed(src, _third(), type(src) is list)
            assert got == [StartElement("r"), StartElement("p"), Text("a"),
                           StartElement("p"), END, Text("after"), END, EOF]


def test_a_skip_across_chunks_in_other_encodings():
    # the byte search looks for UTF-8 names: a UTF-16 document (known by
    # its byte order mark, its declaration names no encoding) and an
    # ISO-8859-1 one (known by its declaration) are counted instead, and
    # step as their UTF-8 twin
    doc = '<r><pé><d/>%s</pé>after<pé>x</pé></r>' % _items(700)
    twin = doc.encode()
    assert len(twin) > 3 * _CHUNK
    want = _pushed(read_events(twin), _third())
    assert want[:6] == [StartElement("r"), StartElement("pé"),
                        StartElement("d"), END, Text("after"),
                        StartElement("pé")]
    for data in (('<?xml version="1.0"?>' + doc).encode("utf-16"),
                 ('<?xml version="1.0" encoding="ISO-8859-1"?>'
                  + doc).encode("latin-1")):
        for src in _sources(data):
            got = _pushed(src, _third())
            assert got == want


def test_malformed_input_inside_a_skipped_level_keeps_its_position():
    # expat parses the skipped bytes too, with or without handlers, and
    # reports the error where a reader that skips nothing does
    data = ("<r><p><d/>%s<i></x>%s</p></r>"
            % (_items(700), _items(10))).encode()
    assert data.index(b"</x>") > 3 * _CHUNK
    with pytest.raises(XmlError, match="line 701, column 5") as whole:
        list(read_events(data))
    for src in _sources(data):
        with pytest.raises(XmlError) as skipped:
            _pushed(src, _third())
        assert str(skipped.value) == str(whole.value)
