"""Synthetic document generator for the benchmark queries.

Three profiles:

* ``xmark-lite`` -- an auction-site skeleton covering exactly the element
  shapes the nine benchmark queries touch (people/person with ids, names
  and optional homepages; open auctions with bidders, person references
  and increases; region items with names and descriptions; closed
  auctions with the deep annotation chain and sellers).  Attribute nodes
  are encoded as elements, matching the benchmark inputs.
* ``deep-chain`` -- a single-child chain of the requested depth.
* ``wide-flat`` -- one root with the requested number of leaf children.

Generation is a deterministic function of (profile, size, seed) and is
event-based, so documents stream into the engine without being built in
memory.  Text content never collides with element names, except for the
person-id constants the predicate queries are meant to hit.
"""

from __future__ import annotations

import random
from typing import Iterator

from .xmlio import END, EOF, StartElement, Text, XmlEvent

PROFILES = ("xmark-lite", "deep-chain", "wide-flat")


def generate_events(profile: str, size: int, seed: int = 0) -> Iterator[XmlEvent]:
    if size < 1:
        raise ValueError("size must be >= 1")
    if profile == "xmark-lite":
        return _xmark_lite(size, seed)
    if profile == "deep-chain":
        return _deep_chain(size)
    if profile == "wide-flat":
        return _wide_flat(size)
    raise ValueError("unknown profile %r (one of %s)"
                     % (profile, ", ".join(PROFILES)))


def generate_bytes(profile: str, size: int, seed: int = 0) -> bytes:
    from .xmlio import write_events
    return write_events(generate_events(profile, size, seed))


def _leaf(name: str, content: str):
    yield StartElement(name)
    yield Text(content)
    yield END


def _deep_chain(depth: int) -> Iterator[XmlEvent]:
    for _ in range(depth):
        yield StartElement("n")
    yield Text("bottom")
    for _ in range(depth):
        yield END
    yield EOF


def _wide_flat(width: int) -> Iterator[XmlEvent]:
    yield StartElement("root")
    for i in range(width):
        yield from _leaf("leaf", "v%d" % i)
    yield END
    yield EOF


def _xmark_lite(size: int, seed: int) -> Iterator[XmlEvent]:
    rng = random.Random(seed)
    # a person subtree is ~8 nodes, an auction ~12, an item ~7, a closed
    # auction ~14; spread the node budget across the four sections
    unit = max(1, size // 42)

    yield StartElement("site")

    yield StartElement("people")
    for i in range(unit):
        yield StartElement("person")
        yield from _leaf("person_id", "person%d" % i)
        yield from _leaf("name", rng.choice(("Jim", "Li", "Ada", "Sam"))
                         + str(i))
        if rng.random() < 0.5:
            yield from _leaf("homepage", "http://site/%d" % i)
        yield END
    yield END

    yield StartElement("open_auctions")
    for i in range(unit):
        yield StartElement("open_auction")
        nbid = 1 + rng.randrange(3)
        for b in range(nbid):
            yield StartElement("bidder")
            yield StartElement("personref")
            if rng.random() < 0.3:
                ref = rng.choice(("personXX", "personYY"))
            else:
                ref = "person%d" % rng.randrange(unit)
            yield from _leaf("personref_person", ref)
            yield END
            yield from _leaf("increase", "%d.00" % (1 + rng.randrange(50)))
            yield END
        yield from _leaf("reserve", "%d.00" % (10 + rng.randrange(90)))
        yield END
    yield END

    yield StartElement("regions")
    yield StartElement("australia")
    for i in range(unit):
        yield StartElement("item")
        yield from _leaf("name", "widget%d" % i)
        yield StartElement("description")
        yield Text("desc%d" % i)
        yield END
        yield END
    yield END
    yield END

    yield StartElement("closed_auctions")
    for i in range(unit):
        yield StartElement("closed_auction")
        yield StartElement("annotation")
        yield StartElement("description")
        if rng.random() < 0.6:
            yield StartElement("parlist")
            yield StartElement("listitem")
            yield StartElement("parlist")
            yield StartElement("listitem")
            yield StartElement("text")
            yield StartElement("emph")
            yield from _leaf("keyword", "kw%d" % i)
            yield END
            yield END
            yield END
            yield END
            yield END
            yield END
        else:
            yield Text("plain%d" % i)
        yield END
        yield END
        yield StartElement("seller")
        yield from _leaf("seller_person", "person%d" % rng.randrange(unit))
        yield END
        yield END
    yield END

    yield END
    yield EOF
