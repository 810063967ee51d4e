"""MinXQuery to macro forest transducer compilation and streaming execution.

The package is organised around one value domain and one machine model:

* :mod:`mfx.forest` -- XML forests, never mutated, whose node class rule
  bodies share, and their one term notation (one printer, one reader).
* :mod:`mfx.xmlio` -- the event boundary between concrete XML bytes and
  forests (a small start/text/end event vocabulary), and the one input
  contract every source keeps: a refused start is followed directly by
  its parent's end.
* :mod:`mfx.mft` -- macro forest transducers: representation, the rhs
  rewriter, validation, in-memory evaluation (the oracle), and rule-file
  syntax.
* :mod:`mfx.xquery` -- the MinXQuery front end (parser, scope checker).
* :mod:`mfx.paths` -- node tests, the reference path selection over a
  document numbered in pre-order (a node is its pre-order number), and the
  total node-selection automata the compiler builds scans from.
* :mod:`mfx.xqeval` -- a direct MinXQuery interpreter (reference semantics)
  over that numbering.
* :mod:`mfx.compile` -- the query-to-transducer translation.
* :mod:`mfx.optimize` -- parameter reduction, stay-move inlining, and
  unreachable-state removal, iterated to a fixpoint.
* :mod:`mfx.compose` -- transducer compositions (pipeline fusion).
* :mod:`mfx.stream` -- single-pass evaluation over an XML event stream.
* :mod:`mfx.gen`, :mod:`mfx.bench`, :mod:`mfx.cli` -- document generator,
  the benchmark corpus, and the command-line front end.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
