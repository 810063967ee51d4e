"""Single-pass transducer execution over an XML event stream.

The engine evaluates the transducer demand-driven, left to right along
the output, over an input buffer that materialises lazily:

* The input is a chain of cells per sibling level (``_Cell``), filled by
  a push builder as events arrive.  A filled cell is the buffered node
  (label, kind, head cell of its children, next cell).  A cursor is a
  cell reference; reading it yields the node, the end of the level, or
  "not yet".  A rule's environment is just its cell (x0; x1 and x2 are
  read off it), its parameter values and its run of stay moves.
* Rules are selected through a per-state dispatch table
  (:func:`mfx.mft.dispatch_table`): one dict lookup per rule application.
* Work sits on an explicit task stack, so input depth and output size
  never touch the Python recursion limit, and the engine can stop
  mid-expression when it needs unread input.  The blocking task stays on
  top of the stack and the engine records the cell it waits on; events
  that neither fill nor close that cell only extend the buffer.
* Call arguments become suspensions, forced only if their parameter is
  actually used (call by need) and memoised so shared arguments are
  evaluated at most once.
* Output events flush as soon as they are determined; emission never
  backtracks.  A tail call (last item of a rule body) reuses the stack
  slot, so scanning a million siblings needs constant stack.

Memory behaviour falls out of reference counting: a retained input
subtree is exactly one whose cell is still reachable from a live
suspension or environment, so an optimized transducer that drops its
whole-document parameter scans in bounded memory, while the unoptimized
one keeps the document alive through that parameter.  ``StreamStats``
tracks the peak number of live buffered nodes (filled cells) and of live
suspensions, counted up on filling or creation and down in ``__del__``;
this is what the benchmark harness reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .forest import Forest, NodeKind, Tree
from .mft import Mft, Node, Param, Rhs, dispatch_table, size
from .xmlio import (END, EOF, Eof, End, EventSink, StartAttribute,
                    StartElement, Text, XmlEvent, forest_events)


class EngineError(RuntimeError):
    pass


@dataclass
class StreamStats:
    events_in: int = 0
    events_out: int = 0
    peak_nodes: int = 0
    peak_suspensions: int = 0
    seconds: float = 0.0

    def lines(self) -> str:
        return ("events_in=%d\nevents_out=%d\npeak_nodes=%d\n"
                "peak_suspensions=%d\nms=%.1f"
                % (self.events_in, self.events_out, self.peak_nodes,
                   self.peak_suspensions, self.seconds * 1000.0))


# ---------------------------------------------------------------------------
# Input buffer
# ---------------------------------------------------------------------------


class _Live:
    """Number of live objects of one kind in one run."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


class _Cell:
    """One position in a sibling chain: empty (the frontier), filled with a
    buffered node, or closed (end of the level).  A filled cell is the
    node: ``label``, ``kind`` and ``children`` (the head cell of its child
    chain), and it counts as live until it is collected."""

    __slots__ = ("label", "kind", "children", "next", "closed", "live")

    def __init__(self):
        self.kind: Optional[NodeKind] = None
        self.closed = False

    def fill(self, label: str, kind: NodeKind, children: "_Cell",
             live: _Live) -> "_Cell":
        """Make this cell the node; return the new frontier after it."""
        self.label, self.kind, self.children = label, kind, children
        self.live = live
        live.n += 1
        self.next = _Cell()
        return self.next

    def __del__(self):
        if self.kind is not None:
            self.live.n -= 1


_CLOSED = _Cell()
_CLOSED.closed = True


_ELEMENT, _ATTRIBUTE = NodeKind.ELEMENT, NodeKind.ATTRIBUTE
_TEXT = NodeKind.TEXT


class _Buffer:
    """Builds the cell structure from events and counts live nodes."""

    def __init__(self):
        self.live = _Live()
        # the root cell is handed to the engine's initial task; holding it
        # here would pin the whole document
        root = _Cell()
        self._tails: List[_Cell] = [root]
        self._root: Optional[_Cell] = root
        self.done = False

    def take_root(self) -> _Cell:
        root, self._root = self._root, None
        return root

    def feed(self, ev: XmlEvent):
        t = type(ev)
        tails = self._tails
        if t is StartElement or t is StartAttribute:
            kids = _Cell()
            tails[-1] = tails[-1].fill(ev.name, _ELEMENT if t is StartElement
                                       else _ATTRIBUTE, kids, self.live)
            tails.append(kids)
        elif t is End:
            tails.pop().closed = True
        elif t is Text:
            tails[-1] = tails[-1].fill(ev.content, _TEXT, _CLOSED, self.live)
        elif t is Eof:
            if len(tails) != 1:
                raise EngineError("input ended with %d open elements"
                                  % (len(tails) - 1))
            tails.pop().closed = True
            self.done = True


# ---------------------------------------------------------------------------
# Suspensions
# ---------------------------------------------------------------------------


class _Susp:
    """A pending right-hand-side expression closed over an environment.
    Forced at most once; the result forest is cached."""

    __slots__ = ("rhs", "env", "cache", "live")

    def __init__(self, rhs: Rhs, env: "_Env", live: _Live):
        self.rhs = rhs
        self.env = env
        self.cache: Optional[Forest] = None
        self.live = live
        live.n += 1

    def __del__(self):
        self.live.n -= 1


class _Env:
    """Input position x0 (a cell), parameter values, run of stay moves."""

    __slots__ = ("cell", "params", "stay")

    def __init__(self, cell: _Cell, params: tuple, stay: int):
        self.cell = cell
        self.params = params
        self.stay = stay


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

# Task tags.  APPLY selects and enters a rule (the only task that can
# block on unread input); NODE emits an output node's start and schedules
# its children; FORCE/MEMO realise call-by-need parameters; CLOSE/ENDTAG
# finish an output node in a list target or on the sink.
#
# Rule bodies are resolved against their environment at scheduling time:
# a pending call holds just its input cell (never the whole environment),
# so a task waiting behind a long subtree does not pin that subtree.
_APPLY, _NODE, _ENDTAG, _CLOSE, _FORCE, _MEMO, _EMITF = range(7)

#: target value for "emit to the output stream"
_SINK = None


class Engine:
    def __init__(self, m: Mft):
        self.m = m
        self.table = dispatch_table(m)
        self.stay_budget = max(100, 10 * size(m))
        self.stats = StreamStats()
        self.buffer = _Buffer()
        self._susps = _Live()
        self._emitted: List[XmlEvent] = []
        self._text_run: Optional[List[str]] = None
        self.stack: List[tuple] = [
            (_APPLY, m.initial, self.buffer.take_root(), (), _SINK, 0)]
        #: the cell the task on top of the stack waits on, if it is blocked
        self._waiting: Optional[_Cell] = None
        self.finished = False

    # -- output ---------------------------------------------------------------

    def _flush_text(self):
        if self._text_run is not None:
            content = "".join(self._text_run)
            self._text_run = None
            if content:
                self._emitted.append(Text(content))
                self.stats.events_out += 1

    def _out(self, ev: XmlEvent):
        # coalesce adjacent text
        if isinstance(ev, Text):
            if self._text_run is None:
                self._text_run = [ev.content]
            else:
                self._text_run.append(ev.content)
            return
        self._flush_text()
        self._emitted.append(ev)
        self.stats.events_out += 1

    # -- stepping ---------------------------------------------------------------

    def step(self, ev: XmlEvent) -> List[XmlEvent]:
        """Feed one input event; return the output events it unlocked."""
        if type(ev) is Eof and self.buffer.done:
            return []
        stats = self.stats
        stats.events_in += 1
        self.buffer.feed(ev)
        if self.buffer.live.n > stats.peak_nodes:
            stats.peak_nodes = self.buffer.live.n
        # _drive creates no buffered nodes, so the peak above is final; and
        # while the cell it blocked on is empty, nothing on the stack can run
        wait = self._waiting
        if wait is None or wait.kind is not None or wait.closed:
            self._drive()
            if self._susps.n > stats.peak_suspensions:
                stats.peak_suspensions = self._susps.n
        if self.buffer.done and not self.stack:
            self._flush_text()
            if not self.finished:
                self.finished = True
                self._emitted.append(EOF)
        out = self._emitted
        self._emitted = []
        return out

    def _drive(self):
        stack = self.stack
        table = self.table
        self._waiting = None
        while stack:
            task = stack.pop()
            tag = task[0]
            if tag == _APPLY:
                _, state, cell, params, target, stay = task
                kind = cell.kind
                if kind is not None:
                    syms, on_text, on_other, _ = table[state]
                    rhs = syms.get(cell.label, on_text if kind is _TEXT
                                   else on_other)
                elif cell.closed:
                    rhs = table[state][3]
                else:
                    stack.append(task)
                    self._waiting = cell
                    return  # blocked on unread input
                if rhs is None:
                    raise EngineError("state %s has no rule to apply" % state)
                self._push_seq(rhs, _Env(cell, params, stay), target)
            elif tag == _NODE:
                _, label, kind, children, env, target = task
                if target is _SINK:
                    self._out(StartElement(label) if kind is NodeKind.ELEMENT
                              else StartAttribute(label))
                    stack.append((_ENDTAG,))
                    self._push_seq(children, env, _SINK)
                else:
                    kids: List[Tree] = []
                    stack.append((_CLOSE, label, kind, kids, target))
                    self._push_seq(children, env, kids)
            elif tag == _ENDTAG:
                self._out(END)
            elif tag == _CLOSE:
                _, label, kind, kids, target = task
                target.append(Tree(label, kind, tuple(kids)))
            elif tag == _FORCE:
                _, susp, target = task
                if susp.cache is not None:
                    self._emit_forest(susp.cache, target)
                else:
                    acc: List[Tree] = []
                    stack.append((_MEMO, susp, acc, target))
                    self._push_seq(susp.rhs, susp.env, acc)
            elif tag == _MEMO:
                _, susp, acc, target = task
                susp.cache = tuple(acc)
                susp.rhs = ()
                susp.env = None  # release pinned input
                self._emit_forest(susp.cache, target)
            elif tag == _EMITF:
                _, forest, target = task
                self._emit_forest(forest, target)
            else:
                raise AssertionError(tag)

    def _push_seq(self, rhs: Rhs, env: _Env, target):
        """Schedule a rule body.  Every item is resolved against the
        environment now; only output nodes with child expressions keep a
        reference to it (their children may move from the current node)."""
        tasks: List[tuple] = []
        for it in rhs:
            t = type(it)
            if t is Param:
                v = env.params[it.index - 1]
                if type(v) is _Susp:
                    tasks.append((_FORCE, v, target))
                elif v:
                    tasks.append((_EMITF, v, target))
            elif t is Node:
                label, kind = it.label, it.kind
                if label is None:
                    cell = env.cell
                    if cell.kind is None:
                        raise EngineError("dynamic label with no current node")
                    label, kind = cell.label, cell.kind
                if kind is _TEXT or not it.children:
                    # a leaf (text output nodes have no child expressions)
                    tasks.append((_EMITF, (Tree(label, kind, ()),), target))
                else:
                    tasks.append((_NODE, label, kind, it.children, env, target))
            else:  # Call
                var = it.var
                cell = env.cell
                if var == 0:
                    stay = env.stay + 1
                else:
                    cell = cell.children if var == 1 else cell.next
                    stay = 0
                if stay > self.stay_budget:
                    raise EngineError(
                        "stay-move budget exceeded in state %s (%d consecutive"
                        " non-consuming steps)" % (it.state, self.stay_budget))
                params = tuple(self._param_value(arg, env) for arg in it.args)
                tasks.append((_APPLY, it.state, cell, params, target, stay))
        self.stack.extend(reversed(tasks))

    def _param_value(self, arg: Rhs, env: _Env):
        if not arg:
            return ()
        if len(arg) == 1 and type(arg[0]) is Param:
            # pass-through: share the caller's value (and its memo)
            return env.params[arg[0].index - 1]
        return _Susp(arg, env, self._susps)

    def _emit_forest(self, forest: Forest, target):
        if target is _SINK:
            for ev in forest_events(forest):
                self._out(ev)
        else:
            target.extend(forest)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def stream_run(m: Mft, src, sink: EventSink) -> StreamStats:
    """Run the transducer over an event source, pushing output events to
    the sink as they are determined.  Returns the run's statistics."""
    t0 = time.perf_counter()
    eng = Engine(m)
    saw_eof = False
    for ev in src:
        for out in eng.step(ev):
            sink(out)
        if isinstance(ev, Eof):
            saw_eof = True
            break
    if not saw_eof:
        for out in eng.step(EOF):
            sink(out)
    if eng.stack:
        raise EngineError("engine blocked at end of input")
    eng.stats.seconds = time.perf_counter() - t0
    return eng.stats


def measure(m: Mft, src) -> StreamStats:
    """Like :func:`stream_run` with the output discarded."""
    return stream_run(m, src, lambda ev: None)


def stream_bytes(m: Mft, xml: bytes) -> Tuple[bytes, StreamStats]:
    """Convenience: XML bytes in, serialised output bytes and stats out."""
    import io

    from .xmlio import read_events, sink_to
    out = io.BytesIO()
    stats = stream_run(m, read_events(xml), sink_to(out))
    return out.getvalue(), stats
