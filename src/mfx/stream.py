"""Single-pass transducer execution over an XML event stream.

The engine evaluates the transducer demand-driven, left to right along
the output, over an input buffer that materialises lazily:

* The input is a chain of cells per sibling level (``_Cell``), filled by
  a push builder as events arrive.  A filled cell is the buffered node
  (label, kind, head cell of its children, next cell).  A cursor is a
  cell reference; reading it yields the node, the end of the level, or
  "not yet".  A rule's environment is just its cell (x0; x1 and x2 are
  read off it), its parameter values and its run of stay moves.
* Rule bodies are compiled once per run, a state's dispatch row
  (:func:`mfx.mft.dispatch_table`) when the state is first applied: leaf
  outputs are prebuilt, parameters become indexes, and a call carries a
  plan of empty, pass-through and suspended arguments.  Selecting a rule is
  one dict lookup.  A body that is one call without arguments (a scan
  step, or a stay walker of a fused transducer) is applied in place,
  without a task, and only a body with an output node that has children
  or a suspended argument builds an environment.
* A *copy state* (no symbol rules, ``%t(q(x1)) q(x2)`` on every node, an
  empty eps rule) copies its input forest.  A call of one is one task,
  which walks the buffered cells and emits each node's start, text and
  ``End`` events (or builds its trees in a list target).  It holds the
  next cell of each level it is inside, just as the rules' pending calls
  would, and blocks on an empty cell as a rule application does, so its
  output leaves on the same input step and no peak moves.
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

Reference counting also tells the buffer which input no one can read: if
only its own tail stack holds the frontier cell of a level, no sibling,
parent or task can reach that level, now or later.  The buffer then drops
a text event there, and a start with everything up to its matching
``End`` (the tail stack counts the depth with one empty cell per open
dropped node), and an ``End`` that closes a dead level.  A dropped event
fills no cell and costs :func:`stream_run` no engine step.  Peaks cannot
move: such a cell used to be counted live and dead within one ``feed``,
before the peak is sampled.  Like the ``__del__`` counts, this relies on
CPython's reference counting.  A reader (:func:`mfx.xmlio.read_events`)
pushes into the buffer, and expat skips the inside of a dropped start;
in an event stream the buffer drops that inside event by event.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from sys import getrefcount
from typing import List, Optional, Sequence, Tuple

from .forest import Forest, NodeKind, Tree
from .mft import (STAY_FLOOR, Call, Mft, Node, Param, Rhs, dispatch_table,
                  stay_budget)
from .xmlio import (END, EOF, Eof, EventSink, StartAttribute, StartElement,
                    Text, XmlEvent, forest_events, push, read_events, sink_to,
                    step_args)


class EngineError(RuntimeError):
    pass


@dataclass
class StreamStats:
    events_in: int = 0  # events the engine received
    events_out: int = 0
    nodes_buffered: int = 0  # cells filled
    peak_nodes: int = 0
    peak_suspensions: int = 0
    seconds: float = 0.0
    first_output_ms: float = 0.0  # stream_run: start to first output event

    def lines(self) -> str:
        return ("events_in=%d\nevents_out=%d\nnodes_buffered=%d\n"
                "peak_nodes=%d\npeak_suspensions=%d\nms=%.1f\n"
                "first_output_ms=%.1f"
                % (self.events_in, self.events_out, self.nodes_buffered,
                   self.peak_nodes, self.peak_suspensions,
                   self.seconds * 1000.0, self.first_output_ms))


# ---------------------------------------------------------------------------
# Input buffer
# ---------------------------------------------------------------------------


class _Live:
    """Number of live objects of one kind in one run, and of all made."""

    __slots__ = ("n", "made")

    def __init__(self):
        self.n = 0
        self.made = 0


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
        live.made += 1
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
    """Builds the cell structure below the root cell from reader steps,
    counts live nodes and drops the input no one can read (see the module
    docstring).  It holds no cell but its tail stack."""

    def __init__(self, root: _Cell):
        self.live = _Live()
        self._tails: List[_Cell] = [root]
        self.done = False

    def feed(self, kind: Optional[NodeKind], label: Optional[str]) -> bool:
        """Buffer one node start, text or ``End`` (kind None), as a reader
        step (:data:`mfx.xmlio.Step`); say whether it was kept."""
        tails = self._tails
        if getrefcount(tails[-1]) == 2:
            # only the tail stack holds the level's cell: the level is dead
            if kind is None:
                tails.pop()
            elif kind is not _TEXT:
                tails.append(_Cell())  # and so is the inside of this node
            return False
        if kind is None:
            tails.pop().closed = True
        elif kind is _TEXT:
            tails[-1] = tails[-1].fill(label, _TEXT, _CLOSED, self.live)
        else:
            kids = _Cell()
            tails[-1] = tails[-1].fill(label, kind, kids, self.live)
            tails.append(kids)
        return True

    def eof(self):
        tails = self._tails
        if len(tails) != 1:
            raise EngineError("input ended with %d open elements"
                              % (len(tails) - 1))
        tails.pop().closed = True
        self.done = True


# ---------------------------------------------------------------------------
# Compiled rule bodies
# ---------------------------------------------------------------------------

# A rule body is compiled once per run, when its state's dispatch row is
# first used, into ``(ops, env, stay, tail)``:
#
# * ``ops``: one op per body item, in reverse order (the order they go on
#   the task stack), each a tuple headed by its code:
#   ``(_O_LEAF, forest, events)`` a static leaf, prebuilt for either target;
#   ``(_O_NODE, label, kind, start event, children)`` a static node with
#   child expressions; ``(_O_COPY, children or None)`` a %t node, resolved
#   against the input cell when scheduled; ``(_O_PARAM, index)`` with a
#   0-based index; ``(_O_CALL, state, var, plan)``, where each argument of
#   the plan is ``()`` (empty), an int (a pass-through parameter's index) or
#   the compiled body of a suspension; ``(_O_CLONE, var)`` a call of a copy
#   state, which copies the input forest at x<var>.
# * ``env``: whether the body needs an ``_Env`` at all (an op holds it: an
#   output node with children or a suspended argument).
# * ``stay``: the state of the first x0 call, which the stay budget names.
# * ``tail``: ``(state, var)`` if the body is one call without arguments;
#   the engine applies it in place, without a task.
_O_LEAF, _O_NODE, _O_COPY, _O_PARAM, _O_CALL, _O_CLONE = range(6)


def _start(label: str, kind: NodeKind) -> XmlEvent:
    return StartElement(label) if kind is _ELEMENT else StartAttribute(label)


def _leaf_events(label: str, kind: NodeKind) -> tuple:
    """The events of an output leaf."""
    if kind is _TEXT:
        return (Text(label),)
    return _start(label, kind), END


def _compile(rhs: Optional[Rhs], copies: set) -> Optional[tuple]:
    if rhs is None:
        return None  # no such rule
    ops: List[tuple] = []
    env = False
    stay = None
    for it in rhs:
        t = type(it)
        if t is Param:
            ops.append((_O_PARAM, it.index - 1))
        elif t is Call:
            if it.var == 0 and stay is None:
                stay = it.state
            if it.state in copies:
                ops.append((_O_CLONE, it.var))
                continue
            plan = tuple([_compile_arg(a, copies) for a in it.args])
            env = env or any(type(a) is tuple and a for a in plan)
            ops.append((_O_CALL, it.state, it.var, plan))
        elif it.label is None:
            kids = _compile(it.children, copies) if it.children else None
            env = env or kids is not None
            ops.append((_O_COPY, kids))
        elif it.kind is _TEXT or not it.children:
            ops.append((_O_LEAF, (Tree(it.label, it.kind, ()),),
                        _leaf_events(it.label, it.kind)))
        else:
            env = True
            ops.append((_O_NODE, it.label, it.kind,
                        _start(it.label, it.kind),
                        _compile(it.children, copies)))
    tail = None
    if len(ops) == 1 and ops[0][0] == _O_CALL and not rhs[0].args:
        tail = (rhs[0].state, rhs[0].var)
    return tuple(reversed(ops)), env, stay, tail


def _compile_arg(arg: Rhs, copies: set):
    """A call argument in a plan: see the comment above."""
    if not arg:
        return ()
    if len(arg) == 1 and type(arg[0]) is Param:
        return arg[0].index - 1  # pass-through: share the caller's value
    return _compile(arg, copies)


class _Rows(dict):
    """State -> dispatch row of compiled bodies, compiled on first use
    from :func:`mfx.mft.dispatch_table`: most runs of a fused transducer
    reach only part of its states.  A call of a copy state (see the
    module docstring) compiles to a single ``_O_CLONE`` op."""

    def __init__(self, m: Mft):
        super().__init__()
        self.table = dispatch_table(m)
        self.copies = {
            q for q, (syms, on_text, on_other, on_eps) in self.table.items()
            if not syms and on_eps == () and on_text == on_other
            == (Node(None, _ELEMENT, (Call(q, 1),)), Call(q, 2))}

    def __missing__(self, state: str) -> tuple:
        syms, on_text, on_other, on_eps = self.table[state]
        copies = self.copies
        other = _compile(on_other, copies)
        row = self[state] = (
            {g: _compile(rhs, copies) for g, rhs in syms.items()},
            other if on_text is on_other else _compile(on_text, copies),
            other, _compile(on_eps, copies))
        return row


# ---------------------------------------------------------------------------
# Suspensions
# ---------------------------------------------------------------------------


class _Susp:
    """A compiled argument closed over an environment.  Forced at most
    once; the result forest is cached."""

    __slots__ = ("body", "env", "cache", "live")

    def __init__(self, body: tuple, env: "_Env", live: _Live):
        self.body = body
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
# its children; FORCE/MEMO realise call-by-need parameters; CLOSE finishes
# an output node in a list target; EMITF emits a forest to a target and
# EVENTS prebuilt events to the sink.  CLONE copies an input forest: it
# holds the next cell of each level it is inside (and, for a list target,
# each open node's label, kind and children so far), and blocks like APPLY.
#
# Rule bodies are resolved against their environment at scheduling time:
# a pending call holds just its input cell (never the whole environment),
# so a task waiting behind a long subtree does not pin that subtree.
_APPLY, _NODE, _CLOSE, _FORCE, _MEMO, _EMITF, _EVENTS, _CLONE = range(8)

#: target value for "emit to the output stream"
_SINK = None

_ENDTAG = (_EVENTS, (END,))


class Engine:
    def __init__(self, m: Mft):
        self.m = m
        self.rows = _Rows(m)
        self.stay_budget: Optional[int] = None  # set past STAY_FLOOR
        self.stats = StreamStats()
        # only the initial task holds the root cell: holding it here would
        # pin the whole document
        root = _Cell()
        self.buffer = _Buffer(root)
        self._susps = _Live()
        self._emitted: List[XmlEvent] = []
        self._text_run: Optional[List[str]] = None
        self.stack: List[tuple] = [(_APPLY, m.initial, root, (), _SINK, 0)]
        #: the cell the task on top of the stack waits on, if it is blocked
        self._waiting: Optional[_Cell] = None

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
        if type(ev) is Text:
            if self._text_run is None:
                self._text_run = [ev.content]
            else:
                self._text_run.append(ev.content)
            return
        if self._text_run is not None:
            self._flush_text()
        self._emitted.append(ev)
        self.stats.events_out += 1

    # -- stepping ---------------------------------------------------------------

    def step(self, ev: XmlEvent) -> Sequence[XmlEvent]:
        """Feed one input event; return the output events it unlocked
        (the shared empty tuple if none)."""
        t = type(ev)
        if t is Eof and self.buffer.done:
            return ()
        self.stats.events_in += 1
        if t is Eof:
            self.buffer.eof()
        elif not self.buffer.feed(*step_args(ev)):
            return ()
        return self._advance()

    def _advance(self) -> Sequence[XmlEvent]:
        """Run what the event just buffered unlocked; return its output."""
        stats = self.stats
        if self.buffer.live.n > stats.peak_nodes:
            stats.peak_nodes = self.buffer.live.n
        # _drive creates no buffered nodes, so the peak above is final; and
        # while the cell it blocked on is empty, nothing on the stack can run
        wait = self._waiting
        if wait is None or wait.kind is not None or wait.closed:
            self._drive()
            if self._susps.n > stats.peak_suspensions:
                stats.peak_suspensions = self._susps.n
        if self.buffer.done:
            stats.nodes_buffered = self.buffer.live.made
            if not self.stack:
                self._flush_text()
                self._emitted.append(EOF)
        out = self._emitted
        if not out:
            return ()
        self._emitted = []
        return out

    def _drive(self):
        stack = self.stack
        rows = self.rows
        out = self._out
        self._waiting = None
        while stack:
            task = stack.pop()
            tag = task[0]
            if tag == _APPLY:
                _, state, cell, params, target, stay = task
                while True:
                    kind = cell.kind
                    if kind is not None:
                        syms, on_text, on_other, _ = rows[state]
                        body = syms.get(cell.label, on_text if kind is _TEXT
                                        else on_other)
                    elif cell.closed:
                        body = rows[state][3]
                    else:
                        stack.append((_APPLY, state, cell, params, target,
                                      stay))
                        self._waiting = cell
                        return  # blocked on unread input
                    if body is None:
                        raise EngineError("state %s has no rule to apply"
                                          % state)
                    if body[3] is None:
                        break
                    # one call without arguments: apply it in place
                    state, var = body[3]
                    params = ()
                    if var == 0:
                        stay += 1
                        if stay > STAY_FLOOR:
                            self._check_stay(stay, state)
                    else:
                        cell = cell.children if var == 1 else cell.next
                        stay = 0
                if body[0]:
                    self._schedule(body, cell, params, stay,
                                   _Env(cell, params, stay) if body[1]
                                   else None, target)
            elif tag == _EVENTS:
                for ev in task[1]:
                    out(ev)
            elif tag == _NODE:
                _, start, label, kind, children, env, target = task
                if target is _SINK:
                    out(start or _start(label, kind))
                    stack.append(_ENDTAG)
                    self._schedule(children, env.cell, env.params, env.stay,
                                   env, _SINK)
                else:
                    kids: List[Tree] = []
                    stack.append((_CLOSE, label, kind, kids, target))
                    self._schedule(children, env.cell, env.params, env.stay,
                                   env, kids)
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
                    env = susp.env
                    self._schedule(susp.body, env.cell, env.params, env.stay,
                                   env, acc)
            elif tag == _MEMO:
                _, susp, acc, target = task
                susp.cache = tuple(acc)
                susp.body = None
                susp.env = None  # release pinned input
                self._emit_forest(susp.cache, target)
            elif tag == _EMITF:
                _, forest, target = task
                self._emit_forest(forest, target)
            elif tag == _CLONE:
                _, walk, accs, heads = task
                while True:
                    cell = walk[-1]
                    kind = cell.kind
                    if kind is not None:
                        walk[-1] = cell.next
                        if kind is _TEXT:
                            if accs is None:
                                out(Text(cell.label))
                            else:
                                accs[-1].append(Tree(cell.label, _TEXT, ()))
                        else:
                            walk.append(cell.children)
                            if accs is None:
                                out(_start(cell.label, kind))
                            else:
                                heads.append((cell.label, kind))
                                accs.append([])
                    elif cell.closed:
                        walk.pop()  # a level ends: close its node
                        if not walk:
                            break
                        if accs is None:
                            out(END)
                        else:
                            kids = accs.pop()
                            label, kind = heads.pop()
                            accs[-1].append(Tree(label, kind, tuple(kids)))
                    else:
                        stack.append(task)
                        self._waiting = cell
                        return  # blocked on unread input
            else:
                raise AssertionError(tag)

    def _schedule(self, body: tuple, cell: _Cell, params: tuple, stay: int,
                  env: Optional[_Env], target):
        """Push the tasks of a compiled body, resolved against its input
        cell and parameters now; only output nodes with children and
        suspended arguments keep the environment."""
        ops, _, stay_state, _ = body
        if stay_state is not None and stay >= STAY_FLOOR:
            self._check_stay(stay + 1, stay_state)
        push = self.stack.append
        for op in ops:
            code = op[0]
            if code == _O_CALL:
                _, state, var, plan = op
                if var == 0:
                    x, xstay = cell, stay + 1
                else:
                    x, xstay = cell.children if var == 1 else cell.next, 0
                if plan:
                    plan = tuple([params[a] if type(a) is int
                                  else _Susp(a, env, self._susps) if a
                                  else () for a in plan])
                push((_APPLY, state, x, plan, target, xstay))
            elif code == _O_LEAF:
                push((_EVENTS, op[2]) if target is _SINK
                     else (_EMITF, op[1], target))
            elif code == _O_PARAM:
                v = params[op[1]]
                if v:  # a suspension, not the empty forest
                    push((_FORCE, v, target))
            elif code == _O_NODE:
                push((_NODE, op[3], op[1], op[2], op[4], env, target))
            elif code == _O_COPY:
                kind = cell.kind
                if kind is None:
                    raise EngineError("dynamic label with no current node")
                if kind is _TEXT or op[1] is None:
                    push((_EVENTS, _leaf_events(cell.label, kind))
                         if target is _SINK else
                         (_EMITF, (Tree(cell.label, kind, ()),), target))
                else:
                    push((_NODE, None, cell.label, kind, op[1], env, target))
            else:  # _O_CLONE
                var = op[1]
                x = cell if var == 0 else (cell.children if var == 1
                                           else cell.next)
                push((_CLONE, [x], None, None) if target is _SINK
                     else (_CLONE, [x], [target], []))

    def _check_stay(self, stay: int, state: str):
        if not self.stay_budget:
            self.stay_budget = stay_budget(self.m)
        if stay > self.stay_budget:
            raise EngineError(
                "stay-move budget exceeded in state %s (%d consecutive"
                " non-consuming steps)" % (state, self.stay_budget))

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
    the sink as they are determined.  Returns the run's statistics.  The
    source is a reader or an event stream (see :func:`mfx.xmlio.push`)."""
    t0 = time.perf_counter()
    eng = Engine(m)
    stats = eng.stats

    def first(ev):
        # times the first output event, then hands the sink over for good
        nonlocal emit
        stats.first_output_ms = (time.perf_counter() - t0) * 1000.0
        emit = sink
        sink(ev)

    emit = first
    feed, advance = eng.buffer.feed, eng._advance

    def step(kind, label):
        stats.events_in += 1
        if not feed(kind, label):
            return False
        for out in advance():
            emit(out)
        return True

    push(src, step)
    for out in eng.step(EOF):
        emit(out)
    if eng.stack:
        raise EngineError("engine blocked at end of input")
    stats.seconds = time.perf_counter() - t0
    return stats


def measure(m: Mft, src) -> StreamStats:
    """Like :func:`stream_run` with the output discarded."""
    return stream_run(m, src, lambda ev: None)


def stream_bytes(m: Mft, xml: bytes) -> Tuple[bytes, StreamStats]:
    """Convenience: XML bytes in, serialised output bytes and stats out."""
    out = io.BytesIO()
    stats = stream_run(m, read_events(xml), sink_to(out))
    return out.getvalue(), stats
