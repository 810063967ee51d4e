"""Single-pass transducer execution over an XML event stream.

The engine evaluates the transducer demand-driven, left to right along
the output, over an input buffer that materialises lazily:

* The input is a chain of cells per sibling level (``_Cell``), filled as
  events arrive by the engine's reader step, which also runs what each
  event unlocks and drains the output.  A filled cell is the buffered node
  (label, kind, head cell of its children, next cell).  A cursor is a
  cell reference; reading it yields the node, the end of the level, or
  "not yet".  A rule application is its cell (x0; x1 and x2 are read
  off it), its parameter values and its run of stay moves; what it
  creates holds those three itself, with no record in between.
* Rule bodies are compiled once per run, a state's dispatch row
  (:func:`mfx.mft.dispatch_table`) when the state is first applied: leaf
  outputs are prebuilt, parameters become indexes, and a call carries a
  plan of empty, pass-through and suspended arguments.  Selecting a rule is
  one dict lookup.  A body that is one call without arguments (a scan
  step, or a stay walker of a fused transducer) is applied in place,
  without a task.  Every application, in place or not, checks the stay
  budget in one place.
* A *copy state* (no symbol rules, ``%t(q(x1)) q(x2)`` on every node, an
  empty eps rule) copies its input forest.  A call of one is one task,
  which walks the buffered cells and adds each node's start, text and
  ``End`` events to its target.  It holds the next cell of each level it
  is inside, just as the rules' pending calls would, and blocks on an
  empty cell as a rule application does, so its output leaves on the same
  input step and no peak moves.
* Work sits on an explicit task stack, so input depth and output size
  never touch the Python recursion limit, and the engine can stop
  mid-expression when it needs unread input.  The blocking task stays on
  top of the stack and the engine records the cell it waits on; events
  that neither fill nor close that cell only extend the buffer.
* Every task writes to a target, a plain list of events: the engine's
  pending output, or the list that fills a suspension.  Call arguments
  become suspensions, forced only if their parameter is actually used
  (call by need) and memoised so shared arguments are evaluated at most
  once.  A memoised value is a tuple of events in which an earlier
  memoised value is one item, held by reference: reading a value adds
  that one item to its reader's target, and nothing is copied.
* Each input step drains the pending output: nested values are flattened
  and adjacent text coalesced, so output events leave as soon as they
  are determined; emission never backtracks.  A tail call (last item of a
  rule body) reuses the stack slot, so scanning a million siblings needs
  constant stack.

Memory behaviour falls out of reference counting: a retained input
subtree is exactly one whose cell is still reachable from a live
suspension or task, so an optimized transducer that drops its
whole-document parameter scans in bounded memory, while the unoptimized
one keeps the document alive through that parameter.  ``StreamStats``
tracks the peak number of live buffered nodes (filled cells) and of live
suspensions, each the reference count of a token that all of them hold
(less the engine's own references); this is what the benchmark harness
reports.

Reference counting also tells the engine which input no one can read:
if only the buffer's tail stack holds the frontier cell of a level, no
sibling, parent or task can reach that level, now or later.  The reader
step drops a text that comes there and refuses a start, and every source
(:mod:`mfx.xmlio`) then skips the rest of the level: the next step is
the ``End`` that closes it, which pops the level.  A dropped event fills
no cell and runs no task.  Peaks cannot move: such a cell would be
counted live and dead within one step, before the peak is sampled.  Like
the live counts, this relies on CPython's reference counting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from sys import getrefcount, getrefcount as _live_count
from typing import Dict, List, Optional

from .forest import NodeKind
from .mft import (NO_CURRENT_NODE, NO_RULE, STAY_FLOOR, Call, Mft, Node,
                  Param, Rhs, StayBudgetExceeded, TransducerError,
                  dispatch_table, sequences, stay_budget)
from .xmlio import (END, EOF, EventSink, StartAttribute, StartElement, Text,
                    XmlEvent, push)


class EngineError(TransducerError):
    """The input cannot be run: it ends inside an element, or the engine
    is still blocked when it ends."""


@dataclass
class StreamStats:
    events_in: int = 0  # events delivered (sources skip dead levels)
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


class _Cell:
    """One position in a sibling chain: empty (the frontier), filled with a
    buffered node, or closed (end of the level).  A filled cell is the
    node: ``label``, ``kind`` and ``children`` (the head cell of its child
    chain), and it holds its run's node token.  A slot has no default, so
    each creation site sets ``kind`` (None while empty) and ``closed``."""

    __slots__ = ("label", "kind", "children", "next", "closed", "live")


_CLOSED = _Cell()
_CLOSED.kind, _CLOSED.closed = None, True


_ELEMENT, _TEXT = NodeKind.ELEMENT, NodeKind.TEXT


# ---------------------------------------------------------------------------
# Compiled rule bodies
# ---------------------------------------------------------------------------

# A rule body is compiled once per run, when its state's dispatch row is
# first used, into ``(ops, tail)``:
#
# * ``ops``: one op per body item, in reverse order (the order they go on
#   the task stack), each a tuple headed by its code:
#   ``(_O_LEAF, events)`` a static leaf's prebuilt events;
#   ``(_O_NODE, start event, children)`` a static node with child
#   expressions; ``(_O_COPY, children or None)`` a %t node, resolved
#   against the input cell when scheduled; ``(_O_PARAM, index)`` with a
#   0-based index; ``(_O_CALL, state, var, plan)``, where each argument of
#   the plan is ``()`` (empty), an int (a pass-through parameter's index) or
#   the compiled body of a suspension; ``(_O_CLONE, var)`` a call of a copy
#   state, which copies the input forest at x<var>.
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
    # compiled bottom up (see mft.sequences), a sequence finds its parts
    # done, and nesting is not limited by the recursion limit
    done: Dict[int, tuple] = {}  # id of a sequence -> it, compiled
    for seq in reversed(sequences(rhs)):
        ops: List[tuple] = []
        for it in seq:
            t = type(it)
            if t is Param:
                ops.append((_O_PARAM, it.index - 1))
            elif t is Call:
                if it.state in copies:
                    ops.append((_O_CLONE, it.var))
                else:
                    # an argument in a plan: see the comment above
                    ops.append((_O_CALL, it.state, it.var, tuple([
                        a[0].index - 1 if len(a) == 1 and type(a[0]) is Param
                        else done[id(a)] if a else () for a in it.args])))
            elif it.label is None:
                ops.append((_O_COPY, done[id(it.children)]
                            if it.children else None))
            elif it.kind is _TEXT or not it.children:
                ops.append((_O_LEAF, _leaf_events(it.label, it.kind)))
            else:
                ops.append((_O_NODE, _start(it.label, it.kind),
                            done[id(it.children)]))
        tail = None
        if len(ops) == 1 and ops[0][0] == _O_CALL and not seq[0].args:
            tail = (seq[0].state, seq[0].var)
        done[id(seq)] = tuple(reversed(ops)), tail
    return done[id(rhs)]


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
# The engine
# ---------------------------------------------------------------------------


class _Susp:
    """A compiled argument closed over its caller's input cell (x0),
    parameter values and run of stay moves.  Forced at most once; the
    resulting value (see the module docstring) is cached."""

    __slots__ = ("body", "cell", "params", "stay", "cache", "live")

    def __init__(self, body: tuple, cell: _Cell, params: tuple, stay: int,
                 live: object):
        self.body = body
        self.cell = cell
        self.params = params
        self.stay = stay
        self.cache: Optional[tuple] = None
        self.live = live


# Task tags.  Every task but APPLY carries its target list.  APPLY selects
# and enters a rule (the only task that can block on unread input); NODE
# adds an output node's start and schedules its children and its ``End``;
# FORCE/MEMO realise call-by-need parameters; EVENTS adds prebuilt events.
# CLONE copies an input forest: it holds the next cell of each level it is
# inside, and blocks like APPLY.
#
# Rule bodies are resolved against their cell and parameters at scheduling
# time: a pending call holds just its input cell and its own arguments, so
# a task waiting behind a long subtree does not pin that subtree.
_APPLY, _NODE, _FORCE, _MEMO, _EVENTS, _CLONE = range(6)

_END = (END,)


class Engine:
    """One run: input goes to :attr:`feed` and :meth:`finish`, output
    events to ``sink``."""

    def __init__(self, m: Mft, sink: EventSink):
        self.m = m
        self.rows = _Rows(m)
        self.stay_budget: Optional[int] = None  # set past STAY_FLOOR
        stats = self.stats = StreamStats()
        # only the initial task holds the root cell: holding it here would
        # pin the whole document
        root = _Cell()
        root.kind, root.closed = None, False
        #: the buffer's tail stack: the frontier cell of each open level
        tails = self._tails = [root]
        # live counts (module docstring) less base, the engine's own refs;
        # _live_count is getrefcount under a name that tests leave alone
        nodes, susps = self._nodes, self._susps = object(), object()
        base = self._base = _live_count(nodes)
        #: the output target: tasks add to it, each input step drains it
        pending = self._pending = []
        self._text_run: Optional[List[str]] = None  # waits for the next step
        self.emit: EventSink = sink
        self.stack: List[tuple] = [(_APPLY, m.initial, root, (), pending, 0)]
        #: the cell the task on top of the stack waits on, if it is blocked
        self._waiting: Optional[_Cell] = None
        drive, drain = self._drive, self._drain

        def feed(kind, label):
            """The engine's one step per input event (a reader step,
            :data:`mfx.xmlio.Step`): buffer a node start, text or ``End``
            (kind None), or drop it if no one can read it (see the module
            docstring); run what it unlocked and emit the output.  Says
            whether the event was kept."""
            stats.events_in += 1
            if getrefcount(tails[-1]) == 2:
                # only the tail stack holds the level's cell: the level is
                # dead, and its End is the next event after a refused start
                if kind is None:
                    tails.pop()
                return False
            if kind is None:
                tails.pop().closed = True
            else:
                cell = tails[-1]
                cell.label, cell.kind, cell.live = label, kind, nodes
                cell.next = nxt = tails[-1] = _Cell()
                nxt.kind, nxt.closed = None, False
                if kind is _TEXT:
                    cell.children = _CLOSED
                else:
                    cell.children = kids = _Cell()
                    kids.kind, kids.closed = None, False
                    tails.append(kids)
                stats.nodes_buffered += 1
                # the engine creates no buffered nodes, so this peak is final
                n = _live_count(nodes) - base
                if n > stats.peak_nodes:
                    stats.peak_nodes = n
            # while the cell the engine blocked on is empty, nothing on the
            # stack can run
            wait = self._waiting
            if wait is None or wait.kind is not None or wait.closed:
                drive()
                n = _live_count(susps) - base
                if n > stats.peak_suspensions:
                    stats.peak_suspensions = n
            if pending:
                drain(False)
            return True

        self.feed = feed

    def finish(self):
        """End the input: close the root level, run what that unlocked and
        emit the rest of the output, and ``Eof`` if the run is done."""
        stats, tails = self.stats, self._tails
        stats.events_in += 1
        if len(tails) != 1:
            raise EngineError("input ended with %d open elements"
                              % (len(tails) - 1))
        tails.pop().closed = True
        self._drive()
        n = _live_count(self._susps) - self._base
        if n > stats.peak_suspensions:
            stats.peak_suspensions = n
        if self._pending or not self.stack:
            self._drain(not self.stack)

    def _drain(self, end: bool):
        """Emit the pending output as the events of this step: flatten the
        memoised values in it and coalesce adjacent text.  A trailing text
        run waits for the next step, unless this is the end."""
        pending = self._pending
        if end:
            pending.append(EOF)
        emit = self.emit
        n = 0
        run = self._text_run
        its = [iter(pending)]
        while its:
            for ev in its[-1]:
                t = type(ev)
                if t is tuple:
                    its.append(iter(ev))  # a memoised value
                    break
                if t is Text:
                    if run is None:
                        run = [ev.content]
                    else:
                        run.append(ev.content)
                    continue
                if run is not None:
                    content = "".join(run)
                    run = None
                    if content:
                        emit(Text(content))
                        n += 1
                emit(ev)
                n += 1
            else:
                its.pop()
        pending.clear()  # tasks hold this list: keep it
        self._text_run = run
        self.stats.events_out += n - end  # Eof is not counted

    def _drive(self):
        stack = self.stack
        rows = self.rows
        self._waiting = None
        while stack:
            task = stack.pop()
            tag = task[0]
            if tag == _APPLY:
                _, state, cell, params, target, stay = task
                while True:
                    if stay > STAY_FLOOR:
                        self._check_stay(stay, state)
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
                        raise TransducerError(NO_RULE % state)
                    if body[1] is None:
                        break
                    # one call without arguments: apply it in place
                    state, var = body[1]
                    params = ()
                    if var == 0:
                        stay += 1
                    else:
                        cell = cell.children if var == 1 else cell.next
                        stay = 0
                if body[0]:
                    self._schedule(body, cell, params, stay, target)
            elif tag == _EVENTS:
                task[2].extend(task[1])
            elif tag == _NODE:
                _, start, children, cell, params, stay, target = task
                target.append(start)
                stack.append((_EVENTS, _END, target))
                self._schedule(children, cell, params, stay, target)
            elif tag == _FORCE:
                _, susp, target = task
                if susp.cache is not None:
                    target.append(susp.cache)  # shared, not copied
                else:
                    acc: list = []
                    stack.append((_MEMO, susp, acc, target))
                    self._schedule(susp.body, susp.cell, susp.params,
                                   susp.stay, acc)
            elif tag == _MEMO:
                _, susp, acc, target = task
                susp.cache = value = tuple(acc)
                susp.body = susp.cell = susp.params = None  # release input
                target.append(value)
            elif tag == _CLONE:
                _, walk, target = task
                while True:
                    cell = walk[-1]
                    kind = cell.kind
                    if kind is not None:
                        walk[-1] = cell.next
                        if kind is _TEXT:
                            target.append(Text(cell.label))
                        else:
                            walk.append(cell.children)
                            target.append(_start(cell.label, kind))
                    elif cell.closed:
                        walk.pop()  # a level ends: close its node
                        if not walk:
                            break
                        target.append(END)
                    else:
                        stack.append(task)
                        self._waiting = cell
                        return  # blocked on unread input
            else:
                raise AssertionError(tag)

    def _schedule(self, body: tuple, cell: _Cell, params: tuple, stay: int,
                  target: list):
        """Push the tasks of a compiled body, resolved against its input
        cell and parameters now; only output nodes with children and
        suspended arguments keep the cell and parameters."""
        push = self.stack.append
        for op in body[0]:
            code = op[0]
            if code == _O_CALL:
                _, state, var, plan = op
                if var == 0:
                    x, xstay = cell, stay + 1
                else:
                    x, xstay = cell.children if var == 1 else cell.next, 0
                if plan:
                    plan = tuple([params[a] if type(a) is int
                                  else _Susp(a, cell, params, stay,
                                             self._susps) if a
                                  else () for a in plan])
                push((_APPLY, state, x, plan, target, xstay))
            elif code == _O_LEAF:
                push((_EVENTS, op[1], target))
            elif code == _O_PARAM:
                v = params[op[1]]
                if v:  # a suspension, not the empty forest
                    push((_FORCE, v, target))
            elif code == _O_NODE:
                push((_NODE, op[1], op[2], cell, params, stay, target))
            elif code == _O_COPY:
                kind = cell.kind
                if kind is None:
                    raise TransducerError(NO_CURRENT_NODE)
                if kind is _TEXT or op[1] is None:
                    push((_EVENTS, _leaf_events(cell.label, kind), target))
                else:
                    push((_NODE, _start(cell.label, kind), op[1], cell,
                          params, stay, target))
            else:  # _O_CLONE
                var = op[1]
                x = cell if var == 0 else (cell.children if var == 1
                                           else cell.next)
                push((_CLONE, [x], target))

    def _check_stay(self, stay: int, state: str):
        if not self.stay_budget:
            self.stay_budget = stay_budget(self.m)
        if stay > self.stay_budget:
            raise StayBudgetExceeded(state, self.stay_budget)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def stream_run(m: Mft, src, sink: EventSink) -> StreamStats:
    """Run the transducer over an event source, pushing output events to
    the sink as they are determined.  Returns the run's statistics.  The
    source is a reader or an event stream (see :func:`mfx.xmlio.push`)."""
    t0 = time.perf_counter()

    def first(ev):
        # times the first output event, then hands the sink over for good
        if eng.emit is first:
            stats.first_output_ms = (time.perf_counter() - t0) * 1000.0
            eng.emit = sink
        sink(ev)

    eng = Engine(m, first)
    stats = eng.stats
    push(src, eng.feed)
    eng.finish()
    if eng.stack:
        raise EngineError("engine blocked at end of input")
    stats.seconds = time.perf_counter() - t0
    return stats
