"""Run a compiled automaton over a closed subject term.

The unit of work is the paper's (state, pointer) item.  Processing an item
inspects exactly one subject symbol, the one at pointer + state label,
announces the transition's outputs shifted by the pointer, and enqueues one
child item per target.  Every subject position is inspected exactly once
over the whole run, so a run that needs more items than the subject has
nodes has met a damaged automaton and raises ``InvariantError``; the
subject is measured only once a run passes SIZE_CHECK_AFTER items.  The
order in which the work set is drained (LIFO, FIFO, or in dealt shares)
changes nothing about the reported match set.

A pointer is a parent-linked cell ``[parent cell, shift, position or None,
subterm]``, shared with the parent when the shift is empty.  Its position
tuple is built only for a cell whose item announces a match, so one run
costs time linear in the subject plus the size of its matches.  A match
position below a pointer is built and kept once per run.
"""

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice

from .automaton import SetAutomaton
from .errors import InvariantError, SubjectError
from .positions import Position, format_position
from .terms import Term, term_size

MAX_WORKERS = 64  # below SIZE_CHECK_AFTER, so the FIFO prefix of Parallel needs no bound
SIZE_CHECK_AFTER = 4096  # items a run drains before it measures its subject


@dataclass(frozen=True)
class DepthFirst:
    """Drain the work set LIFO."""


@dataclass(frozen=True)
class BreadthFirst:
    """Drain the work set FIFO."""


@dataclass(frozen=True)
class Parallel:
    """Deal the work set into ``workers`` shares, 1 to MAX_WORKERS.

    The first ``workers`` items are drained FIFO, the waiting items are
    dealt round-robin into shares, and the shares are drained depth-first
    one after another in the calling thread: a schedule unlike either
    other strategy, with the same matches.  No thread is started, because
    under CPython's global interpreter lock a thread pool only interleaved
    the shares: on a 2-vCPU VM it took 10.8 to 12.4 µs per node of the
    traced ``corpus`` benchmark, against 1.6 to 2.0 for depth-first.
    """

    workers: int = 4

    def __post_init__(self):
        if not isinstance(self.workers, int) or not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"Parallel needs 1 to {MAX_WORKERS} workers, "
                             f"not {self.workers!r}")


@dataclass
class MatchReport:
    """What one evaluation produced.

    ``matches`` holds absolute (pattern id, position) pairs; the matches at
    one position below a pointer share one position tuple.  ``node_count``
    is the number of work items processed, which equals the number of
    subject positions inspected.  ``inspected`` lists every inspected
    position when the run was instrumented, in processing order.
    """

    matches: frozenset
    node_count: int
    inspected: tuple | None = None


def evaluate(a: SetAutomaton, subject: Term, strategy=DepthFirst(), *,
             instrument: bool = False, carry_subterms: bool = False) -> MatchReport:
    """All (pattern id, position) matches of ``a``'s patterns in ``subject``.

    The strategy only fixes how the work set is drained.  ``instrument``
    records every inspected position; it builds one position tuple per
    subject node, so it is a debugging aid, quadratic in the depth of the
    subject.  ``carry_subterms`` is accepted and ignored: every pointer
    holds its subterm.  Raises ``InvariantError`` when the run needs more
    work items than the subject has nodes.
    """
    log: list | None = [] if instrument else None
    matches: list = []
    if not isinstance(strategy, (DepthFirst, BreadthFirst, Parallel)):
        raise TypeError(f"unknown strategy {strategy!r}")
    count = _run(a, subject, strategy, matches, log)
    found = frozenset(matches)
    if len(found) != len(matches):
        raise InvariantError("the automaton announced a match twice")
    inspected = None if log is None else tuple(
        pointer + a.states[sid].label for sid, pointer, _ in log)
    return MatchReport(matches=found, node_count=count, inspected=inspected)


def _run(a, subject, strategy, matches, log) -> int:
    """Drain a run from the root, at most one item per subject node.

    ``Parallel(n)`` drains ``n`` items FIFO and deals the waiting ones into
    ``n`` shares; queued on one LIFO deque, a share and all its descendants
    finish before the next one starts.  The subject is measured only when
    the run passes SIZE_CHECK_AFTER items.
    """
    work = deque([(a.initial, [None, (), (), subject])])
    fifo = isinstance(strategy, BreadthFirst)
    shared: dict = {}
    done = 0
    if isinstance(strategy, Parallel):
        n = strategy.workers
        done = _drain(a, work, True, matches, log, shared, n)
        items = list(work)
        work = deque(chain.from_iterable(items[k::n] for k in reversed(range(n))))
    done += _drain(a, work, fifo, matches, log, shared, SIZE_CHECK_AFTER - done)
    if work:
        size = term_size(subject)
        done += _drain(a, work, fifo, matches, log, shared, size - done)
        if work:
            raise _overrun(size)
    return done


def _drain(a, work, fifo, matches, log, shared, limit) -> int:
    """Process (state id, pointer cell) items of ``work`` until it is empty
    or ``limit`` items are done.

    Appends announcements to ``matches``, keeping each position below a
    pointer once in ``shared``, and, when ``log`` is a list, one (state id,
    pointer, fan-out) entry per item.  Returns the number of items
    processed; the callers hold that number to the subject's node count.
    """
    states = a.states
    known = a.signature._by_name.get
    pop = work.popleft if fifo else work.pop
    push = work.append
    done = 0
    while work and done < limit:
        sid, cell = pop()
        state = states[sid]
        node = here = cell[3]
        for i in state.label:
            kids = node.children
            if i < 1 or i > len(kids):
                raise _off_subject(cell, state.label)
            node = kids[i - 1]
        sym = node.symbol
        if sym is None:
            raise SubjectError("subject terms must not contain wildcards")
        name = sym.name
        have = known(name)
        if have is not sym and have != sym:
            raise SubjectError(
                f"subject symbol '{name}' (arity {sym.arity}) is not in the "
                "automaton signature")
        tr = state.delta.get(name)
        if tr is None:
            raise InvariantError(f"state {sid} has no transition for '{name}'")
        if log is not None:
            log.append((sid, _position(cell), len(tr.targets)))
        if tr.outputs:
            at = cell[2] or _position(cell)
            for pid, rel in tr.outputs:
                if rel:
                    pos = at + rel
                    pos = shared.setdefault(pos, pos)
                else:
                    pos = at
                matches.append((pid, pos))
        for tid, shift in tr.targets:
            if shift:
                sub = here
                for i in shift:
                    kids = sub.children
                    if i < 1 or i > len(kids):
                        raise _off_subject(cell, shift)
                    sub = kids[i - 1]
                push((tid, [cell, shift, None, sub]))
            else:
                push((tid, cell))
        done += 1
    return done


def _position(cell) -> Position:
    """The position of a pointer cell, stored in it for its descendants.

    Built with one concatenation onto the nearest ancestor that has one.
    """
    if cell[2] is None:
        up, shifts = cell[0], [cell[1]]
        while up[2] is None:
            shifts.append(up[1])
            up = up[0]
        cell[2] = up[2] + (shifts[0] if len(shifts) == 1
                           else tuple(chain.from_iterable(reversed(shifts))))
    return cell[2]


def _off_subject(cell, path: Position) -> InvariantError:
    """The error for a label or shift that walks off the subject."""
    here, k = cell[3], 0
    while 0 < path[k] <= len(here.children):
        here = here.children[path[k] - 1]
        k += 1
    return InvariantError(
        f"no subject node at {format_position(_position(cell) + path[:k + 1])}; "
        "the automaton and the subject disagree")


def _overrun(size: int) -> InvariantError:
    """The error for a run that needs more items than the subject has nodes."""
    return InvariantError(
        f"the automaton needs more than one work item per subject node "
        f"({size} nodes); it is not a set automaton for this subject")


@dataclass
class EvalNode:
    """One work item of an evaluation, with its successor items."""

    state: int
    pointer: Position
    children: list


def evaluation_tree(a: SetAutomaton, subject: Term) -> EvalNode:
    """The explicit tree of work items rooted at (initial state, root).

    Built from a breadth-first instrumented run: a FIFO run processes each
    item's children right after the children of the items before it, so
    every node's children come in the order of its transition's targets.
    """
    log: list = []
    _run(a, subject, BreadthFirst(), [], log)
    nodes = [EvalNode(sid, pointer, []) for sid, pointer, _ in log]
    rest = iter(nodes[1:])
    for node, (_, _, fanout) in zip(nodes, log):
        node.children.extend(islice(rest, fanout))
    return nodes[0]


def tree_nodes(root: EvalNode):
    """Iterate every node of an evaluation tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)
