"""Run a compiled automaton over a closed subject term.

The unit of work is a (state, pointer, subterm) item, the subterm being the
subject node at the pointer.  Processing an item inspects exactly one
subject symbol, the one at pointer + state label, announces the
transition's outputs shifted by the pointer, and enqueues one child item per
target.  Every subject position is inspected exactly once over the whole
run, and the order in which the work set is drained (LIFO, FIFO, or shares
dealt to threads) changes nothing about the reported match set.

A pointer is a parent-linked cell ``[parent cell, shift, position or
None]``, shared with the parent when the shift is empty.  Its position
tuple is built only for a cell whose item announces a match, so one run
costs time linear in the subject plus the size of its matches.  A match
position below a pointer is built and kept once per run (once per thread
under ``Parallel``), however many patterns match there.
"""

import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

from .automaton import SetAutomaton
from .errors import InvariantError, SubjectError
from .positions import Position, format_position
from .terms import Term

MAX_WORKERS = 64


@dataclass(frozen=True)
class DepthFirst:
    """Drain the work set LIFO."""


@dataclass(frozen=True)
class BreadthFirst:
    """Drain the work set FIFO."""


@dataclass(frozen=True)
class Parallel:
    """Split the work set between a fixed number of threads, 1 to MAX_WORKERS."""

    workers: int = 4

    def __post_init__(self):
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"Parallel needs 1 to {MAX_WORKERS} workers, "
                             f"not {self.workers}")


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
    subject.  ``carry_subterms`` is accepted and ignored: every work item
    carries its subterm.
    """
    log: list | None = [] if instrument else None
    matches: list = []
    if isinstance(strategy, Parallel):
        count = _parallel(a, subject, strategy.workers, matches, log)
    elif isinstance(strategy, (DepthFirst, BreadthFirst)):
        count = _drain(a, _root(a, subject), isinstance(strategy, BreadthFirst),
                       matches, log)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    found = frozenset(matches)
    if len(found) != len(matches):
        raise InvariantError("the automaton announced a match twice")
    inspected = None if log is None else tuple(
        pointer + a.states[sid].label for sid, pointer, _ in log)
    return MatchReport(matches=found, node_count=count, inspected=inspected)


def _root(a: SetAutomaton, subject: Term) -> deque:
    """A work set holding the initial item: the initial state at the root."""
    return deque([(a.initial, [None, (), ()], subject, -1)])


def _drain(a, work, fifo, matches, log, until=sys.maxsize) -> int:
    """Process items of ``work`` until it is empty or holds ``until`` items.

    Appends announcements to ``matches``, building each position below a
    pointer once per call, and, when ``log`` is a list, one (state id,
    pointer, parent item index) entry per item; the index counts items of
    this call, so it names the parent only in a drain from the root.
    Returns the number of items processed.
    """
    states = a.states
    known = a.signature._by_name.get
    pop = work.popleft if fifo else work.pop
    push = work.append
    shared: dict = {}
    done = 0
    while 0 < len(work) < until:
        sid, cell, here, parent = pop()
        state = states[sid]
        node = here
        for i in state.label:
            kids = node.children
            if i < 1 or i > len(kids):
                raise _off_subject(cell, here, state.label)
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
            log.append((sid, _position(cell), parent))
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
                        raise _off_subject(cell, here, shift)
                    sub = kids[i - 1]
                push((tid, [cell, shift, None], sub, done))
            else:
                push((tid, cell, here, done))
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


def _off_subject(cell, here: Term, path: Position) -> InvariantError:
    """The error for a label or shift that walks off the subject."""
    k = 0
    while 0 < path[k] <= len(here.children):
        here = here.children[path[k] - 1]
        k += 1
    return InvariantError(
        f"no subject node at {format_position(_position(cell) + path[:k + 1])}; "
        "the automaton and the subject disagree")


def _parallel(a, subject, workers, matches, log) -> int:
    """Drain FIFO until ``workers`` items wait, then deal them to threads."""
    work = _root(a, subject)
    done = _drain(a, work, True, matches, log, until=workers)
    if not work:
        return done
    items = list(work)
    shares = [(deque(items[k::workers]), [], None if log is None else [])
              for k in range(workers)]
    with ThreadPoolExecutor(workers, thread_name_prefix="setmatch-eval") as pool:
        runs = [pool.submit(_drain, a, share, False, found, seen)
                for share, found, seen in shares]
    for run, (_, found, seen) in zip(runs, shares):
        done += run.result()  # re-raises the first failure, in share order
        matches.extend(found)
        if log is not None:
            log.extend(seen)
    return done


@dataclass
class EvalNode:
    """One work item of an evaluation, with its successor items."""

    state: int
    pointer: Position
    children: list


def evaluation_tree(a: SetAutomaton, subject: Term) -> EvalNode:
    """The explicit tree of work items rooted at (initial state, root).

    Built from a breadth-first instrumented run, so every node's children
    come in the order of its transition's targets.
    """
    log: list = []
    _drain(a, _root(a, subject), True, [], log)
    nodes = [EvalNode(sid, pointer, []) for sid, pointer, _ in log]
    for node, (_, _, parent) in zip(nodes, log):
        if parent >= 0:
            nodes[parent].children.append(node)
    return nodes[0]


def tree_nodes(root: EvalNode):
    """Iterate every node of an evaluation tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)
