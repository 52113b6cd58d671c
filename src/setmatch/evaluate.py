"""Run a compiled automaton over a closed subject term.

The subject is read in preorder, as the symbol names and subtree ends of
:class:`~setmatch.terms.Flat`: a parsed subject brings that form, and a
built term is flattened by one walk first, so a run builds no ``Term``.
Its symbols are checked against the automaton's signature once per run,
before the first item.

The unit of work is the paper's (state, pointer) item.  Processing an item
inspects exactly one subject symbol, the one at pointer + state label,
announces the transition's outputs shifted by the pointer, and enqueues one
child item per target.  Every subject position is inspected exactly once
over the whole run, so a run that needs more items than the subject has
nodes has met a damaged automaton and raises ``InvariantError``; the flat
form knows the node count, so that bound is one compare per item.  The
order in which the work set is drained (LIFO, FIFO, or in dealt shares)
changes nothing about the reported match set.

A pointer is a parent-linked cell ``[parent cell, shift, position or None,
node]``, shared with the parent when the shift is empty.  A run keeps one
table from node index to position tuple, and every position it builds
goes through it, so each position is one tuple in the whole run, a
pointer's and a match's alike.  A pointer's position is built only for a
cell whose item announces a match, with one concatenation onto the
nearest ancestor that has one, so one run costs time linear in the
subject plus the size of its matches.  Every output's relative position
is a prefix of its state's label (``build`` makes it so and a document
stores it as a depth into the label), so an output's node is reached
from the pointer's by the label's first steps, which the item's label
walk has already checked, and its position is built the first time the
run announces there.
"""

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice

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
        if type(self.workers) is not int or not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"Parallel needs 1 to {MAX_WORKERS} workers, "
                             f"not {self.workers!r}")


@dataclass
class MatchReport:
    """What one evaluation produced.

    ``matches`` holds absolute (pattern id, position) pairs, and the
    matches at one position share one tuple, the one the run gives every
    pointer there.  ``node_count`` is the number of work items processed,
    which equals the number of subject positions inspected.  ``inspected``
    lists every inspected position when the run was instrumented, in
    processing order.
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
    holds its subject node.  Raises ``SubjectError`` for a wildcard or a
    symbol outside ``a``'s signature, and ``InvariantError`` when the run
    needs more work items than the subject has nodes.
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
    finish before the next one starts.  Every drain of the run shares one
    position table ``at``, from node index to position.
    """
    names, ends = _preorder(a.signature, subject)
    size = len(names)
    root = ()
    work = deque([(a.initial, [None, root, root, 0])])
    fifo = isinstance(strategy, BreadthFirst)
    at = {0: root}
    done = 0
    if isinstance(strategy, Parallel):
        n = strategy.workers
        done = _drain(a, names, ends, work, True, matches, log, at, min(n, size))
        items = list(work)
        work = deque(chain.from_iterable(items[k::n] for k in reversed(range(n))))
    done += _drain(a, names, ends, work, fifo, matches, log, at, size - done)
    if work:
        raise _overrun(size)
    return done


def _preorder(sig, subject: Term):
    """The subject's symbol names and subtree ends in preorder (see
    :class:`~setmatch.terms.Flat`), every symbol checked against ``sig``.

    A parsed subject brings its flat form.  Parsed against ``sig`` itself,
    it needs a check only for wildcards; parsed against another signature,
    each distinct name is checked once.  A built term is flattened by one
    preorder walk that checks each node.  The first fault in preorder
    raises ``SubjectError``.
    """
    known = sig._by_name.get
    flat = getattr(subject, "_flat", None)
    if flat is not None:
        if flat.signature is not sig:
            theirs = flat.signature._by_name.get
            for name in dict.fromkeys(flat.names):
                _check_symbol(theirs(name), known)
        elif flat.wildcards:
            _check_symbol(None, known)
        return flat.names, flat.ends
    names: list = []
    ends: list = []
    stack: list = [subject]
    while stack:
        node = stack.pop()
        if type(node) is int:  # the subtree of node ``node`` is done
            ends[node] = len(names)
            continue
        sym = node.symbol
        _check_symbol(sym, known)
        k = len(names)
        names.append(sym.name)
        kids = node.children
        if kids:
            ends.append(0)
            stack.append(k)
            stack.extend(reversed(kids))
        else:
            ends.append(k + 1)
    return names, ends


def _check_symbol(sym, known) -> None:
    """Raise ``SubjectError`` unless ``sym`` is a symbol of the signature
    whose lookup is ``known``."""
    if sym is None:
        raise SubjectError("subject terms must not contain wildcards")
    have = known(sym.name)
    if have is not sym and have != sym:
        raise SubjectError(
            f"subject symbol '{sym.name}' (arity {sym.arity}) is not in the "
            "automaton signature")


def _drain(a, names, ends, work, fifo, matches, log, at, limit) -> int:
    """Process (state id, pointer cell) items of ``work`` until it is empty
    or ``limit`` items are done.

    The subject is ``names`` and ``ends`` in preorder; child ``i`` of node
    ``k`` is reached from node ``k + 1`` by ``i - 1`` skips to a subtree's
    end, each checked against the end of node ``k``'s subtree.  Appends
    announcements to ``matches`` and, when ``log`` is a list, one (state
    id, pointer, fan-out) entry per item.  An output at the pointer takes
    the pointer's position.  Any other output's node is the inspected one
    when its depth is the label's, else it is reached again from the
    pointer's node by the label's first steps; its position is ``at``'s
    entry for that node, built from the pointer's position and those steps
    the first time.  Returns the number of items processed; the caller
    holds that number to the subject's node count.
    """
    states = a.states
    pop = work.popleft if fifo else work.pop
    push = work.append
    done = 0
    while work and done < limit:
        sid, cell = pop()
        state = states[sid]
        label = state.label
        node = here = cell[3]
        for i in label:
            end = ends[node]
            node += 1
            while i > 1 and node < end:
                node = ends[node]
                i -= 1
            if i != 1 or node >= end:
                raise _off_subject(ends, cell, label, at)
        name = names[node]
        tr = state.delta.get(name)
        if tr is None:
            raise InvariantError(f"state {sid} has no transition for '{name}'")
        if log is not None:
            log.append((sid, _position(cell, at), len(tr.targets)))
        if tr.outputs:
            base = cell[2]
            if base is None:
                base = _position(cell, at)
            for pid, rel in tr.outputs:
                n = len(rel)
                if not n:
                    pos = base
                else:
                    if n == len(label):
                        k, steps = node, label
                    else:
                        k, steps = here, label[:n]
                        for i in steps:
                            k += 1
                            while i > 1:
                                k = ends[k]
                                i -= 1
                    pos = at.get(k)
                    if pos is None:
                        pos = at[k] = base + steps
                matches.append((pid, pos))
        for tid, shift in tr.targets:
            if shift:
                sub = here
                for i in shift:
                    end = ends[sub]
                    sub += 1
                    while i > 1 and sub < end:
                        sub = ends[sub]
                        i -= 1
                    if i != 1 or sub >= end:
                        raise _off_subject(ends, cell, shift, at)
                push((tid, [cell, shift, None, sub]))
            else:
                push((tid, cell))
        done += 1
    return done


def _position(cell, at) -> Position:
    """The position of a pointer cell, stored in it for its descendants.

    It is ``at``'s entry for the cell's node if the run has built one.
    Otherwise it is built with one concatenation onto the nearest ancestor
    cell that holds a position, and entered in ``at``.  The cells between
    keep none: on a deep unary chain, keeping every prefix of a pointer's
    position would take memory quadratic in the depth.
    """
    pos = cell[2]
    if pos is None:
        pos = at.get(cell[3])
        if pos is None:
            up, shifts = cell[0], [cell[1]]
            while up[2] is None:
                shifts.append(up[1])
                up = up[0]
            if len(shifts) > 1:
                pos = up[2] + tuple(chain.from_iterable(reversed(shifts)))
            else:
                pos = up[2] + cell[1]
            at[cell[3]] = pos
        cell[2] = pos
    return pos


def _off_subject(ends, cell, path: Position, at) -> InvariantError:
    """The error for a label or shift that walks off the subject."""
    node, k = cell[3], 0
    while True:
        i, end = path[k], ends[node]
        child = node + 1
        while i > 1 and child < end:
            child = ends[child]
            i -= 1
        if i != 1 or child >= end:
            break
        node = child
        k += 1
    where = _position(cell, at) + path[:k + 1]
    return InvariantError(
        f"no subject node at {format_position(where)}; "
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
