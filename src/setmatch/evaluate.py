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

A pointer is the preorder index of its subject node, so a work item is
two ints.  The run records each announcement as a pattern id and a node
index.  Every output's relative position is a prefix of its state's
label (``build`` makes it so and a document stores it as a depth into
the label), so an output's node is reached from the pointer's by the
label's first steps, which the item's label walk has already checked.
Positions are made once, after the drain, by one walk down from the
root over the nodes that a report, an instrumented run or an error
shows: each gets one tuple, which every match there shares, so a run
costs one sort of those nodes plus time linear in the subject and in the
size of its matches.
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

    ``matches`` holds absolute (pattern id, position) pairs, built after
    the run from the node each announcement named, and the matches at one
    position share one tuple.  ``node_count`` is the number of work items
    processed, which equals the number of subject positions inspected.
    ``inspected`` lists every inspected position when the run was
    instrumented, in processing order.
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
    subject.  ``carry_subterms`` is accepted and ignored: every pointer is
    a node index.  Raises ``SubjectError`` for a wildcard or a symbol
    outside ``a``'s signature, and ``InvariantError`` when the run needs
    more work items than the subject has nodes.
    """
    if not isinstance(strategy, (DepthFirst, BreadthFirst, Parallel)):
        raise TypeError(f"unknown strategy {strategy!r}")
    pids: list = []
    nodes: list = []
    log: list | None = [] if instrument else None
    count, ends = _run(a, subject, strategy, pids, nodes, log)
    seen = nodes if log is None else chain(nodes, (k for _, _, k, _ in log))
    at = _positions(ends, seen)
    found = frozenset(zip(pids, map(at.__getitem__, nodes)))
    if len(found) != len(pids):
        raise InvariantError("the automaton announced a match twice")
    inspected = None if log is None else tuple(at[k] for _, _, k, _ in log)
    return MatchReport(matches=found, node_count=count, inspected=inspected)


def _run(a, subject, strategy, pids, nodes, log):
    """Drain a run from the root, at most one item per subject node, and
    return the number of items done and the subject's subtree ends.

    ``Parallel(n)`` drains ``n`` items FIFO and deals the waiting ones into
    ``n`` shares; queued on one LIFO deque, a share and all its descendants
    finish before the next one starts.
    """
    names, ends = _preorder(a.signature, subject)
    size = len(names)
    work = deque([(a.initial, 0)])
    fifo = isinstance(strategy, BreadthFirst)
    done = 0
    if isinstance(strategy, Parallel):
        n = strategy.workers
        done = _drain(a, names, ends, work, True, pids, nodes, log, min(n, size))
        items = list(work)
        work = deque(chain.from_iterable(items[k::n] for k in reversed(range(n))))
    done += _drain(a, names, ends, work, fifo, pids, nodes, log, size - done)
    if work:
        raise _overrun(size)
    return done, ends


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


def _drain(a, names, ends, work, fifo, pids, nodes, log, limit) -> int:
    """Process (state id, node) items of ``work`` until it is empty or
    ``limit`` items are done.

    The subject is ``names`` and ``ends`` in preorder; child ``i`` of node
    ``k`` is reached from node ``k + 1`` by ``i - 1`` skips to a subtree's
    end, each checked against the end of node ``k``'s subtree.  Appends
    each announcement's pattern id to ``pids`` and its node to ``nodes``
    and, when ``log`` is a list, one (state id, pointer node, inspected
    node, fan-out) entry per item.  An output at the pointer names the
    pointer's node, one at the label's depth the inspected node; any other
    output's node is reached again from the pointer's by the label's first
    steps.  Returns the number of items processed; the caller holds that
    number to the subject's node count.
    """
    states = a.states
    pop = work.popleft if fifo else work.pop
    push = work.append
    add_pid, add_node = pids.append, nodes.append
    done = 0
    while work and done < limit:
        sid, here = pop()
        state = states[sid]
        label = state.label
        node = here
        for i in label:
            end = ends[node]
            node += 1
            while i > 1 and node < end:
                node = ends[node]
                i -= 1
            if i != 1 or node >= end:
                raise _off_subject(ends, here, label)
        name = names[node]
        tr = state.delta.get(name)
        if tr is None:
            raise InvariantError(f"state {sid} has no transition for '{name}'")
        if log is not None:
            log.append((sid, here, node, len(tr.targets)))
        for pid, rel in tr.outputs:
            n = len(rel)
            if not n:
                k = here
            elif n == len(label):
                k = node
            else:
                k = here
                for i in label[:n]:
                    k += 1
                    while i > 1:
                        k = ends[k]
                        i -= 1
            add_pid(pid)
            add_node(k)
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
                        raise _off_subject(ends, here, shift)
                push((tid, sub))
            else:
                push((tid, here))
        done += 1
    return done


def _positions(ends, nodes) -> dict:
    """The position of every node in ``nodes``, one tuple per node, by
    node index.

    The nodes are visited in preorder by one walk down from the root that
    keeps the subtree ends and child numbers of the path to the last node
    visited.  It climbs only out of finished subtrees and goes on from the
    next sibling, so it skips each subtree at most once.
    """
    at = {}
    stops, steps = [ends[0]], []
    child, i = 1, 1  # the next child of the path's last node, and its number
    for node in sorted(set(nodes)):
        while node >= stops[-1]:
            child = stops.pop()
            i = steps.pop() + 1
        while child <= node:
            end = ends[child]
            while end <= node:
                child = end
                end = ends[child]
                i += 1
            stops.append(end)
            steps.append(i)
            child, i = child + 1, 1
        at[node] = tuple(steps)
    return at


def _off_subject(ends, node, path: Position) -> InvariantError:
    """The error for a label or shift that walks off the subject from
    node ``node``."""
    for k, i in enumerate(path):
        end = ends[node]
        child = node + 1
        while i > 1 and child < end:
            child = ends[child]
            i -= 1
        if i != 1 or child >= end:
            break
        node = child
    where = _positions(ends, (node,))[node] + (path[k],)
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
    _, ends = _run(a, subject, BreadthFirst(), [], [], log)
    at = _positions(ends, (here for _, here, _, _ in log))
    nodes = [EvalNode(sid, at[here], []) for sid, here, _, _ in log]
    rest = iter(nodes[1:])
    for node, (_, _, _, fanout) in zip(nodes, log):
        node.children.extend(islice(rest, fanout))
    return nodes[0]


def tree_nodes(root: EvalNode):
    """Iterate every node of an evaluation tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)
