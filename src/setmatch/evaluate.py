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
node]``, shared with the parent when the shift is empty.  Its position
tuple is built only for a cell whose item announces a match, so one run
costs time linear in the subject plus the size of its matches.  A match
position below a pointer is kept once per run in one table.  Every
output's relative position is a prefix of its state's label (``build``
makes it so and a document stores it as a depth into the label), so a
transition's outputs lie on one chain below the pointer.  Below a pointer
position shorter than LONG, a match position is built whole, then looked
up.  Below a longer one, the
chain is walked from the pointer's position through a per-run step trie,
one dict lookup per step of the deepest output, and a position is built,
one step at a time, only the first time the run reaches it.  A pointer
whose parent holds a position of LONG steps or more reaches its own
through the same trie, one lookup per step of its shift.  Every position
of LONG steps or more, a pointer's or a match's, is then one tuple in the
whole run.
"""

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice

from .automaton import SetAutomaton
from .errors import InvariantError, SubjectError
from .positions import Position, format_position
from .terms import Term

MAX_WORKERS = 64
# A repeated transition's outputs cost the whole-tuple path about 200 ns +
# 12 ns per step of the match position, per output.  The chain walk costs
# about 150 ns, plus 450 ns per output that grows the chain and 180 ns per
# further step it grows, plus 80 ns per output that does not grow it
# (CPython 3.11, a 2-vCPU VM whose empty loop ran at 18-25 ns an iteration;
# one transition timed on a warm trie, best of 15 rounds).  The chain breaks
# even at about 22 steps for the comb transitions (4 or 8 outputs, one step
# apart), 31 for one output one step below the pointer, 44 for two steps and
# about 110 for seven.  At 64 no match of the ``corpus`` (deepest 37) or
# ``scan`` (deepest 51) benchmark workloads takes the trie, and 0.86 of
# ``deep``'s (seed 101) do.
LONG = 64


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

    ``matches`` holds absolute (pattern id, position) pairs; the matches at
    one position below a pointer share one position tuple, and a position
    at least LONG steps deep has one tuple in the whole run, the pointer's
    own included.  ``node_count``
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
    position table ``shared`` and one step trie ``below``.
    """
    names, ends = _preorder(a.signature, subject)
    size = len(names)
    work = deque([(a.initial, [None, (), (), 0])])
    fifo = isinstance(strategy, BreadthFirst)
    shared: dict = {}
    # Liveness: every tuple whose id keys ``below`` is a value of ``shared``,
    # so it lives as long as the run and its id is never reused.  Only a
    # pointer position shorter than LONG stays out of ``shared``, and it
    # never keys ``below``.
    below: dict = {}
    done = 0
    if isinstance(strategy, Parallel):
        n = strategy.workers
        done = _drain(a, names, ends, work, True, matches, log, shared, below,
                      min(n, size))
        items = list(work)
        work = deque(chain.from_iterable(items[k::n] for k in reversed(range(n))))
    done += _drain(a, names, ends, work, fifo, matches, log, shared, below,
                   size - done)
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


def _drain(a, names, ends, work, fifo, matches, log, shared, below, limit) -> int:
    """Process (state id, pointer cell) items of ``work`` until it is empty
    or ``limit`` items are done.

    The subject is ``names`` and ``ends`` in preorder; child ``i`` of node
    ``k`` is reached from node ``k + 1`` by ``i - 1`` skips to a subtree's
    end, each checked against the end of node ``k``'s subtree.  Appends
    announcements to ``matches``, keeping each position below a pointer
    once in ``shared``, and, when ``log`` is a list, one (state id,
    pointer, fan-out) entry per item.  Below a pointer position shorter
    than LONG, a match position is built whole and looked up in
    ``shared``.  Below a longer one, ``reached`` holds the positions
    reached so far from the pointer's, one per step; an output deeper than
    its end extends it one step at a time through ``below``, with the steps
    of the output's own relative position.  Outputs lie on the state's
    label, so they all extend one chain, and each costs one lookup per step
    it adds.  ``below`` maps (id of a position, step) to the interned child
    position; a missing child is built with one concatenation and interned
    in ``shared``.  Returns the number of items processed; the caller holds
    that number to the subject's node count.
    """
    states = a.states
    pop = work.popleft if fifo else work.pop
    push = work.append
    done = 0
    while work and done < limit:
        sid, cell = pop()
        state = states[sid]
        node = here = cell[3]
        for i in state.label:
            end = ends[node]
            node += 1
            while i > 1 and node < end:
                node = ends[node]
                i -= 1
            if i != 1 or node >= end:
                raise _off_subject(ends, cell, state.label, shared, below)
        name = names[node]
        tr = state.delta.get(name)
        if tr is None:
            raise InvariantError(f"state {sid} has no transition for '{name}'")
        if log is not None:
            log.append((sid, _position(cell, shared, below), len(tr.targets)))
        if tr.outputs:
            at = cell[2] or _position(cell, shared, below)
            if len(at) < LONG:
                for pid, rel in tr.outputs:
                    if rel:
                        pos = at + rel
                        pos = shared.setdefault(pos, pos)
                    else:
                        pos = at
                    matches.append((pid, pos))
            else:
                reached = [at]
                for pid, rel in tr.outputs:
                    n = len(rel)
                    if n >= len(reached):
                        pos = reached[-1]
                        for step in rel[len(reached) - 1:]:
                            key = (id(pos), step)
                            child = below.get(key)
                            if child is None:
                                child = pos + (step,)
                                child = below[key] = shared.setdefault(child, child)
                            reached.append(child)
                            pos = child
                    matches.append((pid, reached[n]))
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
                        raise _off_subject(ends, cell, shift, shared, below)
                push((tid, [cell, shift, None, sub]))
            else:
                push((tid, cell))
        done += 1
    return done


def _position(cell, shared, below) -> Position:
    """The position of a pointer cell, stored in it for its descendants.

    When the parent cell holds a position of at least LONG steps, the
    cell's own is reached from it through the step trie ``below``, one
    lookup per step of the cell's shift.  Otherwise it is built with one
    concatenation onto the nearest ancestor that has one, and interned in
    ``shared`` when it is at least LONG steps deep, so that it may key the
    trie.  The trie is never walked across more than the one shift: on a
    deep unary chain, walking every shift up to the nearest positioned
    ancestor would keep every prefix of a pointer's position, memory
    quadratic in the depth.
    """
    if cell[2] is None:
        up, shifts = cell[0], [cell[1]]
        while up[2] is None:
            shifts.append(up[1])
            up = up[0]
        if len(shifts) > 1:
            pos = up[2] + tuple(chain.from_iterable(reversed(shifts)))
        elif len(up[2]) < LONG:
            pos = up[2] + cell[1]
        else:
            cell[2] = _walk(up[2], cell[1], shared, below)
            return cell[2]
        cell[2] = shared.setdefault(pos, pos) if len(pos) >= LONG else pos
    return cell[2]


def _walk(pos, path: Position, shared, below) -> Position:
    """The interned position ``pos + path``, reached one step of ``path`` at
    a time through ``below``; ``pos`` must be interned in ``shared``.

    ``_drain`` keeps an inline copy of this loop for announcements.
    """
    for step in path:
        key = (id(pos), step)
        child = below.get(key)
        if child is None:
            child = pos + (step,)
            child = below[key] = shared.setdefault(child, child)
        pos = child
    return pos


def _off_subject(ends, cell, path: Position, shared, below) -> InvariantError:
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
    where = _position(cell, shared, below) + path[:k + 1]
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
