"""Compilation of a pattern set into its matching automaton.

A state is a canonical set of match goals plus a label: the position the
state inspects next, always taken from a root goal's obligations.  Observing
a symbol at the label advances every goal, and the surviving goal set is
split into dependency classes; each class, shifted back to its own root,
becomes one successor state.  Goals completed by the observation leave the
state machine as outputs.  A transition with no targets is the implicit
final state: nothing is left to watch below this point.

:func:`build` works on compact keys: a state's non-fresh goals plus the
positions of its fresh families, each standing for one fresh goal per
pattern.  Only the goals at the label see the symbol, so a step is split
three ways.  Once per build and symbol, the family at the root is stepped,
partitioned and lifted; under a label its classes keep their keys.  Once
per state, the members away from the label are partitioned and lifted, and
the goals at the label are grouped by the symbol they demand.  Once per
step, only that symbol's group is stepped; when a goal survives, the away
members, the survivors and the symbol's classes under the label are
partitioned afresh.  ``State.goals`` is a view: a built state expands and
sorts its key on the first read and keeps the tuple.
:func:`derivative` is the paper's goal-by-goal step, kept apart from
:func:`build` as the reference the tests check it against.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import InvariantError
from .goals import (Goal, Outcome, canonical_goals, dependency_partition,
                    fresh_goal, goal_outcome, goal_sort_key, lift_class)
from .positions import Position, format_position, prefix_leq
from .terms import PatternSet, Signature, Symbol, domain

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"
_STRATEGIES = (LEFTMOST, RIGHTMOST)

Announcement = tuple[int, Position]  # (pattern id, position relative to the state)
TargetRef = tuple[int, Position]     # (state id, pointer shift)


@dataclass(frozen=True)
class Transition:
    outputs: tuple[Announcement, ...]
    targets: tuple[TargetRef, ...]  # empty tuple = implicit final state


@dataclass
class State:
    label: Position
    goals: tuple[Goal, ...] | None  # canonical order; None in a loaded state
    delta: dict = field(default_factory=dict)  # symbol name -> Transition


class _BuiltState(State):
    """A state of :func:`build`: its interned key, and its goals on first read."""

    def __init__(self, label: Position, key: frozenset, patterns):
        self.label, self.delta = label, {}
        self.key, self._patterns = key, patterns

    @cached_property
    def goals(self) -> tuple[Goal, ...]:
        return canonical_goals(_expand(self.key, self._patterns))


@dataclass
class SetAutomaton:
    patterns: PatternSet
    label_strategy: str
    states: list[State]
    initial: int = 0

    @property
    def signature(self) -> Signature:
        return self.patterns.signature


def transition_count(a: SetAutomaton) -> int:
    """Number of (state, symbol, target) edges."""
    return sum(len(tr.targets) for st in a.states for tr in st.delta.values())


def choose_label(members, strategy: str) -> Position:
    """Pick the state's inspection position among root-goal obligations.

    Members are goals, or fresh positions standing for their families.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown label strategy {strategy!r}")
    candidates = {pos for m in members if isinstance(m, Goal) and m.is_root
                  for _, pos in m.obligation}
    if () in members:  # the fresh family at the root
        candidates.add(())
    if not candidates:
        raise InvariantError("state has no root goal to take a label from")
    return min(candidates) if strategy == LEFTMOST else max(candidates)


def derivative(state: State, symbol: Symbol, ps: PatternSet) -> list[Goal]:
    """Goal set after observing ``symbol`` at the state's label, goal by goal.

    Unchanged and reduced goals survive; discarded and completed goals drop
    out (completions are reported by :func:`outputs` instead); fresh goals
    appear below the observed position, one per pattern and argument.  This
    is the paper's definition, written apart from :func:`build`'s compact
    step so that the tests can check that step against it.
    """
    out = []
    for g in state.goals:
        outcome, reduced = goal_outcome(g, symbol, state.label)
        if outcome is Outcome.UNCHANGED:
            out.append(g)
        elif outcome is Outcome.REDUCED:
            out.append(reduced)
    for i in range(1, symbol.arity + 1):
        out.extend(fresh_goal(pid, pat, state.label + (i,))
                   for pid, pat in enumerate(ps.patterns))
    return out


def outputs(state: State, symbol: Symbol) -> tuple[Announcement, ...]:
    """Announcements of goals that ``symbol`` at the label would complete.

    These are exactly the goals whose whole obligation is a lone
    ``symbol(_,...,_)`` at the label.
    """
    outs = []
    for g in state.goals:
        if len(g.obligation) == 1:
            ((term, pos),) = g.obligation
            if (pos == state.label and term.symbol == symbol
                    and all(c.symbol is None for c in term.children)):
                outs.append((g.pattern, g.announce))
    return tuple(sorted(outs))


def _table(roots, symbol: Symbol):
    """The announcements that ``symbol`` completes in ``roots``, the fresh
    family at the root, and the :func:`_classes` of the goals it reduces
    with the argument positions, relative to the observed position."""
    reduced, done = _observe(roots, symbol, ())
    return done, _classes(reduced + [(i,) for i in range(1, symbol.arity + 1)])


def _classes(members) -> list:
    """A (shift, key, class) triple per dependency class of ``members``."""
    return [(shift, frozenset(lifted), klass) for klass in dependency_partition(members)
            for lifted, shift in [lift_class(klass)]]


def _split(key: frozenset, label: Position):
    """A key's members away from ``label``, and its goals at it by the one
    symbol they demand (one that demands two is always discarded): the part
    of a step that no symbol changes.  The fresh family at ``label``, which
    the symbol's table steps, must be in the key and is in neither result."""
    if label not in key:
        raise InvariantError(f"no fresh family at the label {format_position(label)}")
    away = []
    watching: dict[Symbol, list[Goal]] = {}
    for m in key:
        if not isinstance(m, Goal):
            if m != label:
                away.append(m)
            continue
        demanded = {t.symbol for t, p in m.obligation if p == label}
        if not demanded:
            away.append(m)
        elif len(demanded) == 1:
            watching.setdefault(*demanded, []).append(m)
    return away, watching


def _observe(goals, symbol: Symbol, at: Position):
    """The goals that ``symbol`` at ``at`` reduces, and those it completes."""
    survivors, completed = [], []
    for g in goals:
        outcome, reduced = goal_outcome(g, symbol, at)
        if outcome is Outcome.REDUCED:
            survivors.append(reduced)
        elif outcome is Outcome.COMPLETED:
            completed.append((g.pattern, g.announce))
    return survivors, completed


def _lower(m, at: Position):
    """A class member relative to the root, moved down to ``at``."""
    if not isinstance(m, Goal):
        return at + m
    return Goal(frozenset((t, at + q) for t, q in m.obligation), m.pattern, at + m.announce)


def _expand(key: frozenset, patterns) -> list[Goal]:
    """The goals of a compact key: its non-fresh goals, and one fresh goal
    per pattern at each of its positions."""
    out = []
    for m in key:
        if isinstance(m, Goal):
            out.append(m)
        else:
            out.extend(fresh_goal(pid, pat, m) for pid, pat in enumerate(patterns))
    return out


def _order_targets(entries: list, patterns) -> None:
    """Sort a transition's (shift, key) entries as their full goal sets sort.

    That order is by shift, then by the canonical goal order; two targets
    of one transition rarely share a shift, so the goal order, which expands
    every fresh family, is computed only when they do.
    """
    if len(entries) < 2 or len({shift for shift, _ in entries}) == len(entries):
        entries.sort(key=itemgetter(0))
        return

    def goal_order(entry):
        shift, key = entry
        return shift, tuple(map(goal_sort_key, canonical_goals(_expand(key, patterns))))

    entries.sort(key=goal_order)


def build(ps: PatternSet, label_strategy: str = RIGHTMOST) -> SetAutomaton:
    """Compile ``ps``; deterministic for a fixed strategy.

    Worklist construction with states deduplicated by their compact key,
    which is equal exactly when the full goal sets are.  New ids are handed
    out in discovery order; symbols are visited in signature declaration
    order and successor classes in the canonical order of their goal sets,
    so rebuilding yields an identical automaton.
    """
    if label_strategy not in _STRATEGIES:
        raise ValueError(f"unknown label strategy {label_strategy!r}")
    sig = ps.signature
    patterns = ps.patterns
    roots = [fresh_goal(pid, pat, ()) for pid, pat in enumerate(patterns)]
    tables = {symbol: _table(roots, symbol) for symbol in sig}
    states: list[_BuiltState] = []
    ids: dict[frozenset, int] = {}
    pending: deque[int] = deque()

    def intern(key: frozenset) -> int:
        sid = ids.get(key)
        if sid is None:
            sid = len(states)
            ids[key] = sid
            states.append(_BuiltState(choose_label(key, label_strategy), key, patterns))
            pending.append(sid)
        return sid

    intern(frozenset({()}))  # the initial state: one fresh root goal per pattern
    while pending:
        state = states[pending.popleft()]
        label = state.label
        away, watching = _split(state.key, label)
        fixed = [(shift, key) for shift, key, _ in _classes(away)]
        for symbol in sig:
            done, table = tables[symbol]
            survivors, completed = _observe(watching.get(symbol, ()), symbol, label)
            completed.extend((pid, label) for pid, _ in done)
            if survivors:
                below = [_lower(m, label) for *_, klass in table for m in klass]
                entries = [(shift, key) for shift, key, _
                           in _classes(away + survivors + below)]
            else:
                entries = fixed + [(label + shift, key) for shift, key, _ in table]
            _order_targets(entries, patterns)
            state.delta[symbol.name] = Transition(tuple(sorted(completed)), tuple(
                (intern(key), shift) for shift, key in entries))
    return SetAutomaton(patterns=ps, label_strategy=label_strategy, states=states)


def reachable_position_bound(ps: PatternSet) -> set[Position]:
    """Every obligation position any reachable state can mention.

    All suffixes of q.i, for q a position of some pattern and i up to the
    signature's widest arity.  A constant-only signature admits only the
    root.
    """
    n = ps.signature.max_arity
    if n == 0:
        return {()}
    out: set[Position] = set()
    for pat in ps.patterns:
        for q in domain(pat):
            for i in range(1, n + 1):
                full = q + (i,)
                for k in range(len(full) + 1):
                    out.add(full[k:])
    return out


def verify_automaton(a: SetAutomaton) -> None:
    """Check ``a``, built or loaded, against its rebuild; raise InvariantError.

    ``build`` is deterministic, so the rebuild from ``a``'s patterns and label
    strategy is its exact specification: ``a`` must agree with it on the
    initial state and on every label, output and target.  ``a``'s own goals
    are never read.  Checked per state of the rebuild: a root goal exists;
    the label is one of a root goal's obligation positions; distinct
    obligation positions are pairwise incomparable; every obligation
    position carries a fresh goal for every pattern; obligation positions
    stay within the reachable bound; announcements prefix their obligations.
    """
    rebuilt = build(a.patterns, a.label_strategy)
    _verify_goals(rebuilt)
    _compare(a, rebuilt)


def _compare(a: SetAutomaton, rebuilt: SetAutomaton) -> None:
    """Raise InvariantError at the first place ``a`` differs from ``rebuilt``."""
    if a.initial != rebuilt.initial:
        raise InvariantError(f"initial state {a.initial} differs from the "
                             f"rebuilt {rebuilt.initial}")
    for sid, (state, want) in enumerate(zip(a.states, rebuilt.states)):
        if state.label != want.label:
            raise InvariantError(
                f"state {sid}: label {format_position(state.label)} differs from "
                f"the rebuilt {format_position(want.label)}")
        if state.delta != want.delta:
            name = next(n for n in [*want.delta, *state.delta]
                        if state.delta.get(n) != want.delta.get(n))
            raise InvariantError(
                f"state {sid}, symbol '{name}': {state.delta.get(name)} differs "
                f"from the rebuilt {want.delta.get(name)}")
    if len(a.states) != len(rebuilt.states):
        raise InvariantError(f"{len(a.states)} states differ from the rebuilt "
                             f"{len(rebuilt.states)}")


def _verify_goals(a: SetAutomaton) -> None:
    bound = reachable_position_bound(a.patterns)
    pats = a.patterns.patterns

    def bad(sid, msg):
        raise InvariantError(f"state {sid}: {msg}")

    for sid, state in enumerate(a.states):
        roots = [g for g in state.goals if g.is_root]
        if not roots:
            bad(sid, "no root goal")
        if not any(state.label in g.positions() for g in roots):
            bad(sid, f"label {format_position(state.label)} not an obligation "
                     "position of any root goal")
        positions = sorted({p for g in state.goals for p in g.positions()})
        for p, q in zip(positions, positions[1:]):  # what sorts between extends p
            if prefix_leq(q, p):
                bad(sid, f"comparable obligation positions "
                         f"{format_position(p)} and {format_position(q)}")
        goal_set = set(state.goals)
        for p in positions:
            for pid, pat in enumerate(pats):
                if fresh_goal(pid, pat, p) not in goal_set:
                    bad(sid, f"missing fresh goal for pattern {pid} "
                             f"at {format_position(p)}")
            if p not in bound:
                bad(sid, f"obligation position {format_position(p)} outside "
                         "the reachable bound")
        for g in state.goals:
            for p in g.positions():
                if not prefix_leq(p, g.announce):
                    bad(sid, f"obligation at {format_position(p)} does not extend "
                             f"its announcement {format_position(g.announce)}")
