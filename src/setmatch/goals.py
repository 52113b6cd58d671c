"""Match goals: the bookkeeping unit automaton states are made of.

A goal reads "once every (subpattern, position) pair in the obligation has
been observed, announce pattern ``pattern`` at position ``announce``".
Observing a symbol at a position transforms a goal in one of four ways
(:func:`goal_outcome`, one pass over the obligation), and a whole goal set
is advanced by transforming its members, splitting the result into
independent classes (:func:`dependency_partition`) and re-rooting each
class (:func:`lift_class`).

A state holds the fresh goal of every pattern at each of its obligation
positions, so it can be kept compact: its non-fresh goals plus the
positions of its fresh families.  The partition and the lift take such a
position in place of the family it stands for.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import InvariantError
from .positions import Position, format_position, gcp, prefix_leq
from .terms import Symbol, Term, format_term


@dataclass(frozen=True)
class Goal:
    obligation: frozenset  # non-empty, of (subpattern, position) pairs
    pattern: int
    announce: Position

    def positions(self) -> set[Position]:
        return {pos for _, pos in self.obligation}

    @property
    def is_root(self) -> bool:
        """Announces at the root, i.e. drives the label choice of its state."""
        return self.announce == ()

    def __repr__(self):
        pairs = ", ".join(
            f"{format_term(t)}@{format_position(p)}"
            for p, t in sorted((p, t) for t, p in self.obligation))
        return f"Goal({pairs} -> #{self.pattern}@{format_position(self.announce)})"


def fresh_goal(pattern_id: int, pattern: Term, at: Position) -> Goal:
    return Goal(frozenset({(pattern, at)}), pattern_id, at)


# A class member: a goal, or a position standing for the complete fresh
# family there, one fresh goal per pattern.
Member = Goal | Position


class Outcome(Enum):
    UNCHANGED = "unchanged"
    REDUCED = "reduced"
    DISCARDED = "discarded"
    COMPLETED = "completed"


def goal_outcome(goal: Goal, symbol: Symbol, at: Position):
    """Classify one observation against one goal, in one pass.

    Returns ``(Outcome, new_goal)``; ``new_goal`` is only set for REDUCED.
    UNCHANGED: the goal does not watch ``at``.  DISCARDED: it expected a
    different symbol there.  COMPLETED: this was the last thing it was
    waiting for.  REDUCED: it keeps waiting, one level deeper; the new goal
    keeps the pattern, the announcement and the pairs away from ``at``, and
    has the non-wildcard children of the pairs at ``at`` below it.
    """
    rest, touched = [], False
    for term, pos in goal.obligation:
        if pos != at:
            rest.append((term, pos))
        elif term.symbol != symbol:
            return Outcome.DISCARDED, None
        else:
            touched = True
            for i, child in enumerate(term.children, 1):
                if child.symbol is not None:
                    rest.append((child, pos + (i,)))
    if not touched:
        return Outcome.UNCHANGED, None
    if not rest:
        return Outcome.COMPLETED, None
    return Outcome.REDUCED, Goal(frozenset(rest), goal.pattern, goal.announce)


def dependency_partition(members) -> list[list[Member]]:
    """Group members whose obligations are linked by shared positions.

    Members are goals, or fresh positions standing for their families.
    Union-find over positions: two members land in the same class iff a
    chain of position overlaps connects them; a fresh position joins the
    class of every goal that watches it and links nothing itself.  Class
    order follows first appearance in the input, so the result is
    deterministic.
    """
    members = list(members)
    if len(members) < 2:  # no class, or one
        return [members] if members else []
    parent: dict[Position, Position] = {}

    def find(x: Position) -> Position:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    firsts = []  # one position of each member
    for m in members:
        if isinstance(m, Goal):
            first = None
            for _, p in m.obligation:
                if p not in parent:
                    parent[p] = p
                if first is None:
                    first = p
                else:
                    parent[find(p)] = find(first)
        else:
            first = m
            if m not in parent:
                parent[m] = m
        firsts.append(first)

    classes: list[list[Member]] = []
    index: dict[Position, int] = {}
    for m, first in zip(members, firsts):
        root = find(first)
        at = index.get(root)
        if at is None:
            at = len(classes)
            index[root] = at
            classes.append([])
        classes[at].append(m)
    return classes


def lift_class(members) -> tuple[list[Member], Position]:
    """Strip the class's common announcement prefix from every position.

    Members are goals, or fresh positions standing for their families; a
    fresh position announces at itself.  The shift is the greatest common
    prefix of the announcement positions.  Every obligation position in the
    class must extend it; anything else means the construction upstream is
    broken, not that the input was unusual.
    """
    members = list(members)
    if not members:
        raise InvariantError("cannot lift an empty class")
    shift = gcp(m.announce if isinstance(m, Goal) else m for m in members)
    if not shift:
        return members, shift
    cut = len(shift)
    lifted = []
    for m in members:
        if not isinstance(m, Goal):
            lifted.append(m[cut:])  # extends the shift: it took part in the gcp
            continue
        pairs = []
        for term, pos in m.obligation:
            if not prefix_leq(pos, shift):
                raise InvariantError(
                    f"obligation position {format_position(pos)} does not extend "
                    f"shift {format_position(shift)}")
            pairs.append((term, pos[cut:]))
        lifted.append(Goal(frozenset(pairs), m.pattern, m.announce[cut:]))
    return lifted, shift


def goal_sort_key(g: Goal):
    # In a goal of pattern p announced at A, the term at position q is the
    # subterm of p at q[len(A):], so positions order goals as terms would.
    return g.announce, g.pattern, tuple(sorted(pos for _, pos in g.obligation))


def canonical_goals(goals) -> tuple[Goal, ...]:
    """A canonical ordering, independent of set iteration order."""
    return tuple(sorted(goals, key=goal_sort_key))
