"""Graphviz rendering of an automaton.

Each (state, symbol) transition with successors is drawn as an arrow from
the state to a junction point, labelled with the symbol and any announced
matches, followed by one shift-labelled arrow per successor.  Transitions
with no successors lead to a shared sink.  Output is deterministic.
"""

from .automaton import SetAutomaton, checked_shifts
from .positions import format_position


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def to_dot(a: SetAutomaton) -> str:
    texts = a.patterns.texts()
    lines = [
        "digraph matcher {",
        "  rankdir=LR;",
        '  node [fontname="monospace"];',
        '  edge [fontname="monospace"];',
    ]
    for sid, st in enumerate(a.states):
        lines.append(
            f"  s{sid} [shape=box, label={_q(f's{sid}  {format_position(st.label)}')}];")
    if any(not tr.targets for st in a.states for tr in st.delta.values()):
        lines.append('  final [shape=doublecircle, label="∅"];')
    for sid, st in enumerate(a.states):
        for name, tr in st.delta.items():
            targets = iter(checked_shifts(sid, name, tr, st.label))
            label = name
            for pid, depth in tr.outputs:
                label += f"\n{texts[pid]}@{format_position(st.label[:depth])}"
            if tr.targets:
                junction = f"j{sid}_{name}"
                lines.append(f"  {junction} [shape=point];")
                lines.append(f"  s{sid} -> {junction} [label={_q(label)}];")
                for tid, shift in zip(targets, targets):
                    lines.append(f"  {junction} -> s{tid} "
                                 f"[label={_q(format_position(shift))}];")
            else:
                lines.append(f"  s{sid} -> final [label={_q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
