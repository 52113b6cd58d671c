"""Positions: paths of 1-based child indices that address subterms.

A position is a plain tuple of positive ints; the empty tuple addresses the
root.  The ordering convention used throughout the package is that the deeper
position is the *smaller* one: ``prefix_leq(p, q)`` holds iff ``q`` is a
prefix of ``p``, so the root is the top element.  Any finite non-empty set of
positions has a join under this order, the longest common prefix.
"""

Position = tuple[int, ...]

ROOT: Position = ()


def prefix_leq(p: Position, q: Position) -> bool:
    """True iff ``q`` is a prefix of ``p``, i.e. p lies at or below q."""
    return p[: len(q)] == q


def comparable(p: Position, q: Position) -> bool:
    """True iff one of the positions is a prefix of the other."""
    return prefix_leq(p, q) or prefix_leq(q, p)


def join(p: Position, q: Position) -> Position:
    """Least upper bound: the longest common prefix of the two positions."""
    out = []
    for a, b in zip(p, q):
        if a != b:
            break
        out.append(a)
    return tuple(out)


def gcp(positions) -> Position:
    """Greatest common prefix of a non-empty collection of positions."""
    it = iter(positions)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("gcp of an empty collection is undefined") from None
    for p in it:
        if acc == ():
            break
        acc = join(acc, p)
    return acc


def format_position(p: Position) -> str:
    """Dot-separated rendering; the root prints as ``ε``."""
    return ".".join(str(i) for i in p) if p else "ε"


def parse_position(text: str) -> Position:
    """Inverse of :func:`format_position`; also accepts the empty string."""
    text = text.strip()
    if text in ("", "ε", "e"):
        return ()
    parts = text.split(".")
    out = []
    for part in parts:
        if not part.isdigit() or int(part) < 1:
            raise ValueError(f"invalid position component {part!r} in {text!r}")
        out.append(int(part))
    return tuple(out)
