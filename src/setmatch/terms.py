"""Terms over a first-order signature, with a single wildcard.

The data model is deliberately small: a :class:`Symbol` is a name with a
fixed arity, a :class:`Signature` is an ordered registry of symbols, and a
:class:`Term` is an ordered tree of symbols.  The one wildcard ``_`` stands
for "any subterm here"; a *pattern* is any term other than the bare wildcard
and a *subject* is a term containing no wildcard at all.

Concrete syntax is ``name(child,child)`` with constants written without
parentheses, e.g. ``f(g(a),_)``.  Whitespace is insignificant.  All parse
errors carry the offset, in characters, at which the input stopped making
sense.
"""

import re
from dataclasses import dataclass
from itertools import islice

from .errors import ParseError, PatternSetError, PositionError, SignatureError
from .positions import Position, format_position


@dataclass(frozen=True)
class Symbol:
    """A function symbol: a name with a fixed argument count."""

    name: str
    arity: int


class Term:
    """An immutable ordered tree of symbols.

    ``symbol`` is ``None`` exactly for the wildcard.  The hash is computed on
    first use and cached in the term and in every subterm it had to hash, so
    a term that is never hashed, such as a subject, costs nothing for it,
    and terms built from shared subtrees stay cheap to hash and compare no
    matter how large they print.
    """

    __slots__ = ("symbol", "children", "_hash", "_text")

    def __init__(self, symbol: Symbol | None, children=()):
        children = tuple(children)
        if symbol is None:
            if children:
                raise SignatureError("the wildcard takes no arguments")
        elif len(children) != symbol.arity:
            raise SignatureError(
                f"'{symbol.name}' has arity {symbol.arity}, "
                f"got {len(children)} arguments")
        self.symbol = symbol
        self.children = children
        self._hash = None
        self._text = None

    @property
    def is_wildcard(self) -> bool:
        return self.symbol is None

    def __hash__(self):
        """``hash((symbol, children))``.  Unhashed subterms are hashed first,
        in post-order off a stack, so nesting depth is limited by memory
        only."""
        h = self._hash
        if h is None:
            stack = [self]
            while stack:
                node = stack[-1]
                kids = [c for c in node.children if c._hash is None]
                if kids:
                    stack.extend(kids)
                else:
                    stack.pop()
                    node._hash = hash((node.symbol, node.children))
            h = self._hash
        return h

    def __eq__(self, other):
        """Structural equality; pairs still to compare wait on a stack, so
        nesting depth is limited by memory only."""
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        pending = [(self, other)]
        while pending:
            s, o = pending.pop()
            if s.symbol != o.symbol:
                return False
            hs, ho = s._hash, o._hash
            if hs is not None and ho is not None and hs != ho:
                return False
            pending.extend((x, y) for x, y in zip(s.children, o.children) if x is not y)
        return True

    def __str__(self):
        return format_term(self)

    def __repr__(self):
        """The text, cut to 80 characters that end in ``...`` when longer."""
        text = format_term(self)
        if len(text) > 80:
            text = text[:77] + "..."
        return f"Term({text!r})"


WILDCARD = Term(None)


def format_term(t: Term) -> str:
    """Canonical text: ``_`` for the wildcard, ``name(child,...)`` otherwise.

    The text is cached on ``t``; a subterm whose text is cached already is
    copied, not walked.  The walk keeps its own stack, so nesting depth is
    limited by memory only.
    """
    text = t._text
    if text is None:
        parts: list[str] = []
        stack: list = [t]
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
            elif item._text is not None:
                parts.append(item._text)
            elif item.symbol is None:
                parts.append("_")
            else:
                parts.append(item.symbol.name)
                kids = item.children
                if kids:
                    parts.append("(")
                    stack.append(")")
                    for k in range(len(kids) - 1, 0, -1):
                        stack.append(kids[k])
                        stack.append(",")
                    stack.append(kids[0])
        text = t._text = "".join(parts)
    return text


def term_size(t: Term) -> int:
    """Number of nodes, wildcards included."""
    size = 0
    stack = [t]
    while stack:
        size += 1
        stack.extend(stack.pop().children)
    return size


class Signature:
    """Ordered registry of symbols; declaration order is iteration order.

    Iteration order matters: the automaton builder walks symbols in this
    order, which keeps rebuilds byte-for-byte reproducible.
    """

    def __init__(self, symbols=()):
        self._by_name: dict[str, Symbol] = {}
        for entry in symbols:
            if isinstance(entry, Symbol):
                self.declare(entry.name, entry.arity)
            else:
                name, arity = entry
                self.declare(name, arity)

    def declare(self, name: str, arity: int) -> Symbol:
        """Register name/arity, or return the existing symbol if consistent."""
        if not isinstance(name, str) or not _IDENT_RE.fullmatch(name) or name == "_":
            raise SignatureError(f"invalid symbol name {name!r}")
        if arity < 0:
            raise SignatureError(f"'{name}': negative arity {arity}")
        have = self._by_name.get(name)
        if have is not None:
            if have.arity != arity:
                raise SignatureError(
                    f"'{name}' already declared with arity {have.arity}, not {arity}")
            return have
        sym = Symbol(name, arity)
        self._by_name[name] = sym
        return sym

    def get(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    def symbol(self, name: str) -> Symbol:
        sym = self._by_name.get(name)
        if sym is None:
            raise SignatureError(f"undeclared symbol '{name}'")
        return sym

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self):
        return len(self._by_name)

    @property
    def max_arity(self) -> int:
        return max((s.arity for s in self._by_name.values()), default=0)

    def __repr__(self):
        inner = ", ".join(f"{s.name}/{s.arity}" for s in self)
        return f"Signature({inner})"


def read_signature(text: str) -> Signature:
    """Parse ``name/arity`` lines; ``#`` starts a comment, blank lines skip."""
    sig = Signature()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, arity_text = line.partition("/")
        name = name.strip()
        arity_text = arity_text.strip()
        if not sep or not (arity_text.isascii() and arity_text.isdigit()):
            raise SignatureError(f"line {lineno}: expected 'name/arity', got {line!r}")
        try:
            sig.declare(name, int(arity_text))
        except SignatureError as e:
            raise SignatureError(f"line {lineno}: {e}") from None
    return sig


def write_signature(sig: Signature) -> str:
    return "".join(f"{s.name}/{s.arity}\n" for s in sig)


_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")
# a name, or any other single character that is not whitespace
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|\S")


def parse_term(text: str, sig: Signature, *, allow_wildcard: bool = False,
               extend: bool = False) -> Term:
    """Parse the canonical syntax against ``sig``.

    With ``extend`` unknown symbols are declared at the arity they are used,
    otherwise they are rejected.  Wildcards (``_``) are only accepted with
    ``allow_wildcard``.  Known symbols must be used at their declared arity.
    The text is split into tokens by one regular-expression scan; a walk
    over the tokens keeps its open argument lists on a stack, so nesting
    depth is limited by memory only.  A :class:`ParseError` carries the
    offset in ``text`` of the token it stopped at, or ``len(text)`` at the
    end of the input.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # end of input; no token is empty
    known = sig._by_name.get
    new = object.__new__
    open_nodes = []  # (name, symbol or None, token index, children) per open list
    k = 0
    while True:
        name = tokens[k]
        sym = known(name)
        if sym is None and (name == "_" or not _IDENT_RE.fullmatch(name)):
            if name != "_" or not allow_wildcard:
                raise _parse_error(text, k, _no_term(name))
            term = WILDCARD
        elif tokens[k + 1] == "(":
            open_nodes.append((name, sym, k, []))
            k += 2
            continue
        elif sym is not None and not sym.arity:
            # checked here already, so built without Term.__init__'s checks
            term = new(Term)
            term.symbol, term.children, term._hash, term._text = sym, (), None, None
        else:
            term = _checked_node(text, sig, name, k, (), extend)
        k += 1
        while open_nodes:
            name, sym, start, children = open_nodes[-1]
            children.append(term)
            tok = tokens[k]
            k += 1
            if tok == ",":
                break
            if tok != ")":
                raise _parse_error(text, k - 1, "expected ',' or ')'")
            open_nodes.pop()
            if sym is not None and sym.arity == len(children):
                term = new(Term)
                term.symbol, term.children, term._hash, term._text = \
                    sym, tuple(children), None, None
            else:
                term = _checked_node(text, sig, name, start, children, extend)
        else:  # every argument list is closed: ``term`` is the whole input
            if tokens[k]:
                raise _parse_error(text, k, "trailing input after term")
            return term


def _no_term(token: str) -> str:
    """Why ``token`` cannot start a term."""
    if not token:
        return "expected a term"
    if token == "_":
        return "wildcard not allowed here"
    return f"unexpected character {token!r}"


def _checked_node(text, sig, name, start, children, extend) -> Term:
    """The term ``name(children)``, checked against ``sig`` in full.

    With ``extend`` an unknown name is declared at this arity; otherwise it
    is an error, as is every arity mismatch, at token ``start``.
    """
    arity = len(children)
    sym = sig.get(name)
    if sym is None:
        if not extend:
            raise _parse_error(text, start, f"unknown symbol '{name}'")
        sym = sig.declare(name, arity)
    elif sym.arity != arity:
        raise _parse_error(
            text, start, f"'{name}' has arity {sym.arity}, used with {arity}")
    return Term(sym, children)


def _parse_error(text: str, token: int, reason: str) -> ParseError:
    """``reason`` at the offset of token number ``token`` of ``text``, or at
    the end of ``text`` past its last token."""
    m = next(islice(_TOKEN_RE.finditer(text), token, None), None)
    return ParseError(reason, len(text) if m is None else m.start())


def domain(t: Term) -> set[Position]:
    """All positions of ``t``, the root included."""
    out = set()
    stack = [((), t)]
    while stack:
        pos, node = stack.pop()
        out.add(pos)
        for i, child in enumerate(node.children, 1):
            stack.append((pos + (i,), child))
    return out


def subterm_at(t: Term, pos: Position) -> Term:
    """The subterm reached by walking ``pos`` from the root of ``t``."""
    node = t
    for depth, i in enumerate(pos):
        if i < 1 or i > len(node.children):
            raise PositionError(
                f"position {format_position(pos)} leaves the term "
                f"after {depth} steps")
        node = node.children[i - 1]
    return node


def matches(pattern: Term, subject: Term, at: Position = ()) -> bool:
    """Does ``pattern`` match ``subject`` at position ``at``?

    A wildcard matches any subterm; every other pattern node must find its
    own symbol in the subject.  ``at`` must be a position of ``subject``.
    Pairs still to compare wait on a stack, so nesting depth is limited by
    memory only.
    """
    pending = [(pattern, subterm_at(subject, at))]
    while pending:
        l, t = pending.pop()
        if l.symbol is not None:
            if l.symbol != t.symbol:
                return False
            pending.extend(zip(l.children, t.children))
    return True


class PatternSet:
    """A non-empty, duplicate-free, indexed list of patterns over one signature.

    The index of a pattern is its identity everywhere else: automaton
    outputs, match reports and the serialized form all refer to patterns by
    their position in this list.
    """

    def __init__(self, patterns, signature: Signature):
        patterns = tuple(patterns)
        if not patterns:
            raise PatternSetError("at least one pattern is required")
        seen: dict[str, int] = {}
        for i, p in enumerate(patterns):
            if not isinstance(p, Term):
                raise PatternSetError(f"pattern {i} is not a term")
            if p.is_wildcard:
                raise PatternSetError(f"pattern {i}: the bare wildcard is not a pattern")
            _check_over_signature(p, signature, i)
            text = format_term(p)
            other = seen.get(text)
            if other is not None:
                raise PatternSetError(f"pattern {i} duplicates pattern {other}: {text}")
            seen[text] = i
        self.patterns = patterns
        self.signature = signature

    @classmethod
    def from_text(cls, text: str, signature: Signature | None = None) -> "PatternSet":
        """One pattern per line; blank lines and ``#`` comments are skipped.

        Without an explicit signature, arities are inferred from use; with
        one, every symbol must already be declared.
        """
        extend = signature is None
        sig = Signature() if extend else signature
        pats = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            try:  # the line as written, so an error's offset counts from its start
                pats.append(parse_term(line, sig, allow_wildcard=True, extend=extend))
            except ParseError as e:
                raise ParseError(e.reason, e.offset, line=lineno) from None
        return cls(pats, sig)

    def texts(self) -> list[str]:
        return [format_term(p) for p in self.patterns]

    def __len__(self):
        return len(self.patterns)

    def __getitem__(self, i):
        return self.patterns[i]

    def __iter__(self):
        return iter(self.patterns)

    def __repr__(self):
        return f"PatternSet({self.texts()!r})"


def _check_over_signature(t: Term, sig: Signature, idx: int) -> None:
    """Raise for the first symbol of ``t``, in preorder, that ``sig`` lacks."""
    stack = [t]
    while stack:
        node = stack.pop()
        if node.symbol is None:
            continue
        have = sig.get(node.symbol.name)
        if have is None or have.arity != node.symbol.arity:
            raise PatternSetError(
                f"pattern {idx}: symbol '{node.symbol.name}/{node.symbol.arity}' "
                "is not in the signature")
        stack.extend(reversed(node.children))
