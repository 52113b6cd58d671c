"""Terms, signatures, parsing, printing, domains, and the match predicate."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given

from setmatch import (ParseError, PatternSet, PatternSetError, PositionError,
                      Signature, SignatureError, Term, domain, format_term,
                      matches, parse_term, read_signature, subterm_at,
                      term_size, write_signature)
from setmatch.terms import _TOKEN_RE, WILDCARD, _tokens

from conftest import pattern_terms, positions, subject_terms


def test_symbol_arity_is_enforced(sig_fga):
    f = sig_fga.symbol("f")
    a = sig_fga.symbol("a")
    with pytest.raises(SignatureError):
        Term(f, (Term(a),))
    with pytest.raises(SignatureError):
        Term(a, (Term(a),))


def test_wildcard_is_shared_and_leaf():
    assert WILDCARD.is_wildcard
    assert WILDCARD.children == ()
    assert format_term(WILDCARD) == "_"


def test_signature_declare_and_lookup():
    sig = Signature()
    f = sig.declare("f", 2)
    assert sig.declare("f", 2) is f
    with pytest.raises(SignatureError):
        sig.declare("f", 3)
    with pytest.raises(SignatureError):
        sig.declare("_", 0)
    with pytest.raises(SignatureError):
        sig.declare("no spaces", 0)
    with pytest.raises(SignatureError):
        sig.declare("f", -1)
    assert sig.get("f") is f
    assert sig.get("zzz") is None
    with pytest.raises(SignatureError):
        sig.symbol("zzz")
    assert "f" in sig and "zzz" not in sig


def test_signature_iterates_in_declaration_order():
    sig = Signature()
    for name, ar in (("z", 1), ("a", 0), ("m", 2)):
        sig.declare(name, ar)
    assert [s.name for s in sig] == ["z", "a", "m"]
    assert sig.max_arity == 2


def test_read_signature_round_trip():
    text = "f/2\ng/1\na/0\n"
    sig = read_signature("# comment\n\nf/2\n g / 1\na/0\n")
    assert write_signature(sig) == text


def test_read_signature_errors():
    with pytest.raises(SignatureError, match="line 2"):
        read_signature("f/2\nbogus\n")
    with pytest.raises(SignatureError, match="line 3"):
        read_signature("f/2\ng/1\nf/3\n")
    for digit in "\u00b3\u0663":  # superscript and Arabic-Indic 3: str.isdigit holds
        with pytest.raises(SignatureError, match="line 2: expected 'name/arity'"):
            read_signature(f"f/2\na/{digit}\n")
    # more digits than the interpreter converts to an int
    with pytest.raises(SignatureError, match="line 2: arity of 'h' has 5000 digits"):
        read_signature("f/2\nh/" + "9" * 5000 + "\n")


def test_parse_nested_pattern(sig_fga):
    t = parse_term("f(f(_,g(_)),g(_))", sig_fga, allow_wildcard=True)
    assert format_term(t) == "f(f(_,g(_)),g(_))"
    assert term_size(t) == 7


def test_parse_constant(sig_fga):
    t = parse_term("a", sig_fga)
    assert format_term(t) == "a"
    assert term_size(t) == 1


def test_parse_is_whitespace_insensitive(sig_fga):
    t = parse_term("  f ( a , g ( a ) ) ", sig_fga)
    assert format_term(t) == "f(a,g(a))"


def test_parse_unbalanced_parenthesis(sig_fga):
    with pytest.raises(ParseError) as e:
        parse_term("f(a", sig_fga)
    assert e.value.offset == 3


def test_parse_error_offsets(sig_fga):
    cases = [
        ("f(a,)", "unexpected character ')'", 4),     # empty argument
        ("f(a,a),", "trailing input after term", 6),
        ("a b", "trailing input after term", 2),
        ("", "expected a term", 0),                   # nothing at all
        ("f(a, ", "expected a term", 5),
        ("f(zric,a)", "unknown symbol 'zric'", 2),    # at the symbol's start
        ("g(a,a)", "'g' has arity 1, used with 2", 0),  # reported at the symbol
        ("g", "'g' has arity 1, used with 0", 0),
        ("_", "wildcard not allowed here", 0),
        ("f(a a)", "expected ',' or ')'", 4),
        ("f(a", "expected ',' or ')'", 3),
        ("\u00e9", "unexpected character '\u00e9'", 0),
    ]
    for text, reason, offset in cases:
        with pytest.raises(ParseError) as e:
            parse_term(text, sig_fga)
        assert (e.value.reason, e.value.offset) == (reason, offset), text
    wild = [
        ("_(a)", "trailing input after term", 1),  # ``_`` takes no arguments
        ("_ (a)", "trailing input after term", 2),
        ("f(_(a),a)", "expected ',' or ')'", 3),
    ]
    for text, reason, offset in wild:
        with pytest.raises(ParseError) as e:
            parse_term(text, sig_fga, allow_wildcard=True)
        assert (e.value.reason, e.value.offset) == (reason, offset), text


# Single characters inserted into the pinned parser inputs: the syntax's
# punctuation, the wildcard, ASCII and Unicode whitespace (an em space, a
# no-break space, and the separator and next-line controls that ``\s`` and
# ``str.split`` also treat as space), a letter outside the name alphabet,
# and a punctuation mark outside the syntax.
PARSE_INSERTIONS = "(),_ \t\u2003\u00a0\x1c\x85\u00e9-"
PARSE_SEPARATORS = ("", "", "", "", " ", "\t", "\n", "\u2003")
PARSE_SYMBOLS = (("f", 2), ("g", 1), ("a", 0), ("h", 3), ("b0", 0))


def _random_term_text(rng, symbols, wildcards, depth):
    """A random term over ``symbols``, written with random whitespace
    between its tokens (before ``(`` too)."""
    gap = lambda: rng.choice(PARSE_SEPARATORS)  # noqa: E731
    if wildcards and depth < 3 and rng.random() < 0.3:
        return "_"
    name, arity = rng.choice([s for s in symbols if s[1] == 0] if depth == 0 else symbols)
    if arity == 0:
        return name
    args = [gap() + _random_term_text(rng, symbols, wildcards, depth - 1) + gap()
            for _ in range(arity)]
    return name + gap() + "(" + ",".join(args) + ")"


def _pinned_parse_texts():
    """Hand-picked texts, then random subjects and patterns; each is followed
    by every deletion, duplication and insertion of one character."""
    rng = random.Random(7)
    # x_y is used in the texts but declared only by ``extend``
    symbols = PARSE_SYMBOLS + (("x_y", 1),)
    bases = ["_(a)", "f(_(a),a)", "\u00e9", "", " ", "f (a,a)", "\n\n  f(a,\n",
             "\u2003g(\u2003a)\u2003", "x_y(_x)", "f(a,_)"]
    for k in range(100):
        text = _random_term_text(rng, symbols, k % 2 == 1, rng.randint(0, 3))
        bases.append(rng.choice(PARSE_SEPARATORS) + text + rng.choice(PARSE_SEPARATORS))
    for text in bases:
        yield text
        for i in range(len(text)):
            yield text[:i] + text[i + 1:]
            yield text[:i + 1] + text[i:]
        for i in range(len(text) + 1):
            for ch in PARSE_INSERTIONS:
                yield text[:i] + ch + text[i:]


def _parse_outcome(text, allow_wildcard, extend) -> str:
    """The printed term or the error's (reason, offset); with ``extend``, also
    the signature as the parse left it."""
    sig = Signature(PARSE_SYMBOLS)
    try:
        out = format_term(parse_term(text, sig, allow_wildcard=allow_wildcard,
                                     extend=extend))
    except ParseError as e:
        out = repr((e.reason, e.offset))
    return out + "|" + write_signature(sig) if extend else out


PINNED_PARSE_OUTCOMES = (
    59648, "6a10da6d2f7ae792a97b63030a7ae76ebc79ff13cccf55682cce13bf8076d99e")


def test_parse_outcomes_are_pinned():
    h = hashlib.sha256()
    count = 0
    for text in _pinned_parse_texts():
        for allow_wildcard in (False, True):
            for extend in (False, True):
                outcome = _parse_outcome(text, allow_wildcard, extend)
                h.update(f"{text!r}\t{outcome}\n".encode())
                count += 1
    assert (count, h.hexdigest()) == PINNED_PARSE_OUTCOMES


def test_split_tokens_are_the_regular_expression_tokens():
    for text in _pinned_parse_texts():
        assert _tokens(text) == _TOKEN_RE.findall(text), repr(text)


def test_parse_deep_nesting_without_recursion(sig_fga):
    depth = 10 ** 5
    t = parse_term("g(" * depth + "a" + ")" * depth, sig_fga)
    for _ in range(depth):
        assert t.symbol.name == "g"
        (t,) = t.children
    assert t.symbol.name == "a" and t.children == ()


def _eager(t):
    """A copy of ``t`` built node by node with ``Term``, bottom-up."""
    done: list = []
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            n = len(node.children)
            kids = done[len(done) - n:]
            del done[len(done) - n:]
            done.append(Term(node.symbol, kids) if node.symbol else WILDCARD)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
    return done[0]


@pytest.mark.parametrize("text", ["a", "f(g(_),f(a,_))", "g(" * 300 + "_" + ")" * 300])
def test_lazy_tree_equals_hashes_and_prints_like_an_eager_one(sig_fga, text):
    # each property read on a fresh parse, so that each one builds the tree
    def lazy():
        return parse_term(text, sig_fga, allow_wildcard=True)
    eager = _eager(lazy())
    assert lazy() == eager and eager == lazy()
    assert hash(lazy()) == hash(eager)
    assert str(lazy()) == str(eager) == text and repr(lazy()) == repr(eager)
    assert format_term(lazy()) == format_term(eager)
    assert term_size(lazy()) == term_size(eager)


def test_parsed_term_copies_as_a_plain_term(sig_fga):
    text = "f(g(_),f(a,_))"
    for copied in (pickle.loads(pickle.dumps(parse_term(text, sig_fga, allow_wildcard=True))),
                   copy.copy(parse_term(text, sig_fga, allow_wildcard=True))):
        assert type(copied) is Term and format_term(copied) == text


def test_children_are_built_once(sig_fga):
    t = parse_term("f(g(a), f(_, a))", sig_fga, allow_wildcard=True)
    kids = t.children
    assert t.children is kids and type(t) is Term  # a plain term from now on
    assert all(k.children is k.children for k in kids)
    assert kids[1].children[0] is WILDCARD


def _chain(sig, depth, leaf):
    """``g(g(...g(leaf)...))`` with ``depth`` g's, built without recursion."""
    g = sig.symbol("g")
    t = leaf
    for _ in range(depth):
        t = Term(g, (t,))
    return t


DEEP = 10 ** 5


def test_format_deep_term_without_recursion(sig_fga):
    t = _chain(sig_fga, DEEP, Term(sig_fga.symbol("a")))
    assert format_term(t) == "g(" * DEEP + "a" + ")" * DEEP
    assert format_term(t) is format_term(t)  # cached


def test_equality_of_deep_terms_without_recursion(sig_fga):
    a = Term(sig_fga.symbol("a"))
    t, u = _chain(sig_fga, DEEP, a), _chain(sig_fga, DEEP, a)
    assert t is not u and t == u
    f = sig_fga.symbol("f")
    assert Term(f, (t, a)) == Term(f, (u, a))
    assert Term(f, (t, a)) != Term(f, (a, u))
    assert t != _chain(sig_fga, DEEP, WILDCARD)


def test_hash_and_equality_of_deep_parsed_terms_without_recursion(sig_fga):
    text = "g(" * DEEP + "a" + ")" * DEEP
    t, u = parse_term(text, sig_fga), parse_term(text, sig_fga)
    assert t is not u and hash(t) == hash(u) and t == u
    assert len({t, u}) == 1
    other = parse_term(text.replace("a", "_"), sig_fga, allow_wildcard=True)
    assert hash(other) != hash(t) and other != t


@given(pattern_terms())
def test_hash_is_the_hash_of_symbol_and_children_at_every_node(t):
    # fresh terms are unhashed: hash an inner node first, then the root
    nodes = [subterm_at(t, p) for p in sorted(domain(t))]
    hash(nodes[-1])
    for node in nodes:
        assert hash(node) == hash((node.symbol, node.children))


def test_repr_of_a_short_term_is_its_text():
    sig = read_signature("f/2\na/0\nb/0\n")
    assert repr(parse_term("f(a, b)", sig)) == "Term('f(a,b)')"
    assert repr(WILDCARD) == "Term('_')"


def test_repr_of_a_long_term_is_cut_and_marked(sig_fga):
    t = _chain(sig_fga, DEEP, Term(sig_fga.symbol("a")))
    assert repr(t) == "Term('" + "g(" * 38 + "g..." + "')"
    assert len(repr(t)) == 88
    whole = _chain(sig_fga, 26, WILDCARD)  # 79 characters: kept whole
    assert repr(whole) == f"Term({format_term(whole)!r})"


def test_format_reuses_cached_subterm_text(sig_fga):
    inner = parse_term("f(a,g(_))", sig_fga, allow_wildcard=True)
    assert format_term(inner) == "f(a,g(_))"
    outer = Term(sig_fga.symbol("f"), (inner, WILDCARD))
    assert format_term(outer) == "f(f(a,g(_)),_)"


def test_size_and_depth_of_deep_term_without_recursion(sig_fga):
    a = Term(sig_fga.symbol("a"))
    t = _chain(sig_fga, DEEP, a)
    assert term_size(t) == DEEP + 1
    assert subterm_at(t, (1,) * DEEP) is a
    f = sig_fga.symbol("f")
    wide = Term(f, (t, Term(f, (WILDCARD, WILDCARD))))
    assert term_size(wide) == DEEP + 5
    assert subterm_at(wide, (1,) * (DEEP + 1)) is a


def test_deep_pattern_is_checked_against_the_signature(sig_fga):
    ps = PatternSet([_chain(sig_fga, DEEP, WILDCARD)], sig_fga)
    assert len(ps) == 1
    narrow = Signature((("g", 1),))
    with pytest.raises(PatternSetError, match="'a/0' is not in the signature"):
        PatternSet([_chain(sig_fga, DEEP, Term(sig_fga.symbol("a")))], narrow)


def test_signature_check_reports_the_first_symbol_in_preorder(sig_fga):
    # both h/1 and b/0 are missing; the outer one is named
    sig = Signature((("f", 2), ("h", 1), ("b", 0)))
    t = parse_term("f(h(b),_)", sig, allow_wildcard=True)
    narrow = Signature((("f", 2),))
    with pytest.raises(PatternSetError, match="'h/1'"):
        PatternSet([t], narrow)


def test_parse_extends_signature_when_asked():
    sig = Signature()
    t = parse_term("f(g(a),b)", sig, extend=True)
    assert {s.name: s.arity for s in sig} == {"f": 2, "g": 1, "a": 0, "b": 0}
    assert format_term(t) == "f(g(a),b)"
    # a second use must stay arity-consistent
    with pytest.raises(ParseError):
        parse_term("g(a,a)", sig, extend=True)


def test_domain_examples(sig_fga):
    assert domain(parse_term("f(a,a)", sig_fga)) == {(), (1,), (2,)}
    assert domain(parse_term("a", sig_fga)) == {()}
    assert domain(WILDCARD) == {()}


def test_domain_of_ten_position_subject(nested_subject):
    expected = {(), (1,), (1, 1), (2,), (2, 1), (2, 1, 1), (2, 1, 2),
                (2, 1, 2, 1), (2, 2), (2, 2, 1)}
    assert domain(nested_subject) == expected
    assert term_size(nested_subject) == 10


def _enumerate_domain(t, at=()):
    yield at
    for i, child in enumerate(t.children, start=1):
        yield from _enumerate_domain(child, at + (i,))


@given(subject_terms())
def test_domain_agrees_with_recursive_enumeration(t):
    listed = list(_enumerate_domain(t))
    assert len(listed) == len(set(listed)) == term_size(t)
    assert domain(t) == set(listed)


def test_subterm_at_examples(assoc_subject, sig_fga):
    assert format_term(subterm_at(assoc_subject, (1, 2))) == "f(a,a)"
    assert subterm_at(assoc_subject, ()) is assoc_subject
    with pytest.raises(PositionError):
        subterm_at(parse_term("a", sig_fga), (1,))


@given(subject_terms())
def test_subterm_at_composes(t):
    for p in domain(t):
        for cut in range(len(p) + 1):
            assert subterm_at(t, p) is subterm_at(subterm_at(t, p[:cut]), p[cut:])


def test_matches_examples(assoc_subject, assoc_signature):
    l1 = parse_term("f(f(_,_),_)", assoc_signature, allow_wildcard=True)
    l2 = parse_term("f(_,f(_,_))", assoc_signature, allow_wildcard=True)
    assert matches(l1, assoc_subject, ())
    assert matches(l2, assoc_subject, (1,))
    assert not matches(l1, subterm_at(assoc_subject, (2,)), ())


def test_matches_deep_pattern_without_recursion(sig_fga):
    a = Term(sig_fga.symbol("a"))
    pattern, subject = _chain(sig_fga, DEEP, WILDCARD), _chain(sig_fga, DEEP, a)
    assert matches(pattern, subject, ())
    assert not matches(pattern, subject, (1,))  # the subject runs out of g's
    assert matches(_chain(sig_fga, DEEP, a), subject, ())
    assert not matches(_chain(sig_fga, DEEP - 1, a), subject, ())


def _structural_match(pattern, subject):
    """Independent matcher: plain recursion, no positions."""
    if pattern.symbol is None:
        return True
    if pattern.symbol != subject.symbol:
        return False
    return all(_structural_match(p, s)
               for p, s in zip(pattern.children, subject.children))


@given(pattern_terms(), subject_terms())
def test_matches_agrees_with_structural_recursion(pattern, subject):
    for p in domain(subject):
        assert matches(pattern, subject, p) == \
            _structural_match(pattern, subterm_at(subject, p))


@given(subject_terms())
def test_format_parse_round_trip(t):
    sig = Signature()
    assert format_term(parse_term(format_term(t), sig, extend=True)) \
        == format_term(t)


def test_pattern_set_basics(nested_pattern_set):
    assert len(nested_pattern_set) == 1
    assert nested_pattern_set.texts() == ["f(f(_,g(_)),g(_))"]


def test_pattern_set_rejects_bad_input(sig_fga):
    a = parse_term("a", sig_fga)
    with pytest.raises(PatternSetError):
        PatternSet([], sig_fga)
    with pytest.raises(PatternSetError):
        PatternSet([WILDCARD], sig_fga)
    with pytest.raises(PatternSetError):
        PatternSet([a, a], sig_fga)
    other = Signature()
    other.declare("f", 3)
    with pytest.raises(PatternSetError):
        PatternSet([a], other)


def test_pattern_set_from_text_reports_line(sig_fga):
    with pytest.raises(ParseError) as e:
        PatternSet.from_text("f(a,a)\n# fine\ng(a,a)\n", sig_fga)
    assert e.value.line == 3


def test_pattern_set_from_text_offsets_count_from_the_line_as_written(sig_fga):
    with pytest.raises(ParseError) as e:
        PatternSet.from_text("f(_,a)\n  zz(a,a)\n", sig_fga)
    assert (e.value.line, e.value.offset) == (2, 2)
    assert e.value.reason == "unknown symbol 'zz'"


def test_pattern_set_from_text_infers_signature():
    ps = PatternSet.from_text("f(g(_),a)\ng(b)\n")
    assert {s.name: s.arity for s in ps.signature} == \
        {"f": 2, "g": 1, "a": 0, "b": 0}


@given(positions, subject_terms())
def test_position_error_outside_domain(p, t):
    if p in domain(t):
        assert subterm_at(t, p) is not None
    else:
        with pytest.raises(PositionError):
            subterm_at(t, p)
