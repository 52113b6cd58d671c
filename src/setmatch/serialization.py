"""JSON form of a compiled automaton (schema version 4).

The document holds what matching needs and what rebuilding needs: the
signature, the pattern texts, the label strategy, the initial state, and
the states.  A state is an array: its label, then one row entry per
signature symbol, in signature order.  An entry is ``[outputs, targets]``.
Outputs are flat ``pattern, depth`` integer pairs, as
``Transition.outputs`` holds them: a depth names the position
``label[:depth]``, so every output lies on its state's label.  Targets
are flat ``state, shift`` pairs.  In memory a target is a state, a depth
and a tail (see :class:`~setmatch.automaton.Transition`): ``from_json``
splits each shift at its longest common prefix with the state's label
(:func:`~setmatch.automaton.anchor`), and ``to_json`` writes back the
shifts of :func:`~setmatch.automaton.checked_shifts`, which raises
``InvariantError`` for an output or target depth outside the label.  A
state's id is its index, and no object key repeats per state,
transition, output or target.  Goal sets are the compiler's working data
and are not stored, so a loaded state has ``goals=None``.  Because
:func:`~setmatch.automaton.build` is deterministic, any automaton,
loaded or built, is verified by rebuilding it from its patterns and
label strategy and comparing the two
(:func:`~setmatch.automaton.verify_automaton`).

The text is compact JSON, deterministic, with a stable key order.
``from_json`` reads a document in one pass and raises a
:class:`~setmatch.errors.FormatError` at the first fault, with the JSON path
of the value at fault; below a row entry the message names its symbol.  It
rejects a label or shift with a step above the signature's widest arity, a
depth outside ``0..len(label)``, a row that does not hold one entry per
signature symbol, and documents of any other schema version.  Within a
state, the label is checked first, then each symbol's entry in signature
order: outputs, then targets.
"""

import json

from .automaton import (LEFTMOST, RIGHTMOST, SetAutomaton, State, Transition, anchor,
                        checked_shifts)
from .errors import FormatError, ParseError, PatternSetError, SignatureError
from .terms import PatternSet, Signature, parse_term

SCHEMA_VERSION = 4


def to_json(a: SetAutomaton) -> str:
    """The document of ``a``."""
    names = [s.name for s in a.signature]
    states = []
    for sid, st in enumerate(a.states):
        label = st.label
        row = [label]
        for name in names:
            tr = st.delta[name]
            row.append(([x for output in tr.outputs for x in output],
                        checked_shifts(sid, name, tr, label)))
        states.append(row)
    doc = {
        "version": SCHEMA_VERSION,
        "signature": [{"name": s.name, "arity": s.arity} for s in a.signature],
        "patterns": a.patterns.texts(),
        "label_strategy": a.label_strategy,
        "initial": a.initial,
        "states": states,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def from_json(text: str) -> SetAutomaton:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and an integer literal longer
        # than the interpreter converts
        raise FormatError(f"invalid JSON: {e}", "$") from None

    _need(type(doc) is dict, "document must be an object")
    version = _field(doc, "version")
    _need(type(version) is int and version == SCHEMA_VERSION,
          f"unsupported version {version!r}, expected {SCHEMA_VERSION}; "
          "recompile the automaton from its patterns", "version")

    sig = Signature()
    raw_sig = _field(doc, "signature")
    _need(type(raw_sig) is list and raw_sig, "must be a non-empty array", "signature")
    for i, entry in enumerate(raw_sig):
        _need(type(entry) is dict, "must be an object", "signature", i)
        name = _field(entry, "name", "signature", i)
        arity = _field(entry, "arity", "signature", i)
        _need(type(name) is str, "must be a string", "signature", i, "name")
        _need(type(arity) is int and arity >= 0, "must be a non-negative integer",
              "signature", i, "arity")
        try:
            sig.declare(name, arity)
        except SignatureError as e:
            raise FormatError(str(e), _path(("signature", i))) from None

    raw_pats = _field(doc, "patterns")
    _need(type(raw_pats) is list and raw_pats, "must be a non-empty array", "patterns")
    terms = []
    for i, text_i in enumerate(raw_pats):
        _need(type(text_i) is str, "must be a string", "patterns", i)
        try:
            terms.append(parse_term(text_i, sig, allow_wildcard=True, extend=False))
        except ParseError as e:
            raise FormatError(f"unparseable pattern: {e}", _path(("patterns", i))) from None
    try:
        patterns = PatternSet(terms, sig)
    except PatternSetError as e:
        raise FormatError(str(e), "$.patterns") from None

    strategy = _field(doc, "label_strategy")
    _need(strategy in (LEFTMOST, RIGHTMOST), f"must be '{LEFTMOST}' or '{RIGHTMOST}'",
          "label_strategy")

    raw_states = _field(doc, "states")
    _need(type(raw_states) is list and raw_states, "must be a non-empty array", "states")
    n_states = len(raw_states)

    initial = _field(doc, "initial")
    _need(type(initial) is int and 0 <= initial < n_states,
          f"must be a state id below {n_states}", "initial")

    # One pass over the states.  Each check is written once, and the JSON
    # path of a value is formatted only when its check fails.
    names = [s.name for s in sig]
    row_length = len(names) + 1
    n_patterns = len(terms)
    width = sig.max_arity
    states: list[State] = []
    for i, entry in enumerate(raw_states):
        if type(entry) is not list or len(entry) != row_length:
            _fail(f"must be an array of a label and {len(names)} row entries, "
                  "one per signature symbol", "states", i)
        label = _position(entry[0], width, None, "states", i, 0)
        top = len(label)
        first = label[0] if label else 0  # no step is 0
        delta = {}
        for k, name in enumerate(names, 1):
            pair = entry[k]
            if type(pair) is not list or len(pair) != 2:
                _fail(f"symbol '{name}': must be an array of outputs and targets",
                      "states", i, k)
            raw_outs, raw_tgts = pair
            if type(raw_outs) is not list or len(raw_outs) % 2:
                _fail(f"symbol '{name}': must be an array of pattern, depth pairs",
                      "states", i, k, 0)
            outs = []
            for j in range(0, len(raw_outs), 2):
                pid, depth = raw_outs[j], raw_outs[j + 1]
                if type(pid) is not int or not 0 <= pid < n_patterns:
                    _fail(f"symbol '{name}': unknown pattern id {pid!r}",
                          "states", i, k, 0, j)
                if type(depth) is not int or not 0 <= depth <= top:
                    _fail(f"symbol '{name}': depth {depth!r} must be an integer from 0 "
                          f"to {top}, the length of the state's label",
                          "states", i, k, 0, j + 1)
                outs.append((pid, depth))
            if type(raw_tgts) is not list or len(raw_tgts) % 2:
                _fail(f"symbol '{name}': must be an array of state, shift pairs",
                      "states", i, k, 1)
            tgts = []
            for j in range(0, len(raw_tgts), 2):
                tid = raw_tgts[j]
                if type(tid) is not int or not 0 <= tid < n_states:
                    _fail(f"symbol '{name}': unknown state id {tid!r}",
                          "states", i, k, 1, j)
                shift = _position(raw_tgts[j + 1], width, name,
                                  "states", i, k, 1, j + 1)
                if shift and shift[0] == first:  # else depth 0, without a call
                    tgts.append(anchor(tid, shift, label))
                else:
                    tgts.append((tid, 0, shift))
            delta[name] = Transition(outputs=tuple(outs), targets=tuple(tgts))
        states.append(State(label=label, goals=None, delta=delta))

    return SetAutomaton(patterns=patterns, label_strategy=strategy, states=states,
                        initial=initial)


def _path(keys) -> str:
    """The JSON path of the value at ``keys`` below the document root."""
    return "$" + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys)


def _fail(message, *keys):
    raise FormatError(message, _path(keys))


def _need(cond, message, *keys):
    if not cond:
        _fail(message, *keys)


def _field(obj, key, *keys):
    if key not in obj:
        _fail(f"missing field '{key}'", *keys)
    return obj[key]


def _position(value, width, symbol, *keys) -> tuple:
    """``value``, found at ``keys``, as a position: an array of argument
    indices, each from 1 to ``width``.  An error names ``symbol``, the row
    entry the value lies in, if any."""
    if type(value) is list:
        for x in value:
            if type(x) is not int or not 1 <= x <= width:
                break
        else:
            return tuple(value)
    prefix = f"symbol '{symbol}': " if symbol else ""
    if type(value) is list and all(type(x) is int and x >= 1 for x in value):
        k = next(k for k, x in enumerate(value) if x > width)
        _fail(f"{prefix}step {value[k]} is above the signature's widest arity {width}",
              *keys, k)
    _fail(f"{prefix}must be an array of positive integers", *keys)
