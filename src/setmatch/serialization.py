"""JSON form of a compiled automaton (schema version 3).

The document holds what matching needs and what rebuilding needs: the
signature, the pattern texts, the label strategy, the initial state, and
per state its label and transitions.  Goal sets are the compiler's working
data and are not stored, so a loaded state has ``goals=None``.  Because
:func:`~setmatch.automaton.build` is deterministic, any automaton, loaded
or built, is verified by rebuilding it from its patterns and label strategy
and comparing the two (:func:`~setmatch.automaton.verify_automaton`).

The text is compact JSON, deterministic, with a stable key order.
``from_json`` reads a document in one pass and raises a
:class:`~setmatch.errors.FormatError` at the first fault, with the JSON path
of the value at fault.  It rejects a label, output position or shift with
a step above the signature's widest arity, an output position that is not a
prefix of its state's label, and documents of any other schema version.
``build`` announces every output at such a prefix, and evaluation relies
on it: an announced position lies on the path the inspection has just
walked, so it is in the subject.  Within a state, an undeclared ``delta``
symbol is reported first; then each symbol's transition in signature order.
"""

import json

from .automaton import LEFTMOST, RIGHTMOST, SetAutomaton, State, Transition
from .errors import FormatError, ParseError, PatternSetError, SignatureError
from .positions import format_position
from .terms import PatternSet, Signature, parse_term

SCHEMA_VERSION = 3


def to_json(a: SetAutomaton) -> str:
    states = [
        {
            "id": sid,
            "label": list(st.label),
            "delta": {
                name: {
                    "outputs": [{"pattern": pid, "pos": list(pos)} for pid, pos in tr.outputs],
                    "targets": [{"state": tid, "shift": list(shift)}
                                for tid, shift in tr.targets],
                }
                for name, tr in st.delta.items()
            },
        }
        for sid, st in enumerate(a.states)
    ]
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
    except (json.JSONDecodeError, RecursionError) as e:
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
    sym_names = [s.name for s in sig]
    symbols = set(sym_names)
    n_patterns = len(terms)
    width = sig.max_arity
    states: list[State] = []
    for i, entry in enumerate(raw_states):
        if type(entry) is not dict:
            _fail("must be an object", "states", i)
        sid = entry.get("id")
        if type(sid) is not int or sid != i:
            _invalid(entry, "id", f"state ids must be dense and ascending (expected {i})",
                     "states", i)
        label = _position(entry, "label", width, "states", i)
        raw_delta = entry.get("delta")
        if type(raw_delta) is not dict:
            _invalid(entry, "delta", "must be an object", "states", i)
        if raw_delta.keys() != symbols:
            for name in raw_delta:
                if name not in symbols:
                    _fail("symbol is not in the signature", "states", i, "delta", name)
        delta = {}
        for name in sym_names:
            tr = raw_delta.get(name)
            if type(tr) is not dict:
                if name not in raw_delta:
                    _fail(f"missing transition for symbol '{name}'", "states", i, "delta")
                _fail("must be an object", "states", i, "delta", name)
            raw_outs = tr.get("outputs")
            if type(raw_outs) is not list:
                _invalid(tr, "outputs", "must be an array", "states", i, "delta", name)
            outs = []
            for j, o in enumerate(raw_outs):
                if type(o) is not dict:
                    _fail("must be an object", "states", i, "delta", name, "outputs", j)
                pid = o.get("pattern")
                if type(pid) is not int or not 0 <= pid < n_patterns:
                    _invalid(o, "pattern", "unknown pattern id",
                             "states", i, "delta", name, "outputs", j)
                pos = _position(o, "pos", width, "states", i, "delta", name, "outputs", j)
                if label[:len(pos)] != pos:
                    _fail(f"position {format_position(pos)} is not a prefix of the state's "
                          f"label {format_position(label)}",
                          "states", i, "delta", name, "outputs", j, "pos")
                outs.append((pid, pos))
            raw_tgts = tr.get("targets")
            if type(raw_tgts) is not list:
                _invalid(tr, "targets", "must be an array", "states", i, "delta", name)
            tgts = []
            for j, t in enumerate(raw_tgts):
                if type(t) is not dict:
                    _fail("must be an object", "states", i, "delta", name, "targets", j)
                tid = t.get("state")
                if type(tid) is not int or not 0 <= tid < n_states:
                    _invalid(t, "state", f"unknown state id {tid!r}",
                             "states", i, "delta", name, "targets", j)
                tgts.append((tid, _position(t, "shift", width,
                                            "states", i, "delta", name, "targets", j)))
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


def _invalid(obj, key, message, *keys):
    """Raise for field ``key`` of the object at ``keys``: it is missing, or
    its value is not what ``message`` asks for."""
    if key not in obj:
        _fail(f"missing field '{key}'", *keys)
    _fail(message, *keys, key)


def _field(obj, key, *keys):
    if key not in obj:
        _fail(f"missing field '{key}'", *keys)
    return obj[key]


def _position(obj, key, width, *keys) -> tuple:
    """Field ``key`` of the object at ``keys`` as a position: an array of
    argument indices, each from 1 to ``width``."""
    value = obj.get(key)
    if type(value) is list:
        for x in value:
            if type(x) is not int or not 1 <= x <= width:
                break
        else:
            return tuple(value)
        if all(type(x) is int and x >= 1 for x in value):
            k = next(k for k, x in enumerate(value) if x > width)
            _fail(f"step {value[k]} is above the signature's widest arity {width}",
                  *keys, key, k)
    _invalid(obj, key, "must be an array of positive integers", *keys)
