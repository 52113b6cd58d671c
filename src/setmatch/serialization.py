"""JSON form of a compiled automaton (schema version 3).

The document holds what matching needs and what rebuilding needs: the
signature, the pattern texts, the label strategy, the initial state, and
per state its label and transitions.  Goal sets are the compiler's working
data and are not stored, so a loaded state has ``goals=None``.  Because
:func:`~setmatch.automaton.build` is deterministic, a loaded automaton is
verified by rebuilding it from its patterns and label strategy and
comparing the two (:func:`~setmatch.automaton.verify_automaton`).

The text is compact JSON, deterministic, with a stable key order.
``from_json`` validates structure and cross-references with a JSON-path in
every error message, rejects a label, output position or shift with a step
above the signature's widest arity, and rejects documents of any other
schema version.
"""

import json

from .automaton import LEFTMOST, RIGHTMOST, SetAutomaton, State, Transition
from .errors import FormatError, ParseError, PatternSetError, SignatureError
from .terms import PatternSet, Signature, Term, parse_term

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

    _need(isinstance(doc, dict), "$", "document must be an object")
    version = _field(doc, "version", "$")
    _need(_is_int(version) and version == SCHEMA_VERSION, "$.version",
          f"unsupported version {version!r}, expected {SCHEMA_VERSION}; "
          "recompile the automaton from its patterns")

    sig = Signature()
    raw_sig = _field(doc, "signature", "$")
    _need(isinstance(raw_sig, list) and raw_sig, "$.signature",
          "must be a non-empty array")
    for i, entry in enumerate(raw_sig):
        path = f"$.signature[{i}]"
        _need(isinstance(entry, dict), path, "must be an object")
        name = _field(entry, "name", path)
        arity = _field(entry, "arity", path)
        _need(isinstance(name, str), path + ".name", "must be a string")
        _need(_is_int(arity) and arity >= 0,
              path + ".arity", "must be a non-negative integer")
        try:
            sig.declare(name, arity)
        except SignatureError as e:
            raise FormatError(str(e), path) from None

    raw_pats = _field(doc, "patterns", "$")
    _need(isinstance(raw_pats, list) and raw_pats, "$.patterns",
          "must be a non-empty array")
    terms = []
    for i, text_i in enumerate(raw_pats):
        path = f"$.patterns[{i}]"
        _need(isinstance(text_i, str), path, "must be a string")
        terms.append(_term(text_i, sig, path))
    try:
        patterns = PatternSet(terms, sig)
    except PatternSetError as e:
        raise FormatError(str(e), "$.patterns") from None

    strategy = _field(doc, "label_strategy", "$")
    _need(strategy in (LEFTMOST, RIGHTMOST), "$.label_strategy",
          f"must be '{LEFTMOST}' or '{RIGHTMOST}'")

    raw_states = _field(doc, "states", "$")
    _need(isinstance(raw_states, list) and raw_states, "$.states",
          "must be a non-empty array")
    n_states = len(raw_states)

    initial = _field(doc, "initial", "$")
    _need(_is_int(initial) and 0 <= initial < n_states, "$.initial",
          f"must be a state id below {n_states}")

    sym_names = [s.name for s in sig]
    n_patterns = len(terms)
    width = sig.max_arity
    states: list[State] = []
    for i, entry in enumerate(raw_states):
        path = f"$.states[{i}]"
        _need(isinstance(entry, dict), path, "must be an object")
        sid = _field(entry, "id", path)
        _need(_is_int(sid) and sid == i, path + ".id",
              f"state ids must be dense and ascending (expected {i})")
        label = _position(_field(entry, "label", path), path + ".label", width)
        raw_delta = _field(entry, "delta", path)
        delta = _transitions(raw_delta, sym_names, n_patterns, n_states, width)
        if delta is None:
            delta = _checked_transitions(raw_delta, path, sym_names, n_patterns,
                                         n_states, width)
        states.append(State(label=label, goals=None, delta=delta))

    return SetAutomaton(signature=sig, patterns=patterns, label_strategy=strategy,
                        states=states, initial=initial)


# A state's transitions are read first by a reader that formats no JSON
# path and returns None at the first check that fails.  Only then does the
# checked reader run: the same checks in the same order, with the path of
# each value, raising at the first that fails.

def _transitions(raw_delta, sym_names, n_patterns, n_states, width) -> dict | None:
    """The transitions of a well-formed ``delta`` object, else None."""
    if type(raw_delta) is not dict or len(raw_delta) != len(sym_names):
        return None
    delta = {}
    for name in sym_names:
        tr = raw_delta.get(name)
        if type(tr) is not dict:
            return None
        raw_outs = tr.get("outputs")
        raw_tgts = tr.get("targets")
        if type(raw_outs) is not list or type(raw_tgts) is not list:
            return None
        outs = []
        for o in raw_outs:
            if type(o) is not dict:
                return None
            pid = o.get("pattern")
            pos = o.get("pos")
            if (type(pid) is not int or not 0 <= pid < n_patterns
                    or not _is_position(pos, width)):
                return None
            outs.append((pid, tuple(pos)))
        tgts = []
        for t in raw_tgts:
            if type(t) is not dict:
                return None
            tid = t.get("state")
            shift = t.get("shift")
            if (type(tid) is not int or not 0 <= tid < n_states
                    or not _is_position(shift, width)):
                return None
            tgts.append((tid, tuple(shift)))
        delta[name] = Transition(outputs=tuple(outs), targets=tuple(tgts))
    return delta


def _checked_transitions(raw_delta, path, sym_names, n_patterns, n_states,
                         width) -> dict:
    _need(isinstance(raw_delta, dict), path + ".delta", "must be an object")
    for name in raw_delta:
        _need(name in sym_names, f"{path}.delta.{name}",
              "symbol is not in the signature")
    delta = {}
    for name in sym_names:
        dpath = f"{path}.delta.{name}"
        _need(name in raw_delta, path + ".delta",
              f"missing transition for symbol '{name}'")
        tr = raw_delta[name]
        _need(isinstance(tr, dict), dpath, "must be an object")
        outs = []
        for j, o in enumerate(_list(_field(tr, "outputs", dpath), dpath + ".outputs")):
            opath = f"{dpath}.outputs[{j}]"
            _need(isinstance(o, dict), opath, "must be an object")
            pid = _field(o, "pattern", opath)
            _need(_is_int(pid) and 0 <= pid < n_patterns,
                  opath + ".pattern", "unknown pattern id")
            outs.append((pid, _position(_field(o, "pos", opath), opath + ".pos", width)))
        tgts = []
        for j, t in enumerate(_list(_field(tr, "targets", dpath), dpath + ".targets")):
            tpath = f"{dpath}.targets[{j}]"
            _need(isinstance(t, dict), tpath, "must be an object")
            tid = _field(t, "state", tpath)
            _need(_is_int(tid) and 0 <= tid < n_states,
                  tpath + ".state", f"unknown state id {tid!r}")
            tgts.append((tid, _position(_field(t, "shift", tpath), tpath + ".shift",
                                        width)))
        delta[name] = Transition(outputs=tuple(outs), targets=tuple(tgts))
    return delta


def _term(text, sig, path) -> Term:
    try:
        return parse_term(text, sig, allow_wildcard=True, extend=False)
    except ParseError as e:
        raise FormatError(f"unparseable pattern: {e}", path) from None


def _is_int(value) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass and is not one."""
    return type(value) is int


def _need(cond, path, msg):
    if not cond:
        raise FormatError(msg, path)


def _field(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"missing field '{key}'", path)
    return obj[key]


def _list(value, path):
    _need(isinstance(value, list), path, "must be an array")
    return value


def _is_position(value, width) -> bool:
    """A JSON array of argument indices, each from 1 to ``width``."""
    if type(value) is not list:
        return False
    for x in value:
        if type(x) is not int or not 1 <= x <= width:
            return False
    return True


def _position(value, path, width) -> tuple:
    _need(isinstance(value, list) and all(_is_int(x) and x >= 1 for x in value),
          path, "must be an array of positive integers")
    for k, x in enumerate(value):
        _need(x <= width, f"{path}[{k}]",
              f"step {x} is above the signature's widest arity {width}")
    return tuple(value)
