"""JSON form of a compiled automaton (schema version 2).

The document is self-contained: signature, pattern texts, and per-state
labels and transitions.  Goal sets are included by default so a reloaded
automaton can be re-verified, but they are optional debug payload; an
automaton without them still evaluates.

A state's goals are stored without what can be derived: ``"fresh"`` lists
the positions where the state holds the fresh goal of every pattern, and
``"goals"`` lists every other goal in canonical order.  A partial fresh
family is written out goal by goal, so the split is lossless for any state
and a reloaded state's goals equal the built ones exactly.

The text is compact JSON, deterministic, with a stable key order.
``from_json`` validates structure and cross-references with a JSON-path in
every error message, parses each distinct term text once, and rejects
documents of any other schema version, including version 1.
"""

import json

from .automaton import SetAutomaton, State, Transition
from .errors import FormatError, ParseError, PatternSetError, SignatureError
from .goals import Goal, canonical_goals, fresh_goal, split_fresh
from .terms import PatternSet, Signature, Term, format_term, parse_term

SCHEMA_VERSION = 2


def to_json(a: SetAutomaton, *, include_goals: bool = True) -> str:
    patterns = a.patterns.patterns
    states = []
    for sid, st in enumerate(a.states):
        entry = {"id": sid, "label": list(st.label)}
        if include_goals and st.goals is not None:
            others, fresh = split_fresh(st.goals, patterns)
            entry["fresh"] = [list(p) for p in fresh]
            entry["goals"] = [_goal_doc(g) for g in others]
        entry["delta"] = {
            name: {
                "outputs": [{"pattern": pid, "pos": list(pos)} for pid, pos in tr.outputs],
                "targets": [{"state": tid, "shift": list(shift)} for tid, shift in tr.targets],
            }
            for name, tr in st.delta.items()
        }
        states.append(entry)
    doc = {
        "version": SCHEMA_VERSION,
        "signature": [{"name": s.name, "arity": s.arity} for s in a.signature],
        "patterns": a.patterns.texts(),
        "initial": a.initial,
        "states": states,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _goal_doc(g: Goal) -> dict:
    pairs = sorted((pos, format_term(term)) for term, pos in g.obligation)
    return {
        "obligation": [{"term": text, "pos": list(pos)} for pos, text in pairs],
        "announce": {"pattern": g.pattern, "pos": list(g.announce)},
    }


def from_json(text: str) -> SetAutomaton:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
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
    parsed: dict[str, Term] = {}  # one Term per distinct text; terms are immutable
    terms = []
    for i, text_i in enumerate(raw_pats):
        path = f"$.patterns[{i}]"
        _need(isinstance(text_i, str), path, "must be a string")
        terms.append(_term(text_i, sig, parsed, "unparseable pattern", path))
    try:
        patterns = PatternSet(terms, sig)
    except PatternSetError as e:
        raise FormatError(str(e), "$.patterns") from None

    raw_states = _field(doc, "states", "$")
    _need(isinstance(raw_states, list) and raw_states, "$.states",
          "must be a non-empty array")
    n_states = len(raw_states)

    initial = _field(doc, "initial", "$")
    _need(_is_int(initial) and 0 <= initial < n_states, "$.initial",
          f"must be a state id below {n_states}")

    sym_names = [s.name for s in sig]
    n_patterns = len(terms)
    states: list[State] = []
    for i, entry in enumerate(raw_states):
        path = f"$.states[{i}]"
        _need(isinstance(entry, dict), path, "must be an object")
        sid = _field(entry, "id", path)
        _need(_is_int(sid) and sid == i, path + ".id",
              f"state ids must be dense and ascending (expected {i})")
        label = _position(_field(entry, "label", path), path + ".label")

        goals = None
        if "goals" in entry or "fresh" in entry:
            raw_goals = _list(_field(entry, "goals", path), path + ".goals")
            goals = []
            for j, doc_g in enumerate(raw_goals):
                g = _goal(doc_g, sig, n_patterns, parsed)
                goals.append(g if g is not None else _checked_goal(
                    doc_g, f"{path}.goals[{j}]", sig, n_patterns, parsed))
            for j, at in enumerate(_list(_field(entry, "fresh", path), path + ".fresh")):
                if not _is_position(at):
                    _position(at, f"{path}.fresh[{j}]")  # raises, with the path
                at = tuple(at)
                goals.extend(fresh_goal(pid, pat, at) for pid, pat in enumerate(terms))
            goals = canonical_goals(set(goals))

        raw_delta = _field(entry, "delta", path)
        delta = _transitions(raw_delta, sym_names, n_patterns, n_states)
        if delta is None:
            delta = _checked_transitions(raw_delta, path, sym_names, n_patterns, n_states)
        states.append(State(label=label, goals=goals, delta=delta))

    return SetAutomaton(signature=sig, patterns=patterns, states=states,
                        initial=initial)


# A state's goals and transitions are read first by a reader that formats
# no JSON path and returns None at the first check that fails.  Only then
# does the checked reader run: the same checks in the same order, with the
# path of each value, raising at the first that fails.

def _transitions(raw_delta, sym_names, n_patterns, n_states) -> dict | None:
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
            if type(pid) is not int or not 0 <= pid < n_patterns or not _is_position(pos):
                return None
            outs.append((pid, tuple(pos)))
        tgts = []
        for t in raw_tgts:
            if type(t) is not dict:
                return None
            tid = t.get("state")
            shift = t.get("shift")
            if type(tid) is not int or not 0 <= tid < n_states or not _is_position(shift):
                return None
            tgts.append((tid, tuple(shift)))
        delta[name] = Transition(outputs=tuple(outs), targets=tuple(tgts))
    return delta


def _checked_transitions(raw_delta, path, sym_names, n_patterns, n_states) -> dict:
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
            outs.append((pid, _position(_field(o, "pos", opath), opath + ".pos")))
        tgts = []
        for j, t in enumerate(_list(_field(tr, "targets", dpath), dpath + ".targets")):
            tpath = f"{dpath}.targets[{j}]"
            _need(isinstance(t, dict), tpath, "must be an object")
            tid = _field(t, "state", tpath)
            _need(_is_int(tid) and 0 <= tid < n_states,
                  tpath + ".state", f"unknown state id {tid!r}")
            tgts.append((tid, _position(_field(t, "shift", tpath), tpath + ".shift")))
        delta[name] = Transition(outputs=tuple(outs), targets=tuple(tgts))
    return delta


def _goal(doc_g, sig, n_patterns, parsed) -> Goal | None:
    """The goal a well-formed goal entry describes, else None."""
    if type(doc_g) is not dict:
        return None
    raw_ob = doc_g.get("obligation")
    ann = doc_g.get("announce")
    if type(raw_ob) is not list or not raw_ob or type(ann) is not dict:
        return None
    pairs = []
    for pair in raw_ob:
        if type(pair) is not dict:
            return None
        text = pair.get("term")
        pos = pair.get("pos")
        if type(text) is not str or not _is_position(pos):
            return None
        term = parsed.get(text)
        if term is None:
            try:
                term = parse_term(text, sig, allow_wildcard=True, extend=False)
            except ParseError:
                return None
            parsed[text] = term
        pairs.append((term, tuple(pos)))
    pid = ann.get("pattern")
    pos = ann.get("pos")
    if type(pid) is not int or not 0 <= pid < n_patterns or not _is_position(pos):
        return None
    return Goal(frozenset(pairs), pid, tuple(pos))


def _checked_goal(doc_g, path, sig, n_patterns, parsed) -> Goal:
    _need(isinstance(doc_g, dict), path, "must be an object")
    raw_ob = _list(_field(doc_g, "obligation", path), path + ".obligation")
    _need(len(raw_ob) > 0, path + ".obligation", "must be non-empty")
    pairs = []
    for j, pair in enumerate(raw_ob):
        ppath = f"{path}.obligation[{j}]"
        _need(isinstance(pair, dict), ppath, "must be an object")
        text = _field(pair, "term", ppath)
        _need(isinstance(text, str), ppath + ".term", "must be a string")
        term = _term(text, sig, parsed, "unparseable term", ppath + ".term")
        pairs.append((term, _position(_field(pair, "pos", ppath), ppath + ".pos")))
    ann = _field(doc_g, "announce", path)
    _need(isinstance(ann, dict), path + ".announce", "must be an object")
    pid = _field(ann, "pattern", path + ".announce")
    _need(_is_int(pid) and 0 <= pid < n_patterns,
          path + ".announce.pattern", "unknown pattern id")
    pos = _position(_field(ann, "pos", path + ".announce"), path + ".announce.pos")
    return Goal(frozenset(pairs), pid, pos)


def _term(text, sig, parsed, what, path) -> Term:
    """``parse_term`` memoised on the text within one document."""
    term = parsed.get(text)
    if term is None:
        try:
            term = parse_term(text, sig, allow_wildcard=True, extend=False)
        except ParseError as e:
            raise FormatError(f"{what}: {e}", path) from None
        parsed[text] = term
    return term


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


def _is_position(value) -> bool:
    """A JSON array of positive integers."""
    if type(value) is not list:
        return False
    for x in value:
        if type(x) is not int or x < 1:
            return False
    return True


def _position(value, path) -> tuple:
    _need(_is_position(value), path, "must be an array of positive integers")
    return tuple(value)
