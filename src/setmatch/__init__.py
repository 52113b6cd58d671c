"""Pattern matching with set automata.

Compile a set of linear patterns into an automaton whose states are sets
of match goals, then run it over a subject term.  Every occurrence of
every pattern is reported while each subject symbol is inspected exactly
once, independent of the traversal strategy.

The package exports what the README, the demos and the acceptance suite
use; the building blocks (goals, single steps) stay importable from
their own modules.
"""

from .automaton import (LEFTMOST, RIGHTMOST, SetAutomaton, State, Transition,
                        build, reachable_position_bound, verify_automaton)
from .dot import to_dot
from .errors import (FormatError, InvariantError, ParseError, PatternSetError,
                     PositionError, SetMatchError, SignatureError,
                     SubjectError)
from .evaluate import (BreadthFirst, DepthFirst, MatchReport, Parallel,
                       evaluate, evaluation_tree, tree_nodes)
from .goals import Goal
from .oracle import (brute_force_matches, comb_pattern, comb_pattern_set,
                     random_instance)
from .positions import format_position, gcp, join, prefix_leq
from .serialization import from_json, to_json
from .terms import (PatternSet, Signature, Symbol, Term, domain, format_term,
                    matches, parse_term, read_signature, subterm_at,
                    term_size, write_signature)

__version__ = "0.1.0"

__all__ = [
    "LEFTMOST", "RIGHTMOST", "SetAutomaton", "State", "Transition",
    "build", "reachable_position_bound", "verify_automaton",
    "to_dot",
    "FormatError", "InvariantError", "ParseError", "PatternSetError",
    "PositionError", "SetMatchError", "SignatureError", "SubjectError",
    "BreadthFirst", "DepthFirst", "MatchReport", "Parallel",
    "evaluate", "evaluation_tree", "tree_nodes",
    "Goal",
    "brute_force_matches", "comb_pattern", "comb_pattern_set",
    "random_instance",
    "format_position", "gcp", "join", "prefix_leq",
    "from_json", "to_json",
    "PatternSet", "Signature", "Symbol", "Term", "domain", "format_term",
    "matches", "parse_term", "read_signature", "subterm_at", "term_size",
    "write_signature",
    "__version__",
]
