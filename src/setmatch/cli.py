"""Command line interface.

Subcommands: ``compile`` a pattern file to an automaton, ``match`` a subject
term against a compiled automaton, ``export-dot`` for Graphviz output, and
``gen`` for reproducible random instances.  Exit codes: 0 on success, 1
when a requested verification fails, 2 on usage or input errors, with a
one-line ``error:`` message and no traceback for any error of this package
or an input too large for memory.
"""

import argparse
import json
import sys
from pathlib import Path

from .automaton import LEFTMOST, RIGHTMOST, build, transition_count, verify_automaton
from .dot import to_dot
from .errors import InvariantError, SetMatchError
from .evaluate import BreadthFirst, DepthFirst, evaluate
from .oracle import brute_force_matches, random_instance
from .positions import format_position
from .serialization import from_json, to_json
from .terms import (PatternSet, format_term, parse_term, read_signature,
                    write_signature)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SetMatchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large for this machine",
              file=sys.stderr)
        return 2


def _where(name: str) -> str:
    return "stdin" if name == "-" else name


def _read(name: str) -> str:
    """The UTF-8 text of file ``name``, or of stdin for ``-``, without a
    leading byte-order mark; error offsets count from after the mark."""
    try:
        if name == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            text = Path(name).read_text("utf-8")
    except UnicodeDecodeError as e:
        raise SetMatchError(
            f"{_where(name)}: not UTF-8 text, byte {e.start}: {e.reason}") from None
    return text.removeprefix("\ufeff")


def _load(name: str, parse, *args):
    """``parse(text, *args)`` of the text of file ``name``, or of stdin for
    ``-``; an error of the parse names the file."""
    text = _read(name)
    try:
        return parse(text, *args)
    except SetMatchError as e:
        raise SetMatchError(f"{_where(name)}: {e}") from None


def _bounded(kind, low, high=None):
    """An ``argparse`` type: a ``kind`` number of at least ``low`` and, when
    given, at most ``high``; nan is neither."""
    def number(text: str):
        value = kind(text)
        if not low <= value <= (value if high is None else high):
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}" if high is None
                else f"must be in [{low}, {high}], got {value}")
        return value
    return number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setmatch",
        description="Compile pattern sets into a matching automaton and run it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a pattern file to an automaton")
    p.add_argument("--patterns", required=True, help="file with one pattern per line")
    p.add_argument("--signature", help="optional name/arity file; inferred when absent")
    p.add_argument("--label", choices=[LEFTMOST, RIGHTMOST], default=RIGHTMOST,
                   help="label placement strategy (default: rightmost)")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("match", help="match a subject term against an automaton")
    p.add_argument("--automaton", required=True, help="compiled automaton JSON")
    p.add_argument("--term", required=True, help="subject term file, or - for stdin")
    p.add_argument("--strategy", choices=["depth-first", "breadth-first"],
                   default="depth-first")
    p.add_argument("--stats", action="store_true",
                   help="also print the number of subject nodes inspected "
                        "and of matches (to stderr under --json)")
    p.add_argument("--verify", action="store_true",
                   help="check the automaton against a rebuild from its patterns, "
                        "and the result against the brute-force matcher")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print matches as JSON instead of text lines")
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("export-dot", help="render an automaton for Graphviz")
    p.add_argument("--automaton", required=True)
    p.add_argument("--out", required=True, help="output .dot path")
    p.set_defaults(handler=_cmd_export_dot)

    p = sub.add_parser("gen", help="write a reproducible random instance to files")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--patterns", type=_bounded(int, 1), default=4)
    p.add_argument("--depth", type=_bounded(int, 0), default=3)
    p.add_argument("--subject-size", type=_bounded(int, 1), default=50)
    p.add_argument("--wildcard-density", type=_bounded(float, 0, 1), default=0.5)
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.patterns, <prefix>.term, <prefix>.sig")
    p.set_defaults(handler=_cmd_gen)

    return parser


def _cmd_compile(args) -> int:
    sig = _load(args.signature, read_signature) if args.signature else None
    ps = _load(args.patterns, PatternSet.from_text, sig)
    a = build(ps, args.label)
    Path(args.out).write_text(to_json(a))
    print(f"states: {len(a.states)}")
    print(f"transitions: {transition_count(a)}")
    return 0


def _cmd_match(args) -> int:
    a = _load(args.automaton, from_json)
    if args.verify:
        try:
            verify_automaton(a)
        except InvariantError as e:
            print(f"verification FAILED: {_where(args.automaton)}: {e}", file=sys.stderr)
            return 1
    subject = _load(args.term, parse_term, a.signature)
    strategy = BreadthFirst() if args.strategy == "breadth-first" else DepthFirst()
    report = evaluate(a, subject, strategy)
    texts = a.patterns.texts()
    if args.as_json:
        doc = [{"pattern": pid, "pos": pos}
               for pid, pos in sorted(report.matches)]
        print(json.dumps(doc, indent=2))
    else:
        for line in sorted(f"{texts[pid]} @ {format_position(pos)}"
                           for pid, pos in report.matches):
            print(line)
    if args.stats:
        # one pass: every work item inspects one subject node, once; under
        # --json, stdout holds the one JSON document
        out = sys.stderr if args.as_json else sys.stdout
        print(f"inspections: {report.node_count}", file=out)
        print(f"matches: {len(report.matches)}", file=out)
    if args.verify:
        expected = brute_force_matches(a.patterns, subject)
        if expected != report.matches:
            missing = sorted(expected - report.matches)
            extra = sorted(report.matches - expected)
            print(f"verification FAILED: missing={missing} extra={extra}",
                  file=sys.stderr)
            return 1
        print("verified: evaluator agrees with brute force", file=sys.stderr)
    return 0


def _cmd_export_dot(args) -> int:
    a = _load(args.automaton, from_json)
    Path(args.out).write_text(to_dot(a))
    print(f"wrote {args.out}")
    return 0


def _cmd_gen(args) -> int:
    ps, subject = random_instance(args.seed, pattern_count=args.patterns,
                                  pattern_depth=args.depth,
                                  subject_size=args.subject_size,
                                  wildcard_density=args.wildcard_density)
    paths = {
        "patterns": Path(args.out_prefix + ".patterns"),
        "term": Path(args.out_prefix + ".term"),
        "sig": Path(args.out_prefix + ".sig"),
    }
    paths["patterns"].write_text("".join(t + "\n" for t in ps.texts()))
    paths["term"].write_text(format_term(subject) + "\n")
    paths["sig"].write_text(write_signature(ps.signature))
    for path in paths.values():
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
