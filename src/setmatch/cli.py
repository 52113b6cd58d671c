"""Command line interface.

Subcommands: ``compile`` a pattern file to an automaton, ``match`` a subject
term against a compiled automaton, ``export-dot`` for Graphviz output,
``bench`` for size/speed tables, and ``gen`` for reproducible random
instances.  Exit codes: 0 on success, 1 when a requested verification
fails, 2 on usage or input errors, with a one-line ``error:`` message and
no traceback for any error of this package.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from .automaton import LEFTMOST, RIGHTMOST, build, transition_count, verify_automaton
from .dot import to_dot
from .errors import (InvariantError, ParseError, PatternSetError, SetMatchError,
                     SignatureError)
from .evaluate import MAX_WORKERS, BreadthFirst, DepthFirst, Parallel, evaluate
from .oracle import (brute_force_matches, comb_pattern_set, random_instance)
from .positions import format_position
from .serialization import from_json, to_json
from .terms import (PatternSet, format_term, parse_term, read_signature,
                    term_size, write_signature)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SetMatchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _workers(text: str) -> int:
    """The ``--workers`` value: an integer from 1 to MAX_WORKERS."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 1 <= n <= MAX_WORKERS:
        raise argparse.ArgumentTypeError(
            f"expected an integer from 1 to {MAX_WORKERS}, got {text!r}")
    return n


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
    p.add_argument("--strategy", choices=["depth-first", "breadth-first", "parallel"],
                   default="depth-first")
    p.add_argument("--workers", type=_workers, default=4,
                   help=f"worker threads for --strategy parallel, 1 to {MAX_WORKERS} "
                        "(default: 4)")
    p.add_argument("--stats", action="store_true",
                   help="also print inspection and work item counts")
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

    p = sub.add_parser("bench", help="size and speed tables")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--family", choices=["tn"],
                      help="pattern family to size up (tn: the comb family)")
    mode.add_argument("--random", action="store_true",
                      help="time evaluator vs brute force on random instances")
    p.add_argument("--n-max", type=int, default=8,
                   help="largest family index (default: 8)")
    p.add_argument("--label", choices=[LEFTMOST, RIGHTMOST],
                   help="restrict the family table to one strategy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20, help="random instances to run")
    p.add_argument("--patterns", type=int, default=4)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--subject-size", type=int, default=120)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("gen", help="write a reproducible random instance to files")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--patterns", type=int, default=4)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--subject-size", type=int, default=50)
    p.add_argument("--wildcard-density", type=float, default=0.5)
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.patterns, <prefix>.term, <prefix>.sig")
    p.set_defaults(handler=_cmd_gen)

    return parser


def _cmd_compile(args) -> int:
    sig = None
    if args.signature:
        try:
            sig = read_signature(Path(args.signature).read_text())
        except SignatureError as e:
            print(f"error: {args.signature}: {e}", file=sys.stderr)
            return 2
    try:
        ps = PatternSet.from_text(Path(args.patterns).read_text(), sig)
    except (ParseError, PatternSetError, SignatureError) as e:
        print(f"error: {args.patterns}: {e}", file=sys.stderr)
        return 2
    a = build(ps, args.label)
    Path(args.out).write_text(to_json(a))
    print(f"states: {len(a.states)}")
    print(f"transitions: {transition_count(a)}")
    return 0


def _cmd_match(args) -> int:
    a = from_json(Path(args.automaton).read_text())
    if args.verify:
        try:
            verify_automaton(a)
        except InvariantError as e:
            print(f"verification FAILED: {args.automaton}: {e}", file=sys.stderr)
            return 1
    text = sys.stdin.read() if args.term == "-" else Path(args.term).read_text()
    try:
        subject = parse_term(text, a.signature)
    except ParseError as e:
        where = "stdin" if args.term == "-" else args.term
        print(f"error: {where}: {e}", file=sys.stderr)
        return 2
    if args.strategy == "parallel":
        strategy = Parallel(args.workers)
    elif args.strategy == "breadth-first":
        strategy = BreadthFirst()
    else:
        strategy = DepthFirst()
    report = evaluate(a, subject, strategy)
    texts = a.patterns.texts()
    if args.as_json:
        doc = [{"pattern": pid, "pos": list(pos)}
               for pid, pos in sorted(report.matches)]
        print(json.dumps(doc, indent=2))
    else:
        for line in sorted(f"{texts[pid]} @ {format_position(pos)}"
                           for pid, pos in report.matches):
            print(line)
    if args.stats:
        # one pass: every work item inspects one subject node, once
        print(f"inspections: {report.node_count}")
        print(f"work items: {report.node_count}")
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
    a = from_json(Path(args.automaton).read_text())
    Path(args.out).write_text(to_dot(a))
    print(f"wrote {args.out}")
    return 0


def _cmd_bench(args) -> int:
    if args.family:
        strategies = [args.label] if args.label else [RIGHTMOST, LEFTMOST]
        print("n\t" + "\t".join(strategies))
        for n in range(1, args.n_max + 1):
            counts = [len(build(comb_pattern_set(n), s).states) for s in strategies]
            print(f"{n}\t" + "\t".join(str(c) for c in counts))
        return 0

    build_t = eval_t = oracle_t = 0.0
    inspections = 0
    symbols = 0
    matches = 0
    disagreements = 0
    for k in range(args.count):
        ps, subject = random_instance(args.seed + k, pattern_count=args.patterns,
                                      pattern_depth=args.depth,
                                      subject_size=args.subject_size)
        t0 = time.perf_counter()
        a = build(ps)
        t1 = time.perf_counter()
        report = evaluate(a, subject)
        t2 = time.perf_counter()
        expected = brute_force_matches(ps, subject)
        t3 = time.perf_counter()
        build_t += t1 - t0
        eval_t += t2 - t1
        oracle_t += t3 - t2
        inspections += report.node_count
        symbols += term_size(subject)
        matches += len(report.matches)
        if report.matches != expected:
            disagreements += 1
    print(f"instances: {args.count}")
    print(f"build time: {build_t:.3f}s")
    print(f"evaluate time: {eval_t:.3f}s")
    print(f"oracle time: {oracle_t:.3f}s")
    print(f"subject symbols: {symbols}")
    print(f"inspections: {inspections}")
    print(f"matches: {matches}")
    if disagreements:
        print(f"agreement: FAILED on {disagreements} instances", file=sys.stderr)
        return 1
    print("agreement: ok")
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
