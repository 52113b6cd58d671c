"""Benchmark of the setmatch compile -> load -> match path.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Workloads: corpus, scan, wide and deep (see workloads.py for why each).
``--trace 0`` measures the end-to-end metrics, with nothing wrapped, for
about ``--seconds`` (whole cycles of compile, load and match; see bench.py).  ``--trace 1`` is the separate traced run: one compile,
load and match section untraced and once traced, then the per-layer
figures.  Both check every match set against the brute-force oracle and
exit 1 if any operation failed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the same figures for people, with the sample
counts and the environment they were taken in.

Seed 0 of ``corpus`` is the acceptance-suite corpus.  Tune on other seeds
and confirm a claim on HELD_OUT_SEED only once the change is written.

Oracle fingerprints, span files and CLI scratch files go to ``.perfbench/``
in the repository root.  Self-tests: ``python -m pytest perfbench``.
"""

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
HELD_OUT_SEED = 20211


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the compile, load and match cycles run, in whole cycles")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> str:
    return (f"python {platform.python_version()} ({platform.python_implementation()})"
            f"  nproc {os.cpu_count()}  gc_threshold {gc.get_threshold()}"
            f"  PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED', 'unset')}")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "setmatch" / "__init__.py").is_file():
        print(f"perfbench: no setmatch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import setmatch  # noqa: F401
    import bench
    import tracing
    from workloads import WORKLOADS

    make = WORKLOADS.get(args.workload)
    if make is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    w = make(args.seed)
    print(f"# {w.name} seed {w.seed}  trace {args.trace}  {len(w.sources)} pattern sets"
          f"  {len(w.subjects)} subjects  {w.nodes} nodes per pass")
    print(f"# {environment()}")
    if args.trace:
        metrics, details, tally = tracing.run(w, str(WORK_DIR))
        self_s, total_s = details["build_accounting"]
        print(f"# spans written to {os.path.relpath(details['spans'], ROOT)}")
        print(f"# automaton.build: {total_s:.4f} s, {total_s - self_s:.4f} s "
              f"({1 - self_s / total_s:.0%}) in wrapped goals and automaton calls, "
              f"{self_s:.4f} s self")
        print(f"# section untraced {details['untraced_s']:.3f} s, traced "
              f"{details['traced_s']:.3f} s")
        print(f"# Parallel(2) on {details['par2_nodes']} nodes, us/node per run: "
              + ", ".join(f"{v:.2f}" for v in details["par2_runs"]))
        print(f"# oracle timed on {details['oracle_nodes']} nodes")
        shown = metrics
    else:
        metrics, details, tally = bench.run(w, args.seconds, str(WORK_DIR))
        print(f"# {details['measured_s']:.1f} s measured, {details['cycles']} cycles: "
              f"{details['compile_rounds']} compile rounds, "
              f"{details['load_rounds']} load rounds, {details['passes']} match passes")
        print(f"# match_tail_ms is p{details['match_tail_percentile']:g} of {len(w.subjects)} "
              f"subjects, each timed as the median of its {details['passes']} passes")
        scales = details["scales"]
        print(f"# times are at the reference speed: measured times scaled by "
              f"{statistics.median(scales):.3f} (median; quartiles "
              + " to ".join(f"{q:.3f}" for q in statistics.quantiles(scales, n=4)[::2])
              + f" over {len(scales)} readings)")
        shown = dict(metrics)
        for name in ("automaton_mib", "ops_failed_frac"):
            shown[name] = details[name]
    for name, (value, unit) in shown.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"# operations: {tally.attempted} attempted, {tally.failed} failed")
    for note in tally.notes:
        print(f"# FAILED {note}")

    correct = tally.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
