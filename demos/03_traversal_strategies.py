#!/usr/bin/env python3
"""Depth-first, breadth-first and dealt-share evaluation agree everywhere.

Work items carry no mutable automaton state, so the processing order is
free.  This script runs all three strategies over a batch of random
subjects and shows identical match sets with identical work counts.
``Parallel(4)`` deals the work into four shares that run one after
another in one thread: a third order, not a parallel run.
"""

import random
import time

from setmatch import (BreadthFirst, DepthFirst, Parallel, build, evaluate,
                      random_instance)


def main() -> None:
    strategies = [("depth-first", DepthFirst()),
                  ("breadth-first", BreadthFirst()),
                  ("4 shares, 1 thread", Parallel(4))]

    rng = random.Random(7)
    total = {name: 0.0 for name, _ in strategies}
    checked = 0
    for trial in range(60):
        ps, subject = random_instance(rng.getrandbits(30),
                                      subject_size=400)
        a = build(ps)
        reports = {}
        for name, strategy in strategies:
            t0 = time.perf_counter()
            reports[name] = evaluate(a, subject, strategy)
            total[name] += time.perf_counter() - t0
        first = reports["depth-first"]
        for name, _ in strategies:
            assert reports[name].matches == first.matches
            assert reports[name].node_count == first.node_count
        checked += len(first.matches)

    print(f"60 random subjects, {checked} matches, all strategies agree")
    for name, _ in strategies:
        print(f"  {name:18} {total[name] * 1e3:7.1f} ms total")


if __name__ == "__main__":
    main()
