#!/usr/bin/env python3
"""Batch experiment: certified polarization decision vs. empirical growth.

Generates seeded random simplicial-cone maps, runs the certified spectral
decision and the growth-of-powers oracle side by side, and prints agreement
statistics broken down by the generator's intent.
"""
import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conecert.selftest import run_cone_equivalence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--max-dim", type=int, default=4)
    args = parser.parse_args()

    started = time.perf_counter()
    outcomes = []
    result = run_cone_equivalence(args.seed, args.cases, max_dim=args.max_dim,
                                  collect=outcomes)
    elapsed = time.perf_counter() - started
    print(f"cases: {args.cases}  (seed {args.seed}, dim <= {args.max_dim})")
    print(f"generator intents: {dict(Counter(o.kind for o in outcomes))}")
    print(f"verdicts: {dict(Counter(o.verdict for o in outcomes))}")
    agreements = result.cases - len(result.failures)
    print(f"oracle agreement: {agreements}/{result.cases}")
    for failure in result.failures:
        print(f"  disagreement: {failure}")
    print(f"elapsed: {elapsed:.1f}s")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
