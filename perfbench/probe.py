"""Scale probe: double description above the benchmark's ladder.

`python3 perfbench/probe.py` builds one pointed cone per size in
PROBE_SIZES, from the fixed PROBE_SEED, each in a child process that is
stopped after DEADLINE_S, and reports "finished in T s" or "timeout at T s".
It is informational: no workload runs it and it feeds no metric.
"""
import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBE_SIZES = ((6, 12), (6, 20), (7, 24))
PROBE_SEED = 0
DEADLINE_S = 120.0


def child(d: int, n: int) -> None:
    sys.path[:0] = [str(HERE), str(SRC)]
    import inputs
    from conecert.cones import build_cone
    gens = inputs.pointed_cone(random.Random(f"probe-{PROBE_SEED}-{d}-{n}"), d, n)
    started = time.perf_counter()
    cone = build_cone(gens)
    print(json.dumps({"seconds": time.perf_counter() - started,
                      "facets": len(cone.facet_normals)}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, type=int, metavar=("D", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(*args.child)
        return 0
    for d, n in PROBE_SIZES:
        cmd = [sys.executable, __file__, "--child", str(d), str(n)]
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            print(f"build_cone d={d} n={n}: timeout at {time.perf_counter() - started:.1f} s")
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"build_cone d={d} n={n}: finished in {res['seconds']:.1f} s "
              f"({res['facets']} facets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
