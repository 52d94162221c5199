#!/usr/bin/env python3
"""Alternating benchmark pairs: a base commit against this checkout.

    python3 scripts/bench_pairs.py BASE WORKLOAD PAIRS

BASE (any commit-ish) is exported with `git archive` into a temporary
directory, and `python3 -m compileall -q src` runs in both trees, so
neither side pays for stale bytecode. Then `perfbench/run.py --workload
WORKLOAD --seconds <run_seconds of BENCHMARK.json>` runs PAIRS times in
each tree, pair i at seed FIRST_SEED + i, and the tree that goes first
flips from one pair to the next. The change is this checkout's working
tree, uncommitted edits included.

For each end-to-end metric of BENCHMARK.json it prints the base and change
medians, the interquartile range of the base runs, the pairs the change
won, and the shift of the medians as a share of the base median and of the
metric's bound (positive is worse), and then the medians of the operations
each run attempted and their shift, since a run that attempts more keeps
more per-operation records and so reads a higher `peak_rss_mb`. Last, the
least-squares fit of `peak_rss_mb` against the operations attempted, with
one slope for both sides (the memory each record costs) and an intercept
for each: their difference is what the change's code keeps more or less
than the base's at an equal operation count. It exits 1 if any run
reports `correct: false` or prints no result, and it removes its
temporary tree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 90210


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of `perfbench/run.py` in `tree`, parsed, or {} if none."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {}
    return json.loads(lines[-1])


def summarize(end_to_end: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """One line per metric, from runs paired by index; each run maps a metric
    name to its value."""
    out = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1 else b * 3
        mb, mc = statistics.median(b), statistics.median(c)
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        shift = sign * (mc - mb) / mb if mb else 0.0
        out.append(f"{name:<14} base {mb:.6g}  change {mc:.6g} {metric['unit']}  "
                   f"base IQR {q3 - q1:.3g}  change wins {wins}/{len(b)}  "
                   f"shift {shift:+.1%} = {shift / metric['bound']:+.2f} of bound "
                   f"{metric['bound']:g}")
    return out


def attempted_summary(base: list[dict], change: list[dict]) -> str:
    """The base and change medians of the operations the runs attempted, and
    the shift of the medians as a share of the base median."""
    mb = statistics.median(run["attempted"] for run in base)
    mc = statistics.median(run["attempted"] for run in change)
    shift = (mc - mb) / mb if mb else 0.0
    return f"{'attempted':<14} base {mb:.6g}  change {mc:.6g}  shift {shift:+.1%}"


def memory_fit(base: list[dict], change: list[dict]) -> str:
    """The least-squares fit of `peak_rss_mb` against `attempted` with one
    slope (bytes per operation attempted) shared by both sides and an
    intercept for each, and the change's intercept shift: its RSS less the
    base's at an equal operation count, in MB and as a share of the base's
    mean RSS. No fit when each side's runs all attempted one count."""
    sides = [([run["attempted"] for run in runs],
              [run["metrics"]["peak_rss_mb"]["value"] for run in runs]) for runs in (base, change)]
    means = [(statistics.fmean(x), statistics.fmean(y)) for x, y in sides]
    sxx = sum((a - mx) ** 2 for (x, _), (mx, _) in zip(sides, means) for a in x)
    if not sxx:
        return f"{'memory fit':<14} no fit: each side attempted one count"
    slope = sum((a - mx) * (b - my) for (x, y), (mx, my) in zip(sides, means)
                for a, b in zip(x, y)) / sxx
    (bx, by), (cx, cy) = means
    shift = (cy - slope * cx) - (by - slope * bx)
    return (f"{'memory fit':<14} shared {slope * 2 ** 20:.0f} B/op  change "
            f"{shift:+.2f} MB = {shift / by:+.1%} at equal operations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="commit to compare against, exported with git archive")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        for tree in (base_tree, ROOT):
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                           cwd=tree, check=True)
        runs: dict[Path, list[dict]] = {base_tree: [], ROOT: []}
        for i in range(args.pairs):
            order = (base_tree, ROOT) if i % 2 == 0 else (ROOT, base_tree)
            for tree in order:
                runs[tree].append(run_once(tree, args.workload, FIRST_SEED + i,
                                           spec["run_seconds"]))

    base, change = runs[base_tree], runs[ROOT]
    for i, pair in enumerate(zip(base, change)):
        sides = [f"{side} {res.get('failed')} of {res.get('attempted')} failed "
                 + " ".join(f"{k} {v['value']:.4g}" for k, v in res.get("metrics", {}).items())
                 for side, res in zip(("base", "change"), pair)]
        print(f"# pair {i}, seed {FIRST_SEED + i}, {'base' if i % 2 == 0 else 'change'} "
              f"first: {sides[0]}; {sides[1]}")
    if not all(res.get("correct") for res in base + change):
        print("a run was not correct", file=sys.stderr)
        return 1
    values = [[{k: v["value"] for k, v in res["metrics"].items()} for res in side]
              for side in (base, change)]
    print(f"{args.workload}: {args.pairs} alternating pairs, base {args.base}, "
          f"{spec['run_seconds']} s each")
    for line in summarize(spec["end_to_end"], *values):
        print(line)
    print(attempted_summary(base, change))
    print(memory_fit(base, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
