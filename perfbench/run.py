"""conecert benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Runs from the root of a checkout and uses the package in its `src`.
Workloads (see BENCHMARK.json for why each exists):

  cli     `conecert examples ex1|ex2|ex-xu` and `conecert analyze` on two
          seeded scenario files, each call a fresh process, all with --json
  decide  ConeMap.create + decide_polarization in process on a seeded mix
  cones   double-description builds on a size ladder, then membership and
          minimal-face queries on every built cone

`--workload all` runs the three one after another, each in its own process.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics, the same five on every workload: setup_s (a fresh
interpreter importing what the workload loads), ops_per_s (CLI calls,
decisions or cone builds per timed second), latency_p50_s, latency_p90_s
and peak_rss_mb. Times are rescaled to nominal machine speed (see speed.py).
Lines before it, starting with '#', give each figure's sample count, the
environment, the raw wall-clock figures, the workload-specific figures
(ex1_s on cli, query_ops_per_s on cones), error_rate and any wrong answer.

With --trace 1 the JSON object holds the per-layer metrics of a traced run
(spans.py) and its tracing overhead; the spans are written under
`.perfbench_out/`.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import spans
from speed import Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("cli", "decide", "cones")
SETUP_REPEATS = 5
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_p90_s", "s"), ("peak_rss_mb", "MB"))


def setup_seconds(python: str, modules: str, env: dict) -> tuple[list[float], list[float]]:
    """Time of a fresh interpreter importing `modules`, at nominal machine
    speed and on the wall clock; one unmeasured import first, so byte-code
    compilation is not counted."""
    cmd = [python, "-c", f"import {modules}"]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120)
    probe, runs = Probe(), []
    for _ in range(SETUP_REPEATS):
        _, run = probe.timed(subprocess.run, cmd, cwd=ROOT, env=env, check=True, timeout=120)
        runs.append(run)
    probe.take()
    return [probe.nominal(*run) for run in runs], [elapsed for _, elapsed in runs]


def environment() -> dict:
    import sympy.external.gmpy as gmpy
    commit = "unknown (checkout is not a git repository)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "sympy": importlib.metadata.version("sympy"),
        "sympy_ground_types": gmpy.GROUND_TYPES,
        "commit": commit,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    if not (SRC / "conecert" / "__init__.py").is_file():
        print(f"no conecert package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "docs" / "report.schema.json").is_file():
        print("docs/report.schema.json is missing", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    origin = importlib.util.find_spec("conecert").origin
    if not Path(origin).is_relative_to(SRC):
        print(f"conecert resolves to {origin}, not under {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    ctx = workloads.Context(root=ROOT, python=sys.executable, env=env, out=out_dir,
                            seed=args.seed, seconds=args.seconds)
    workload = workloads.WORKLOADS[args.workload]()

    if args.trace:
        imports = spans.import_times(sys.executable, workload.modules, env, ROOT)
        outcome = workload.run_traced(ctx, imports)
    else:
        setup, setup_wall = setup_seconds(sys.executable, workload.modules, env)
        outcome = workload.run(ctx)
        outcome.metrics["setup_s"] = (statistics.median(setup), "s")
        outcome.samples["setup_s"] = len(setup)
        outcome.notes.append(f"wall clock: setup_s {statistics.median(setup_wall):.6g} s")
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(workload.rss_of_children), "MB")
        outcome.samples["peak_rss_mb"] = 1
        outcome.metrics = {name: outcome.metrics[name] for name, _ in END_TO_END}

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    outcome.extra["error_rate"] = (error_rate, "ratio")
    outcome.samples["error_rate"] = outcome.attempted
    for name, (value, unit) in {**outcome.metrics, **outcome.extra}.items():
        n = outcome.samples.get(name)
        print(f"# {name} = {value:.6g} {unit}" + ("" if n is None else f"  (n={n})"))
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# {outcome.failed} of {outcome.attempted} operations failed, exited "
          f"non-zero or answered wrongly")
    for problem in outcome.problems:
        print(f"# WRONG: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
