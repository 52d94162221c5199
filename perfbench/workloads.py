"""The three workloads: `cli`, `decide` and `cones`.

Each runs as a closed loop with one caller: an operation starts when the
previous one returns. Inputs come from `inputs` and the seed; every answer
is checked against its plan after the timed loop, and a wrong answer counts
as a failed operation. `run` measures the untraced end-to-end metrics, with
times rescaled to nominal machine speed (see `speed`). `run_traced` runs a
fixed, seed-determined list of operations untraced and traced, twice over,
and returns the per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import inputs
import spans
from speed import Probe


@dataclass
class Context:
    root: Path          # checkout root
    python: str         # interpreter for child processes
    env: dict           # environment for child processes (PYTHONPATH=src)
    out: Path           # scratch output directory inside the checkout
    seed: int
    seconds: float


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    # workload-specific end-to-end figures, printed but not in the JSON result
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def latency_metrics(out: Outcome, probe: Probe, ops: list[tuple[float, float]]) -> None:
    """ops_per_s and latency percentiles from (start, wall time) per operation."""
    latencies = [probe.nominal(*op) for op in ops]
    n = len(latencies)
    out.metrics["ops_per_s"] = (n / sum(latencies), "1/s")
    out.metrics["latency_p50_s"] = (statistics.median(latencies), "s")
    out.metrics["latency_p90_s"] = (percentile(latencies, 90), "s")
    for name in ("ops_per_s", "latency_p50_s", "latency_p90_s"):
        out.samples[name] = n
    wall = [elapsed for _, elapsed in ops]
    out.notes.append(probe.note())
    out.notes.append(f"wall clock: ops_per_s {n / sum(wall):.6g} 1/s, latency_p50_s "
                     f"{statistics.median(wall):.6g} s, timed {sum(wall):.2f} s; "
                     f"{n - math.ceil(0.9 * n)} samples beyond p90")


def traced_outcome(out: Outcome, snaps: list[dict], untraced: float,
                   traced: float, imports: dict) -> Outcome:
    """Per-layer metrics from the first traced pass; the second must repeat its counts."""
    first, second = (spans.exact_counts(s) for s in snaps)
    if first != second:
        out.fail("exact counts differ between two traced passes of one seed")
    overhead = 100.0 * (traced / untraced - 1.0)
    values = spans.layer_metrics(snaps[0], imports, overhead)
    units = dict(spans.LAYER_METRICS)
    out.metrics = {name: (values[name], units[name]) for name, _ in spans.LAYER_METRICS}
    out.notes.append(f"tracing overhead: traced {traced:.3f} s vs untraced {untraced:.3f} s "
                     f"on the same operations, at nominal speed ({overhead:+.1f} %)")
    out.notes.append("counts repeat across two traced passes: "
                     f"{'yes' if first == second else 'NO'}")
    return out


def traced_passes(op_list: list, run_op: Callable, check: Callable, out: Outcome,
                  spans_path: Path) -> tuple[list[dict], float, float]:
    """Run op_list untraced then traced, twice over; check every answer.

    Returns the two traced snapshots and the summed untraced and traced
    times at nominal machine speed; alternating the passes spreads warm-up
    and machine drift evenly.
    """
    probe = Probe()
    snaps, times = [], {False: [], True: []}

    def run_pass(tracer: Optional[spans.Tracer]) -> None:
        results = []
        for i, item in enumerate(op_list):
            if tracer:
                tracer.op, tracer.active = i, True
            result, op = probe.timed(run_op, item)
            results.append(result)
            times[tracer is not None].append(op)
            if tracer:
                tracer.active = False
        for item, result in zip(op_list, results):
            check(item, result, out)

    for k in range(2):
        run_pass(None)
        tracer = spans.Tracer()
        tracer.install()
        try:
            run_pass(tracer)
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
        if k == 0:
            tracer.write_spans(spans_path)
    probe.take()
    return snaps, probe.total(times[False]), probe.total(times[True])


def _guarded(fn: Callable) -> Callable:
    """Run fn; an exception becomes the operation's result."""
    def run(item):
        try:
            return fn(item)
        except Exception as exc:  # a failing operation is counted, not fatal
            return exc
    return run


# -- decide -----------------------------------------------------------------------

DECIDE_MAX_ROUNDS = 100         # beyond this the loop cycles through the pool
DECIDE_TRACED_PER_SECOND = 2.7  # traced decisions per --seconds: a round per 10 s


class Decide:
    """ConeMap.create + decide_polarization on the seeded simplicial/psd(2) mix."""

    modules = "conecert.dynamics, conecert.nslattice"
    rss_of_children = False

    def __init__(self) -> None:
        import conecert.cones as cones
        import conecert.dynamics as dynamics
        from conecert.errors import IrrationalCandidateOnlyError
        from conecert.exactalg import QMatrix
        self.cones, self.dynamics = cones, dynamics
        self.irrational_error, self.qmatrix = IrrationalCandidateOnlyError, QMatrix

    def prepare(self, cases: list) -> list:
        """Cases with their matrix and cone built; outside any timed region."""
        out = []
        for case in cases:
            cone = (self.cones.psd_cone_oracle(2) if case.generators is None
                    else self.cones.build_cone(case.generators))
            out.append((case, self.qmatrix.from_rows(case.matrix), cone))
        return out

    def op(self, item):
        _, m, cone = item
        cm = self.dynamics.ConeMap.create(m, cone)
        try:
            result = self.dynamics.decide_polarization(cm)
        except self.irrational_error:
            return inputs.IRRATIONAL_ONLY, None, None
        cert = result.certificate
        if cert is None:
            return result.status.value, None, None
        return result.status.value, cert.q, cert.witness

    @staticmethod
    def check(item, result, out: Outcome) -> None:
        case = item[0]
        out.attempted += 1
        if isinstance(result, Exception):
            out.fail(f"{case.kind} plan {case.plan}: {type(result).__name__}: {result}")
            return
        status, q, witness = result
        if status != case.plan:
            out.fail(f"{case.kind} plan {case.plan} q={case.q}: got {status}")
        elif status == inputs.POLARIZED and (q != case.q or not case.witness_ok(q, witness)):
            out.fail(f"{case.kind} polarized: q={q} (planned {case.q}) or bad witness")

    def run(self, ctx: Context) -> Outcome:
        out = Outcome()
        op = _guarded(self.op)
        warmup = random.Random(f"decide-warmup-{ctx.seed}")
        for item in self.prepare(inputs.decide_round(warmup, 0)[:3]):
            op(item)
        rng = random.Random(f"decide-{ctx.seed}")
        rounds: list = []
        results, ops, timed = [], [], 0.0
        probe = Probe()
        # whole rounds only, so every run has the same case mix
        k = 0
        while timed < ctx.seconds:
            if k < DECIDE_MAX_ROUNDS:
                rounds.append(self.prepare(inputs.decide_round(rng, k)))
            for item in rounds[k % len(rounds)]:
                result, t = probe.timed(op, item)
                timed += t[1]
                ops.append(t)
                results.append((item, result))
            k += 1
        probe.take()
        for item, result in results:
            self.check(item, result, out)
        latency_metrics(out, probe, ops)
        return out

    def run_traced(self, ctx: Context, imports: dict) -> Outcome:
        out = Outcome()
        rng = random.Random(f"decide-{ctx.seed}")
        count = max(2, round(DECIDE_TRACED_PER_SECOND * ctx.seconds))
        cases, k = [], 0
        while len(cases) < count:
            cases += inputs.decide_round(rng, k)
            k += 1
        op_list = self.prepare(cases[:count])
        snaps, untraced, traced = traced_passes(
            op_list, _guarded(self.op), self.check, out,
            ctx.out / f"spans-decide-{ctx.seed}.jsonl")
        return traced_outcome(out, snaps, untraced, traced, imports)


# -- cones ------------------------------------------------------------------------

# (ambient dimension, generators, cones per pass). The counts keep each
# run's figures steady from seed to seed: build times of random (6, 10)
# cones spread fourfold, so that rung is left out, and (6, 12) cones take
# 2.5-4.5 s each, so the ladder stops at (6, 11); probe.py times larger sizes.
CONE_LADDER = ((3, 8, 4), (4, 9, 8), (4, 10, 6), (5, 10, 4), (5, 11, 6), (6, 11, 1))
QUERIES_PER_KIND = 8            # interior, boundary and outside points per cone
FACE_QUERIES = 4                # minimal-face queries per cone
CONES_TRACED_PER_SECOND = 2     # traced builds per --seconds, smallest rungs first


class Cones:
    """Double-description builds on a dimension x generator ladder, then queries."""

    modules = "conecert.cones"
    rss_of_children = False

    def __init__(self) -> None:
        import conecert.cones as cones
        self.cones = cones

    @staticmethod
    def ladder(rng: random.Random) -> list[tuple[int, ...]]:
        return [inputs.pointed_cone(rng, d, n)
                for d, n, count in CONE_LADDER for _ in range(count)]

    def build(self, gens):
        return self.cones.build_cone(gens)

    def check_build(self, gens, cone, out: Outcome) -> Optional[list]:
        """The built facets against brute force; returns them as integer tuples."""
        out.attempted += 1
        if isinstance(cone, Exception):
            out.fail(f"build of {len(gens)} generators in dim {len(gens[0])}: "
                     f"{type(cone).__name__}: {cone}")
            return None
        normals = [tuple(int(x) for x in n) for n in cone.facet_normals]
        if set(normals) != inputs.brute_force_facets(gens) or len(set(normals)) != len(normals):
            out.fail(f"facets of a ({len(gens[0])}, {len(gens)}) cone differ from brute force")
            return None
        return normals

    def query(self, item):
        cone, q = item
        if q.face is None:
            return self.cones.membership(cone, q.point).value
        face = self.cones.minimal_extremal_face(cone, [q.point])
        return (tuple(face.generator_indices),
                [tuple(int(x) for x in cone.facet_normals[j]) for j in face.active_facets])

    @staticmethod
    def check_query(item, result, out: Outcome) -> None:
        _, q = item
        out.attempted += 1
        expect = q.expect if q.face is None else (q.expect_generators, [q.face])
        if result != expect:
            out.fail(f"query {q.point}: expected {expect}, got {result}")

    def queries_for(self, rng, gens, cone, normals) -> list:
        return [(cone, q) for q in inputs.cone_queries(rng, gens, normals,
                                                       QUERIES_PER_KIND, FACE_QUERIES)]

    def run(self, ctx: Context) -> Outcome:
        out = Outcome()
        build, query = _guarded(self.build), _guarded(self.query)
        rng = random.Random(f"cones-{ctx.seed}")
        build(inputs.pointed_cone(random.Random(f"cones-warmup-{ctx.seed}"), 4, 8))
        builds, queries, timed, passes = [], [], 0.0, 0
        probe = Probe()
        while timed < ctx.seconds:
            built = []
            passes += 1
            for gens in self.ladder(rng):
                cone, t = probe.timed(build, gens)
                timed += t[1]
                builds.append(t)
                built.append((gens, cone))
            batch = []
            for gens, cone in built:
                normals = self.check_build(gens, cone, out)
                if normals:
                    batch += self.queries_for(rng, gens, cone, normals)
            answers = []
            for item in batch:
                answer, t = probe.timed(query, item)
                timed += t[1]
                queries.append(t)
                answers.append(answer)
            for item, answer in zip(batch, answers):
                self.check_query(item, answer, out)
        probe.take()
        latency_metrics(out, probe, builds)
        out.extra["query_ops_per_s"] = (len(queries) / probe.total(queries), "1/s")
        out.samples["query_ops_per_s"] = len(queries)
        out.notes.append(f"{passes} passes over the ladder")
        return out

    def run_traced(self, ctx: Context, imports: dict) -> Outcome:
        out = Outcome()
        rng = random.Random(f"cones-{ctx.seed}")
        ladder = self.ladder(rng)[:max(2, int(CONES_TRACED_PER_SECOND * ctx.seconds))]
        # build once untraced to make the query lists; the traced passes
        # rebuild every cone and re-ask its queries
        ops = []
        for gens in ladder:
            cone = _guarded(self.build)(gens)
            normals = self.check_build(gens, cone, out)
            queries = self.queries_for(rng, gens, cone, normals) if normals else []
            ops.append((gens, [q for _, q in queries]))

        def run_op(item):
            gens, queries = item
            cone = _guarded(self.build)(gens)
            if isinstance(cone, Exception):
                return cone, []
            return cone, [_guarded(self.query)((cone, q)) for q in queries]

        def check(item, result, sink: Outcome) -> None:
            gens, queries = item
            cone, answers = result
            if isinstance(cone, Exception):
                sink.fail(f"traced build: {cone}")
                return
            for q, answer in zip(queries, answers):
                self.check_query((cone, q), answer, sink)

        snaps, untraced, traced = traced_passes(
            ops, run_op, check, out, ctx.out / f"spans-cones-{ctx.seed}.jsonl")
        return traced_outcome(out, snaps, untraced, traced, imports)


# -- cli --------------------------------------------------------------------------

GOLDEN = {
    "ex1": lambda r: (r["verdicts"]["verdict"] == "polarized"
                      and r["data"]["q"]["value"] == "6"
                      and r["data"]["witness_class"]["value"] == [["1", "0"], ["0", "5"]]),
    "ex2": lambda r: r["verdicts"]["quotient_verdict"] == "contradicts_ampleness",
    "ex-xu": lambda r: (r["verdicts"]["verdict"] == "terminal"
                        and r["data"]["min_age_nontrivial"]["value"] == "9/4"),
}
CLI_TIMEOUT_S = 150            # a call still running then counts as failed
CLI_STATUS = {inputs.POLARIZED: "polarized", inputs.NOT_POLARIZED: "not_polarized",
              inputs.IRRATIONAL_ONLY: "irrational_candidate_only"}


class Cli:
    """The shipped command line, one fresh process per call, all with --json."""

    modules = "conecert.cli"
    rss_of_children = True

    def __init__(self) -> None:
        self.schema: Optional[dict] = None

    def calls(self, ctx: Context) -> list[tuple[str, list[str], Optional[inputs.DecideCase]]]:
        """(label, argv, plan) per call, cheapest first.

        The analyze files are seeded, but their shape is fixed: the report
        lists every eigenvalue, and one complex eigenvalue doubles a call's
        time, so a random shape would move the run's median from seed to
        seed. ex1 and ex2 carry that cost; the files take a trace-0 psd(2)
        map (polarized, rational eigenvalues) and a 3-dimensional simplicial
        map with real irrational eigenvalues (irrational candidate only).
        """
        rng = random.Random(f"cli-{ctx.seed}")
        poly = inputs.simplicial_case(rng, 3, inputs.IRRATIONAL_ONLY, (2, 1))
        psd = inputs.psd2_case(rng, "trace0")
        folder = ctx.out / f"cli-{ctx.seed}"
        folder.mkdir(parents=True, exist_ok=True)
        out = [("ex-xu", ["examples", "ex-xu"], None)]
        for label, case in (("analyze-psd", psd), ("analyze-poly", poly)):
            path = folder / f"{label}.json"
            path.write_text(json.dumps(inputs.scenario_document(case, label)), encoding="utf-8")
            out.append((label, ["analyze", str(path)], case))
        out += [("ex1", ["examples", "ex1"], None), ("ex2", ["examples", "ex2"], None)]
        return out

    def invoke(self, ctx: Context, argv: list[str], json_path: Path,
               traced: Optional[Path] = None) -> tuple[Optional[int], str]:
        """Exit code (None after CLI_TIMEOUT_S) and standard error of one call."""
        if traced is None:
            cmd = [ctx.python, "-m", "conecert"]
        else:
            cmd = [ctx.python, str(Path(__file__).with_name("cli_child.py")), str(traced), "--"]
        json_path.unlink(missing_ok=True)
        try:
            proc = subprocess.run(cmd + argv + ["--json", str(json_path)], cwd=ctx.root,
                                  env=ctx.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"no exit within {CLI_TIMEOUT_S} s"
        return proc.returncode, proc.stderr

    def check(self, ctx: Context, label: str, plan, rc: Optional[int], stderr: str,
              path: Path, first: dict, out: Outcome) -> None:
        """Exit code, schema, golden or planned verdict, byte-identical repeats."""
        import jsonschema
        out.attempted += 1
        if rc != 0:
            out.fail(f"{label}: exit {rc}: {stderr.strip()[-200:]}")
            return
        if self.schema is None:
            self.schema = json.loads((ctx.root / "docs" / "report.schema.json")
                                     .read_text(encoding="utf-8"))
        try:
            raw = path.read_bytes()
            report = json.loads(raw)
            jsonschema.validate(report, self.schema)
        except (OSError, ValueError) as exc:
            out.fail(f"{label}: no readable JSON report: {exc}")
            return
        except jsonschema.ValidationError as exc:
            out.fail(f"{label}: report fails the schema: {exc.message}")
            return
        try:
            if plan is None:
                ok = GOLDEN[label](report)
            else:
                ok = report["verdicts"]["status"] == CLI_STATUS[plan.plan]
                if ok and plan.plan == inputs.POLARIZED:
                    ok = Fraction(report["data"]["q"]["value"]) == plan.q
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            out.fail(f"{label}: report lacks a checked field: {type(exc).__name__}: {exc}")
            return
        if not ok:
            out.fail(f"{label}: verdict differs from its golden or planned answer")
        if first.setdefault(label, raw) != raw:
            out.fail(f"{label}: repeated --json output is not byte-identical")

    def run(self, ctx: Context) -> Outcome:
        out = Outcome()
        calls = self.calls(ctx)
        done, ops, timed, cycles = [], [], 0.0, 0
        probe = Probe()
        # whole cycles only, so every run has the same call mix
        while timed < ctx.seconds:
            cycles += 1
            for label, argv, plan in calls:
                path = ctx.out / f"cli-{ctx.seed}" / f"{label}-{cycles}.report.json"
                (rc, err), t = probe.timed(self.invoke, ctx, argv, path)
                timed += t[1]
                ops.append(t)
                done.append((label, plan, rc, err, path, t))
        probe.take()
        first: dict = {}
        for label, plan, rc, err, path, _ in done:
            self.check(ctx, label, plan, rc, err, path, first, out)
        latency_metrics(out, probe, ops)
        per_call = {label: statistics.median(probe.nominal(*t) for lab, *_, t in done
                                             if lab == label) for label, _, _ in calls}
        out.extra["ex1_s"] = (per_call["ex1"], "s")
        out.samples["ex1_s"] = cycles
        out.notes.append("median per call: " + ", ".join(
            f"{label} {t:.3f} s" for label, t in per_call.items()))
        return out

    def run_traced(self, ctx: Context, imports: dict) -> Outcome:
        out = Outcome()
        calls = self.calls(ctx)[:max(2, min(5, int(ctx.seconds)))]
        folder = ctx.out / f"cli-{ctx.seed}"
        first: dict = {}
        probe = Probe()
        snaps, untraced, traced = [], [], []
        for k in range(2):
            parts = []
            for label, argv, plan in calls:
                path = folder / f"{label}-untraced{k}.report.json"
                (rc, err), t = probe.timed(self.invoke, ctx, argv, path)
                untraced.append(t)
                self.check(ctx, label, plan, rc, err, path, first, out)
                path = folder / f"{label}-traced{k}.report.json"
                snap_path = folder / f"{label}-traced{k}.spans.json"
                (rc, err), t = probe.timed(self.invoke, ctx, argv, path, traced=snap_path)
                traced.append(t)
                self.check(ctx, label, plan, rc, err, path, first, out)
                if rc == 0:
                    parts.append(json.loads(snap_path.read_text(encoding="utf-8")))
            snaps.append(spans.merge(parts))
        probe.take()
        return traced_outcome(out, snaps, probe.total(untraced), probe.total(traced), imports)


WORKLOADS = {"cli": Cli, "decide": Decide, "cones": Cones}
