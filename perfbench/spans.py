"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each traced conecert function with a wrapper, in
its defining module and in every conecert module namespace that re-imports
it (methods are replaced on their class). A wrapper records one span per
call while the tracer is active: name, start, end and the span that called
it. Spans stay in memory until `write_spans`. A layer's self time is its
spans' durations minus the time covered by their direct child spans.
"""
from __future__ import annotations

import functools
import json
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


def _count_hits(counts, result, exc) -> None:
    if exc is None and result is True:
        counts["dynamics.power_bounded_hits"] += 1


def _count_facets(counts, result, exc) -> None:
    if exc is None:
        counts["cones.facets_total"] += len(result.facet_normals)


def _count_verdict(counts, result, exc) -> None:
    if exc is None:
        counts[f"dynamics.verdict.{result.status.value}"] += 1
    elif type(exc).__name__ == "IrrationalCandidateOnlyError":
        counts["dynamics.verdict.irrational_only"] += 1


# (layer name, module, attribute, result hook); one layer may wrap several
# functions. "Class.method" replaces the method on its class.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.main", "conecert.cli", "main", None),
    ("scenarios.validate", "conecert.scenarios", "validate_scenario", None),
    ("scenarios.run", "conecert.scenarios", "run_scenario", None),
    ("report.eigen_docs", "conecert.report", "algebraic_number_doc", None),
    ("report.dumps", "conecert.report", "dumps_canonical", None),
    ("nslattice.product_report", "conecert.nslattice", "elliptic_product_report", None),
    ("singularities.product_quotient", "conecert.singularities",
     "product_quotient_report", None),
    ("dynamics.cone_map_create", "conecert.dynamics", "ConeMap.create", None),
    ("dynamics.decide", "conecert.dynamics", "decide_polarization", _count_verdict),
    ("dynamics.interior_eigenvector", "conecert.dynamics", "interior_eigenvector", None),
    ("dynamics.power_bounded", "conecert.dynamics", "is_power_bounded", _count_hits),
    ("algnum.roots", "conecert.exactalg.algnum", "roots_with_multiplicity", None),
    ("algnum.factor", "conecert.exactalg.algnum", "factor_rational", None),
    ("algnum.modulus_equals", "conecert.exactalg.algnum", "modulus_equals", None),
    ("algnum.refine", "conecert.exactalg.algnum", "AlgebraicNumber.refine", None),
    ("qmatrix.char_poly", "conecert.exactalg.qmatrix", "char_poly", None),
    ("qmatrix.min_poly", "conecert.exactalg.qmatrix", "min_poly", None),
    ("qmatrix.spectral_projector", "conecert.exactalg.qmatrix", "spectral_projector", None),
    ("qmatrix.solve", "conecert.exactalg.qmatrix", "QMatrix.solve", None),
    ("qpoly.resultant", "conecert.exactalg.qpoly", "QPoly.resultant", None),
    ("qpoly.count_real_roots", "conecert.exactalg.qpoly", "QPoly.count_real_roots", None),
    ("cones.build", "conecert.cones", "build_cone", _count_facets),
    ("cones.membership", "conecert.cones", "membership", None),
    ("cones.minimal_face", "conecert.cones", "minimal_extremal_face", None),
    # the psd(2) oracle's contains / strictly_contains close over these
    ("cones.psd_contains", "conecert.cones", "_is_psd", None),
    ("cones.psd_contains", "conecert.cones", "_is_pd", None),
)

VERDICTS = ("polarized", "not_polarized", "inconclusive", "irrational_only")

# per-layer metrics of the traced run: (name, unit)
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("import.sympy_s", "s"), ("import.jsonschema_s", "s"), ("import.conecert_s", "s"),
    ("cli.main_s", "s"), ("scenarios.validate_s", "s"), ("scenarios.run_s", "s"),
    ("report.eigen_docs_s", "s"), ("report.eigen_docs_calls", "count"),
    ("report.dumps_s", "s"), ("nslattice.product_report_s", "s"),
    ("singularities.product_quotient_s", "s"), ("algnum.refine_s", "s"),
    ("algnum.refine_calls", "count"),
    ("dynamics.cone_map_create_s", "s"), ("dynamics.decide_s", "s"),
    ("dynamics.interior_eigenvector_s", "s"), ("dynamics.power_bounded_s", "s"),
    ("dynamics.power_bounded_calls", "count"), ("dynamics.power_bounded_hit_ratio", "ratio"),
    ("algnum.roots_s", "s"), ("algnum.roots_calls", "count"),
    ("algnum.factor_s", "s"), ("algnum.factor_calls", "count"),
    ("algnum.modulus_equals_s", "s"), ("algnum.modulus_equals_calls", "count"),
    ("qmatrix.char_poly_calls", "count"), ("qmatrix.min_poly_s", "s"),
    ("qmatrix.min_poly_calls", "count"), ("qmatrix.spectral_projector_calls", "count"),
    ("qmatrix.solve_calls", "count"), ("qpoly.resultant_calls", "count"),
    ("qpoly.count_real_roots_calls", "count"),
    ("cones.build_s", "s"), ("cones.build_calls", "count"), ("cones.facets_total", "count"),
    ("cones.membership_s", "s"), ("cones.membership_calls", "count"),
    ("cones.minimal_face_s", "s"), ("cones.psd_contains_calls", "count"),
) + tuple((f"dynamics.verdict.{v}", "count") for v in VERDICTS) + (
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Wraps conecert functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.active = False
        self.op = 0                         # identifier shared by one operation's spans
        self.spans: list[tuple] = []        # (op, span id, parent id, name, start, end)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []        # [span id, child time] per open span
        self._next_id = 0
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.spans.append((tracer.op, span_id, parent, name, start, end))
                if hook is not None:
                    hook(tracer.counts, result, exc)

        return wrapper

    def install(self) -> None:
        """Wrap every loaded target; re-imports in other conecert modules are replaced too."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "conecert" or n.startswith("conecert."))]
        for name, module_name, attr, hook in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:      # not loaded by this workload, so never called
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Self times, call counts and hook counts, for merging and comparing."""
        return {"self_time": dict(self.self_time), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def merge(snapshots) -> dict:
    out = {"self_time": defaultdict(float), "calls": defaultdict(int),
           "counts": defaultdict(int)}
    for snap in snapshots:
        for part in out:
            for key, value in snap[part].items():
                out[part][key] += value
    return out


def exact_counts(snap: dict) -> dict:
    """The parts of a snapshot that must repeat exactly for one seed."""
    return {"calls": dict(snap["calls"]), "counts": dict(snap["counts"])}


def layer_metrics(snap: dict, imports: dict, overhead_pct: float) -> dict:
    """The per-layer metric values from a merged snapshot."""
    values = dict(imports)
    values["trace.overhead_pct"] = overhead_pct
    for metric, _ in LAYER_METRICS:
        if metric in values:
            continue
        if metric.endswith("_s"):
            values[metric] = snap["self_time"].get(metric[:-2], 0.0)
        elif metric.endswith("_calls"):
            values[metric] = snap["calls"].get(metric[:-6], 0)
        elif metric == "dynamics.power_bounded_hit_ratio":
            calls = snap["calls"].get("dynamics.power_bounded", 0)
            hits = snap["counts"].get("dynamics.power_bounded_hits", 0)
            values[metric] = hits / calls if calls else 0.0
        else:
            values[metric] = snap["counts"].get(metric, 0)
    return values


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
IMPORT_REPEATS = 3


def import_times(python: str, modules: str, env: dict, cwd: Path) -> dict:
    """Import cost by library from `python -X importtime`, median of IMPORT_REPEATS runs.

    sympy and jsonschema are the cumulative time of their top-level package;
    conecert is the summed self time of its own modules.
    """
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([python, "-X", "importtime", "-c", f"import {modules}"],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        found = {"import.sympy_s": 0.0, "import.jsonschema_s": 0.0, "import.conecert_s": 0.0}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if not m:
                continue
            self_us, cumulative_us, module = int(m.group(1)), int(m.group(2)), m.group(3)
            if module in ("sympy", "jsonschema"):
                found[f"import.{module}_s"] = cumulative_us / 1e6
            elif module == "conecert" or module.startswith("conecert."):
                found["import.conecert_s"] += self_us / 1e6
        for key, value in found.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}
