"""The benchmark's workloads must still drive the package.

`perfbench/workloads.py` builds cones and cone maps through the package's
names and checks every answer against its plan; a change to those names or
types would otherwise only surface when the benchmark runs. Here one seeded
`decide` round (simplicial and psd(2) maps) and the first `cones` ladder
rung with its queries go through the workloads' own operations and checks.
"""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 90210


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling modules (inputs, spans, speed) by name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_a_decide_round_passes_its_checks(workloads):
    decide = workloads.Decide()
    cases = workloads.inputs.decide_round(random.Random(f"decide-{SEED}"), 0)
    assert {case.kind for case in cases} == {"simplicial", "psd2"}
    out = workloads.Outcome()
    for item in decide.prepare(cases):
        decide.check(item, decide.op(item), out)
    assert (out.attempted, out.failed) == (len(cases), 0), out.problems


def test_the_first_cones_rung_passes_its_checks(workloads):
    cones = workloads.Cones()
    rng = random.Random(f"cones-{SEED}")
    count = workloads.CONE_LADDER[0][2]
    out = workloads.Outcome()
    queries = 0
    for gens in cones.ladder(rng)[:count]:
        cone = cones.build(gens)
        normals = cones.check_build(gens, cone, out)
        assert normals is not None, out.problems
        for item in cones.queries_for(rng, gens, cone, normals):
            cones.check_query(item, cones.query(item), out)
            queries += 1
    assert queries > 0
    assert (out.attempted, out.failed) == (count + queries, 0), out.problems
