"""Smoke test of the benchmark at a tiny size.

Run from the checkout root: `python3 -m pytest -q perfbench/test_smoke.py`.
It checks the output contract of both modes against BENCHMARK.json, that
two traced runs of one seed repeat every exact count and the verdict mix,
that the benchmark refuses to run without the package, that a command-line
call that hangs or leaves a bad report is counted as failed, and that the
benchmark's own generators agree with the package where they mirror it.
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_SUFFIXES = ("_calls", "_total", "_ratio")


def bench(workload: str, trace: int, seed: int = 1, seconds: str = "1",
          cwd: Path = ROOT) -> tuple[int, str]:
    script = cwd / "perfbench" / "run.py"
    proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds,
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_contract(workload):
    code, stdout = bench(workload, 0)
    assert code == 0
    res = result(stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = []
    for _ in range(2):
        code, stdout = bench(workload, 1, seed=3)
        assert code == 0
        assert "counts repeat across two traced passes: yes" in stdout
        runs.append(result(stdout))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    exact = [{k: v["value"] for k, v in res["metrics"].items()
              if k.endswith(EXACT_SUFFIXES) or k.startswith("dynamics.verdict.")}
             for res in runs]
    assert exact[0] == exact[1]


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("decide", 0, cwd=tmp_path)
    assert code != 0
    assert stdout.strip() == ""


def test_cli_failures_are_counted(tmp_path, monkeypatch):
    import os
    import workloads
    ctx = workloads.Context(root=ROOT, python=sys.executable,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            out=tmp_path, seed=1, seconds=1)
    cli = workloads.Cli()
    good = tmp_path / "good.json"
    assert cli.invoke(ctx, ["examples", "ex-xu"], good)[0] == 0
    report = json.loads(good.read_text(encoding="utf-8"))
    del report["data"]["min_age_nontrivial"]
    no_key = tmp_path / "no_key.json"
    no_key.write_text(json.dumps(report), encoding="utf-8")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    monkeypatch.setattr(workloads, "CLI_TIMEOUT_S", 0.01)
    rc, err = cli.invoke(ctx, ["examples", "ex-xu"], tmp_path / "late.json")
    assert rc is None
    out = workloads.Outcome()
    for rc_, path in ((rc, tmp_path / "late.json"), (0, garbled),
                      (0, tmp_path / "missing.json"), (0, no_key), (0, good)):
        cli.check(ctx, "ex-xu", None, rc_, err, path, {}, out)
    assert (out.attempted, out.failed) == (5, 4)


def test_congruence_matrix_matches_the_package():
    from conecert.nslattice import pullback_action
    rng = random.Random(5)
    for _ in range(20):
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if a[0][0] * a[1][1] - a[0][1] * a[1][0] == 0:
            continue
        assert inputs.congruence_matrix(a) == tuple(
            tuple(row) for row in pullback_action(a).ns_matrix.to_rows())


def test_brute_force_facets_match_double_description():
    from conecert.cones import build_cone
    rng = random.Random(9)
    for d, n in ((3, 6), (4, 7), (5, 8)):
        gens = inputs.pointed_cone(rng, d, n)
        normals = {tuple(int(x) for x in f) for f in build_cone(gens).facet_normals}
        assert normals == inputs.brute_force_facets(gens)
