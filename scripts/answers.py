#!/usr/bin/env python3
"""Same answers: one canonical JSON record per case on fixed corpora.

    python3 scripts/answers.py [--json] [--against REF]

Corpora (`CORPORA`):
- decide: the 270 `perfbench/inputs.decide_round` cases at seed 90210,
  rounds 0-9. A record holds the status, q, witness and projector of
  `decide_polarization` and the sha256 of the canonical `run_scenario`
  report of the case's scenario.
- cones: the `cones` workload's ladder at seed 90210. A record holds the
  span basis, the facet normals and masks and the extreme rays.
- psd: 100 seeded maps on psd(2) and psd(3): congruences X -> c B X B^T
  with rational B and c (B of finite order up to a scalar, or random), and
  one-entry perturbations of them. A record holds the automorphism verdict
  and, for an invertible automorphism, the decision.
- builtins: the sha256 of the canonical report of each built-in scenario.

It prints one line per corpus: its name, its case count and the sha256 of
its records; `--json` prints the records instead, as one JSON object keyed
by corpus. `--against REF` exports REF's `src` with `git archive` into a
temporary directory, as `scripts/bench_pairs.py` does, runs this script
there with `--json` too, prints every record that differs and exits 1 if
any does.
"""
import argparse
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_inputs():
    """perfbench/inputs.py, which imports nothing from the package."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()

SEED = 90210
DECIDE_ROUNDS = 10
# (dimension, generators, count) per rung, as CONE_LADDER in perfbench/workloads.py
CONE_LADDER = ((3, 8, 4), (4, 9, 8), (4, 10, 6), (5, 10, 4), (5, 11, 6), (6, 11, 1))
PSD_SEED = 31
PSD_COUNT = 100


def _text(x) -> str:
    return str(Fraction(x))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def decision_record(matrix, cone) -> dict:
    """The automorphism label and the decision of `ConeMap.create` plus
    `decide_polarization`, or the name of the error either raises."""
    from conecert.dynamics import ConeMap, decide_polarization
    from conecert.errors import ConecertError
    try:
        cm = ConeMap.create(matrix, cone)
        if not cm.invariance_checked:
            return {"invariance": None}
        result = decide_polarization(cm)
    except ConecertError as exc:
        return {"error": type(exc).__name__}
    record = {"invariance": cm.invariance, "status": result.status.value}
    cert = result.certificate
    if cert is not None:
        record.update(q=_text(cert.q), witness=[_text(x) for x in cert.witness],
                      projector=[[_text(x) for x in row] for row in cert.projector.to_rows()])
    return record


def report_sha256(doc: dict) -> str:
    from conecert.report import dumps_canonical
    from conecert.scenarios import run_scenario
    return _sha256(dumps_canonical(run_scenario(doc, seed=0)))


def decide_corpus() -> list[dict]:
    from conecert.cones import build_cone, psd_cone_oracle
    from conecert.exactalg import QMatrix
    rng, out = random.Random(f"decide-{SEED}"), []
    for k in range(DECIDE_ROUNDS):
        for i, case in enumerate(inputs.decide_round(rng, k)):
            name = f"round-{k}-{i:02d}-{case.kind}"
            cone = (psd_cone_oracle(2) if case.generators is None
                    else build_cone(case.generators))
            record = decision_record(QMatrix.from_rows(case.matrix), cone)
            record.update(case=name, report=report_sha256(inputs.scenario_document(case, name)))
            out.append(record)
    return out


def cones_corpus() -> list[dict]:
    from conecert.cones import build_cone
    rng, out = random.Random(f"cones-{SEED}"), []
    for d, n, count in CONE_LADDER:
        for i in range(count):
            cone = build_cone(inputs.pointed_cone(rng, d, n))
            out.append({"case": f"({d},{n})-{i}",
                        "span_basis": [[_text(x) for x in v] for v in cone.span_basis],
                        "facet_normals": [list(v) for v in cone.facet_normals],
                        "facet_masks": list(cone.facet_masks),
                        "extreme_rays": list(cone.extreme_ray_indices)})
    return out


def congruence(b: list[list[Fraction]], c: Fraction):
    """The matrix of X -> c B X B^T on upper triangles, row major, with
    off-diagonal coordinates against e_i e_j^T + e_j e_i^T."""
    from conecert.exactalg import QMatrix
    n = len(b)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cols = [[c * (b[a][i] * b[e][j] + (b[a][j] * b[e][i] if i != j else 0)) for a, e in pairs]
            for i, j in pairs]
    return QMatrix.from_columns(cols)


def _signed_permutation(rng: random.Random, n: int) -> list[list[int]]:
    perm = rng.sample(range(n), n)
    return [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def psd_map(rng: random.Random, n: int):
    """A seeded map on psd(n): a congruence with c and B rational, B either
    k S R S^-1 for a signed permutation R (a finite-order B up to the
    scalar k) or random, and one time in three one entry moved by a small
    rational."""
    from conecert.exactalg import QMatrix

    def rational(top: int) -> Fraction:
        return Fraction(rng.randint(-top, top), rng.randint(1, 3))

    while True:
        s = QMatrix(n, n, [rational(3) for _ in range(n * n)])
        if s.det() != 0:
            break
    if rng.random() < 0.5:
        r = QMatrix.from_rows(_signed_permutation(rng, n))
        b = (s * r * s.inverse()).scale(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    else:
        b = s
    m = congruence(b.to_rows(), Fraction(rng.randint(1, 6), rng.randint(1, 4)))
    if rng.random() < 1 / 3:
        entries = list(m.entries)
        entries[rng.randrange(len(entries))] += rational(2) or 1
        m = QMatrix(m.rows, m.cols, entries)
    return m


def psd_corpus() -> list[dict]:
    from conecert.cones import psd_cone_oracle
    rng, out = random.Random(PSD_SEED), []
    for i in range(PSD_COUNT):
        n = 2 + i % 2
        record = decision_record(psd_map(rng, n), psd_cone_oracle(n))
        record.update(case=f"psd{n}-{i:03d}")
        out.append(record)
    return out


def builtins_corpus() -> list[dict]:
    from conecert.scenarios import BUILTIN_SCENARIOS
    return [{"case": name, "report": report_sha256(doc)}
            for name, doc in sorted(BUILTIN_SCENARIOS.items())]


CORPORA = {"decide": decide_corpus, "cones": cones_corpus, "psd": psd_corpus,
           "builtins": builtins_corpus}


def corpus_sha256(records: list[dict]) -> str:
    return _sha256(_canonical(records))


def records_of(tree: Path) -> dict[str, list[dict]]:
    """The records of every corpus computed on `tree`'s `src`, by this
    script in a child process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, __file__, "--json"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def diff(base: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[str]:
    """One line per record that differs, by corpus and position."""
    out = []
    for name, records in change.items():
        theirs = base[name]
        if len(theirs) != len(records):
            out.append(f"{name}: {len(theirs)} records at the base, {len(records)} here")
        for a, b in zip(theirs, records):
            if a != b:
                out.append(f"{name} {b.get('case')}: base {_canonical(a)} here {_canonical(b)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print the records as JSON")
    parser.add_argument("--against", metavar="REF", help="git ref to compare with")
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps({name: corpus() for name, corpus in CORPORA.items()}))
        return 0

    here = records_of(ROOT)
    for name, records in here.items():
        print(f"{name:<9} {len(records):>4} records  sha256 {corpus_sha256(records)}")
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory(prefix="answers_") as tmp:
        archive = subprocess.run(["git", "archive", args.against, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        base = records_of(Path(tmp))
    lines = diff(base, here)
    for line in lines:
        print(line)
    print(f"against {args.against}: {len(lines) or 'no'} difference{'s' * (len(lines) != 1)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.append(str(ROOT / "src"))   # after PYTHONPATH, which --against sets
    sys.exit(main())
