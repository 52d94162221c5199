"""Command-line front end.

Subcommands:
  analyze <file>    run a scenario JSON document
  examples <name>   run a built-in scenario (ex1, ex2, ex-xu, ex-xu-4-3)
  selftest          run the seeded property suites

Flags: --json PATH writes the canonical machine-readable report, --seed
seeds the randomized suites, --max-dim overrides the construction caps
(for selftest: the largest random cone dimension, 2 to MAX_AMBIENT_DIM).
Exit codes: 0 analysis completed (whatever the verdict), 2 scenario,
schema, I/O or usage error, 3 internal assertion failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .cones import MAX_AMBIENT_DIM
from .errors import ConecertError, InternalCheckError
from .report import dumps_canonical, render_text
from .scenarios import BUILTIN_SCENARIOS, run_scenario

EXIT_OK = 0
EXIT_SCENARIO_ERROR = 2
EXIT_INTERNAL = 3


def _write_report(report: dict, json_path: Optional[str], elapsed: float) -> int:
    sys.stdout.write(render_text(report, elapsed=elapsed))
    if json_path:
        try:
            Path(json_path).write_text(dumps_canonical(report), encoding="utf-8")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_SCENARIO_ERROR
    return EXIT_OK


def _run_document(doc: dict, args) -> int:
    started = time.perf_counter()
    try:
        report = run_scenario(doc, seed=args.seed, max_dim=args.max_dim)
    except InternalCheckError as exc:
        print(f"internal assertion: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ConecertError as exc:
        # scenario-level problem: schema violation or data the analysis rejects
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    return _write_report(report, args.json, time.perf_counter() - started)


def _cmd_analyze(args) -> int:
    path = Path(args.scenario)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and over-long integer literals
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    return _run_document(doc, args)


def _cmd_examples(args) -> int:
    # argparse `choices` has already refused an unknown name with exit 2
    return _run_document(BUILTIN_SCENARIOS[args.name], args)


def _cmd_selftest(args) -> int:
    from .selftest import run_all    # here, so that no other command pays its import
    max_dim = 4 if args.max_dim is None else args.max_dim
    if not 2 <= max_dim <= MAX_AMBIENT_DIM:
        print(f"--max-dim must be between 2 and {MAX_AMBIENT_DIM} for selftest, "
              f"got {max_dim}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    started = time.perf_counter()
    try:
        results = run_all(seed=args.seed, max_dim=max_dim, quick=not args.thorough)
    except ConecertError as exc:
        print(f"internal assertion: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.cases} cases)")
        for failure in r.failures:
            ok = False
            print(f"     {failure}")
    print(f"selftest {'passed' if ok else 'FAILED'} "
          f"in {time.perf_counter() - started:.1f}s")
    return EXIT_OK if ok else EXIT_INTERNAL


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # flags are accepted both before and after the subcommand; the subparser
    # copies use SUPPRESS so they never clobber a value given up front
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--json", metavar="PATH",
                        help="write the canonical machine-readable report here",
                        **(kw or {"default": None}))
    parser.add_argument("--seed", type=int,
                        help="seed for the randomized property suites",
                        **(kw or {"default": 0}))
    parser.add_argument("--max-dim", type=int,
                        help="override the construction dimension cap",
                        **(kw or {"default": None}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecert",
        description="Exact certification of polarized cone dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run a scenario file")
    p.add_argument("scenario", help="path to a scenario JSON document")
    _add_common_flags(p, suppress=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("examples", help="run a built-in scenario")
    p.add_argument("name", choices=sorted(BUILTIN_SCENARIOS))
    _add_common_flags(p, suppress=True)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--thorough", action="store_true",
                   help="run the larger suite sizes")
    _add_common_flags(p, suppress=True)
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # each command maps InternalCheckError to EXIT_INTERNAL itself
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
