"""One traced command-line call: `cli_child.py SNAPSHOT -- <conecert arguments>`.

Imports the command line from the checkout's `src`, wraps the traced
functions, runs `conecert.cli.main` with the given arguments, and writes
the span totals to SNAPSHOT (JSON) and the spans to SNAPSHOT with suffix
`.jsonl`. The exit code is the command line's.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import conecert.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    snapshot = Path(sys.argv[1])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = conecert.cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
    snapshot.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    tracer.write_spans(snapshot.with_suffix(".jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
