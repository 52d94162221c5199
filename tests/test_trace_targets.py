"""Every function the benchmark's traced run wraps must still exist.

`perfbench/spans.py` names its targets as (module, attribute) strings; a
rename or deletion in the package would otherwise only surface when the
traced benchmark runs.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    missing = []
    for layer, module_name, attr, _ in _load_spans().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{layer}: {module_name}.{attr}")
                break
        else:
            assert callable(owner), f"{layer}: {module_name}.{attr} is not callable"
    assert not missing, missing
