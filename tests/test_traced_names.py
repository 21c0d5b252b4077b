"""The benchmark's span tracer wraps functions by name; every name it lists
must still exist in the package, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = []
    for module, attr in spans.TRACED:
        target = importlib.import_module(f"prior_forge.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []
