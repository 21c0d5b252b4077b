"""The benchmark's correctness gate reads the analysis report by attribute
name; every name it reads must still exist, or a benchmark run fails its
gate instead of this suite. Every operation of the seed-1 analysis
workloads runs, and the first 50 of the seed-1 battery, and the canonical
bytes they produce hash as ``perfbench/run.py`` reports them: the operation
count and sha256 of each workload's output."""

import hashlib
import importlib.util
import pathlib

import pytest

import prior_forge

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

OUTPUTS = {
    "no_prior_large": (144, "2f826edf3db7b62debba32632897b465e386d19f31eabf06b804581994586266"),
    "planted_large": (36, "c22660e96f97b70ad7e62bb655b06bd3747aaf14124cc28ed03fa467e1c29281"),
}


def _gate(monkeypatch, workload: str, count: int | None = None) -> tuple[int, str]:
    """Run the first ``count`` (default all) seed-1 operations of a workload
    through its gate; return the operation count and the output sha256."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports gen
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bench = workloads.WORKLOADS[workload](prior_forge)
    items = bench.prepare(workloads.make_inputs(workload, 1))[:count]
    digest = hashlib.sha256()
    for item in items:
        problems, _, blob = bench.check(item, bench.run(item))
        assert problems == []
        digest.update(blob)
    return len(items), digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(OUTPUTS))
def test_analysis_gate_passes(monkeypatch, workload):
    assert _gate(monkeypatch, workload) == OUTPUTS[workload]


# The first 50 operations of the seed-1 battery: each structure's
# ``cross_check`` passes its gate, and their canonical structure documents
# hash as ``perfbench/run.py`` hashes those operations.
BATTERY_HEAD = (50, "7449fffea56d95e9c1fb7be56502e79c1bdaec7dc4f51af5b18135591396d801")


def test_battery_gate_passes(monkeypatch):
    assert _gate(monkeypatch, "battery", BATTERY_HEAD[0]) == BATTERY_HEAD
