"""The benchmark's correctness gate reads the analysis report by attribute
name; every name it reads must still exist, or a benchmark run fails its
gate instead of this suite. Every operation of the seed-1 workloads runs,
and the canonical bytes they produce hash as ``perfbench/run.py`` reports
them: the operation count and sha256 of each workload's output."""

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


@pytest.mark.parametrize("workload", sorted(OUTPUTS))
def test_analysis_gate_passes(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports gen
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bench = workloads.WORKLOADS[workload](prior_forge)
    items = bench.prepare(workloads.make_inputs(workload, 1))
    digest = hashlib.sha256()
    for item in items:
        problems, _, blob = bench.check(item, bench.run(item))
        assert problems == []
        digest.update(blob)
    assert (len(items), digest.hexdigest()) == OUTPUTS[workload]
