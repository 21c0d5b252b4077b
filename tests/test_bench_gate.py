"""The benchmark's correctness gate reads the analysis report by attribute
name; every name it reads must still exist, or a benchmark run fails its
gate instead of this suite."""

import importlib.util
import pathlib

import pytest

import prior_forge

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["no_prior_large", "planted_large"])
def test_analysis_gate_passes(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports gen
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.make_inputs(workload, 1)
    inputs["ops"] = inputs["ops"][:3]
    bench = workloads.WORKLOADS[workload](prior_forge)
    for item in bench.prepare(inputs):
        problems, _, _ = bench.check(item, bench.run(item))
        assert problems == []
