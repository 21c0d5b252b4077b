"""The benchmark's span tracer wraps functions by name; every name it lists
must still exist in the package, or ``perfbench/run.py --trace 1`` fails.
It also sizes every traced solve from the program's constraints, so it must
keep reading them."""

import importlib
import importlib.util
import pathlib

from prior_forge.harness import (
    acceptable_trade_program,
    agreeable_trade_program,
    common_prior_program,
    joint_common_prior_program,
)
from prior_forge.lp import solve

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = _spans()
    assert spans.TRACED
    missing = []
    for module, attr in spans.TRACED:
        target = importlib.import_module(f"prior_forge.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_lp_stats_reads_the_oracle_programs(ex_pl1):
    spans = _spans()
    builders = (
        common_prior_program,
        joint_common_prior_program,
        agreeable_trade_program,
        acceptable_trade_program,
    )
    for build in builders:
        program = build(ex_pl1)
        outcome = solve(program)
        stats = spans.lp_stats(program, outcome)
        assert stats["purpose"] in (*spans.PURPOSES, "other")
        assert stats["rows"] == len(program.constraints)
        assert stats["vars"] == program.num_vars
        assert stats["nnz"] > 0 and stats["in_bits"] > 0
        assert stats["infeasible"] == (outcome.status == "infeasible")
