"""The package loads its oracle layer, ``harness`` and ``lp``, on first use:
importing ``prior_forge``, analysing a structure and every CLI command but
``fuzz`` leave both module bodies unexecuted. The package names the oracle
layer only through those two modules."""

import json
import pathlib
import subprocess
import sys

import pytest

import prior_forge

# Run in a fresh interpreter: an audit hook records the file of every code
# object that ``exec`` runs, module bodies included.
_ANALYSIS_PATH = r"""
import contextlib, io, json, pathlib, sys

ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))

import prior_forge
from prior_forge import analyze, cli, dumps_canonical, parse_structure, uniform

package = pathlib.Path(prior_forge.__file__).resolve().parent
fixtures, workdir = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])


def oracle_layer_ran():
    files = {pathlib.Path(name).resolve() for name in ran}
    return [name for name in ("harness.py", "lp.py") if package / name in files]


for path in sorted(fixtures.glob("*.json")):
    s = parse_structure(json.loads(path.read_text(encoding="utf-8")))
    report = analyze(s, uniform(s.num_states))
    dumps_canonical(report.to_json())
    report.to_text()
    dist = workdir / f"uniform-{path.name}"
    dist.write_text(json.dumps({"dist": [f"1/{s.num_states}"] * s.num_states}), encoding="utf-8")
    for argv in (
        ["report", "--json"],
        ["prior", "--kind", "strong"],
        ["trade", "--kind", "acceptable"],
        ["components", "--all"],
        ["classify", "--dist", str(dist)],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([*argv, str(path)])
before = oracle_layer_ran()
prior_forge.harness.cross_check
print(json.dumps([before, oracle_layer_ran()]))
"""


def test_analysis_path_never_runs_the_oracle_layer(fixture_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _ANALYSIS_PATH, str(fixture_path("pl4").parent), str(tmp_path)],
        check=True,
        capture_output=True,
        text=True,
        timeout=300,
    )
    before, after = json.loads(proc.stdout)
    assert before == []
    assert after == ["harness.py", "lp.py"]


# The oracle layer's public names, by module: each is read on its module,
# never through the package.
_ORACLE_NAMES = {
    "harness": [
        "BatteryReport",
        "CheckFailure",
        "CrossCheckReport",
        "GeneratorConfig",
        "cross_check",
        "oracle_battery",
        "random_distribution",
        "random_structure",
        "run_battery",
        "structure_digest",
    ],
    "lp": [
        "Constraint",
        "FarkasCertificate",
        "LinearProgram",
        "LPBuilder",
        "LPOutcome",
        "enumerate_basic_solutions",
        "farkas_violations",
        "feasibility_violations",
        "solve",
    ],
}


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in _ORACLE_NAMES.items() for name in names]
)
def test_oracle_names_live_only_on_their_modules(module, name):
    assert callable(getattr(getattr(prior_forge, module), name))
    assert not hasattr(prior_forge, name)
    assert name not in prior_forge.__all__
    assert name not in dir(prior_forge)
    with pytest.raises(ImportError, match=name):
        exec(f"from prior_forge import {name}", {})


def test_package_forwards_no_names_and_unknown_names_raise():
    assert {"harness", "lp"} <= set(prior_forge.__all__)
    with pytest.raises(ImportError, match="solve"):
        from prior_forge import solve
    with pytest.raises(AttributeError, match="no_such_name"):
        prior_forge.no_such_name


# One name per object: the analysis API, its modules and the two oracle
# modules, and no second name for anything.
PINNED_EXPORTS = [
    "AnalysisReport",
    "DimensionError",
    "Distribution",
    "DistributionVerdict",
    "EmptySetError",
    "InconsistencyError",
    "InformationStructure",
    "InputError",
    "MoneyPumpWitness",
    "NotAComponentError",
    "ONE",
    "PartitionError",
    "PlayerCountError",
    "PriorClassification",
    "PriorForgeError",
    "PriorReport",
    "PriorWitness",
    "SCHEMA",
    "SchemaError",
    "SizeCapError",
    "StochasticityError",
    "SupportError",
    "Trade",
    "TradeClassification",
    "VerificationError",
    "ZERO",
    "analyze",
    "build_prior_report",
    "certainty",
    "classify_distribution",
    "classify_prior",
    "classify_trade",
    "closure",
    "component_family",
    "disintegrable_by_definition",
    "dumps_canonical",
    "errors",
    "find_acceptable_trade",
    "find_agreeable_trade",
    "find_common_prior",
    "find_multiplayer_money_pump",
    "find_single_money_pump",
    "find_strong_common_prior",
    "find_universal_common_prior",
    "find_weakly_agreeable_trade",
    "forward_closed",
    "harness",
    "hull_weights",
    "induced_substructure",
    "is_commonly_certain",
    "is_conglomerable",
    "is_disintegrable",
    "is_maximal",
    "is_strongly_maximal",
    "jsonio",
    "lp",
    "make_structure",
    "minimal_components",
    "model",
    "parse_distribution",
    "parse_payoffs",
    "parse_structure",
    "payoff_vector",
    "priors",
    "pump_kind",
    "rational",
    "report",
    "single_player_view",
    "structure_to_json",
    "support_graph",
    "trades",
    "uniform",
]


def test_package_exports_are_pinned():
    assert PINNED_EXPORTS == sorted(PINNED_EXPORTS)
    assert prior_forge.__all__ == PINNED_EXPORTS
