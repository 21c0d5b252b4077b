"""The package loads its oracle layer, ``harness`` and ``lp``, on first use:
importing ``prior_forge``, analysing a structure and every CLI command but
``fuzz`` leave both module bodies unexecuted."""

import json
import pathlib
import subprocess
import sys

import pytest

import prior_forge
from prior_forge import harness, lp

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
prior_forge.cross_check
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


_ON_FIRST_USE = {
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
    "module, name", [(module, name) for module, names in _ON_FIRST_USE.items() for name in names]
)
def test_reexported_names_resolve_to_their_modules(module, name):
    assert getattr(prior_forge, name) is getattr(getattr(prior_forge, module), name)
    assert name in prior_forge.__all__
    assert name in dir(prior_forge)


def test_reexports_import_by_name_and_unknown_names_raise():
    from prior_forge import GeneratorConfig, solve

    assert (GeneratorConfig, solve) == (harness.GeneratorConfig, lp.solve)
    assert {"harness", "lp"} <= set(prior_forge.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        prior_forge.no_such_name
