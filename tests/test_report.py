"""AnalysisReport assembly and rendering."""

import ast
import hashlib
import json
import pathlib
import random
from dataclasses import replace

import pytest

import prior_forge
from prior_forge import (
    AnalysisReport,
    Distribution,
    PriorWitness,
    Trade,
    VerificationError,
    analyze,
    harness,
    lp,
    parse_structure,
    priors,
    rational,
    uniform,
)
from prior_forge.harness import GeneratorConfig, random_distribution, random_structure
from prior_forge.jsonio import dumps_canonical
from prior_forge.report import _verify_report

# sha256 of the canonical JSON of ``analyze`` on generator seeds 0..199, each
# with a distribution drawn for the common notion; 85 reports carry a
# refuting trade and 146 a money pump.
PINNED_GENERATED_REPORTS = "b0318fe957827b4933e0fcf89cee262d54abde9a85e2c1e3822efecd8e069c4c"


def test_analyze_ex_pl1(ex_pl1):
    rep = analyze(ex_pl1)
    assert isinstance(rep, AnalysisReport)
    assert rep.minimal == ((0,), (3,))
    assert rep.all_components is None
    assert rep.priors.common_prior is not None
    assert rep.priors.strong_common_prior is None
    assert rep.priors.strong_refutation is not None
    assert rep.dist is None and rep.verdict is None


def test_analyze_all_components(ex_pl1):
    rep = analyze(ex_pl1, all_components=True)
    assert len(rep.all_components) == 4


def test_analyze_with_distribution(pl4):
    rep = analyze(pl4, uniform(4))
    assert rep.verdict is not None
    assert rep.verdict.base == "money_pump"
    doc = rep.to_json()
    section = doc["distribution"]
    assert section["base"] == "money_pump"
    assert section["universal"] == "universal_money_pump"
    assert section["strong"] == "strong_money_pump"
    assert section["prior_witness"] is None
    assert section["pump_witness"]["deficit"].startswith("-")


def test_json_layout(intro):
    doc = analyze(intro).to_json()
    assert list(doc) == [
        "schema",
        "digest",
        "structure",
        "components",
        "priors",
        "distribution",
    ]
    assert doc["digest"]["partition_sizes"] == [2, 2]
    assert doc["components"]["all"] is None
    common = doc["priors"]["common"]
    assert common["holds"] is True
    assert common["witness"]["prior"] == ["1/5"] * 5
    assert doc["distribution"] is None


def test_text_rendering(ex_pl2):
    text = analyze(ex_pl2, Distribution((rational("1/4"),) * 4)).to_text()
    assert "common prior: absent" in text
    assert "agreeable" in text
    assert "money_pump" in text and "deficit" in text
    # Rationals render exactly, never as decimals.
    assert "0.25" not in text and "1/4" in text


def test_rendering_deterministic(pl4):
    a = analyze(pl4, uniform(4), all_components=True)
    b = analyze(pl4, uniform(4), all_components=True)
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()


def test_report_verification_regrades_refutations(ex_pl2, pl4, ex_pl1):
    # The one trade must carry the grade of every notion that fails: a zero
    # trade refutes neither ex_pl2's common prior (agreeable), nor pl4's
    # universal one (weakly agreeable), nor ex_pl1's strong one (acceptable),
    # and a missing trade refutes nothing.
    for s, flag in ((ex_pl2, "agreeable"), (pl4, "weakly_agreeable"), (ex_pl1, "acceptable")):
        priors = analyze(s).priors
        zero = Trade(((0,) * s.num_states,) * s.num_players)
        for trade in (zero, None):
            with pytest.raises(VerificationError, match=f"no {flag} trade"):
                _verify_report(s, replace(priors, trade=trade), None)


def test_report_verification_rechecks_claimed_grades(ex_pl1, pl4):
    # ex_pl1's canonical prior misses a cell, so it is not strong; pl4's
    # misses a minimal component, so it is not universal. Claiming either
    # grade for it must fail the re-check.
    strong = replace(analyze(ex_pl1).priors, holds=("common", "universal", "strong"), trade=None)
    with pytest.raises(VerificationError, match="strong prior witness"):
        _verify_report(ex_pl1, strong, None)
    universal = replace(analyze(pl4).priors, holds=("common", "universal"))
    with pytest.raises(VerificationError, match="universal prior witness"):
        _verify_report(pl4, universal, None)


@pytest.mark.parametrize("name", ["intro", "ex_plbet4"])
def test_analyze_builds_and_verifies_the_witness_once(fixture_path, monkeypatch, name):
    # A freshly parsed structure, so no memo from another test applies. Both
    # fixtures have a strong prior: the walk gives its hull weights, so no
    # hull_weights call is needed; the witness is verified once when it is
    # built and once more by the report.
    s = parse_structure(json.loads(fixture_path(name).read_text(encoding="utf-8")))
    calls = []
    real_weights, real_verify = priors.hull_weights, PriorWitness.verify

    def counting_weights(*args):
        calls.append("hull_weights")
        return real_weights(*args)

    def counting_verify(self, structure):
        calls.append("verify")
        return real_verify(self, structure)

    monkeypatch.setattr(priors, "hull_weights", counting_weights)
    monkeypatch.setattr(PriorWitness, "verify", counting_verify)
    analyze(s)
    assert sorted(calls) == ["verify"] * 2


def _lp_importers():
    """The package modules that import the LP layer."""
    found = []
    for path in sorted(pathlib.Path(prior_forge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and (
                node.module == "lp" or any(alias.name == "lp" for alias in node.names)
            ):
                found.append(path.name)
                break
    return found


def test_analyze_solves_no_lp(monkeypatch, intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    # Only the oracles in the harness import the LP layer; the package root
    # registers it to load on first use, and production decides every
    # verdict from the block walk.
    assert _lp_importers() == ["harness.py"]
    calls = []
    real = lp.solve

    def counting_solve(program):
        calls.append(program)
        return real(program)

    monkeypatch.setattr(lp, "solve", counting_solve)
    monkeypatch.setattr(harness, "solve", counting_solve)
    structures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    structures += [random_structure(GeneratorConfig(seed=k)) for k in range(200)]
    for s in structures:
        analyze(s, uniform(s.num_states))
    assert calls == []


def test_generated_reports_are_pinned():
    digest = hashlib.sha256()
    trades = pumps = 0
    for seed in range(200):
        s = random_structure(GeneratorConfig(seed=seed))
        dist = random_distribution(s, GeneratorConfig(), priors.NOTIONS[0], random.Random(seed))
        rep = analyze(s, dist)
        trades += rep.priors.trade is not None
        pumps += rep.verdict.pump_witness is not None
        digest.update(dumps_canonical(rep.to_json()).encode())
    assert (trades, pumps) == (85, 146)
    assert digest.hexdigest() == PINNED_GENERATED_REPORTS
