"""AnalysisReport assembly and rendering."""

import ast
import pathlib
from dataclasses import replace

import pytest

import prior_forge
from prior_forge import (
    AnalysisReport,
    Distribution,
    GeneratorConfig,
    Trade,
    VerificationError,
    analyze,
    harness,
    lp,
    random_structure,
    rational,
    uniform,
)
from prior_forge.report import _verify_report


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


def test_report_verification_regrades_refutations(ex_pl2):
    report = analyze(ex_pl2)
    zero = Trade(((0, 0, 0, 0), (0, 0, 0, 0)))
    for field in ("common_refutation", "universal_refutation", "strong_refutation"):
        forged = replace(report.priors, **{field: zero})
        with pytest.raises(VerificationError):
            _verify_report(ex_pl2, forged, None)


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
    # Only the oracles in the harness, and the package's exports, use the LP
    # layer; production decides every verdict from the block walk.
    assert _lp_importers() == ["__init__.py", "harness.py"]
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
