"""AnalysisReport assembly and rendering."""

import ast
import hashlib
import json
import pathlib
import random

import pytest

import prior_forge
from prior_forge import (
    AnalysisReport,
    Distribution,
    MoneyPumpWitness,
    PriorWitness,
    Trade,
    VerificationError,
    analyze,
    classify_trade,
    harness,
    lp,
    parse_structure,
    priors,
    rational,
    trades,
    uniform,
)
from prior_forge.harness import GeneratorConfig, random_distribution, random_structure
from prior_forge import jsonio, model, report
from prior_forge.jsonio import dumps_canonical, ratio_value
from prior_forge.trades import _verify_prior_report

# sha256 of the canonical JSON of ``analyze`` on generator seeds 0..199, each
# with a distribution drawn for the common notion; 85 reports carry a
# refuting trade and 146 a money pump.
PINNED_GENERATED_REPORTS = "b0318fe957827b4933e0fcf89cee262d54abde9a85e2c1e3822efecd8e069c4c"

# sha256 of ``analyze(...).to_text()`` on the same structures and
# distributions.
PINNED_GENERATED_TEXT = "b46e2801fae4c906346ae09b72eddbe12c7f453441efacee007f683ff6dafd80"


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
    # trade, forged together with its classification, refutes neither
    # ex_pl2's common prior (agreeable), nor pl4's universal one (weakly
    # agreeable), nor ex_pl1's strong one (acceptable), and a missing trade
    # refutes nothing.
    for s, flag in ((ex_pl2, "agreeable"), (pl4, "weakly_agreeable"), (ex_pl1, "acceptable")):
        priors = analyze(s).priors
        zero = Trade(((1, (0,) * s.num_states),) * s.num_players)
        for trade, cls in ((zero, classify_trade(s, zero.forms)), (None, None)):
            with pytest.raises(VerificationError, match=f"no {flag} trade"):
                _verify_prior_report(s, priors._replace(trade=trade, trade_class=cls))


def test_report_verification_rechecks_claimed_grades(ex_pl1, pl4):
    # ex_pl1's canonical prior misses a cell, so it is not strong; pl4's
    # misses a minimal component, so it is not universal. Claiming either
    # grade for it must fail the re-check.
    strong = analyze(ex_pl1).priors._replace(
        holds=("common", "universal", "strong"),
        trade=None,
        trade_class=None,
    )
    with pytest.raises(VerificationError, match="strong prior witness"):
        _verify_prior_report(ex_pl1, strong)
    universal = analyze(pl4).priors._replace(holds=("common", "universal"))
    with pytest.raises(VerificationError, match="universal prior witness"):
        _verify_prior_report(pl4, universal)


def _fresh(fixture_path, name):
    """The fixture freshly parsed, so no memo from another test applies."""
    return parse_structure(json.loads(fixture_path(name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", ["intro", "ex_plbet4"])
def test_analyze_builds_and_verifies_the_witness_once(fixture_path, monkeypatch, name):
    # Both fixtures have a strong prior: the walk gives its hull weights, so
    # no hull weights are computed (by hull_weights or the integer hull_form
    # it wraps), and the witness is verified once, when it is built; the
    # report checks its claims against it.
    s = _fresh(fixture_path, name)
    calls = []
    real_weights, real_form, real_verify = priors.hull_weights, priors.hull_form, PriorWitness.verify

    def counting_weights(*args):
        calls.append("hull_weights")
        return real_weights(*args)

    def counting_form(*args):
        calls.append("hull_form")
        return real_form(*args)

    def counting_verify(self, structure):
        calls.append("verify")
        return real_verify(self, structure)

    monkeypatch.setattr(priors, "hull_weights", counting_weights)
    monkeypatch.setattr(priors, "hull_form", counting_form)
    monkeypatch.setattr(PriorWitness, "verify", counting_verify)
    analyze(s)
    assert calls == ["verify"]


@pytest.mark.parametrize(
    "name, dist, witnesses, graded, pumps",
    [
        # No common prior: the trade is graded once, the pump verified once.
        ("ex_pl2", "uniform", 0, 1, 1),
        # A common prior that is not strong, and a pumping distribution.
        ("ex_pl1", "uniform", 1, 1, 1),
        # A strong prior, given its own prior: two witnesses, one each.
        ("intro", "own", 2, 0, 0),
    ],
)
def test_analyze_checks_each_certificate_once(
    fixture_path, monkeypatch, name, dist, witnesses, graded, pumps
):
    s = _fresh(fixture_path, name)
    if dist == "uniform":
        p = uniform(s.num_states)
    else:  # found on another copy, so that s keeps no memo
        p = priors.find_common_prior(_fresh(fixture_path, name)).prior
    verified, classified = [], []
    real_verify, real_pump_verify = PriorWitness.verify, MoneyPumpWitness.verify
    real_classify = trades.classify_trade

    def counting_verify(self, structure):
        verified.append(self)
        return real_verify(self, structure)

    def counting_pump_verify(self, structure):
        verified.append(self)
        return real_pump_verify(self, structure)

    def counting_classify(*args):
        classified.append(args)
        return real_classify(*args)

    monkeypatch.setattr(PriorWitness, "verify", counting_verify)
    monkeypatch.setattr(MoneyPumpWitness, "verify", counting_pump_verify)
    monkeypatch.setattr(trades, "classify_trade", counting_classify)
    rep = analyze(s, p)
    assert len(set(map(id, verified))) == len(verified)
    assert sum(isinstance(w, PriorWitness) for w in verified) == witnesses
    assert sum(isinstance(w, MoneyPumpWitness) for w in verified) == pumps
    assert len(classified) == graded
    assert (rep.priors.trade is not None) == bool(graded)
    assert (rep.verdict.pump_witness is not None) == bool(pumps)


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
    digest, text = hashlib.sha256(), hashlib.sha256()
    trades = pumps = 0
    for seed in range(200):
        s = random_structure(GeneratorConfig(seed=seed))
        dist = random_distribution(s, GeneratorConfig(), priors.NOTIONS[0], random.Random(seed))
        rep = analyze(s, dist)
        trades += rep.priors.trade is not None
        pumps += rep.verdict.pump_witness is not None
        digest.update(dumps_canonical(rep.to_json()).encode())
        text.update(rep.to_text().encode())
    assert (trades, pumps) == (85, 146)
    assert digest.hexdigest() == PINNED_GENERATED_REPORTS
    assert text.hexdigest() == PINNED_GENERATED_TEXT


@pytest.mark.parametrize(
    "name, counts",
    [
        # A strong prior: each charge test decides once and is checked once.
        ("intro", {"is_maximal": 2, "is_strongly_maximal": 2}),
        ("chain", {"is_maximal": 2, "is_strongly_maximal": 2}),
        # A common, universal prior that is not strong: the strong test
        # decides once, and the block trade is checked by its grade.
        ("ex_pl1", {"is_maximal": 2, "is_strongly_maximal": 1}),
        # No prior, and a strongly maximal p that is pumped: classify_prior
        # grades p once, the pump's kind is read off those grades, and the
        # witness's verify checks its kind once.
        ("ex_pl2+uniform", {"is_maximal": 1, "is_strongly_maximal": 2}),
    ],
)
def test_analyze_runs_each_charge_test_once_per_decision(fixture_path, name, counts):
    name, _, dist = name.partition("+")
    s = harness.chain_structure(256, 2**64 - 1) if name == "chain" else _fresh(fixture_path, name)
    seen = {}
    charges = [(n, n.charges) for n in priors.NOTIONS if n.charges is not None]

    def spy(test):
        def counted(structure, dist):
            seen[test.__name__] = seen.get(test.__name__, 0) + 1
            return test(structure, dist)

        counted.__name__ = test.__name__
        return counted

    try:
        for notion, test in charges:
            object.__setattr__(notion, "charges", spy(test))
        # ``classify_prior`` calls the tests by their names in ``priors``.
        with pytest.MonkeyPatch.context() as patch:
            for _, test in charges:
                patch.setattr(priors, test.__name__, spy(test))
            analyze(s, uniform(s.num_states) if dist else None)
    finally:
        for notion, test in charges:
            object.__setattr__(notion, "charges", test)
    assert seen == counts


def test_a_report_writes_payoffs_and_expectations_from_integer_forms(fixture_path, monkeypatch):
    # ex_pl2 has no prior, so the report carries the block trade, 8 payoffs
    # and 8 expectations, and a pump for uniform(4), 8 payoffs: every one is
    # written from its integer form, and the deficit from its numerator and
    # denominator, each by ``ratio_value``.
    rep = analyze(_fresh(fixture_path, "ex_pl2"), uniform(4))
    written = []

    def spy(num, den):
        assert type(num) is int and type(den) is int
        written.append((num, den))
        return ratio_value(num, den)

    monkeypatch.setattr(report, "ratio_value", spy)
    doc = rep.to_json()
    deficit = rep.verdict.pump_witness.deficit
    assert (deficit.numerator, deficit.denominator) in written
    assert doc["distribution"]["pump_witness"]["deficit"] == ratio_value(deficit.numerator, deficit.denominator)
    refutation = doc["priors"]["common"]["refutation"]
    assert [len(refutation[key]) * len(refutation[key][0]) for key in ("payoffs", "expectations")] == [8, 8]


def test_a_text_report_writes_rows_from_integer_forms(fixture_path, monkeypatch):
    # The text rendering prints the rows the JSON pieces write: no payoff,
    # hull weight or distribution entry becomes a Fraction on the way, and
    # a pump's deficit is written from its ints, as the JSON piece writes
    # it. ex_pl2 carries the block trade and a pump for uniform(4), intro a
    # prior witness for uniform(5).
    reports = [
        analyze(_fresh(fixture_path, "ex_pl2"), uniform(4)),
        analyze(_fresh(fixture_path, "intro"), uniform(5)),
    ]
    texts = [rep.to_text() for rep in reports]
    written = []

    def spy(num, den):
        assert type(num) is int and type(den) is int
        written.append((num, den))
        return ratio_value(num, den)

    def refused(*args):
        raise AssertionError("a row was read as Fractions")

    assert not hasattr(trades, "fraction_rows") and not hasattr(report, "rational_text")
    monkeypatch.setattr(report, "ratio_value", spy)
    monkeypatch.setattr(Distribution, "probs", property(refused))
    for module in (model, priors):
        monkeypatch.setattr(module, "fraction_rows", refused)
    assert [rep.to_text() for rep in reports] == texts
    deficit = reports[0].verdict.pump_witness.deficit
    assert (deficit.numerator, deficit.denominator) in written
    assert f"  deficit = {deficit}" in texts[0].splitlines()
    assert "hull weights" in texts[1] and "refuting trade" in texts[0]


def test_a_long_denominator_is_converted_once_per_row(monkeypatch):
    # The chain's prior at M = 256, K = 2**64 - 1 has one 16,320-bit
    # denominator, and its cell masses reduce to it or to it over K + 1.
    # The prior's row and each player's hull weights share one memo, so
    # every distinct reduced numerator and denominator of the piece is
    # converted to text once: about half the conversions of a memo per row,
    # which converts every numerator of the row and each of its distinct
    # denominators.
    s = harness.chain_structure(256, 2**64 - 1)
    witness = priors.find_common_prior(s)
    calls = []
    real = jsonio.int_text

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(jsonio, "int_text", counting)
    piece = report.prior_witness_json(s, witness)
    p = witness.prior
    rows = [[p[w] for w in range(s.num_states)]]
    rows += [[p.mass(cell) for cell in cells] for cells in s.partitions]
    per_row = 0
    ints = set()
    for row in rows:
        nonzero = [q for q in row if q.denominator > 1]
        per_row += len(nonzero) + len({q.denominator for q in nonzero})
        ints.update(n for q in nonzero for n in (q.numerator, q.denominator))
    assert sorted(calls) == sorted(ints)
    assert per_row == 517 and len(calls) == 258
    monkeypatch.undo()
    assert piece == {
        "prior": [ratio_value(q.numerator, q.denominator) for q in rows[0]],
        "hull_weights": [[ratio_value(q.numerator, q.denominator) for q in row] for row in rows[1:]],
    }
