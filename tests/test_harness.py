"""Generator determinism and the executable-theorem battery."""

import json
import random
from dataclasses import replace

import pytest

from prior_forge import (
    ONE,
    ZERO,
    GeneratorConfig,
    PriorForgeError,
    cross_check,
    is_maximal,
    is_strongly_maximal,
    oracle_battery,
    random_distribution,
    random_structure,
    parse_structure,
    run_battery,
    solve,
    structure_digest,
)
from prior_forge import harness
from prior_forge.priors import common_prior_program, strong_prior


def test_config_validation():
    with pytest.raises(PriorForgeError):
        GeneratorConfig(max_states=0)
    with pytest.raises(PriorForgeError):
        GeneratorConfig(max_players=0)


def test_structure_generation_deterministic():
    a = random_structure(GeneratorConfig(seed=7))
    b = random_structure(GeneratorConfig(seed=7))
    assert a == b
    assert structure_digest(a) == structure_digest(b)


def test_structure_generation_obeys_caps():
    for seed in range(30):
        s = random_structure(GeneratorConfig(seed=seed, max_states=4, max_players=2))
        assert 1 <= s.num_states <= 4
        assert 1 <= s.num_players <= 2


def test_seeds_vary():
    digests = {structure_digest(random_structure(GeneratorConfig(seed=k))) for k in range(20)}
    assert len(digests) > 10


def test_distribution_constraints(ex_pl1):
    cfg = GeneratorConfig(seed=3)
    rng = random.Random(99)
    for _ in range(20):
        d = random_distribution(ex_pl1, cfg, "maximal", rng)
        assert is_maximal(ex_pl1, d)
        d = random_distribution(ex_pl1, cfg, "strongly_maximal", rng)
        assert is_strongly_maximal(ex_pl1, d)
    with pytest.raises(PriorForgeError):
        random_distribution(ex_pl1, cfg, "nonsense", rng)


def test_distribution_deterministic(pl4):
    cfg = GeneratorConfig(seed=5)
    a = random_distribution(pl4, cfg, "any", random.Random(1))
    b = random_distribution(pl4, cfg, "any", random.Random(1))
    assert a == b


def test_digest_separates_structures(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    digests = {structure_digest(s) for s in (intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4)}
    assert len(digests) == 6


def test_cross_check_fixtures(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    for s in (intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
        report = cross_check(s, sample_count=3, cfg=GeneratorConfig())
        assert report.passed, report.failures
        assert report.checks_run > 0
        assert report.minimized is None


def _fresh(fixture_path, name):
    """A newly parsed fixture, so no memo from another test applies."""
    return parse_structure(json.loads(fixture_path(name).read_text(encoding="utf-8")))


def _oracle_failures(report):
    return [f.name for f in report.failures if f.name.startswith("oracle:")]


def test_cross_check_oracle_catches_a_wrong_trade_finder(fixture_path, monkeypatch):
    s = _fresh(fixture_path, "ex_pl2")
    monkeypatch.setattr(harness, "find_agreeable_trade", lambda structure: None)
    report = cross_check(s, minimize=False)
    assert "oracle: agreeable program matches the agreeable trade" in _oracle_failures(report)


def test_cross_check_oracle_catches_a_corrupted_prior_outcome(fixture_path):
    s = _fresh(fixture_path, "ex_pl1")
    outcome = solve(common_prior_program(s))
    assert outcome.status == "optimal" and outcome.objective_value == ZERO
    # Plant a positive strictness margin in the memo: production then reads
    # "no acceptable trade" off it, and only the acceptable program objects.
    s.derived("common_prior", lambda _: replace(outcome, objective_value=ONE))
    report = cross_check(s, minimize=False)
    assert "oracle: acceptable program matches the acceptable trade" in _oracle_failures(report)


def test_cross_check_oracle_catches_a_wrong_closed_form(fixture_path):
    # Plant a halved margin in the closed form's memo: the prior still
    # verifies, so only the margin program objects.
    prior, eps = strong_prior(_fresh(fixture_path, "ex_plbet4"))
    s = _fresh(fixture_path, "ex_plbet4")
    s.derived("strong_prior", lambda _: (prior, eps / 2))
    report = cross_check(s, minimize=False)
    assert [f.name for f in report.failures] == [
        "oracle: closed-form strong prior equals the margin program's optimum"
    ]


def test_cross_check_oracle_catches_a_missing_dual_trade(fixture_path, monkeypatch):
    # pl4 has a common prior but no strong one (optimal margin 0): production
    # reads its acceptable trade off the optimal duals, and the acceptable
    # program still runs as the oracle.
    s = _fresh(fixture_path, "pl4")
    assert solve(common_prior_program(s)).objective_value == ZERO
    monkeypatch.setattr(harness, "find_acceptable_trade", lambda structure: None)
    report = cross_check(s, minimize=False)
    assert "oracle: acceptable program matches the acceptable trade" in _oracle_failures(report)


@pytest.mark.parametrize(
    "seed, states, players", [(9, ("w3", "w4"), ("P2", "P3")), (5, ("w1", "w2"), ("P1", "P2"))]
)
def test_failure_minimizer_shrinks_to_a_failing_core(monkeypatch, seed, states, players):
    # With the agreeable-trade finder broken, every structure without a
    # common prior fails; the greedy minimizer drops players and states while
    # the failure persists.
    monkeypatch.setattr(harness, "find_agreeable_trade", lambda structure: None)
    structure = random_structure(GeneratorConfig(seed=seed))
    report = cross_check(structure)
    assert not report.passed
    minimized = report.minimized
    assert (minimized.states, minimized.players) == (states, players)
    assert minimized.num_states < structure.num_states
    again = cross_check(minimized, minimize=False)
    assert not again.passed and again.minimized is None


def test_battery_slice():
    report = run_battery(range(40))
    assert report.passed, report.failures
    assert report.structures_checked == 40
    assert report.checks_run > 1000


def test_battery_deterministic():
    a = run_battery(range(12))
    b = run_battery(range(12))
    assert a.checks_run == b.checks_run
    assert a.structures_checked == b.structures_checked


def test_battery_mergeable():
    whole = run_battery(range(16))
    left = run_battery(range(8))
    right = run_battery(range(8, 16))
    assert whole.checks_run == left.checks_run + right.checks_run


def test_oracle_battery_slice():
    report = oracle_battery(range(25))
    assert report.passed, report.failures
    assert report.structures_checked == 25
