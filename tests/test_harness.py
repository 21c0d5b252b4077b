"""Generator determinism and the executable-theorem battery."""

import ast
import json
import math
import pathlib
import random
from dataclasses import replace

import pytest

from prior_forge import (
    ZERO,
    Distribution,
    GeneratorConfig,
    PriorForgeError,
    cross_check,
    find_strong_common_prior,
    oracle_battery,
    random_distribution,
    random_structure,
    parse_structure,
    run_battery,
    solve,
    structure_digest,
)
from prior_forge import harness
from prior_forge.harness import common_prior_program
from prior_forge.priors import NOTIONS, blocks


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
        for notion in NOTIONS:
            d = random_distribution(ex_pl1, cfg, notion, rng)
            assert notion.charged_by(ex_pl1, d)


def test_distribution_deterministic(pl4):
    cfg = GeneratorConfig(seed=5)
    a = random_distribution(pl4, cfg, NOTIONS[0], random.Random(1))
    b = random_distribution(pl4, cfg, NOTIONS[0], random.Random(1))
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


def test_cross_check_verifies_a_forged_witness(fixture_path, monkeypatch):
    # ex_plbet4 has a strong common prior, so all three prior finders return
    # the one canonical witness. A strong finder returning a different
    # object, its prior bumped at one state, is verified on its own.
    s = _fresh(fixture_path, "ex_plbet4")
    witness = find_strong_common_prior(s)
    probs = list(witness.prior.probs)
    probs[0] += probs[1]
    probs[1] = ZERO
    forged = replace(witness, prior=Distribution(tuple(probs)))
    monkeypatch.setattr(harness, "find_strong_common_prior", lambda structure: forged)
    report = cross_check(s, minimize=False)
    assert "prior witness re-verifies" in [f.name for f in report.failures]


def test_harness_holds_no_dense_oracles_and_no_json():
    # The dense-rational oracles live beside their tests, in oracles.py.
    tree = ast.parse(pathlib.Path(harness.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    assert "json" not in imported
    assert [name for name in dir(harness) if name.startswith("dense_")] == []


def test_cross_check_oracle_catches_a_wrong_trade_finder(fixture_path, monkeypatch):
    s = _fresh(fixture_path, "ex_pl2")
    monkeypatch.setattr(harness, "find_agreeable_trade", lambda structure: None)
    report = cross_check(s, minimize=False)
    assert "oracle: agreeable program matches the agreeable trade" in _oracle_failures(report)


def test_cross_check_oracle_catches_a_corrupted_prior_outcome(fixture_path):
    s = _fresh(fixture_path, "ex_pl1")
    walk = blocks(_fresh(fixture_path, "ex_pl1"))
    assert walk.live == (True, False, True)
    # Plant a walk that calls every block live: production then reads "no
    # acceptable trade" off it, and the programs object.
    s.derived("blocks", lambda _: replace(walk, live=(True,) * 3, payoffs=None))
    report = cross_check(s, minimize=False)
    failures = _oracle_failures(report)
    assert "oracle: acceptable program matches the acceptable trade" in failures
    assert "oracle: common-prior program decides as the blocks" in failures


def test_cross_check_oracle_catches_a_wrong_closed_form(fixture_path):
    # Plant a halved margin in the walk's memo: the prior still verifies and
    # still satisfies the program's rows, so only the margin program objects.
    walk = blocks(_fresh(fixture_path, "ex_plbet4"))
    s = _fresh(fixture_path, "ex_plbet4")
    s.derived("blocks", lambda _: replace(walk, margin=walk.margin / 2))
    report = cross_check(s, minimize=False)
    assert [f.name for f in report.failures] == [
        "oracle: closed-form strong prior equals the margin program's optimum"
    ]


def test_cross_check_oracle_reports_a_dead_block_the_program_refutes(fixture_path):
    # Plant a walk that calls one of ex_plbet4's blocks dead, with some
    # payoffs: the program finds a positive margin and so no trade, which
    # must be recorded as a failure, not raise.
    walk = blocks(_fresh(fixture_path, "ex_plbet4"))
    s = _fresh(fixture_path, "ex_plbet4")
    dead = (False,) + walk.live[1:]
    payoffs = ((ZERO,) * s.num_states,) * s.num_players
    s.derived("blocks", lambda _: replace(walk, live=dead, margin=ZERO, payoffs=payoffs))
    report = cross_check(s, minimize=False)
    assert "oracle: program trade grades as the block trade" in _oracle_failures(report)


def test_cross_check_oracle_catches_a_missing_dual_trade(fixture_path, monkeypatch):
    # pl4 has a common prior but no strong one (optimal margin 0): the block
    # trade is its acceptable trade, and the acceptable program still runs
    # as the oracle.
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


def _bell_by_recurrence(n, memo={0: 1}):
    """B_n = sum_k C(n-1, k) B_k: the recurrence the Bell triangle replaced."""
    if n not in memo:
        memo[n] = sum(math.comb(n - 1, k) * _bell_by_recurrence(k) for k in range(n))
    return memo[n]


def test_bell_triangle_matches_the_recurrence():
    for n in range(101):
        assert harness._bell(n) == _bell_by_recurrence(n)
    assert [harness._bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
