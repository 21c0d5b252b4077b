"""End-to-end acceptance gate.

One test per pinned criterion; ``pytest -v`` therefore prints one pass/fail
line for each. Everything numeric is exact: a criterion holds at equality of
rationals or not at all.
"""

import json

import pytest

from prior_forge import (
    Distribution,
    MoneyPumpWitness,
    ZERO,
    classify_distribution,
    classify_prior,
    classify_trade,
    component_family,
    enumerate_basic_solutions,
    find_acceptable_trade,
    find_agreeable_trade,
    find_common_prior,
    find_multiplayer_money_pump,
    find_single_money_pump,
    find_strong_common_prior,
    find_universal_common_prior,
    is_conglomerable,
    is_disintegrable,
    minimal_components,
    oracle_battery,
    pump_kind,
    rational,
    run_battery,
    uniform,
)
from prior_forge.cli import main as cli_main
from prior_forge.harness import common_prior_program
from prior_forge.model import dot


def q(text):
    return rational(text)


def neg(f):
    return tuple(-rational(v) for v in f)


def point_mass(state, size):
    return Distribution(tuple(1 if i == state else 0 for i in range(size)))


@pytest.fixture(scope="module")
def duality_battery():
    return run_battery(range(10_000))


@pytest.fixture(scope="module")
def lp_oracle_battery():
    return oracle_battery(range(1_000))


def test_criterion_1_single_player_pump(pl):
    p = Distribution((q("1/10"), ZERO, q("9/10")))
    assert is_conglomerable(pl, p)[0]
    assert not is_disintegrable(pl, p)[0]

    witness = find_single_money_pump(pl, p)
    assert witness is not None
    witness.verify(pl)
    assert witness.deficit < ZERO

    # Pinned witness, rescaled by 1/9 to fit the unit box: drains exactly
    # 1/90 per round; the original scale drains 1/10.
    f = (q("-1/9"), rational(1), ZERO)
    manual = MoneyPumpWitness(
        distribution=p,
        payoffs=(f,),
        deficit=q("-1/90"),
        kind=pump_kind(pl, p),
    )
    manual.verify(pl)
    assert dot((rational(-1), rational(9), ZERO), p) == q("-1/10")


def test_criterion_2_intro_classification(intro):
    assert classify_distribution(intro, uniform(5)).base == "common_prior"
    skewed = Distribution((q("1/6"), q("1/6"), q("1/6"), q("1/4"), q("1/4")))
    cls = classify_prior(intro, skewed)
    assert cls.prior_for_player == (True, False)
    assert not cls.common


def test_criterion_3_component_family_and_graded_priors(ex_pl1):
    assert minimal_components(ex_pl1) == ((0,), (3,))
    family = set(component_family(ex_pl1))
    assert family == {(0,), (3,), (0, 3), (0, 1, 2, 3)}

    assert find_common_prior(ex_pl1) is not None
    universal = find_universal_common_prior(ex_pl1)
    assert universal is not None
    assert universal.prior.mass((0,)) > ZERO and universal.prior.mass((3,)) > ZERO
    assert find_strong_common_prior(ex_pl1) is None

    assert find_acceptable_trade(ex_pl1) is not None
    f1 = (0, 1, 1, 0)
    cls = classify_trade(ex_pl1, (f1, neg(f1)))
    assert cls.acceptable and not cls.weakly_agreeable


def test_criterion_4_agreeable_trade_and_pump(ex_pl2):
    assert find_common_prior(ex_pl2) is None
    # The finder returns a trade exactly when its margin objective is > 0.
    trade = find_agreeable_trade(ex_pl2)
    assert trade is not None
    assert classify_trade(ex_pl2, trade.payoffs).agreeable

    f1 = (2, -1, 4, -3)
    assert classify_trade(ex_pl2, (f1, neg(f1))).agreeable

    witness = find_multiplayer_money_pump(ex_pl2, uniform(4))
    assert witness is not None
    witness.verify(ex_pl2)
    assert witness.deficit < ZERO


def test_criterion_5_point_polytope_and_plain_pump(pl4):
    assert find_common_prior(pl4) is not None
    vertices = enumerate_basic_solutions(common_prior_program(pl4))
    assert {v[:-1] for v in vertices if v[-1] == 0} == {(q("1/2"), q("1/2"), ZERO, ZERO)}
    assert find_universal_common_prior(pl4) is None

    f1 = (0, 0, -1, 2)
    cls = classify_trade(pl4, (f1, neg(f1)))
    assert cls.weakly_agreeable and not cls.agreeable

    witness = find_multiplayer_money_pump(pl4, point_mass(2, 4))
    assert witness is not None
    witness.verify(pl4)
    assert witness.kind == "plain"


def test_criterion_6_strong_prior_and_zero_margin(ex_plbet4):
    witness = find_strong_common_prior(ex_plbet4)
    assert witness is not None
    assert witness.prior == Distribution((q("1/4"),) * 4)
    # The zero payoff family is always feasible, so the acceptable-trade
    # optimum is >= 0; the finder returning None means it is not > 0, hence
    # exactly 0.
    assert find_acceptable_trade(ex_plbet4) is None


def test_criterion_7_duality_battery(duality_battery):
    assert duality_battery.structures_checked == 10_000
    # Pinned: a check that stops running, or a new one, shows here.
    assert duality_battery.checks_run == 795_927
    assert duality_battery.failures == ()


def test_criterion_8_lp_oracle_agreement(lp_oracle_battery):
    assert lp_oracle_battery.structures_checked == 1_000
    # Pinned as the duality battery's count is.
    assert lp_oracle_battery.checks_run == 4_408
    assert lp_oracle_battery.failures == ()


def test_criterion_9_certificate_discipline(
    duality_battery, lp_oracle_battery, fixture_path, tmp_path, capsys
):
    # Battery guards convert any failed re-verification into a recorded
    # failure; both sweeps saw none.
    assert duality_battery.passed and lp_oracle_battery.passed

    # Exercise every CLI verdict path on every fixture: only clean exits.
    p_files = {}
    for name, dist in (
        ("u3.json", ["1/3", "1/3", "1/3"]),
        ("u4.json", ["1/4", "1/4", "1/4", "1/4"]),
        ("u5.json", ["1/5", "1/5", "1/5", "1/5", "1/5"]),
    ):
        target = tmp_path / name
        target.write_text(json.dumps({"dist": dist}), encoding="utf-8")
        p_files[len(dist)] = str(target)

    codes = set()
    for name, states in (
        ("intro", 5),
        ("pl", 3),
        ("ex_pl1", 4),
        ("ex_pl2", 4),
        ("pl4", 4),
        ("ex_plbet4", 4),
    ):
        s = str(fixture_path(name))
        p = p_files[states]
        invocations = [
            ["check", s],
            ["components", "--all", s],
            ["prior", "--kind", "common", s],
            ["prior", "--kind", "universal", s],
            ["prior", "--kind", "strong", s],
            ["prior", "--kind", "common", "--check", p, s],
            ["trade", "--kind", "agreeable", s],
            ["trade", "--kind", "weak", s],
            ["trade", "--kind", "acceptable", s],
            ["pump", "--dist", p, s],
            ["classify", "--dist", p, s],
            ["report", "--json", "--all-components", "--dist", p, s],
        ]
        for argv in invocations:
            codes.add(cli_main(argv))
    capsys.readouterr()
    assert 4 not in codes
    assert codes <= {0, 3}
