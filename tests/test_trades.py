"""Trades, semi-trades, money pumps, and the prior/trade dualities."""

import hashlib
import json
import random

import pytest

from prior_forge import (
    DimensionError,
    Distribution,
    InconsistencyError,
    MoneyPumpWitness,
    Trade,
    VerificationError,
    ZERO,
    build_prior_report,
    classify_distribution,
    classify_trade,
    find_acceptable_trade,
    find_agreeable_trade,
    find_common_prior,
    find_multiplayer_money_pump,
    find_single_money_pump,
    find_strong_common_prior,
    find_universal_common_prior,
    find_weakly_agreeable_trade,
    is_disintegrable,
    make_structure,
    minimal_components,
    parse_structure,
    pump_kind,
    rational,
    uniform,
)
from prior_forge import lp, priors, trades
from prior_forge.harness import (
    GeneratorConfig,
    component_substructures,
    cross_check,
    pump_piece_program,
    random_structure,
)
from prior_forge.lp import solve
from prior_forge.model import dot
from prior_forge.priors import NOTIONS

from oracles import dense_expectation_table


def q(text):
    return rational(text)


def neg(f):
    return tuple(-rational(v) for v in f)


def point_mass(state, size):
    return Distribution(tuple(1 if i == state else 0 for i in range(size)))


# -- payoff containers -------------------------------------------------------


def test_trade_rejects_positive_sum():
    with pytest.raises(InconsistencyError):
        Trade(((1, 0), (0, 0)))
    # Strictly negative sums are allowed: zero-sum "with slack".
    Trade(((1, -1), (-2, 0)))


def test_semi_trade_allows_any_sum():
    # A pump witness's rows are a semi-trade: no sum constraint, so rows
    # summing to 2 > 0 at the first state are coerced, not rejected.
    witness = MoneyPumpWitness(uniform(2), ((1, 0), (1, 0)), ZERO, "plain")
    assert witness.payoffs[0] == (rational(1), ZERO)


def test_trade_dimension_checks():
    from prior_forge import DimensionError

    with pytest.raises(DimensionError):
        Trade(())
    with pytest.raises(DimensionError):
        Trade(((1, -1), (0,)))


def test_expectation_table(ex_pl1):
    f1 = (0, 1, 1, 0)
    table = classify_trade(ex_pl1, (f1, neg(f1))).expectations
    # Player 1 expects 1 inside the middle cell, 0 at the endpoints.
    assert table[0] == (ZERO, rational(1), rational(1), ZERO)
    # Player 2's point-mass types only see the endpoint payoffs, both 0.
    assert table[1] == (ZERO, ZERO, ZERO, ZERO)


# -- classification of pinned payoff families --------------------------------


def test_acceptable_not_weakly_agreeable(ex_pl1):
    f1 = (0, 1, 1, 0)
    cls = classify_trade(ex_pl1, (f1, neg(f1)))
    assert cls.is_trade and cls.is_semi_trade
    assert cls.acceptable
    assert not cls.weakly_agreeable and cls.agreeable_component is None
    assert not cls.agreeable
    assert cls.expectations[0][1] > 0


def test_agreeable_family(ex_pl2):
    f1 = (2, -1, 4, -3)
    cls = classify_trade(ex_pl2, (f1, neg(f1)))
    assert cls.agreeable
    assert cls.weakly_agreeable and cls.acceptable and cls.is_trade
    assert all(e > ZERO for row in cls.expectations for e in row)


def test_weakly_agreeable_not_agreeable(pl4):
    f1 = (0, 0, -1, 2)
    cls = classify_trade(pl4, (f1, neg(f1)))
    assert cls.weakly_agreeable
    assert cls.agreeable_component == (2, 3)
    assert not cls.agreeable
    assert cls.acceptable


def test_classification_flags_independent(ex_pl1):
    # A family violating the sum constraint still gets expectation flags.
    f1 = (1, 1, 1, 1)
    cls = classify_trade(ex_pl1, (f1, f1))
    assert not cls.is_trade
    assert cls.is_semi_trade and cls.agreeable


def test_classify_trade_flags_match_their_definitions(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    # Every flag read entry by entry off the term-by-term expectation table,
    # on random payoff families whose entries start at -2, 0 or 1, so that
    # negative, zero and strictly positive expectations all occur.
    rng = random.Random(14)
    structures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    structures += [random_structure(GeneratorConfig(seed=k)) for k in range(200)]
    for s in structures:
        n, m = s.num_players, s.num_states
        for lo in (-2, 0, 1):
            payoffs = [[rng.randint(lo, 2) for _ in range(m)] for _ in range(n)]
            table = dense_expectation_table(s, payoffs)
            gain = any(e > ZERO for row in table for e in row)
            semi = all(e >= ZERO for row in table for e in row)
            positive = [all(table[i][w] > ZERO for i in range(n)) for w in range(m)]
            comp = next((c for c in minimal_components(s) if all(positive[w] for w in c)), None)
            cls = classify_trade(s, payoffs)
            assert cls.expectations == tuple(map(tuple, table))
            assert cls.is_trade == all(sum(f[w] for f in payoffs) <= 0 for w in range(m))
            assert (cls.is_semi_trade, cls.acceptable) == (semi, semi and gain)
            assert (cls.agreeable, cls.weakly_agreeable) == (all(positive), comp is not None)
            assert cls.agreeable_component == comp


# -- trade synthesis ---------------------------------------------------------


def test_agreeable_finder(intro, ex_pl1, ex_pl2, pl4, ex_plbet4):
    trade = find_agreeable_trade(ex_pl2)
    assert trade is not None
    assert classify_trade(ex_pl2, trade.payoffs).agreeable
    # Structures with a common prior admit no agreeable trade.
    for s in (intro, ex_pl1, pl4, ex_plbet4):
        assert find_agreeable_trade(s) is None


def test_weakly_agreeable_finder(intro, ex_pl1, ex_pl2, pl4, ex_plbet4):
    trade = find_weakly_agreeable_trade(pl4)
    assert trade is not None
    cls = classify_trade(pl4, trade.payoffs)
    assert cls.weakly_agreeable and cls.agreeable_component == (2, 3)
    assert find_weakly_agreeable_trade(ex_pl2) is not None
    for s in (intro, ex_pl1, ex_plbet4):
        assert find_weakly_agreeable_trade(s) is None


def test_acceptable_finder(intro, ex_pl1, ex_pl2, pl4, ex_plbet4):
    trade = find_acceptable_trade(ex_pl1)
    assert trade is not None
    assert classify_trade(ex_pl1, trade.payoffs).acceptable
    assert find_acceptable_trade(pl4) is not None
    assert find_acceptable_trade(ex_pl2) is not None
    for s in (intro, ex_plbet4):
        assert find_acceptable_trade(s) is None


def test_trade_finders_raise_on_a_missing_block_trade(fixture_path, monkeypatch):
    # intro has a strong prior, so every block is live and the walk builds no
    # trade. A trade finder whose prior finder (wrongly) returned None must
    # fail verification, not crash on the missing payoffs.
    s = parse_structure(json.loads(fixture_path("intro").read_text(encoding="utf-8")))
    monkeypatch.setattr(trades, "find_prior", lambda structure, notion: None)
    for finder in (find_agreeable_trade, find_weakly_agreeable_trade, find_acceptable_trade):
        with pytest.raises(VerificationError, match="every block is live"):
            finder(s)


def test_trade_chain(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    # agreeable => weakly agreeable => acceptable, as existence statements.
    for s in (intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
        if find_agreeable_trade(s) is not None:
            assert find_weakly_agreeable_trade(s) is not None
        if find_weakly_agreeable_trade(s) is not None:
            assert find_acceptable_trade(s) is not None


@pytest.mark.parametrize("name", ["ex_pl2", "pl4"])
def test_trade_finders_reuse_the_prior_programs(fixture_path, monkeypatch, name):
    # A freshly parsed structure, so no memo from another test applies.
    s = parse_structure(json.loads(fixture_path(name).read_text(encoding="utf-8")))
    solved = []

    def counting_solve(program):
        solved.append(program)
        return solve(program)

    graded = []

    def counting_classify(structure, payoffs):
        graded.append(payoffs)
        return classify_trade(structure, payoffs)

    monkeypatch.setattr(lp, "solve", counting_solve)
    monkeypatch.setattr(trades, "classify_trade", counting_classify)
    find_common_prior(s)
    find_universal_common_prior(s)
    find_strong_common_prior(s)
    # The trade finders read the same memoized block walk as the prior
    # finders: one trade, walked once and graded once.
    walk = s.derived("blocks", lambda _: None)
    agreeable = find_agreeable_trade(s)
    weak = find_weakly_agreeable_trade(s)
    acceptable = find_acceptable_trade(s)
    assert s.derived("blocks", lambda _: None) is walk is not None
    assert solved == []
    # Graded once, from the fixed forms of the finders' one Trade.
    assert len(graded) == 1 and graded[0] is acceptable
    assert acceptable.payoffs == walk.payoffs
    # ex_pl2 has no common prior; pl4 has one but no universal one, and its
    # weakly agreeable and acceptable trades are the same block trade.
    assert (find_common_prior(s) is None) == (name == "ex_pl2")
    assert (agreeable is None) == (name == "pl4")
    assert weak.payoffs == acceptable.payoffs == walk.payoffs


def test_classify_trade_reads_a_trades_fixed_forms(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    graded = 0
    for s in (intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
        trade = find_acceptable_trade(s)
        if trade is not None:
            assert classify_trade(s, trade) == classify_trade(s, trade.payoffs)
            graded += 1
    assert graded == 3
    with pytest.raises(DimensionError):
        classify_trade(pl, Trade(((0, 0), (0, 0))))


def test_certificate_trades_fill_the_box(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    refuted = 0
    for s in (intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
        for sub in {s, *(sub for _, sub in component_substructures(s))}:
            if find_common_prior(sub) is None:
                trade = find_agreeable_trade(sub)
                assert classify_trade(sub, trade.payoffs).agreeable
                assert max(abs(v) for f in trade.payoffs for v in f) == 1
                refuted += 1
    assert refuted >= 2  # ex_pl2, and pl4's component {w3, w4}


# sha256 over the common, universal and strong refutations below, each
# rational written by ``str``; any change of a refuting trade's bytes shows.
PINNED_REFUTATIONS = "fe960194b08a2d88dd82d6798784f3146c95610f6f2364848e49c2c3548c833a"


def test_refuting_trades_are_pinned(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    structures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    structures += [random_structure(GeneratorConfig(seed=k)) for k in range(200)]
    digest = hashlib.sha256()
    for s in structures:
        report = build_prior_report(s)
        for trade in (
            report.common_refutation,
            report.universal_refutation,
            report.strong_refutation,
        ):
            text = "-" if trade is None else "|".join(
                ",".join(map(str, f)) for f in trade.payoffs
            )
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == PINNED_REFUTATIONS


# -- money pumps -------------------------------------------------------------


def test_single_pump_pinned_example(pl):
    p = Distribution((q("1/10"), ZERO, q("9/10")))
    witness = find_single_money_pump(pl, p)
    assert witness is not None
    witness.verify(pl)
    assert witness.deficit < ZERO

    # Hand-built witness at the pinned scale: f = (-1, 9, 0) / 9.
    f = (q("-1/9"), rational(1), ZERO)
    manual = MoneyPumpWitness(
        distribution=p,
        payoffs=(f,),
        deficit=q("-1/90"),
        kind=pump_kind(pl, p),
    )
    manual.verify(pl)
    # The unscaled vector drains ten times as much per round.
    assert dot((rational(-1), rational(9), ZERO), p) == q("-1/10")


def test_pump_witness_verify_rejects_defects(pl):
    p = Distribution((q("1/10"), ZERO, q("9/10")))
    f = (q("-1/9"), rational(1), ZERO)
    MoneyPumpWitness(p, (f,), q("-1/90"), "strong").verify(pl)
    # p' = (0, 1, 0) misses the cell {w3}, a minimal component: a pump, but
    # only a plain one.
    p_plain = Distribution((ZERO, rational(1), ZERO))
    f_plain = (q("1/9"), rational(-1), ZERO)
    MoneyPumpWitness(p_plain, (f_plain,), rational(-1), "plain").verify(pl)
    for witness, message in (
        (MoneyPumpWitness(p, (f, f), q("-1/45"), "strong"), "wrong player count"),
        (MoneyPumpWitness(p, ((0, 0),), ZERO, "strong"), "wrong state count"),
        (MoneyPumpWitness(p, ((-1, 0, 0),), q("-1/10"), "strong"), "player 0 expects"),
        (MoneyPumpWitness(p, (f,), q("-1/45"), "strong"), "stored deficit -1/45"),
        (MoneyPumpWitness(p, ((0, 0, 0),), ZERO, "strong"), "is not negative"),
        (MoneyPumpWitness(p, (f,), q("-1/90"), "huge"), "unknown pump kind"),
        (
            MoneyPumpWitness(p_plain, (f_plain,), rational(-1), "universal"),
            "universal pump distribution fails is_maximal",
        ),
        (
            MoneyPumpWitness(p_plain, (f_plain,), rational(-1), "strong"),
            "strong pump distribution fails is_strongly_maximal",
        ),
    ):
        with pytest.raises(VerificationError, match=message):
            witness.verify(pl)


def test_single_pump_absent_for_priors(pl):
    p = Distribution((q("9/20"), q("1/20"), q("1/2")))
    assert find_single_money_pump(pl, p) is None


def single_player_pump_duality(structure, dist):
    """Exactly one of {disintegrable, pump exists}."""
    disintegrable, _ = is_disintegrable(structure, dist)
    pump = find_single_money_pump(structure, dist)
    return disintegrable != (pump is not None)


def test_single_pump_duality(pl):
    for values in (
        (q("1/10"), ZERO, q("9/10")),
        (q("9/20"), q("1/20"), q("1/2")),
        (q("1/2"), ZERO, q("1/2")),
        (rational(1), ZERO, ZERO),
        (q("1/3"), q("1/3"), q("1/3")),
    ):
        assert single_player_pump_duality(pl, Distribution(values))


def test_closed_form_pump_ties_and_fractional_stop():
    # Cell {a,b}: t = (1/2, 1/2) and p = (3/8, 3/8) tie at ratio 3/4, so the
    # lower index is raised to +1 and b stays at -1. Cell {c,d}: d has the
    # lower ratio (1/6 < 1/2) and stops part way, at 1/3.
    s = make_structure(
        ["a", "b", "c", "d"],
        ["P1"],
        [[[0, 1], [2, 3]]],
        [[("1/2", "1/2", 0, 0), (0, 0, "1/4", "3/4")]],
    )
    p = Distribution((q("3/8"), q("3/8"), q("1/8"), q("1/8")))
    witness = find_single_money_pump(s, p)
    assert witness.payoffs == ((1, -1, -1, q("1/3")),)
    assert witness.deficit == q("-1/12")
    oracle = solve(pump_piece_program(s, 0, p))
    assert oracle.objective_value == witness.deficit


def test_multiplayer_pump_on_ex_pl2(ex_pl2):
    p = uniform(4)
    witness = find_multiplayer_money_pump(ex_pl2, p)
    assert witness is not None
    witness.verify(ex_pl2)
    assert witness.kind == "strong"
    assert witness.deficit < ZERO


def test_plain_pump_on_pl4(pl4):
    p = point_mass(2, 4)
    witness = find_multiplayer_money_pump(pl4, p)
    assert witness is not None
    witness.verify(pl4)
    assert witness.kind == "plain"


def test_no_pump_for_common_priors(ex_pl1, intro):
    ends = Distribution((q("1/2"), ZERO, ZERO, q("1/2")))
    assert find_multiplayer_money_pump(ex_pl1, ends) is None
    assert find_multiplayer_money_pump(intro, uniform(5)) is None


def test_pump_kind_is_read_only_for_a_search_that_pumps(
    intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4, monkeypatch
):
    calls = []

    def counted(structure, dist):
        calls.append(dist)
        return pump_kind(structure, dist)

    monkeypatch.setattr(trades, "pump_kind", counted)
    held = 0
    for s in (intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
        witness = find_common_prior(s)
        if witness is not None:
            held += 1
            assert find_multiplayer_money_pump(s, witness.prior) is None
    assert held == 5
    assert calls == []
    pump = find_multiplayer_money_pump(ex_pl2, uniform(4))
    assert pump is not None and pump.kind == "strong"
    assert calls == [uniform(4)]


def test_a_pump_search_builds_its_witness_only_when_it_pumps(monkeypatch):
    """Over battery seeds 1000..1099, ``cross_check`` makes 1,088 pump
    searches and 712 of them pump: each pumping search builds the one
    witness it returns, and a search that does not pump builds none."""
    built, found = [], []

    class Counted(MoneyPumpWitness):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    search = trades._pump_search

    def spied(structure, dist):
        found.append(search(structure, dist))
        return found[-1]

    monkeypatch.setattr(trades, "MoneyPumpWitness", Counted)
    monkeypatch.setattr(trades, "_pump_search", spied)
    for seed in range(1000, 1100):
        assert cross_check(random_structure(GeneratorConfig(seed=seed))).passed
    pumped = [w for w in found if w is not None]
    assert (len(found), len(pumped), len(built)) == (1088, 712, 712)
    assert all(a is b for a, b in zip(built, pumped))


def test_a_pumping_search_derives_each_row_form_once(monkeypatch):
    """Over battery seeds 1000..1099, every pumping search derives the
    integer form of each of its rows once: for the deficit, and the witness
    keeps that form instead of deriving it again."""
    derived, counts = [], []
    form, search = trades.integer_form, trades._pump_search

    def counted_form(values):
        derived.append(values)
        return form(values)

    def spied(structure, dist):
        derived.clear()
        witness = search(structure, dist)
        if witness is not None:
            counts.append((len(derived), structure.num_players))
        return witness

    monkeypatch.setattr(trades, "integer_form", counted_form)
    monkeypatch.setattr(trades, "_pump_search", spied)
    for seed in range(1000, 1100):
        assert cross_check(random_structure(GeneratorConfig(seed=seed))).passed
    assert len(counts) == 712
    assert all(rows == players for rows, players in counts)


def test_pump_kind_grades(ex_pl1, pl):
    ends = Distribution((q("1/2"), ZERO, ZERO, q("1/2")))
    assert pump_kind(ex_pl1, ends) == "universal"
    assert pump_kind(ex_pl1, point_mass(0, 4)) == "plain"
    assert pump_kind(pl, Distribution((q("1/10"), ZERO, q("9/10")))) == "strong"


# -- theorem-level case splits ------------------------------------------------


def test_classify_distribution_prior_side(intro):
    verdict = classify_distribution(intro, uniform(5))
    assert verdict.base == "common_prior"
    assert verdict.universal == "universal_common_prior"
    assert verdict.strong == "strong_common_prior"
    assert verdict.prior_witness is not None and verdict.pump_witness is None


def test_classify_distribution_asks_each_players_hull_weights_once(intro, monkeypatch):
    # The hull weights are computed on ints by ``hull_form``; the witness
    # takes the classification's forms.
    calls = []
    real = priors.hull_form

    def counting(structure, player, dist):
        calls.append(player)
        return real(structure, player, dist)

    monkeypatch.setattr(priors, "hull_form", counting)
    verdict = classify_distribution(intro, uniform(5))
    assert sorted(calls) == [0, 1]
    assert verdict.prior_witness.hull_weights == verdict.classification.hull_weights
    assert verdict.prior_witness.weight_forms == verdict.classification.weight_forms


def test_classify_distribution_pump_side(pl4):
    verdict = classify_distribution(pl4, uniform(4))
    assert verdict.base == "money_pump"
    assert verdict.universal == "universal_money_pump"
    assert verdict.strong == "strong_money_pump"
    assert verdict.pump_witness is not None


def test_classify_distribution_ungraded(ex_pl1):
    # delta_1 is a common prior but charges only one component: the graded
    # verdicts stay unset.
    verdict = classify_distribution(ex_pl1, point_mass(0, 4))
    assert verdict.base == "common_prior"
    assert verdict.universal is None and verdict.strong is None


def test_build_prior_report_all_absent(ex_pl2):
    report = build_prior_report(ex_pl2)
    assert report.common_prior is None
    assert report.universal_common_prior is None
    assert report.strong_common_prior is None
    assert classify_trade(ex_pl2, report.common_refutation.payoffs).agreeable
    assert classify_trade(ex_pl2, report.universal_refutation.payoffs).weakly_agreeable
    assert classify_trade(ex_pl2, report.strong_refutation.payoffs).acceptable


def test_build_prior_report_mixed(ex_pl1):
    report = build_prior_report(ex_pl1)
    assert report.common_prior is not None
    assert report.universal_common_prior is not None
    assert report.strong_common_prior is None
    assert report.common_refutation is None
    assert report.universal_refutation is None
    assert classify_trade(ex_pl1, report.strong_refutation.payoffs).acceptable


def test_prior_report_matches_the_finders(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    # Notion by notion, the report's witness is the prior finder's and its
    # refutation has the dual trade finder's payoffs.
    finders = {
        "common": (find_common_prior, find_agreeable_trade),
        "universal": (find_universal_common_prior, find_weakly_agreeable_trade),
        "strong": (find_strong_common_prior, find_acceptable_trade),
    }
    structures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    structures += [random_structure(GeneratorConfig(seed=k)) for k in range(200)]
    for s in structures:
        report = build_prior_report(s)
        for notion in NOTIONS:
            witness, refutation = report.notion(notion.key)
            find_prior, find_trade = finders[notion.key]
            found, trade = find_prior(s), find_trade(s)
            assert (witness is None) == (found is None)
            if found is not None:
                assert (witness.prior, witness.hull_weights) == (found.prior, found.hull_weights)
            assert (refutation is None) == (trade is None)
            if trade is not None:
                assert refutation.payoffs == trade.payoffs
