"""Disintegrability, conglomerability, and the three common prior notions."""

import itertools
import random
from fractions import Fraction

import pytest

from prior_forge import (
    DimensionError,
    Distribution,
    PlayerCountError,
    PriorWitness,
    SizeCapError,
    VerificationError,
    ZERO,
    classify_prior,
    classify_trade,
    disintegrable_by_definition,
    find_common_prior,
    find_multiplayer_money_pump,
    find_single_money_pump,
    find_strong_common_prior,
    find_universal_common_prior,
    hull_weights,
    is_conglomerable,
    is_disintegrable,
    is_maximal,
    is_strongly_maximal,
    make_structure,
    minimal_components,
    rational,
    uniform,
)
from prior_forge.harness import (
    GeneratorConfig,
    acceptable_trade_program,
    agreeable_trade_program,
    common_prior_program,
    component_substructures,
    planted_structure,
    random_structure,
)
from prior_forge.jsonio import dumps_canonical
from prior_forge.lp import solve
from prior_forge.model import fraction_rows, integer_form, state_nums
from prior_forge.priors import blocks, cell_masses
from prior_forge.report import prior_witness_json

from oracles import enumerate_basic_solutions, to_json_value


def q(text):
    return rational(text)


def singletons(m):
    """One player whose cells are the m singleton states."""
    return make_structure(
        [f"w{k}" for k in range(m)],
        ["P1"],
        [[[w] for w in range(m)]],
        [[[1 if v == w else 0 for v in range(m)] for w in range(m)]],
    )


# -- single player ----------------------------------------------------------


def test_pl_conglomerable_not_disintegrable(pl):
    # (1/2, 0, 1/2) sits between the cell types on every event but is not a
    # mixture of (9/10, 1/10, 0) and (0, 0, 1).
    p = Distribution((q("1/2"), ZERO, q("1/2")))
    ok, violating = is_conglomerable(pl, p)
    assert ok and violating is None
    holds, weights = is_disintegrable(pl, p)
    assert not holds and weights is None


def test_pl_disintegrable_point(pl):
    p = Distribution((q("9/20"), q("1/20"), q("1/2")))
    holds, weights = is_disintegrable(pl, p)
    assert holds
    # The hull weights are the cell masses 1/2 and 1/2, as an integer form
    # in lowest terms.
    assert weights == (2, (1, 1))
    assert disintegrable_by_definition(pl, p)


def test_pl_conglomerability_violating_event(pl):
    # Mass 1 on the middle state exceeds every cell's type there.
    p = Distribution((ZERO, rational(1), ZERO))
    ok, violating = is_conglomerable(pl, p)
    assert not ok
    assert violating is not None
    # The reported event really does break the sandwich.
    t_vals = [
        sum((t[w] for w in violating), ZERO) for t in pl.cell_types[0]
    ]
    p_val = sum((p[w] for w in violating), ZERO)
    assert p_val < min(t_vals) or p_val > max(t_vals)


def test_disintegrable_matches_definition_oracle(pl):
    # Closed-form test against the literal product identity on a spread of
    # distributions, including boundary ones.
    candidates = [
        (q("9/20"), q("1/20"), q("1/2")),
        (q("1/2"), ZERO, q("1/2")),
        (q("9/10"), q("1/10"), ZERO),
        (ZERO, ZERO, rational(1)),
        (q("1/3"), q("1/3"), q("1/3")),
        (q("27/40"), q("3/40"), q("1/4")),
    ]
    for values in candidates:
        p = Distribution(values)
        assert is_disintegrable(pl, p)[0] == disintegrable_by_definition(pl, p)


def test_disintegrable_implies_conglomerable(pl):
    p = Distribution((q("27/40"), q("3/40"), q("1/4")))
    assert is_disintegrable(pl, p)[0]
    assert is_conglomerable(pl, p)[0]


def test_single_player_guard(intro):
    p = uniform(intro.num_states)
    for guarded in (is_disintegrable, is_conglomerable, find_single_money_pump):
        with pytest.raises(PlayerCountError, match="^operation needs exactly one player, structure has 2$"):
            guarded(intro, p)


def test_distribution_length_guard(intro, pl):
    """One length check, with one message, behind every function that takes
    a distribution on a structure."""
    guarded = (
        classify_prior,
        is_maximal,
        is_strongly_maximal,
        find_multiplayer_money_pump,
        lambda s, p: hull_weights(s, 0, p),
    )
    for check in guarded:
        with pytest.raises(DimensionError, match="^distribution has 6 entries, structure has 5 states$"):
            check(intro, uniform(6))
    for check in (is_disintegrable, is_conglomerable, find_single_money_pump):
        with pytest.raises(DimensionError, match="^distribution has 4 entries, structure has 3 states$"):
            check(pl, uniform(4))


def test_event_enumeration_cap():
    with pytest.raises(SizeCapError, match="cap 24"):
        is_conglomerable(singletons(25), uniform(25))
    with pytest.raises(SizeCapError, match="cap 20"):
        disintegrable_by_definition(singletons(21), uniform(21))


# -- hull membership --------------------------------------------------------


def test_intro_uniform_is_common(intro):
    p = uniform(5)
    for i in range(2):
        w = hull_weights(intro, i, p)
        assert w is not None
        assert sum(w, ZERO) == 1
    cls = classify_prior(intro, p)
    assert cls.common and cls.universal and cls.strong


def test_intro_player_one_only(intro):
    p = Distribution((q("1/6"), q("1/6"), q("1/6"), q("1/4"), q("1/4")))
    assert hull_weights(intro, 0, p) is not None
    assert hull_weights(intro, 1, p) is None
    cls = classify_prior(intro, p)
    assert cls.prior_for_player == (True, False)
    assert not cls.common


def test_classify_grades(ex_pl1):
    # delta_1 is common but misses the other minimal component.
    delta = Distribution((rational(1), ZERO, ZERO, ZERO))
    cls = classify_prior(ex_pl1, delta)
    assert cls.common and not cls.maximal and not cls.universal
    # The half/half endpoint mix charges both components but not every cell.
    ends = Distribution((q("1/2"), ZERO, ZERO, q("1/2")))
    cls = classify_prior(ex_pl1, ends)
    assert cls.common and cls.maximal and cls.universal
    assert not cls.strongly_maximal and not cls.strong


def test_hull_weights_outside_the_hull(ex_pl1):
    # Player 0's middle cell carries (0, 1/2, 1/2, 0); the forced weights are
    # the cell masses, and only the type's own split reconstructs.
    inside = Distribution((ZERO, q("1/2"), q("1/2"), ZERO))
    assert hull_weights(ex_pl1, 0, inside) == (ZERO, rational(1), ZERO)
    outside = Distribution((ZERO, q("1/4"), q("3/4"), ZERO))
    assert hull_weights(ex_pl1, 0, outside) is None
    assert not classify_prior(ex_pl1, outside).common


def test_prior_witness_verify_rejects_defects(intro):
    # A witness is its prior: one moved off a player's hull fails at the
    # least state where its cell masses miss it, and one over the wrong
    # number of states fails its dimension.
    witness = find_strong_common_prior(intro)
    witness.verify(intro)
    moved = list(witness.prior)
    moved[3] += q("1/10")
    moved[4] -= q("1/10")
    with pytest.raises(VerificationError, match="reconstruct the prior at state 3"):
        PriorWitness(Distribution(moved)).verify(intro)
    with pytest.raises(VerificationError, match="^witness prior has wrong dimension$"):
        PriorWitness(uniform(4)).verify(intro)


# -- finders ----------------------------------------------------------------


def test_finders_on_intro(intro):
    for finder in (find_common_prior, find_universal_common_prior, find_strong_common_prior):
        witness = finder(intro)
        assert witness is not None
        witness.verify(intro)
        cls = classify_prior(intro, witness.prior)
        assert cls.common


def test_finders_on_ex_pl1(ex_pl1):
    assert find_common_prior(ex_pl1) is not None
    universal = find_universal_common_prior(ex_pl1)
    assert universal is not None
    universal.verify(ex_pl1)
    assert classify_prior(ex_pl1, universal.prior).universal
    # No prior can charge the interior cells, so strong fails.
    assert find_strong_common_prior(ex_pl1) is None


def test_finders_on_ex_pl2(ex_pl2):
    assert find_common_prior(ex_pl2) is None
    assert find_universal_common_prior(ex_pl2) is None
    assert find_strong_common_prior(ex_pl2) is None


def test_finders_on_pl4(pl4):
    witness = find_common_prior(pl4)
    assert witness is not None
    assert witness.prior == Distribution((q("1/2"), q("1/2"), ZERO, ZERO))
    assert find_universal_common_prior(pl4) is None
    assert find_strong_common_prior(pl4) is None


def test_finders_on_ex_plbet4(ex_plbet4):
    witness = find_strong_common_prior(ex_plbet4)
    assert witness is not None
    witness.verify(ex_plbet4)
    cls = classify_prior(ex_plbet4, witness.prior)
    assert cls.strong and cls.universal and cls.common


def test_notion_chain_on_fixtures(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    # strong => universal => common, on every fixture.
    for s in (intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
        common = find_common_prior(s)
        universal = find_universal_common_prior(s)
        strong = find_strong_common_prior(s)
        if strong is not None:
            assert universal is not None
        if universal is not None:
            assert common is not None


# -- polytope vertices -------------------------------------------------------


def vertex_priors(structure):
    # The common priors are the margin program's vertices at eps = 0, eps
    # dropped.
    lp = common_prior_program(structure)
    return {v[:-1] for v in enumerate_basic_solutions(lp) if v[-1] == 0}


def test_pl4_polytope_is_a_point(pl4):
    assert vertex_priors(pl4) == {(q("1/2"), q("1/2"), ZERO, ZERO)}


def test_ex_pl1_polytope_vertices(ex_pl1):
    one = rational(1)
    assert vertex_priors(ex_pl1) == {
        (one, ZERO, ZERO, ZERO),
        (ZERO, ZERO, ZERO, one),
    }


def test_ex_pl2_polytope_empty(ex_pl2):
    assert vertex_priors(ex_pl2) == set()


def test_polytope_agrees_with_finder(intro, pl4, ex_pl1, ex_pl2):
    for s in (intro, pl4, ex_pl1, ex_pl2):
        has_vertex = bool(vertex_priors(s))
        assert has_vertex == (find_common_prior(s) is not None)


# -- the closed-form strong prior ---------------------------------------------


def walk_support(walk) -> set:
    """The states of the live blocks: the canonical prior's support."""
    return set(walk.prior.support()) if walk.common else set()


def closed_form_matches_program(structure):
    """The canonical prior of ``blocks`` against the margin program it
    replaces: where every block is live, the same primal, and epsilon the
    prior's least cell mass; None exactly where the program is infeasible
    or has epsilon* = 0. Returns the closed form."""
    walk = blocks(structure)
    closed = None
    if walk.strong:
        nums = state_nums(walk.prior)
        least = min(min(cell_masses(structure, i, nums)) for i in range(structure.num_players))
        closed = (walk.prior, Fraction(least, walk.prior.den))
    out = solve(common_prior_program(structure))
    if closed is None:
        assert out.status == "infeasible" or out.objective_value == ZERO
    else:
        prior, eps = closed
        assert out.status == "optimal"
        assert tuple(out.primal[: structure.num_states]) == prior.probs
        assert out.objective_value == eps > ZERO
    return closed


def test_strong_prior_matches_program_on_fixtures(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    found = {
        name: closed_form_matches_program(s) is not None
        for name, s in (
            ("intro", intro), ("pl", pl), ("ex_pl1", ex_pl1),
            ("ex_pl2", ex_pl2), ("pl4", pl4), ("ex_plbet4", ex_plbet4),
        )
    }
    assert found == {
        "intro": True, "pl": True, "ex_pl1": False,
        "ex_pl2": False, "pl4": False, "ex_plbet4": True,
    }


def test_strong_prior_matches_program_on_generated_structures():
    found = []
    for seed in range(2000):
        structure = random_structure(GeneratorConfig(seed=seed))
        subs = [sub for _, sub in component_substructures(structure) if sub is not structure]
        for sub in (structure, *subs):
            found.append(closed_form_matches_program(sub) is not None)
    # Both sides of the decision are exercised, each many times.
    assert found.count(True) > 1000 and found.count(False) > 1000


@pytest.mark.parametrize("m", (24, 48))
@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("blocks", (1, 2, 4))
def test_strong_prior_on_planted_structures(m, n, blocks):
    structure, planted = planted_structure(m, n, blocks, random.Random(f"{m}:{n}:{blocks}"))
    assert closed_form_matches_program(structure) is not None
    cls = classify_prior(structure, planted)
    assert cls.common and cls.strong


def test_strong_prior_none_on_mixed_charge():
    # P1 charges a only; P2's cell {b} charges b. A common prior exists,
    # (1, 0), but it leaves P2's cell {b} empty: epsilon* = 0.
    s = make_structure(
        ["a", "b"], ["P1", "P2"],
        [[[0, 1]], [[0], [1]]],
        [[[1, 0]], [[1, 0], [0, 1]]],
    )
    assert closed_form_matches_program(s) is None
    assert solve(common_prior_program(s)).objective_value == ZERO


def test_strong_prior_none_on_ratio_cycle():
    # Every state is charged by both players, but the cycle of cells
    # {a,b} - {b,d} - {c,d} - {a,c} gives lambda_{b,d} two values: 3/2 and
    # 3/4 times lambda_{a,b}. No common prior exists at all.
    half, third = q("1/2"), q("1/3")
    s = make_structure(
        ["a", "b", "c", "d"], ["P1", "P2"],
        [[[0, 1], [2, 3]], [[0, 2], [1, 3]]],
        [
            [[half, half, 0, 0], [0, 0, half, half]],
            [[half, 0, half, 0], [0, third, 0, 1 - third]],
        ],
    )
    assert closed_form_matches_program(s) is None
    assert solve(common_prior_program(s)).status == "infeasible"


def test_strong_prior_mixes_closed_blocks_by_least_cell_mass():
    # Blocks {a, b} and {c}. Under q_1 = (1/3, 2/3, 0) the least cell mass
    # is m_1 = 1/3 (P2's {a}); under q_2 = (0, 0, 1) it is m_2 = 1. So
    # mu is proportional to (3, 1) and epsilon* = 1 / (3 + 1).
    s = make_structure(
        ["a", "b", "c"], ["P1", "P2"],
        [[[0, 1], [2]], [[0], [1], [2]]],
        [
            [[q("1/3"), q("2/3"), 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ],
    )
    prior, eps = closed_form_matches_program(s)
    assert prior == Distribution((q("1/4"), q("1/2"), q("1/4")))
    assert eps == q("1/4")
    assert find_strong_common_prior(s).prior == prior


# -- the block walk ----------------------------------------------------------


def grades(structure, payoffs):
    cls = classify_trade(structure, tuple(map(integer_form, payoffs)))
    return cls.is_trade, cls.acceptable, cls.weakly_agreeable, cls.agreeable


def test_blocks_by_hand(ex_pl1, ex_pl2, pl4):
    # ex_pl1: P1's {w2,w3} charges w2 and w3, where P2's cells charge only
    # w1 and w4: a mixed charge at w2 kills its block, and P1 takes 1 there
    # from P2. The blocks in walk order are P1's {w1} with P2's first cell,
    # P1's {w2,w3} alone, and P1's {w4} with P2's second cell; the two linked
    # to a P2 cell are live and meet both minimal components: universal, not
    # strong, and the trade is acceptable only.
    walk = blocks(ex_pl1)
    assert walk.live == (True, False, True)
    assert walk.prior.support() == (0, 3) and is_maximal(ex_pl1, walk.prior) and not walk.strong
    assert walk.prior == Distribution((q("1/2"), ZERO, ZERO, q("1/2")))
    payoffs = fraction_rows(walk.payoff_forms)
    assert payoffs == ((0, 1, 0, 0), (0, -1, 0, 0))
    assert grades(ex_pl1, payoffs) == (True, True, False, False)
    # ex_pl2: one block of all four cells; P2's {w2,w3} charges only w2, so
    # the walk meets a mixed charge at w3 and no block is live: the trade is
    # agreeable.
    walk = blocks(ex_pl2)
    assert walk.live == (False,) and walk_support(walk) == set()
    assert walk.prior is None and find_universal_common_prior(ex_pl2) is None
    assert grades(ex_pl2, fraction_rows(walk.payoff_forms)) == (True, True, True, True)
    # pl4: two blocks, each one cell of P1 and one of P2. {w1,w2} is live;
    # on {w3,w4} P2's type (1, 0) misses w4, a mixed charge. P1 takes 1 at
    # w4 (gain 1/2), then pays P2 1/2 at w3 across the tree edge, so each
    # dead cell gains 1/4. The live support misses the minimal component
    # {w3,w4}: common, not universal, and the trade is weakly agreeable.
    walk = blocks(pl4)
    assert walk.live == (True, False)
    assert walk.prior.support() == (0, 1) and not is_maximal(pl4, walk.prior)
    payoffs = fraction_rows(walk.payoff_forms)
    assert payoffs == ((0, 0, q("-1/2"), 1), (0, 0, q("1/2"), -1))
    assert grades(pl4, payoffs) == (True, True, True, False)


@pytest.mark.parametrize("m", (24, 48))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", ("mixed", "cycle"))
@pytest.mark.parametrize("planted", (1, 2))
def test_blocks_match_the_program_on_broken_planted_structures(
    m, n, kind, planted, broken_planted
):
    structure = broken_planted(m, n, kind, planted)
    walk = blocks(structure)
    assert not walk.strong
    for comp, sub in component_substructures(structure):
        out = solve(common_prior_program(sub))
        feasible = out.status == "optimal"
        assert feasible == (not walk_support(walk).isdisjoint(comp))
        assert (feasible, feasible and out.objective_value > ZERO) == (
            blocks(sub).common, blocks(sub).strong
        )
    out = solve(common_prior_program(structure))
    assert (out.status == "optimal") == walk.common
    assert out.status == "infeasible" or out.objective_value == ZERO
    assert (solve(agreeable_trade_program(structure)).objective_value > ZERO) == (not walk.common)
    assert solve(acceptable_trade_program(structure)).objective_value > ZERO
    universal = find_universal_common_prior(structure) is not None
    payoffs = fraction_rows(walk.payoff_forms)
    assert grades(structure, payoffs) == (True, True, not universal, not walk.common)


def charge_grade_is_the_walks_verdict(structure):
    """The walk decides common, universal and strong by its live blocks; the
    canonical prior's charge grade must decide them the same way."""
    walk = blocks(structure)
    meets = all(not walk_support(walk).isdisjoint(comp) for comp in minimal_components(structure))
    assert (walk.prior is not None) == any(walk.live)
    if walk.prior is None:
        assert not meets and not all(walk.live)
        return
    assert is_maximal(structure, walk.prior) == meets
    assert is_strongly_maximal(structure, walk.prior) == all(walk.live)
    assert find_universal_common_prior(structure) is (find_common_prior(structure) if meets else None)
    assert find_strong_common_prior(structure) is (
        find_common_prior(structure) if all(walk.live) else None
    )


def test_charge_grade_is_the_walks_verdict(
    intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4, broken_planted
):
    structures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    structures += [random_structure(GeneratorConfig(seed=k)) for k in range(200)]
    for key in itertools.product((24, 48), (2, 3), ("mixed", "cycle"), (1, 2)):
        structures.append(broken_planted(*key))
    for structure in structures:
        charge_grade_is_the_walks_verdict(structure)


# -- hull weights as integer forms --------------------------------------------


def _witness_cases(intro, ex_pl1, ex_plbet4):
    """(structure, canonical witness) for fixtures and planted structures."""
    structures = [intro, ex_pl1, ex_plbet4]
    for m, n, k in ((24, 3, 1), (32, 4, 2), (44, 3, 4)):
        structures.append(planted_structure(m, n, k, random.Random(f"forms:{m}:{n}:{k}"))[0])
    return [(s, find_common_prior(s)) for s in structures]


def test_a_witness_from_integer_forms_equals_the_fraction_witness(intro, ex_pl1, ex_plbet4):
    # The walk's witness holds its prior as an integer form; one built from
    # the prior's Fractions compares equal, hashes alike and verifies, and
    # both render the hull weights as the Fraction cell masses of the prior,
    # written by ``to_json_value``.
    for s, witness in _witness_cases(intro, ex_pl1, ex_plbet4):
        twin = PriorWitness(Distribution(witness.prior.probs))
        assert twin == witness and hash(twin) == hash(witness)
        twin.verify(s)
        rows = [
            [sum((witness.prior[w] for w in cell), ZERO) for cell in cells] for cells in s.partitions
        ]
        fraction_text = dumps_canonical(
            {
                "prior": [to_json_value(v) for v in witness.prior.probs],
                "hull_weights": [[to_json_value(v) for v in row] for row in rows],
            }
        )
        assert {dumps_canonical(prior_witness_json(s, w)) for w in (witness, twin)} == {fraction_text}
