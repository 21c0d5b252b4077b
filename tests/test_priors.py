"""Disintegrability, conglomerability, and the three common prior notions."""

import pytest

from prior_forge import (
    Distribution,
    PlayerCountError,
    SizeCapError,
    ZERO,
    classify_prior,
    disintegrable_by_definition,
    enumerate_basic_solutions,
    find_common_prior,
    find_strong_common_prior,
    find_universal_common_prior,
    hull_weights,
    is_conglomerable,
    is_disintegrable,
    rational,
    single_player_prior,
    uniform,
)
from prior_forge.priors import common_prior_program


def q(text):
    return rational(text)


# -- single player ----------------------------------------------------------


def test_pl_conglomerable_not_disintegrable(pl):
    # (1/2, 0, 1/2) sits between the cell types on every event but is not a
    # mixture of (9/10, 1/10, 0) and (0, 0, 1).
    p = Distribution((q("1/2"), ZERO, q("1/2")))
    ok, violating = is_conglomerable(pl, p)
    assert ok and violating is None
    holds, weights = is_disintegrable(pl, p)
    assert not holds and weights is None
    assert not single_player_prior(pl, p)


def test_pl_disintegrable_point(pl):
    p = Distribution((q("9/20"), q("1/20"), q("1/2")))
    holds, weights = is_disintegrable(pl, p)
    assert holds
    assert weights == (q("1/2"), q("1/2"))
    assert disintegrable_by_definition(pl, p)


def test_pl_conglomerability_violating_event(pl):
    # Mass 1 on the middle state exceeds every cell's type there.
    p = Distribution((ZERO, rational(1), ZERO))
    ok, violating = is_conglomerable(pl, p)
    assert not ok
    assert violating is not None
    # The reported event really does break the sandwich.
    t_vals = [
        sum((pl.type_of_cell(0, c)[w] for w in violating), ZERO)
        for c in range(pl.num_cells(0))
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
    with pytest.raises(PlayerCountError):
        is_disintegrable(intro, p)
    with pytest.raises(PlayerCountError):
        is_conglomerable(intro, p)


def test_event_enumeration_cap(pl):
    p = Distribution((q("1/2"), ZERO, q("1/2")))
    with pytest.raises(SizeCapError):
        is_conglomerable(pl, p, max_states=2)
    with pytest.raises(SizeCapError):
        disintegrable_by_definition(pl, p, max_states=2)


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
