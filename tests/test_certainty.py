import pytest

from prior_forge import (
    Distribution,
    EmptySetError,
    SizeCapError,
    component_catalog,
    closure,
    forward_closed,
    is_commonly_certain,
    is_maximal,
    is_strongly_maximal,
    make_structure,
    minimal_components,
    support_graph,
    uniform,
)


def test_support_graph_union_of_supports(ex_pl1):
    adj = support_graph(ex_pl1).adjacency
    # At w2 Anne's side looks at {w2,w3} while the other player points back at w1.
    assert adj[0] == (0,)
    assert adj[1] == (0, 1, 2)
    assert adj[3] == (3,)


def test_components_of_ex_pl1(ex_pl1):
    assert minimal_components(ex_pl1) == ((0,), (3,))
    family = set(component_catalog(ex_pl1).iter_all())
    assert family == {(0,), (3,), (0, 3), (0, 1, 2, 3)}


def test_minimal_components_singleton_whole_space(pl4):
    assert minimal_components(pl4) == ((0, 1), (2, 3))


def test_closure_reaches_down(ex_pl1):
    assert closure(ex_pl1, 1) == (0, 1, 2, 3)
    assert closure(ex_pl1, 0) == (0,)
    assert forward_closed(ex_pl1, closure(ex_pl1, 1))


def test_is_commonly_certain(ex_pl1):
    # {w1} is commonly certain at w1 but at no other state.
    assert is_commonly_certain(ex_pl1, (0,), 0)
    assert not is_commonly_certain(ex_pl1, (0,), 1)
    assert is_commonly_certain(ex_pl1, (0, 1, 2, 3), 2)
    with pytest.raises(EmptySetError):
        is_commonly_certain(ex_pl1, (), 0)


def test_maximality_flags(ex_pl1):
    half = Distribution(("1/2", 0, 0, "1/2"))
    delta1 = Distribution((1, 0, 0, 0))
    u = uniform(4)
    assert is_maximal(ex_pl1, half)
    assert not is_maximal(ex_pl1, delta1)
    assert not is_strongly_maximal(ex_pl1, half)
    assert is_strongly_maximal(ex_pl1, u)


def test_component_catalog_cap():
    s = make_structure(["a", "b"], ["P1"], [[[0], [1]]], [[(1, 0), (0, 1)]])
    with pytest.raises(SizeCapError):
        component_catalog(s, max_states=1)


def test_every_minimal_component_is_forward_closed(intro, ex_pl2, pl4, ex_plbet4):
    for s in (intro, ex_pl2, pl4, ex_plbet4):
        for comp in minimal_components(s):
            assert forward_closed(s, comp)
