import pytest

from prior_forge import (
    Distribution,
    EmptySetError,
    SizeCapError,
    closure,
    component_family,
    forward_closed,
    is_commonly_certain,
    is_maximal,
    is_strongly_maximal,
    make_structure,
    minimal_components,
    support_graph,
    uniform,
)
from prior_forge.certainty import _condensation
from prior_forge.harness import GeneratorConfig, random_structure


def singletons(m):
    """One player whose cells are the m singleton states."""
    return make_structure(
        [f"w{k}" for k in range(m)],
        ["P1"],
        [[[w] for w in range(m)]],
        [[[1 if v == w else 0 for v in range(m)] for w in range(m)]],
    )


def test_support_graph_union_of_supports(ex_pl1):
    adj = support_graph(ex_pl1)
    # At w2 Anne's side looks at {w2,w3} while the other player points back at w1.
    assert adj[0] == (0,)
    assert adj[1] == (0, 1, 2)
    assert adj[3] == (3,)


def test_components_of_ex_pl1(ex_pl1):
    assert minimal_components(ex_pl1) == ((0,), (3,))
    family = set(component_family(ex_pl1))
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


def test_component_family_cap():
    one_cell = make_structure([f"w{k}" for k in range(20)], ["P1"], [[range(20)]], [[uniform(20)]])
    assert component_family(one_cell) == (tuple(range(20)),)
    with pytest.raises(SizeCapError, match="cap 20"):
        component_family(singletons(21))


def _component_family_by_mask_scan(structure):
    """Oracle: every nonempty SCC mask in increasing order, kept when no SCC
    in it has a successor outside it."""
    sccs, successors = _condensation(structure)
    k = len(sccs)
    succ_masks = [sum(1 << b for b in succs) for succs in successors]
    family = []
    for mask in range(1, 1 << k):
        if all(not succ_masks[a] & ~mask for a in range(k) if mask >> a & 1):
            members = [w for a in range(k) if mask >> a & 1 for w in sccs[a]]
            family.append(tuple(sorted(members)))
    return tuple(family)


def test_component_family_matches_mask_scan(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    structures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    structures += [random_structure(GeneratorConfig(seed=k)) for k in range(2000)]
    structures += [
        random_structure(GeneratorConfig(seed=k, max_states=12, max_players=4))
        for k in range(300)
    ]
    for s in structures:
        assert component_family(s) == _component_family_by_mask_scan(s)


def test_every_minimal_component_is_forward_closed(intro, ex_pl2, pl4, ex_plbet4):
    for s in (intro, ex_pl2, pl4, ex_plbet4):
        for comp in minimal_components(s):
            assert forward_closed(s, comp)
