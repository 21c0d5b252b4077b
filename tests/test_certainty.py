import functools
import hashlib
import importlib.util
import itertools
import json
import pathlib
import random

import pytest

from prior_forge import (
    Distribution,
    EmptySetError,
    SizeCapError,
    analyze,
    certainty,
    closure,
    component_family,
    forward_closed,
    is_commonly_certain,
    is_maximal,
    is_strongly_maximal,
    make_structure,
    minimal_components,
    parse_structure,
    uniform,
)
from prior_forge.harness import GeneratorConfig, cross_check, planted_structure, random_structure
from prior_forge.jsonio import load_path

from oracles import condensation, reachable, support_graph

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
FIXTURES = ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4")


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
    """Oracle: every nonempty mask over the state-level SCCs, kept when no
    SCC in it has a successor outside it."""
    sccs, successors = condensation(structure)
    k = len(sccs)
    succ_masks = [sum(1 << b for b in succs) for succs in successors]
    family = []
    for mask in range(1, 1 << k):
        if all(not succ_masks[a] & ~mask for a in range(k) if mask >> a & 1):
            members = [w for a in range(k) if mask >> a & 1 for w in sccs[a]]
            family.append(tuple(sorted(members)))
    return tuple(family)


def test_component_family_matches_mask_scan(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    # The same components, each once; the order is Tarjan's on the
    # contracted graph, pinned below.
    structures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    structures += [random_structure(GeneratorConfig(seed=k)) for k in range(2000)]
    structures += [
        random_structure(GeneratorConfig(seed=k, max_states=12, max_players=4))
        for k in range(300)
    ]
    for s in structures:
        assert sorted(component_family(s)) == sorted(_component_family_by_mask_scan(s))


GENERATED_CONFIGS = {"default": {}, "16/4": {"max_states": 16, "max_players": 4}}

# sha256 of component_family over generator seeds 0..2999, one JSON line
# per seed, at each config.
PINNED_COMPONENT_FAMILIES = {
    "default": "852211cbbca860b901a7d3a8791bdf1b115cda7acbc14fdc7dc5b5655a08c49a",
    "16/4": "913465dab34b109b27695f26ec0b734bff8dc47e0ead7d58a1a1494c3191e44e",
}


@functools.cache
def _generated(config):
    kw = GENERATED_CONFIGS[config]
    return tuple(random_structure(GeneratorConfig(seed=seed, **kw)) for seed in range(3000))


@pytest.mark.parametrize("config", list(GENERATED_CONFIGS))
def test_component_families_are_pinned(config):
    lines = "".join(
        json.dumps(component_family(s), separators=(",", ":")) + "\n" for s in _generated(config)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_COMPONENT_FAMILIES[config]


def test_closures_and_minimal_components_match_the_state_graph(fixture_path, broken_planted):
    structures = [parse_structure(load_path(fixture_path(name))) for name in FIXTURES]
    for config in GENERATED_CONFIGS:
        structures += _generated(config)
    for m, n, k in itertools.product((24, 48), (2, 3), (1, 2)):
        structures.append(planted_structure(m, n, k, random.Random(f"closure:{m}:{n}:{k}"))[0])
        for kind in ("mixed", "cycle"):
            structures.append(broken_planted(m, n, kind, k))
    for s in structures:
        reach = reachable(support_graph(s))
        assert [closure(s, w) for w in range(s.num_states)] == list(reach)
        assert minimal_components(s) == _bottom_sccs(s)


def test_each_structure_builds_its_graph_once(fixture_path, monkeypatch):
    # Every reader, over every route, shares one memoized graph per
    # structure object; a substructure is an object of its own.
    built = []
    contract = certainty._contract

    def spy(structure):
        built.append(structure)
        return contract(structure)

    monkeypatch.setattr(certainty, "_contract", spy)
    structures = [parse_structure(load_path(fixture_path(name))) for name in FIXTURES]
    structures += [random_structure(GeneratorConfig(seed=seed)) for seed in range(200)]
    for s in structures:
        cross_check(s)
        analyze(s, all_components=True)
        for w in range(s.num_states):
            closure(s, w)
    assert all(any(b is s for b in built) for s in structures)
    assert len({id(b) for b in built}) == len(built)


def test_every_minimal_component_is_forward_closed(intro, ex_pl2, pl4, ex_plbet4):
    for s in (intro, ex_pl2, pl4, ex_plbet4):
        for comp in minimal_components(s):
            assert forward_closed(s, comp)


def _bottom_sccs(structure):
    """The bottom strongly connected components of the state-level support
    graph, ordered by least state: the oracle of the contracted search."""
    sccs, successors = condensation(structure)
    return tuple(tuple(comp) for comp, succ in zip(sccs, successors) if not succ)


@pytest.mark.parametrize(
    "sizes, seeds",
    [((6, 3, 6), 2000), ((12, 4, 6), 1500), ((16, 4, 3), 1500), ((8, 2, 2), 1500)],
    ids=["default", "12-4-6", "16-4-3", "8-2-2"],
)
def test_minimal_components_are_the_bottom_sccs_on_generated_structures(sizes, seeds):
    m, n, bound = sizes
    for seed in range(seeds):
        s = random_structure(GeneratorConfig(seed, m, n, bound))
        assert minimal_components(s) == _bottom_sccs(s), seed


def test_minimal_components_are_the_bottom_sccs_on_fixtures_and_benchmark_inputs(
    fixture_path, monkeypatch
):
    # The fixtures, and the 36 operations of the seed-1 planted_large
    # benchmark workload (its 12 design cells, 3 replicates each).
    structures = [parse_structure(load_path(fixture_path(name))) for name in FIXTURES]
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports gen
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.make_inputs("planted_large", 1)["ops"]
    assert len(ops) == 36
    structures += [parse_structure(json.loads(op["structure"])) for op in ops]
    for s in structures:
        assert minimal_components(s) == _bottom_sccs(s)
