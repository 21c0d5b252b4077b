import copy
import dataclasses
import json
import pickle
import sys
from fractions import Fraction

import pytest

from prior_forge import (
    DimensionError,
    Distribution,
    EmptySetError,
    InformationStructure,
    PartitionError,
    SchemaError,
    StochasticityError,
    SupportError,
    forward_closed,
    induced_substructure,
    make_structure,
    single_player_view,
    uniform,
)
from prior_forge import harness, lp, priors, report
from prior_forge.errors import NotAComponentError
from prior_forge.harness import GeneratorConfig, random_structure
from prior_forge.jsonio import parse_structure
from prior_forge.model import Frozen

from oracles import dense_dot

FIXTURES = ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4")


def restrict_distribution(d, subset):
    """Masses of ``d`` on ``subset`` (not renormalized)."""
    return tuple(d[s] for s in subset)


def test_distribution_rejects_floats():
    with pytest.raises(TypeError):
        Distribution((0.5, 0.5))


def test_distribution_rejects_negative_and_bad_sum():
    with pytest.raises(StochasticityError):
        Distribution(("-1/2", "3/2"))
    with pytest.raises(StochasticityError):
        Distribution(("1/2", "1/3"))


def test_distribution_accepts_strings_and_ints():
    d = Distribution(("1/2", "1/2", 0))
    assert d.support() == (0, 1)
    assert d.mass((0, 2)) == d[0]


def test_from_support_holds_the_support_only():
    d = Distribution.from_support(5, {3: "1/3", 1: Fraction(2, 3), 4: 0})
    dense = Distribution((0, "2/3", 0, "1/3", 0))
    assert d == dense
    assert (d.size, d.den, tuple(d.items()), d.support()) == (5, 3, ((1, 2), (3, 1)), (1, 3))
    # The dense view is built when read, 0 off the support.
    assert d.probs == dense.probs == tuple(d) == (0, Fraction(2, 3), 0, Fraction(1, 3), 0)
    assert (len(d), d[0], d[1], d[-2], d[4]) == (5, 0, Fraction(2, 3), Fraction(1, 3), 0)
    for index in (5, -6):
        with pytest.raises(IndexError):
            d[index]
    with pytest.raises(StochasticityError, match="negative mass"):
        Distribution.from_support(3, {0: "-1/2", 1: "3/2"})
    with pytest.raises(StochasticityError, match="masses sum to 5/6, not 1"):
        Distribution.from_support(3, {0: "1/2", 2: "1/3"})
    with pytest.raises(StochasticityError, match="masses sum to 0, not 1"):
        Distribution.from_support(3, {})
    for state in (-1, 3):
        with pytest.raises(DimensionError):
            Distribution.from_support(3, {state: 1})


def test_indexing_and_mass_take_states_only():
    d = Distribution(("1/4", "1/4", "1/2", 0))
    # An index is an integer; a slice reads the dense masses.
    for index in (1.5, Fraction(1, 2), 2.0, "2"):
        with pytest.raises(TypeError):
            d[index]
    assert d[True] == d[1]
    assert d[1:3] == (Fraction(1, 4), Fraction(1, 2))
    assert d[::-1] == tuple(reversed(d.probs))
    # ``mass`` reads states 0..M-1 and refuses any other.
    assert d.mass([0, 2, 3]) == Fraction(3, 4) and d.mass([]) == 0
    for states in ([7], [-1], [0, 4]):
        with pytest.raises(DimensionError, match="outside 0..3"):
            d.mass(states)


def test_a_type_costs_its_support_not_its_states():
    t = Distribution.from_support(10**6, {0: 1})
    assert not hasattr(t, "__dict__")
    assert all(sys.getsizeof(getattr(t, name)) < 1024 for name in Distribution.__slots__)
    assert (len(t), t[0], t[999_999], t.support()) == (10**6, 1, 0, (0,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.den = 2
    s = make_structure(["a", "b"], ["P"], [[[0], [1]]], [[{0: 1}, {1: 1}]])
    assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(t)) == t


def test_frozen_errors_name_any_attribute():
    # Fields and other names alike: assignment and deletion raise the
    # dataclass's own error, not one from the class it replaced.
    d = Distribution.from_support(3, {1: 1})
    for name in ("den", "x"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(d, name, 2)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(d, name)
    assert not hasattr(d, "__dict__") and d.__sizeof__() == 48
    assert copy.deepcopy(d) == d == pickle.loads(pickle.dumps(d))


def _value_instances(fixture_path) -> list:
    """One instance of each value type, all built from freshly parsed
    fixtures: ex_pl2 has no common prior and a pump for the uniform
    distribution, pl4 has a common prior."""
    no_prior, prior = (
        parse_structure(json.loads(fixture_path(name).read_text(encoding="utf-8")))
        for name in ("ex_pl2", "pl4")
    )
    rep = report.analyze(no_prior, uniform(4))
    verdict = rep.verdict
    program = harness.common_prior_program(no_prior)
    cross = harness.cross_check(prior)
    return [
        no_prior.cell_types[0][0],
        no_prior,
        priors.Notion(*(getattr(priors.NOTIONS[1], name) for name in priors.Notion._fields)),
        rep.priors.trade,
        verdict.pump_witness,
        program,
        lp.solve(harness.common_prior_program(prior)),
        lp.solve(program).certificate,
        priors.find_common_prior(prior),
        verdict.classification,
        priors.blocks(no_prior),
        rep.priors.trade_class,
        verdict,
        rep.priors,
        rep,
        harness.CheckFailure("ex_pl2", "forged"),
        cross,
        harness.BatteryReport(1, cross.checks_run, ((0, cross),)),
    ]


def _rows(program) -> list:
    """A program's rows as integer forms: rows compare by identity."""
    return [(con.nums, con.den, con.rel, con.rhs_num) for con in program.constraints]


def _on_rows_of(program, other):
    """``program`` rebuilt on the row objects of ``other``."""
    p = program
    return lp.LinearProgram(p.objective, p.maximize, other.constraints, p.lower, p.upper, p.names)


def test_value_types_compare_hash_copy_and_pickle_by_value(fixture_path):
    # Every frozen type of the package but the generator's config, which
    # stays a dataclass: equal and hashed by value to an equal instance
    # built apart, closed to assignment, and carried through deepcopy and
    # pickle. Programs compare their rows by identity, so a program's twin
    # and copies are compared row by row, then rebuilt on the same rows.
    ours, twins = _value_instances(fixture_path), _value_instances(fixture_path)
    assert _rows(twins[5]) == _rows(ours[5])
    twins[5] = _on_rows_of(twins[5], ours[5])
    assert len({type(a) for a in ours}) == len(ours) == 18
    for a, b in zip(ours, twins):
        assert a is not b and a == b and repr(a) == repr(b), type(a)
        if isinstance(a, lp.LPOutcome):
            # The simplex reads an optimal point and its duals off as lists,
            # so an optimal outcome has no hash.
            with pytest.raises(TypeError, match="unhashable type: 'list'"):
                hash(a)
        else:
            assert hash(a) == hash(b), type(a)
        error = dataclasses.FrozenInstanceError if isinstance(a, Frozen) else AttributeError
        with pytest.raises(error):
            setattr(a, a._fields[0], b)
        for c in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(c) is type(a) and c is not a
            if isinstance(a, lp.LinearProgram):
                assert _rows(c) == _rows(a)
                c = _on_rows_of(c, a)
            assert c == a, type(a)
    assert not any(dataclasses.is_dataclass(a) for a in ours)
    assert dataclasses.is_dataclass(GeneratorConfig)


def _dense_repr(t) -> str:
    """The text of the dense dataclass ``repr``: the masses as a tuple of
    ``Fraction``s."""
    return f"Distribution(probs={tuple(Fraction(v) for v in t)!r})"


def test_equality_hash_and_repr_follow_the_dense_masses(fixture_path):
    types = [
        t
        for seed in range(300)
        for row in random_structure(GeneratorConfig(seed=seed)).cell_types
        for t in row
    ]
    for name in FIXTURES:
        doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
        types += [t for row in parse_structure(doc).cell_types for t in row]
    groups: dict = {}
    for t in types:
        assert repr(t) == _dense_repr(t)
        groups.setdefault(tuple(t), []).append(t)
    for same in groups.values():
        assert all(t == same[0] and hash(t) == hash(same[0]) for t in same)
    # Distinct dense masses, distinct types: in a set, and pair by pair
    # among the first types of each length.
    assert len(set(types)) == len(groups)
    by_size: dict = {}
    for dense in groups:
        by_size.setdefault(len(dense), []).append(dense)
    for denses in by_size.values():
        firsts = [groups[d][0] for d in denses[:80]]
        for a in firsts:
            assert [a == b for b in firsts] == [tuple(a) == tuple(b) for b in firsts]
    assert Distribution((1,)) != Distribution((1, 0)) and Distribution((1,)) != (Fraction(1),)


def test_uniform_and_point_mass():
    u = uniform(4)
    assert all(u[i] == u[0] for i in range(4))
    with pytest.raises(EmptySetError):
        uniform(0)


def test_dot_and_expectation():
    d = Distribution(("1/4", "3/4"))
    assert dense_dot((4, 8), d) == 7
    with pytest.raises(DimensionError):
        dense_dot((1,), d)


def _pl_structure():
    return make_structure(
        ["w1", "w2", "w3"],
        ["P1"],
        [[[0, 1], [2]]],
        [[("9/10", "1/10", 0), (0, 0, 1)]],
    )


def test_make_structure_accessors():
    s = _pl_structure()
    assert s.num_states == 3 and s.num_players == 1
    assert s.cell_of(0, 1) == 0 and s.cell_of(0, 2) == 1
    assert s.partitions[0][0] == (0, 1)
    assert s.num_cells(0) == 2
    assert s.type_at(0, 0) == s.type_at(0, 1)
    assert len(s.cell_types[0]) == s.num_cells(0)


def test_support_must_stay_in_cell():
    with pytest.raises(SupportError):
        make_structure(
            ["w1", "w2", "w3"],
            ["P1"],
            [[[0, 1], [2]]],
            [[("1/2", 0, "1/2"), (0, 0, 1)]],
        )


def test_partition_must_cover_and_not_overlap():
    with pytest.raises(PartitionError):
        make_structure(["w1", "w2"], ["P1"], [[[0]]], [[(1, 0)]])
    with pytest.raises(PartitionError):
        make_structure(
            ["w1", "w2"], ["P1"], [[[0, 1], [1]]], [[("1/2", "1/2"), (0, 1)]]
        )


@pytest.mark.parametrize(
    "cells, types, error, message",
    [
        (((), (0, 1)), ("a", "ab"), PartitionError, "empty cell"),
        (((1, 0),), ("ab",), PartitionError, "not sorted"),
        (((0, 1, 2),), ("ab",), PartitionError, "index 2 out of range"),
        (((1,), (0,)), ("b", "a"), PartitionError, "not ordered by least state"),
        (((0,), (1,)), ("a",), DimensionError, "1 types for 2 cells"),
        (((0, 1),), ("abc",), DimensionError, "type for cell 0 has 3 entries, expected 2"),
        (((0, 0), (1,)), ("a", "b"), PartitionError, "state 'a' is listed twice in one cell"),
    ],
)
def test_direct_construction_rejects_defects(cells, types, error, message):
    # make_structure sorts cells and their order; built directly, a
    # structure must still refuse every malformed partition and type table.
    table = {
        "a": Distribution((1, 0)),
        "b": Distribution((0, 1)),
        "ab": Distribution(("1/2", "1/2")),
        "abc": Distribution(("1/2", "1/2", 0)),
    }
    with pytest.raises(error, match=message):
        InformationStructure(("a", "b"), ("P",), (cells,), (tuple(table[t] for t in types),))


@pytest.mark.parametrize(
    "players, partitions, cell_types, message",
    [
        (["P"], [[[0]]], [[]], "0 types for 1 cells"),
        (["P", "Q"], [[[0]], [[0]]], [[[1]]], "one partition and one type table per player"),
        (["P"], [[[0]]], [[[1]], [[1]]], "one partition and one type table per player"),
    ],
)
def test_make_structure_checks_counts_first(players, partitions, cell_types, message):
    # A missing type row or type table is a dimension error, not an
    # IndexError, and a spare type table is not silently dropped.
    with pytest.raises(DimensionError, match=message):
        make_structure(["a"], players, partitions, cell_types)


def test_duplicate_cells_name_the_player_by_label():
    with pytest.raises(PartitionError, match="player 'P': duplicate cells"):
        make_structure(["a", "b"], ["P"], [[[0], [0], [1]]], [[(1, 0), (1, 0), (0, 1)]])


def test_duplicate_labels_rejected():
    with pytest.raises(SchemaError):
        make_structure(["w1", "w1"], ["P1"], [[[0, 1]]], [[("1/2", "1/2")]])


def test_forward_closed_and_induced():
    s = _pl_structure()
    assert forward_closed(s, [2])
    assert forward_closed(s, [0, 1])
    assert not forward_closed(s, [0])
    sub = induced_substructure(s, [2])
    assert sub.num_states == 1 and sub.states == ("w3",)
    with pytest.raises(NotAComponentError):
        induced_substructure(s, [0])


def test_induced_whole_space_is_the_structure_itself():
    s = _pl_structure()
    assert induced_substructure(s, range(s.num_states)) is s
    assert induced_substructure(s, [2, 1, 0]) is s


def test_derived_memo_is_per_instance():
    s = _pl_structure()
    copy = make_structure(s.states, s.players, s.partitions, s.cell_types)
    assert s.derived("k", lambda x: 1) == 1
    assert s.derived("k", lambda x: 2) == 1
    # Equal structures share no memo, and the memo is outside eq/hash/repr.
    assert copy.derived("k", lambda x: 2) == 2
    assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)


def test_single_player_view(ex_pl2):
    view = single_player_view(ex_pl2, 1)
    assert view.num_players == 1
    assert view.partitions[0] == ex_pl2.partitions[1]
    assert view.states == ex_pl2.states


def test_restrict_and_zero_extend():
    d = Distribution(("1/2", 0, "1/2"))
    assert restrict_distribution(d, (0, 2)) == (d[0], d[2])
