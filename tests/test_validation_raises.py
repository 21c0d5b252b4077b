"""Input-validation raises that the other tests never reach, each reached
through a public entry point with its exact class and message; and, for
each error class a structure document can raise, one document that makes
``prior-forge check`` exit 2."""

import json
import random

import pytest

from prior_forge import (
    DimensionError,
    EmptySetError,
    InputError,
    PartitionError,
    SchemaError,
    classify_trade,
    make_structure,
    parse_structure,
)
from prior_forge.certainty import closure
from prior_forge.cli import main
from prior_forge.harness import chain_structure, planted_structure
from prior_forge.jsonio import parse_distribution, parse_payoffs
from prior_forge.lp import LinearProgram
from prior_forge.model import forward_closed


def _doc(**changes):
    """A valid two-state, one-player document with ``changes`` applied."""
    doc = {
        "states": ["a", "b"],
        "players": ["P"],
        "partitions": [[["a", "b"]]],
        "types": [[["1/2", "1/2"]]],
    }
    doc.update(changes)
    return doc


STRUCTURE_DOCUMENTS = {
    "states not a list": (
        _doc(states="a"), SchemaError, "field 'states' must be a list"
    ),
    "players not strings": (
        _doc(players=[1]), SchemaError, "field 'players' must contain strings"
    ),
    "partition not a list": (
        _doc(partitions=["a"]), SchemaError, "each partition must be a list of cells"
    ),
    "empty cell": (
        _doc(partitions=[[[], ["a", "b"]]]),
        SchemaError,
        "each cell must be a non-empty list of state labels",
    ),
    "type row not a list": (
        _doc(types=[["1/2"]]),
        SchemaError,
        "type row for player 'P' must be a list of 2 rationals",
    ),
    "no states": (
        _doc(states=[], partitions=[[]], types=[[]]),
        EmptySetError,
        "a structure needs at least one state",
    ),
    "no players": (
        _doc(players=[], partitions=[], types=[]),
        EmptySetError,
        "a structure needs at least one player",
    ),
    "empty state label": (
        _doc(states=["a", ""], partitions=[[["a", ""]]]),
        SchemaError,
        "state labels must be non-empty strings",
    ),
}


@pytest.mark.parametrize("case", STRUCTURE_DOCUMENTS)
def test_structure_documents_fail_with_their_message(case):
    doc, error, message = STRUCTURE_DOCUMENTS[case]
    with pytest.raises(error) as info:
        parse_structure(doc)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "args, error, message",
    [
        (([], ["P"], [[]], [[]]), EmptySetError, "a structure needs at least one state"),
        ((["a"], [], [], []), EmptySetError, "a structure needs at least one player"),
        (
            (["a", ""], ["P"], [[[0, 1]]], [[{0: 1}]]),
            SchemaError,
            "state labels must be non-empty strings",
        ),
        (
            (["a"], [""], [[[0]]], [[{0: 1}]]),
            SchemaError,
            "player labels must be non-empty strings",
        ),
        (
            (["a"], ["P"], [[[], [0]]], [[{0: 1}, {0: 1}]]),
            PartitionError,
            "player 'P' has an empty cell",
        ),
        ((["a"], ["P"], [[[0]]], [[[True]]]), TypeError, "not a rational: True"),
    ],
)
def test_make_structure_fails_with_its_message(args, error, message):
    with pytest.raises(error) as info:
        make_structure(*args)
    assert type(info.value) is error and str(info.value) == message


def test_other_entry_points_fail_with_their_message():
    two = _doc(players=["P", "Q"], partitions=[[["a", "b"]]] * 2, types=[[["1/2", "1/2"]]] * 2)
    s = parse_structure(two)
    cases = [
        (
            lambda: parse_payoffs([[0, 0], "x"], s),
            SchemaError,
            "payoff row must be a list of 2 rationals",
        ),
        (
            lambda: parse_distribution("x", s),
            SchemaError,
            "distribution document must be an object or a list",
        ),
        (lambda: classify_trade(s, [[0, 0]]), DimensionError, "1 payoff vectors for 2 players"),
        (lambda: closure(s, 2), DimensionError, "state index 2 out of range"),
        (lambda: forward_closed(s, []), EmptySetError, "the empty set is never a component"),
        (lambda: forward_closed(s, [2]), DimensionError, "state index out of range"),
        (
            lambda: LinearProgram((1, 1), False, (), (0,), (None, None), ("x", "y")),
            DimensionError,
            "lower must have one entry per variable",
        ),
        (
            lambda: planted_structure(3, 2, 4, random.Random(0)),
            InputError,
            "cannot cut 3 states into 4 non-empty blocks",
        ),
        (
            lambda: chain_structure(0, 3),
            InputError,
            "a chain needs m >= 1 states and k >= 1, got m=0, k=3",
        ),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("case", ["states not a list", "no states"])
def test_check_exits_two_on_each_error_class(case, tmp_path, capsys):
    # One document per error class above: SchemaError and EmptySetError.
    # The parser reports an empty cell as a SchemaError, so no document
    # reaches the PartitionError of an empty cell, and a bool literal is a
    # SchemaError before any TypeError.
    doc, error, message = STRUCTURE_DOCUMENTS[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
