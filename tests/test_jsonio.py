"""Wire format: float rejection, schema tags, round trips."""

import json

import pytest

from prior_forge import (
    DimensionError,
    SCHEMA,
    SchemaError,
    dumps_canonical,
    parse_distribution,
    parse_payoffs,
    parse_structure,
    rational,
    structure_to_json,
)
from prior_forge._rational import to_json_value
from prior_forge.jsonio import (
    check_schema,
    distribution_to_json,
    load_path,
    loads,
    parse_rational_value,
)


def payoffs_to_json(payoffs):
    return {
        "schema": SCHEMA,
        "payoffs": [[to_json_value(v) for v in row] for row in payoffs],
    }


def test_floats_rejected_everywhere():
    with pytest.raises(SchemaError):
        loads('{"dist": [0.5, 0.5]}')
    with pytest.raises(SchemaError):
        loads("[1e-3]")
    with pytest.raises(SchemaError):
        loads("[NaN]")
    with pytest.raises(SchemaError):
        loads("[Infinity]")


def test_invalid_json_is_schema_error():
    with pytest.raises(SchemaError):
        loads("{not json")


def test_rational_values():
    assert parse_rational_value("1/3") == rational("1/3")
    assert parse_rational_value(2) == rational(2)
    assert parse_rational_value("-7/2") == rational("-7/2")
    # int() would also take underscores, surrounding spaces, a plus sign
    # and other digit scripts; the wire format takes -?[0-9]+(/[0-9]+)?.
    loose = ("5_0/1_00", " -1/-2 ", "1/-2", " 1", "1 ", "+1", "\u0661", "1/", "/2", "")
    for bad in (True, None, [1], "1/0", "x", *loose):
        with pytest.raises(SchemaError):
            parse_rational_value(bad)


def test_schema_tag():
    check_schema({})  # untagged documents are accepted
    check_schema({"schema": SCHEMA})
    with pytest.raises(SchemaError):
        check_schema({"schema": "prior-forge/99"})


def test_structure_round_trip(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    for s in (intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
        doc = structure_to_json(s)
        assert doc["schema"] == SCHEMA
        again = parse_structure(loads(dumps_canonical(doc)))
        assert again == s
        # Canonical dumps are reproducible byte for byte.
        assert dumps_canonical(structure_to_json(again)) == dumps_canonical(doc)


def test_fixture_files_are_canonical(fixture_path):
    for name in ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4"):
        path = fixture_path(name)
        text = path.read_text(encoding="utf-8")
        s = parse_structure(loads(text))
        assert dumps_canonical(structure_to_json(s)) == text


def test_state_types_dialect():
    doc = {
        "states": ["a", "b"],
        "players": ["P1"],
        "partitions": [[["a", "b"]]],
        "state_types": [[["1/2", "1/2"], ["1/2", "1/2"]]],
    }
    s = parse_structure(doc)
    assert tuple(s.cell_types[0][0]) == (rational("1/2"), rational("1/2"))


def test_state_types_must_agree_on_cells():
    doc = {
        "states": ["a", "b"],
        "players": ["P1"],
        "partitions": [[["a", "b"]]],
        "state_types": [[["1/2", "1/2"], ["1/3", "2/3"]]],
    }
    with pytest.raises(SchemaError):
        parse_structure(doc)


def test_structure_parse_errors():
    base = {
        "states": ["a", "b"],
        "players": ["P1"],
        "partitions": [[["a", "b"]]],
        "types": [[["1/2", "1/2"]]],
    }
    cases = [
        ("states", ["a", "a"]),  # duplicate labels
        ("partitions", [[["a", "z"]]]),  # unknown state
        ("partitions", [[["a", "b"]], [["a", "b"]]]),  # partition count
        ("types", []),  # type table count
        ("types", [[["1/2", "1/2"], ["1", "0"]]]),  # row per cell
    ]
    for key, value in cases:
        doc = dict(base)
        doc[key] = value
        with pytest.raises(SchemaError):
            parse_structure(doc)
    both = dict(base)
    both["state_types"] = base["types"]
    with pytest.raises(SchemaError):
        parse_structure(both)
    neither = {k: v for k, v in base.items() if k != "types"}
    with pytest.raises(SchemaError):
        parse_structure(neither)
    with pytest.raises(SchemaError):
        parse_structure(["not", "an", "object"])


def test_distribution_forms(ex_pl1):
    d = parse_distribution({"dist": ["1/2", 0, 0, "1/2"]}, ex_pl1)
    assert d.mass((0, 3)) == 1
    bare = parse_distribution(["1/4", "1/4", "1/4", "1/4"], ex_pl1)
    assert sum(bare, rational(0)) == 1
    with pytest.raises(DimensionError):
        parse_distribution(["1/2", "1/2"], ex_pl1)
    with pytest.raises(SchemaError):
        parse_distribution({"nope": []}, ex_pl1)
    round_tripped = parse_distribution(distribution_to_json(d), ex_pl1)
    assert round_tripped == d


def test_payoff_forms(ex_pl1):
    doc = {"payoffs": [["0", 1, 1, 0], [0, -1, -1, 0]]}
    payoffs = parse_payoffs(doc, ex_pl1)
    assert payoffs[0][1] == rational(1)
    bare = parse_payoffs([[0, 1, 1, 0], [0, -1, -1, 0]], ex_pl1)
    assert bare == payoffs
    with pytest.raises(DimensionError):
        parse_payoffs([[0, 1, 1, 0]], ex_pl1)  # one vector for two players
    again = parse_payoffs(payoffs_to_json(payoffs), ex_pl1)
    assert again == payoffs


def test_load_path(tmp_path):
    target = tmp_path / "d.json"
    target.write_text('{"dist": [1]}', encoding="utf-8")
    assert loads(target.read_text()) == load_path(target)
    bad = tmp_path / "bad.json"
    bad.write_text('{"dist": [0.5]}', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_path(bad)


def test_canonical_formatting():
    text = dumps_canonical({"b": 1, "a": [1, 2]})
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": [1, 2]}
    # Key order is preserved, not sorted: emitters control their layout.
    assert text.index('"b"') < text.index('"a"')
