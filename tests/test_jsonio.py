"""Wire format: float rejection, schema tags, round trips, and the
canonical writer against the stdlib encoder."""

import json
import random
from fractions import Fraction

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
from prior_forge.harness import (
    GeneratorConfig,
    dense_dumps,
    planted_structure,
    random_structure,
)
from prior_forge.jsonio import (
    check_schema,
    distribution_to_json,
    load_path,
    loads,
    parse_rational_value,
)
from prior_forge.model import uniform
from prior_forge.report import analyze


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


FIXTURES = ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4")


def _same_bytes(doc):
    text = dumps_canonical(doc)
    assert text == dense_dumps(doc)
    return text


@pytest.mark.parametrize("seeds", [range(k, k + 100) for k in range(0, 400, 100)])
def test_writer_matches_the_stdlib_on_reports(seeds, fixture_path):
    structures = [random_structure(GeneratorConfig(seed=seed)) for seed in seeds]
    if seeds.start == 0:
        structures += [parse_structure(load_path(fixture_path(name))) for name in FIXTURES]
    for s in structures:
        _same_bytes(analyze(s).to_json())
        _same_bytes(analyze(s, uniform(s.num_states), all_components=True).to_json())


@pytest.mark.parametrize("m", (24, 48))
def test_writer_matches_the_stdlib_on_planted_reports(m):
    for n, blocks in ((2, 1), (3, 2)):
        s, prior = planted_structure(m, n, blocks, random.Random(f"writer:{m}:{n}:{blocks}"))
        _same_bytes(analyze(s, prior).to_json())
        _same_bytes(analyze(s, uniform(m)).to_json())


def test_writer_matches_the_stdlib_on_hand_made_documents():
    controls = "".join(chr(k) for k in range(0x20))
    labels = [
        "caf\u00e9", "\u03c0 \u2192 \u221e", "\U0001f600", '"', "\\", "\n", controls,
        "\u2028\u2029", 'a", "b', '", "', "",
    ]
    docs = [
        {label: [label, {label: label}] for label in labels},
        {"states": labels, "nested": [[[]], [{}], {"x": []}, {"y": {}}]},
        [[], {}, [[], {}], {"a": [], "b": {}, "c": [[{}]]}],
        [True, 1, False, 0, None, -7, 10**30],
        {"flags": {"t": True, "f": False}, "n": None, "i": 2, "row": [0, "1/2", 1, True]},
        ("tuple", (1, ("nested", ())), [()]),
        [], {}, (), "", "text", 0, -1, True, False, None,
    ]
    for doc in docs:
        _same_bytes(doc)


NOT_CANONICAL = [
    0.5, 1.0, Fraction(1, 2), [0, "1/2", Fraction(1, 3)], {"a": [0, 0.25]},
    [[{"b": Fraction(3)}]], {1: "x"}, {None: 1}, {"a": {2: 0}}, {1, 2}, b"x",
]


@pytest.mark.parametrize("bad", NOT_CANONICAL)
def test_writer_rejects_what_is_not_canonical_json(bad):
    with pytest.raises(TypeError):
        dumps_canonical(bad)
