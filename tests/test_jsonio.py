"""Wire format: float rejection, schema tags, round trips, and the
canonical writer against the stdlib encoder."""

import importlib.util
import json
import pathlib
import random
from fractions import Fraction

import pytest

from prior_forge import (
    DimensionError,
    SCHEMA,
    SchemaError,
    StochasticityError,
    dumps_canonical,
    parse_distribution,
    parse_payoffs,
    parse_structure,
    rational,
    structure_to_json,
)
from prior_forge._rational import to_json_value
from prior_forge.harness import GeneratorConfig, planted_structure, random_structure
from prior_forge.jsonio import (
    check_schema,
    distribution_to_json,
    load_path,
    loads,
    parse_rational_value,
)
from prior_forge import jsonio
from prior_forge.model import make_structure, uniform
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
    assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
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


# -- support-built types against the dense parse -------------------------

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _bench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def dense_parse_structure(doc):
    """The parse before types were built from their support: every literal
    through ``parse_rational_value``, dense rows into ``make_structure``."""
    index = {s: k for k, s in enumerate(doc["states"])}
    m = len(index)
    partitions = [[tuple(index[s] for s in cell) for cell in cells] for cells in doc["partitions"]]
    per_state = "state_types" in doc
    cell_types = []
    for cells, rows in zip(partitions, doc["state_types" if per_state else "types"]):
        parsed = [tuple(parse_rational_value(v) for v in row) for row in rows]
        assert all(len(row) == m for row in parsed)
        cell_types.append([parsed[cell[0]] for cell in cells] if per_state else parsed)
    return make_structure(doc["states"], doc["players"], partitions, cell_types)


def _bench_docs():
    gen = _bench_gen()
    for m in (10, 32, 44):
        for n in (2, 3):
            yield gen.random_doc(m, n, gen.rng_for("sparse", m, n))
            yield gen.planted_doc(m, n, 2, gen.rng_for("sparse", m, n))[0]


def _assert_same_types(sparse, dense):
    assert sparse == dense
    for row, dense_row in zip(sparse.cell_types, dense.cell_types):
        for t, d in zip(row, dense_row):
            assert t.probs == d.probs
            assert t.den == d.den
            assert t.nums == d.nums
            assert t.support() == d.support()


def test_sparse_parse_matches_the_dense_rows(fixture_path):
    docs = [
        json.loads(fixture_path(name).read_text(encoding="utf-8"))
        for name in ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4")
    ]
    docs += list(_bench_docs())
    docs.append(
        {
            "states": ["a", "b", "c"],
            "players": ["P1"],
            "partitions": [[["a", "b"], ["c"]]],
            "state_types": [[["1/3", "2/3", "0"], ["1/3", "2/3", 0], [0, "0/7", 1]]],
        }
    )
    for doc in docs:
        _assert_same_types(parse_structure(doc), dense_parse_structure(doc))


def _one_literal_doc(literal):
    return {
        "states": ["a", "b", "c"],
        "players": ["P1"],
        "partitions": [[["a", "b"], ["c"]]],
        "types": [[["1/2", "1/2", literal], [0, "0", 1]]],
    }


@pytest.mark.parametrize("literal", [False, 0.0, " 0", "+0", "0/0", None, [0]])
def test_zero_fast_path_keeps_the_grammar(literal):
    with pytest.raises(SchemaError) as expected:
        parse_rational_value(literal)
    with pytest.raises(SchemaError) as got:
        parse_structure(_one_literal_doc(literal))
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("literal", [0, "0", "00", "-0", "0/5"])
def test_zero_literals_leave_the_support(literal):
    s = parse_structure(_one_literal_doc(literal))
    _assert_same_types(s, dense_parse_structure(_one_literal_doc(literal)))
    assert s.cell_types[0][0].support() == (0, 1)


def test_every_literal_is_parsed_before_any_type_is_built():
    doc = {
        "states": ["a", "b"],
        "players": ["P1", "P2"],
        "partitions": [[["a", "b"]], [["a"], ["b"]]],
        "types": [[["1/2", "1/3"]], [[1, 0], ["0", "one"]]],
    }
    for parse in (parse_structure, dense_parse_structure):
        with pytest.raises(SchemaError, match="malformed rational literal: 'one'"):
            parse(doc)
    doc["types"][1][1][1] = 1
    for parse in (parse_structure, dense_parse_structure):
        with pytest.raises(StochasticityError, match="masses sum to 5/6, not 1"):
            parse(doc)


def test_parse_rational_value_runs_once_per_nonzero_literal(monkeypatch, fixture_path):
    calls = []

    def counted(v):
        calls.append(v)
        return parse_rational_value(v)

    monkeypatch.setattr(jsonio, "parse_rational_value", counted)
    docs = [json.loads(fixture_path("ex_plbet4").read_text(encoding="utf-8"))]
    docs += list(_bench_docs())
    for doc in docs:
        calls.clear()
        parse_structure(doc)
        literals = [v for rows in doc["types"] for row in rows for v in row]
        assert calls == [v for v in literals if v != 0 and v != "0"]
        assert len(calls) < len(literals)
