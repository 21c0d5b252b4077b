"""Wire format: float rejection, schema tags, round trips, and the
canonical writer against the stdlib encoder."""

import importlib.util
import itertools
import json
import pathlib
import random
import sys
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring

import pytest

from prior_forge import (
    DimensionError,
    Distribution,
    InputError,
    SCHEMA,
    SchemaError,
    StochasticityError,
    analyze,
    dumps_canonical,
    parse_distribution,
    parse_payoffs,
    parse_structure,
    rational,
    structure_to_json,
)
from prior_forge._rational import (
    int_text,
    parse_literal,
    rational_text,
    text_int,
    to_json_value,
)
from prior_forge.harness import (
    GeneratorConfig,
    planted_structure,
    random_distribution,
    random_structure,
)
from prior_forge.jsonio import (
    check_schema,
    distribution_to_json,
    load_path,
    loads,
    parse_rational_pair,
    parse_rational_value,
    type_row,
)
from prior_forge import _rational, jsonio
from prior_forge.priors import NOTIONS
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


def test_numbers_of_any_length_round_trip():
    big = 3**20_000  # 9,543 decimal digits, past the interpreter's default limit
    text = int_text(big)
    assert text == str(Decimal(big)) and len(text) == 9_543
    assert int(text[-40:]) == big % 10**40 and int(text[:40]) == big // 10 ** (9_543 - 40)
    assert int_text(-big) == "-" + text and int_text(12) == "12" and int_text(0) == "0"
    assert text_int(text) == big and text_int("-" + text) == -big and text_int("-0") == 0
    assert parse_rational_pair(f"{text}/3") == (big // 3, 1)
    assert parse_rational_pair(f"-2/{text}") == (-2, big)
    assert rational(f"1/{text}") == Fraction(1, big)
    assert rational_text(Fraction(-2, big)) == f"-2/{text}"
    doc = {"n": big, "row": [1, -big], "q": to_json_value(Fraction(1, big))}
    written = dumps_canonical(doc)
    assert written == f'{{\n  "n": {text},\n  "row": [\n    1,\n    -{text}\n  ],\n  "q": "1/{text}"\n}}\n'
    assert loads(written) == doc
    for bad in (f"{text}_1", f"{text}/-1", f"{text}e1", f" {text}"):
        with pytest.raises(SchemaError, match="malformed rational literal"):
            parse_rational_pair(bad)


LIMIT = sys.get_int_max_str_digits() or 4_300  # 0 means no limit


@pytest.mark.parametrize("digits", [LIMIT - 1, LIMIT, LIMIT + 1, 4_932, 2 * LIMIT + 1, 33_804])
def test_halving_round_trips_past_the_digit_limit(digits):
    # Past the limit int_text and text_int split at a power of ten near half
    # the digits. Each length is checked for both signs, with random digits
    # and with its last digits // 2 + 1 digits set to 0...07, so that the low
    # piece of either split starts with zeros, against decimal's exact
    # conversion.
    rng = random.Random(digits)
    for zeros in (False, True):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        if zeros:
            low = 10 ** (digits // 2 + 1)
            n = n // low * low + 7
        for x in (n, -n):
            text = int_text(x)
            assert text == str(Decimal(x)) and len(text.lstrip("-")) == digits
            assert text_int(text) == x and int(Decimal(text)) == x


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


def test_writer_renders_a_shared_dict_once_per_depth(monkeypatch):
    flags = {"is_trade": True}
    shared = {"payoffs": [[1, "-1/2"], [0, 1]], "flags": flags}
    # Two depths: "a" and "b" one level down, "c"'s entry and "d"'s "e" two.
    doc = {"a": shared, "b": shared, "c": [shared], "d": {"e": shared}}
    asked = {id(shared): 0, id(flags): 0}
    render = jsonio._render

    def counted(obj, brk, done):
        if id(obj) in asked:
            asked[id(obj)] += 1
        return render(obj, brk, done)

    monkeypatch.setattr(jsonio, "_render", counted)
    _same_bytes(doc)
    # Asked for four times; its body, and so its "flags", is built once per
    # depth.
    assert asked == {id(shared): 4, id(flags): 2}


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


def fraction_literal(v):
    """The literal parse before pairs, kept here as the oracle: the strict
    grammar straight to a ``Fraction``, with the parser's messages."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(f"expected an integer or 'a/b' string, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    num, sep, den = v.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isdigit() and digits.isascii():
        if not sep:
            return Fraction(int(num))
        if den.isdigit() and den.isascii() and den.strip("0"):
            return Fraction(int(num), int(den))
    raise SchemaError(f"malformed rational literal: {v!r}")


def dense_parse_structure(doc):
    """The parse before types were built from their support: every literal
    through ``fraction_literal``, player by player, with the ``state_types``
    rows of a cell compared as rationals, then dense rows into
    ``make_structure``."""
    index = {s: k for k, s in enumerate(doc["states"])}
    m = len(index)
    partitions = [[tuple(index[s] for s in cell) for cell in cells] for cells in doc["partitions"]]
    per_state = "state_types" in doc
    cell_types = []
    for player, cells, rows in zip(doc["players"], partitions, doc["state_types" if per_state else "types"]):
        parsed = [tuple(fraction_literal(v) for v in row) for row in rows]
        assert all(len(row) == m for row in parsed)
        if per_state:
            for cell in cells:
                if any(parsed[w] != parsed[cell[0]] for w in cell[1:]):
                    raise SchemaError(
                        f"player {player!r} has differing types inside "
                        f"cell {[doc['states'][w] for w in cell]}"
                    )
        cell_types.append([parsed[cell[0]] for cell in cells] if per_state else parsed)
    return make_structure(doc["states"], doc["players"], partitions, cell_types)


def dense_parse_distribution(doc, structure):
    """``parse_distribution`` before pairs: every literal to a ``Fraction``,
    then the dense row into ``Distribution``."""
    values = doc["dist"] if isinstance(doc, dict) else doc
    masses = tuple(fraction_literal(v) for v in values)
    if len(masses) != structure.num_states:
        raise DimensionError(
            f"distribution has {len(masses)} entries for {structure.num_states} states"
        )
    return Distribution(masses)


def state_layout(doc):
    """``doc`` with its ``types`` rewritten as ``state_types``: each state
    gets the row of its cell."""
    index = {s: k for k, s in enumerate(doc["states"])}
    state_types = []
    for cells, rows in zip(doc["partitions"], doc["types"]):
        by_state = [None] * len(index)
        for cell, row in zip(cells, rows):
            for s in cell:
                by_state[index[s]] = row
        state_types.append(by_state)
    out = {k: v for k, v in doc.items() if k != "types"}
    out["state_types"] = state_types
    return out


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
            assert tuple(t.items()) == tuple(d.items())
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
            "state_types": [[["1/3", "2/3", "0"], ["2/6", "4/6", 0], [0, "0/7", 1]]],
        }
    )
    for doc in docs:
        s = parse_structure(doc)
        _assert_same_types(s, dense_parse_structure(doc))
        if "types" in doc:
            in_states = state_layout(doc)
            _assert_same_types(parse_structure(in_states), dense_parse_structure(in_states))
            _assert_same_types(parse_structure(in_states), s)
        m = s.num_states
        rows = [
            [to_json_value(Fraction(1, m))] * m,
            [0] * (m - 1) + ["1"],
            ["0", *([f"2/{2 * (m - 1)}"] * (m - 1))] if m > 1 else [1],
            [to_json_value(q) for q in s.cell_types[0][0]],
        ]
        for row in rows:
            dist = parse_distribution({"dist": row}, s)
            dense = dense_parse_distribution(row, s)
            assert dist == dense and dist.den == dense.den
            assert tuple(dist.items()) == tuple(dense.items())


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


def _dist_docs(fixture_path):
    """Each of the six fixtures and ``_bench_docs()`` with a distribution
    document over its states."""
    for name in ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4"):
        doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
        m = len(doc["states"])
        yield doc, {"dist": ["0", *([f"1/{m - 1}"] * (m - 1))]}
    for doc in _bench_docs():
        m = len(doc["states"])
        yield doc, {"dist": [f"{k + 1}/{m * (m + 1) // 2}" for k in range(m)]}


def test_literals_parse_once_to_pairs_and_no_fraction_is_built(monkeypatch, fixture_path):
    pairs, literals_parsed, fractions_built = [], [], []

    def counted_pair(v):
        pairs.append(v)
        return parse_rational_pair(v)

    def counted_literal(text):
        literals_parsed.append(text)
        return parse_literal(text)

    fraction_new = Fraction.__new__

    def counted_fraction(cls, *args, **kwargs):
        fractions_built.append(args)
        return fraction_new(cls, *args, **kwargs)

    docs = list(_dist_docs(fixture_path))
    monkeypatch.setattr(jsonio, "parse_rational_pair", counted_pair)
    monkeypatch.setattr(jsonio, "parse_literal", counted_literal)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_fraction))
    for doc, dist_doc in docs:
        pairs.clear()
        literals_parsed.clear()
        structure = parse_structure(doc)
        literals = [v for rows in doc["types"] for row in rows for v in row]
        nonzero = [v for v in literals if v != 0 and v != "0"]
        assert pairs == nonzero
        assert literals_parsed == [v for v in nonzero if type(v) is str]
        assert len(pairs) < len(literals)
        parse_distribution(dist_doc, structure)
    monkeypatch.undo()
    assert fractions_built == []
    # The counter sees what it should: the oracle parse builds Fractions.
    dense_parse_structure(docs[0][0])
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_fraction))
    dense_parse_structure(docs[0][0])
    monkeypatch.undo()
    assert fractions_built


def _two_state_doc(rows, layout="types"):
    """Players P1 with cells {a, b}, {c} and P2 with {a}, {b, c}; ``rows``
    replaces the type rows (or, for ``state_types``, the per-state rows)."""
    doc = {
        "states": ["a", "b", "c"],
        "players": ["P1", "P2"],
        "partitions": [[["a", "b"], ["c"]], [["a"], ["b", "c"]]],
        "types": [[["1/2", "1/2", 0], [0, 0, 1]], [[1, 0, 0], [0, "1/3", "2/3"]]],
    }
    if layout == "state_types":
        doc = state_layout(doc)
        doc["state_types"] = rows
    elif rows is not None:
        doc["types"] = rows
    return doc


MALFORMED = {
    "bad literal": _two_state_doc([[["1/2", "1/2", 0], [0, 0, 1]], [[1, 0, 0], [0, "1/3", "2/3 "]]]),
    "bool": _two_state_doc([[["1/2", "1/2", 0], [0, 0, True]], [[1, 0, 0], [0, "1/3", "2/3"]]]),
    "negative mass": _two_state_doc([[["3/2", "-1/2", 0], [0, 0, 1]], [[1, 0, 0], [0, "1/3", "2/3"]]]),
    "sum not 1": _two_state_doc([[["1/2", "1/3", 0], [0, 0, 1]], [[1, 0, 0], [0, "1/3", "2/3"]]]),
    "mass outside the cell": _two_state_doc([[["1/2", "1/4", "1/4"], [0, 0, 1]], [[1, 0, 0], [0, "1/3", "2/3"]]]),
    "state rows differ in a cell": _two_state_doc(
        [
            [["1/2", "1/2", 0], ["1/2", "1/2", 0], [0, 0, 1]],
            [[1, 0, 0], [0, "1/3", "2/3"], [0, "1/4", "3/4"]],
        ],
        "state_types",
    ),
    # P1 lists a cell twice and P2 has a mass sum of 1/2: the duplicate
    # cell is found first, as make_structure builds and checks player by
    # player.
    "duplicate cell before mass": {
        "states": ["a", "b"],
        "players": ["P1", "P2"],
        "partitions": [[["a", "b"], ["b", "a"]], [["a"], ["b"]]],
        "types": [[["1/2", "1/2"], ["1/2", "1/2"]], [["1/2", 0], [0, 1]]],
    },
    # A literal is malformed in P2 and a mass negative in P1: every literal
    # is parsed before any type is built.
    "literal before mass": _two_state_doc([[["3/2", "-1/2", 0], [0, 0, 1]], [[1, 0, 0], [0, "1/3", "x"]]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_fail_as_the_fraction_parse_does(case):
    doc = MALFORMED[case]
    with pytest.raises(InputError) as expected:
        dense_parse_structure(doc)
    with pytest.raises(InputError) as got:
        parse_structure(doc)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "row",
    [["1/2", "1/2", "x"], ["1/2", False, "1/2"], ["3/2", "-1/2", 0], ["1/2", "1/3", "0"], ["1/2", "1/2"]],
    ids=["bad literal", "bool", "negative mass", "sum not 1", "length"],
)
def test_malformed_distributions_fail_as_the_fraction_parse_does(row):
    structure = parse_structure(_two_state_doc(None))
    with pytest.raises(InputError) as expected:
        dense_parse_distribution(row, structure)
    with pytest.raises(InputError) as got:
        parse_distribution(row, structure)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


# -- lists written from their nonzero entries --------------------------------


@pytest.mark.parametrize("seeds", [range(k, k + 100) for k in range(0, 400, 100)])
def test_writer_matches_the_stdlib_on_reports_with_sampled_distributions(seeds):
    for seed in seeds:
        s = random_structure(GeneratorConfig(seed=seed))
        dist = random_distribution(s, GeneratorConfig(), NOTIONS[0], random.Random(seed))
        _same_bytes(analyze(s, dist).to_json())


@pytest.mark.parametrize("m", (32, 44, 96))
def test_writer_matches_the_stdlib_on_planted_reports_with_their_priors(m):
    for n, blocks in itertools.product((3, 4), (1, 2, 4)):
        s, prior = planted_structure(m, n, blocks, random.Random(f"rows:{m}:{n}:{blocks}"))
        _same_bytes(analyze(s, prior).to_json())


def test_writer_matches_the_stdlib_on_a_planted_report_with_long_rows():
    # 768 states over 3 players: type rows of a few hundred entries, most of
    # them zeros.
    s, prior = planted_structure(768, 3, 1, random.Random("rows:768:3"))
    _same_bytes(analyze(s, prior).to_json())


def _row() -> list:
    """``[0, "1/6", 0, 0, "1/3", 0, "1/2", 0]`` as ``type_row`` builds it."""
    return type_row(Distribution.from_integer_form(8, (1, 4, 6), 6, (1, 2, 3)))


def _has_float(x) -> bool:
    if isinstance(x, (list, tuple)):
        return any(map(_has_float, x))
    if isinstance(x, dict):
        return any(map(_has_float, x.values()))
    return type(x) is float


def _writes_current_entries(row):
    """``row``, alone and inside a document, is written with the bytes of
    ``json.dumps`` with no digit limit, or raises ``TypeError`` where the
    stdlib writes a float or refuses the entry."""
    limit = sys.get_int_max_str_digits()
    for doc in (row, {"types": [[row, row]], "dist": row}):
        sys.set_int_max_str_digits(0)
        try:
            expected = None if _has_float(doc) else json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        except TypeError:
            expected = None
        finally:
            sys.set_int_max_str_digits(limit)
        if expected is None:
            with pytest.raises(TypeError):
                dumps_canonical(doc)
        else:
            assert dumps_canonical(doc) == expected


def test_type_row_is_the_dense_row():
    row = _row()
    assert type(row) is list and row == [0, "1/6", 0, 0, "1/3", 0, "1/2", 0]
    _writes_current_entries(row)


def test_a_mostly_zero_row_is_written_from_its_nonzero_entries(monkeypatch):
    # Only the nonzero entries of a long type row are rendered one by one.
    rendered = []

    def spy(text):
        rendered.append(text)
        return encode_basestring(text)

    monkeypatch.setattr(jsonio, "encode_basestring", spy)
    row = type_row(Distribution.from_integer_form(3000, (7, 2999), 3, (1, 2)))
    assert dumps_canonical({"dist": row}) == json.dumps({"dist": row}, indent=2) + "\n"
    assert rendered == ["dist", "1/3", "2/3"]


CHANGED_VALUES = {
    "int": 5, "negative int": -3, "zero": 0, "str": "x", "zero str": "0", "empty str": "",
    "false": False, "true": True, "zero float": 0.0, "negative zero": -0.0,
    "zero fraction": Fraction(0), "fraction": Fraction(1, 2), "none": None, "list": [0],
    "long int": 2**20000,
}


@pytest.mark.parametrize("value", CHANGED_VALUES.values(), ids=CHANGED_VALUES.keys())
@pytest.mark.parametrize("at", [0, 1, 7])
def test_a_row_changed_after_type_row_is_written_as_it_stands(value, at):
    # At a zero and at a support state; the writer reads the row's entries
    # as they are when it is called.
    row = _row()
    row[at] = value
    _writes_current_entries(row)


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r.append(0),
        lambda r: r.append("1/9"),
        lambda r: r.insert(0, 0),
        lambda r: r.pop(),
        lambda r: r.pop(1),
        lambda r: r.reverse(),
        lambda r: r.clear(),
        lambda r: r.__init__([0] * 8),
        lambda r: r.__init__(["1/8"] * 8),
        lambda r: r.__setitem__(slice(0, 2), [False, "1/6"]),
        lambda r: r.__setitem__(slice(0, 2), ["", "1/6"]),
    ],
)
def test_a_row_resized_or_reordered_after_type_row_is_written_as_it_stands(change):
    row = _row()
    change(row)
    _writes_current_entries(row)


def test_lists_of_ints_and_strings_and_other_lists():
    # Mostly-zero lists of ints and strings (lists and tuples) take the
    # nonzero path, unless an empty string is among them; other lists, and
    # any list with a bool, a Fraction, a float or None, render or raise as
    # they always did.
    for row in (
        [0, 0, 0], [0, 0, 0, 2**20000], [0, 0, 0, -7, "x"], (0, 0, 0, "1/2"), [0, "", 0, 0],
        [0, 0, ""], ["a", "b"], [1, -1, 0, 2**20000], ["", 0, "0"], [0, ""], [""],
        (0, "1/2", 0, "1/2"), ("", 0), [0, True, False], [0, 0, False], [0, 0, 0.0],
        [0, 0, Fraction(0)], [0, 0, None], [0, None, "x"],
    ):
        _writes_current_entries(row)
    assert dumps_canonical([0, True, False]) == "[\n  0,\n  true,\n  false\n]\n"
    assert dumps_canonical(["", 0]) == '[\n  "",\n  0\n]\n'
    for bad in ([0, Fraction(1, 2)], [0.0], [0, 1.5], ["0", Fraction(0)]):
        with pytest.raises(TypeError):
            dumps_canonical(bad)
        with pytest.raises(TypeError):
            dumps_canonical({"r": bad})
    with pytest.raises(TypeError):
        dumps_canonical({1: _row()})


def test_int_text_tries_str_exactly_within_the_limit(monkeypatch):
    # int_text tries str on an int within the limit, and on any int with no
    # limit, and never on one past it: neither far past, where the bit
    # length tells, nor one digit past, where 10**limit does. The least
    # limit the interpreter accepts is checked too.
    calls = []

    def spy(n):
        calls.append(n)
        return str(n)

    monkeypatch.setattr(_rational, "str", spy, raising=False)
    default = sys.get_int_max_str_digits()
    try:
        for limit in (default, sys.int_info.str_digits_check_threshold):
            sys.set_int_max_str_digits(limit)
            for n in (10**limit - 1, 10 ** (limit - 1), -(10**limit - 1), 0, 7):
                calls.clear()
                assert int_text(n) == str(n) and calls == [n]
            for n in (10**limit, 10**limit + 7, -(10**limit), 10 ** (limit + 631) + 7, 10**33803 + 7):
                calls.clear()
                assert int_text(n) == str(Decimal(n))
                assert calls and n not in calls
        sys.set_int_max_str_digits(0)
        big = 10**40000 + 3
        calls.clear()
        assert int_text(big) == str(big) and calls == [big]
    finally:
        sys.set_int_max_str_digits(default)
