"""JSON wire format: float-rejecting parsing and canonical serialization.

Documents carry ``"schema": "prior-forge/1"``. The tag is always emitted; on
input a missing tag is tolerated, a different one is rejected. Rationals
travel as ``"a/b"`` strings, or bare ints when the denominator is 1. Float
literals are rejected at parse time: they cannot carry the exact values the
rest of the package promises, and silently rounding them would poison every
certificate downstream.

Serialization is canonical: keys in fixed order, two-space indent, a single
trailing newline. Identical inputs produce byte-identical documents. The
bytes are exactly those of ``json.dumps(obj, indent=2, ensure_ascii=False)``
plus the newline (the writer's oracle in the tests), but with an indent the
stdlib falls back to its pure-Python encoder, so
``dumps_canonical`` is its own one-pass writer, dispatched on exact types.
It accepts only what the documents hold (dicts with string keys, lists,
tuples, strings, ints, bools and None) and raises ``TypeError`` on anything
else, floats and ``Fraction``s included. Type rows are dense on the wire, but
a ``Distribution`` holds only its support: parsing skips the zero literals
``0`` and ``"0"`` and builds each type from its support, and rendering fills
a row of zeros from the support's integer numerators, so a rational is parsed
once per nonzero entry and none is built to render one.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from math import gcd

from ._rational import rational
from .errors import DimensionError, SchemaError
from .model import Distribution, InformationStructure, make_structure

SCHEMA = "prior-forge/1"


def _reject_float(text: str):
    raise SchemaError(
        f"float literal {text!r} is not accepted; write rationals as 'a/b' strings"
    )


def loads(text: str):
    """``json.loads`` with float and NaN/Infinity literals turned into errors.
    Syntax errors, nesting past the recursion limit and integer literals past
    the interpreter's digit limit are all ``SchemaError``s."""
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    return loads(text)


def dumps_canonical(obj) -> str:
    """``obj`` as canonical text: exactly the bytes of ``json.dumps(obj,
    indent=2, ensure_ascii=False) + "\\n"``, in one pass.

    Only ``dict`` (with ``str`` keys), ``list``, ``tuple``, ``str``, ``int``,
    ``bool`` and ``None`` are accepted; anything else, a float or a
    ``Fraction`` included, raises ``TypeError``. Strings are escaped by the
    stdlib's C ``encode_basestring`` and ints rendered by ``int.__repr__``,
    as the stdlib encoder does; a list of scalars is rendered with one
    ``join``. A dict that appears more than once at the same depth, the
    same object each time, such as a report piece shared by several
    notions, is rendered once."""
    return _render(obj, "\n", {}) + "\n"


def _null(_) -> str:
    return "null"


def _bool(value: bool) -> str:
    return "true" if value else "false"


# Scalar renderers by exact type; bool is not looked up as int, so ``repr``
# only ever meets exact ints, where it is ``int.__repr__``.
_SCALARS = {
    str: encode_basestring,
    int: repr,
    bool: _bool,
    type(None): _null,
}


def _render(obj, brk: str, done: dict) -> str:
    """``obj`` at the depth whose line break and indent is ``brk``. ``done``
    maps the id of each dict rendered so far in this call to its depth and
    text; the root holds every dict, so no id is reused within the call."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        seen = done.get(id(obj))
        if seen is not None and seen[0] == brk:
            return seen[1]
        inner = brk + "  "
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring(key) + ": " + _render(value, inner, done))
        text = "{" + inner + ("," + inner).join(items) + brk + "}"
        done[id(obj)] = (brk, text)
        return text
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = brk + "  "
        try:
            items = [_SCALARS[type(v)](v) for v in obj]
        except KeyError:  # a container, or what the writer rejects
            items = [_render(v, inner, done) for v in obj]
        return "[" + inner + ("," + inner).join(items) + brk + "]"
    render = _SCALARS.get(kind)
    if render is None:
        raise TypeError(f"Object of type {kind.__name__} is not canonical JSON")
    return render(obj)


def check_schema(doc: dict) -> None:
    tag = doc.get("schema")
    if tag is not None and tag != SCHEMA:
        raise SchemaError(f"unsupported schema tag {tag!r}; this tool reads {SCHEMA!r}")


def parse_rational_value(v):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(f"expected an integer or 'a/b' string, got {v!r}")
    try:
        return rational(v)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def _mapping(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _list_field(data: dict, key: str) -> list:
    if key not in data:
        raise SchemaError(f"missing field {key!r}")
    value = data[key]
    if not isinstance(value, list):
        raise SchemaError(f"field {key!r} must be a list")
    return value


def _label_list(data: dict, key: str) -> list[str]:
    values = _list_field(data, key)
    if not all(isinstance(v, str) for v in values):
        raise SchemaError(f"field {key!r} must contain strings")
    return values


def _rational_row(values, length: int, what: str) -> tuple:
    if not isinstance(values, list) or len(values) != length:
        raise SchemaError(f"{what} must be a list of {length} rationals")
    return tuple(parse_rational_value(v) for v in values)


def _support_row(values, length: int, what: str) -> dict:
    """A type row as {state: nonzero rational}. The literals ``0`` (an exact
    int) and ``"0"`` are skipped before ``parse_rational_value``; every other
    literal keeps the strict grammar, and one that evaluates to zero is
    dropped."""
    if not isinstance(values, list) or len(values) != length:
        raise SchemaError(f"{what} must be a list of {length} rationals")
    row = {}
    for w, v in enumerate(values):
        if (type(v) is int and not v) or v == "0":
            continue
        q = parse_rational_value(v)
        if q:
            row[w] = q
    return row


def parse_structure(doc) -> InformationStructure:
    """Build a structure from its document form.

    ``partitions`` lists each player's cells as state labels. Types come
    either per cell (``types``, aligned with the cells) or per state
    (``state_types``, one row per state, constant within each cell). Every
    row's literals are parsed before any type is built; each type is then
    built from its support alone (``Distribution.from_support``).
    """
    data = _mapping(doc, "structure document")
    check_schema(data)
    states = _label_list(data, "states")
    players = _label_list(data, "players")
    if len(set(states)) != len(states):
        raise SchemaError("duplicate state labels")
    index = {s: k for k, s in enumerate(states)}
    m = len(states)

    raw_parts = _list_field(data, "partitions")
    if len(raw_parts) != len(players):
        raise SchemaError("need one partition per player")
    partitions = []
    for cells in raw_parts:
        if not isinstance(cells, list):
            raise SchemaError("each partition must be a list of cells")
        idx_cells = []
        for cell in cells:
            if not isinstance(cell, list) or not cell:
                raise SchemaError("each cell must be a non-empty list of state labels")
            try:
                idx_cells.append(tuple(index[s] for s in cell))
            except (KeyError, TypeError):
                raise SchemaError(f"cell {cell!r} names an unknown state") from None
        partitions.append(tuple(idx_cells))

    if ("types" in data) == ("state_types" in data):
        raise SchemaError("provide exactly one of 'types' or 'state_types'")
    per_state = "state_types" in data
    raw_types = _list_field(data, "state_types" if per_state else "types")
    if len(raw_types) != len(players):
        raise SchemaError("need one type table per player")
    cell_types = []
    for i, rows in enumerate(raw_types):
        cells = partitions[i]
        if not isinstance(rows, list) or len(rows) != (m if per_state else len(cells)):
            unit = "state_types row per state" if per_state else "type row per cell"
            raise SchemaError(f"player {players[i]!r} needs one {unit}")
        parsed = [_support_row(row, m, f"type row for player {players[i]!r}") for row in rows]
        if per_state:
            for cell in cells:
                if any(parsed[w] != parsed[cell[0]] for w in cell[1:]):
                    raise SchemaError(
                        f"player {players[i]!r} has differing types inside "
                        f"cell {[states[w] for w in cell]}"
                    )
            parsed = [parsed[cell[0]] for cell in cells]
        cell_types.append(tuple(parsed))

    return make_structure(states, players, partitions, cell_types)


def structure_to_json(structure: InformationStructure) -> dict:
    return {
        "schema": SCHEMA,
        "states": list(structure.states),
        "players": list(structure.players),
        "partitions": [
            [[structure.states[w] for w in cell] for cell in cells]
            for cells in structure.partitions
        ],
        "types": [[type_row(t) for t in types] for types in structure.cell_types],
    }


def type_row(t: Distribution) -> list:
    """The JSON row of a type, or of any distribution: 0 off its support,
    and on it each numerator over ``t.den`` in lowest terms, as
    ``to_json_value`` writes it (an int when whole, else ``"a/b"``)."""
    row = [0] * len(t)
    den = t.den
    for w, a in t.items():
        g = gcd(a, den)
        row[w] = a // g if g == den else f"{a // g}/{den // g}"
    return row


def _envelope(doc, key: str, what: str) -> list:
    """The list under ``key`` of a tagged object, or a bare list."""
    if isinstance(doc, dict):
        check_schema(doc)
        return _list_field(doc, key)
    if isinstance(doc, list):
        return doc
    raise SchemaError(f"{what} document must be an object or a list")


def parse_distribution(doc, structure: InformationStructure) -> Distribution:
    """Accepts ``{"dist": [...]}`` or a bare list of rationals, one per state
    of ``structure``."""
    masses = tuple(parse_rational_value(v) for v in _envelope(doc, "dist", "distribution"))
    if len(masses) != structure.num_states:
        raise DimensionError(
            f"distribution has {len(masses)} entries for {structure.num_states} states"
        )
    return Distribution(masses)


def distribution_to_json(dist: Distribution) -> dict:
    return {"schema": SCHEMA, "dist": type_row(dist)}


def parse_payoffs(doc, structure: InformationStructure) -> tuple:
    """Per-player payoff rows from ``{"payoffs": [...]}`` or a bare list."""
    rows = _envelope(doc, "payoffs", "payoff")
    if len(rows) != structure.num_players:
        raise DimensionError(
            f"{len(rows)} payoff rows for {structure.num_players} players"
        )
    return tuple(_rational_row(row, structure.num_states, "payoff row") for row in rows)
