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
else, floats and ``Fraction``s included. Type and payoff rows are dense on
the wire and read by one row parser: it skips the zero literals ``0`` and
``"0"``, parses each nonzero entry once to a ``(num, den)`` pair of ints in
lowest terms, and puts the pairs over the lcm of their denominators. A type
is built on its support from that integer form, and a payoff row is the
dense form that ``trades.classify_trade`` grades, so no ``Fraction`` is
built to parse or to render either.

A type row costs its nonzeros to write: ``type_row`` builds a plain list,
and the writer finds the states of a row's nonzero entries at C speed and
renders only those, over a row of the text ``0``, in one ``join`` (see
``dumps_canonical``).

Numbers have no length limit on either side: the writers render ints with
``int_text`` and the parsers read them with ``text_int`` (see ``loads``), so
a report whose witness runs past the interpreter's digit limit is written,
and read back, exactly; a row's writer (``row_value``) converts each long
int once through a memo, which a row's entries share, and which
``report._form_rows`` shares across the rows of a report piece.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import compress
from json.encoder import encode_basestring
from math import gcd, lcm

from ._rational import ANY_LIMIT_BITS, int_text, parse_literal, text_int
from .errors import DimensionError, SchemaError
from .model import Distribution, InformationStructure, make_structure

SCHEMA = "prior-forge/1"


def _reject_float(text: str):
    raise SchemaError(
        f"float literal {text!r} is not accepted; write rationals as 'a/b' strings"
    )


def loads(text: str):
    """``json.loads`` with float and NaN/Infinity literals turned into errors.
    Syntax errors and nesting past the recursion limit are ``SchemaError``s.

    Literals of any length are read exactly. An integer literal past the
    interpreter's digit limit (``sys.get_int_max_str_digits()``) makes the
    stdlib parser stop with a plain ``ValueError``; the text is then read
    again with ``text_int`` for the integer literals, which is slower per
    literal and so only used then. ``"a/b"`` strings of any length are read
    by ``parse_literal``. So whatever a writer of this package emits, this
    function and the parsers read back."""
    hooks = {"parse_float": _reject_float, "parse_constant": _reject_float}
    try:
        try:
            return json.loads(text, **hooks)
        except ValueError as exc:
            if isinstance(exc, json.JSONDecodeError):
                raise
            return json.loads(text, parse_int=text_int, **hooks)
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
    as the stdlib encoder does, or by ``int_text`` past the interpreter's
    digit limit; a list of scalars is rendered with one ``join``. A dict
    that appears more than once at the same depth, the same object each
    time, such as a report piece shared by several notions, is rendered
    once.

    A list of exact ints and strings that is mostly zeros, such as a type
    row, is written from its nonzero entries: the text ``0`` at every int 0
    and each other entry rendered in place, so the Python work grows with
    the nonzeros and the length only enters through C-speed scans
    (``all``, ``list.count``, a type scan and ``itertools.compress``) and
    the ``join``. A nonzero entry costs more there than in the
    entry-by-entry path, so a list with as many nonzero entries as zeros,
    or with an empty string among them, takes that path."""
    return _render(obj, "\n", {}) + "\n"


def _null(_) -> str:
    return "null"


def _bool(value: bool) -> str:
    return "true" if value else "false"


# Scalar renderers by exact type; bool is not looked up as int, so ``repr``
# only ever meets exact ints, where it is ``int.__repr__``. Past the digit
# limit it raises ``ValueError``, and ``_render`` falls back to ``int_text``.
_SCALARS = {
    str: encode_basestring,
    int: repr,
    bool: _bool,
    type(None): _null,
}


# The entry types of a list that may be written from its nonzero entries.
_ROW_TYPES = frozenset((int, str))


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
        if not all(obj):
            size, zeros = len(obj), obj.count(0)
            if zeros * 2 > size and _ROW_TYPES.issuperset(map(type, obj)):
                nonzero = list(compress(range(size), obj))
                if zeros + len(nonzero) == size:  # no empty string
                    items = ["0"] * size
                    for w in nonzero:
                        v = obj[w]
                        items[w] = encode_basestring(v) if type(v) is str else int_text(v)
                    return "[" + inner + ("," + inner).join(items) + brk + "]"
        try:
            items = [_SCALARS[type(v)](v) for v in obj]
        except (KeyError, ValueError):  # a container, what the writer rejects, or a long int
            items = [_render(v, inner, done) for v in obj]
        return "[" + inner + ("," + inner).join(items) + brk + "]"
    if kind is int:  # any length, where ``repr`` stops at the digit limit
        return int_text(obj)
    render = _SCALARS.get(kind)
    if render is None:
        raise TypeError(f"Object of type {kind.__name__} is not canonical JSON")
    return render(obj)


def check_schema(doc: dict) -> None:
    tag = doc.get("schema")
    if tag is not None and tag != SCHEMA:
        raise SchemaError(f"unsupported schema tag {tag!r}; this tool reads {SCHEMA!r}")


def parse_rational_pair(v) -> tuple[int, int]:
    """A document's rational literal, an int or an ``"a/b"`` string, as a
    pair ``(num, den)`` in lowest terms with ``den > 0`` (``parse_literal``
    reads the strings). Anything else, a bool or a malformed string
    included, is a ``SchemaError``."""
    if isinstance(v, str):
        try:
            return parse_literal(v)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    if isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    raise SchemaError(f"expected an integer or 'a/b' string, got {v!r}")


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


def _support_row(values, length: int, what: str) -> tuple:
    """A type or payoff row of ``length`` literals, read by ``_support_pairs``."""
    if not isinstance(values, list) or len(values) != length:
        raise SchemaError(f"{what} must be a list of {length} rationals")
    return _support_pairs(values)


def _support_pairs(values) -> tuple:
    """``(support, nums, dens)``: the states of the nonzero literals in
    ``values``, in order, and each literal's pair (``parse_rational_pair``).
    The literals ``0`` (an exact int) and ``"0"`` are skipped unparsed;
    every other literal keeps the strict grammar, and one that evaluates to
    zero is dropped. The pairs are in lowest terms, so two rows are equal
    exactly when their rationals are."""
    support, nums, dens = [], [], []
    for w, v in enumerate(values):
        if (type(v) is int and not v) or v == "0":
            continue
        a, d = parse_rational_pair(v)
        if a:
            support.append(w)
            nums.append(a)
            dens.append(d)
    return tuple(support), tuple(nums), tuple(dens)


def _common_form(nums, dens) -> tuple:
    """``(den, nums)``: the reduced rationals ``nums[k] / dens[k]`` over the
    lcm of their denominators, the least common one, so in lowest terms."""
    den = lcm(*dens)
    if den != 1:
        nums = tuple([a * (den // d) for a, d in zip(nums, dens)])
    return den, nums


def _distribution(size: int, row: tuple) -> Distribution:
    """The distribution over ``size`` states of a ``_support_pairs`` row."""
    support, nums, dens = row
    return Distribution.from_integer_form(size, support, *_common_form(nums, dens))


def parse_structure(doc) -> InformationStructure:
    """Build a structure from its document form.

    ``partitions`` lists each player's cells as state labels. Types come
    either per cell (``types``, aligned with the cells) or per state
    (``state_types``, one row per state, constant within each cell). Every
    row's literals are parsed before any type is built; ``make_structure``
    then builds each type, in its own order, from its support's integer form
    (``Distribution.from_integer_form``).
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
    cell_rows = []
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
        cell_rows.append(parsed)

    cell_types = [[partial(_distribution, m, row) for row in rows] for rows in cell_rows]
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


def ratio_value(num: int, den: int):
    """``num / den`` (``den > 0``) as a document holds a rational, written
    from the ints: reduced by one gcd, a plain int when whole, else
    ``"a/b"``, written by ``str`` when both ints have fewer than
    ``ANY_LIMIT_BITS`` bits and by ``int_text`` otherwise."""
    return row_value(num, den, {})


def row_value(num: int, den: int, texts: dict):
    """``ratio_value`` for one entry of a row. Past ``ANY_LIMIT_BITS``
    bits in either reduced int, ``texts`` maps each int converted so far,
    numerator or denominator, to its text, so the entries that share one,
    as a prior over a long denominator does, convert it once."""
    g = gcd(num, den)
    if g == den:
        return num // g
    num, den = num // g, den // g
    if num.bit_length() < ANY_LIMIT_BITS and den.bit_length() < ANY_LIMIT_BITS:
        return f"{num}/{den}"
    return _memo_text(num, texts) + "/" + _memo_text(den, texts)


def _memo_text(n: int, texts: dict) -> str:
    """``int_text(n)``, converted once per ``texts``."""
    text = texts.get(n)
    if text is None:
        text = texts[n] = int_text(n)
    return text


def type_row(t: Distribution) -> list:
    """The JSON row of a type, or of any distribution: 0 off its support,
    and on it each numerator over ``t.den`` as ``ratio_value`` writes it
    (in lowest terms, an int when whole, else ``"a/b"``), by ``row_value``."""
    row = [0] * len(t)
    den, texts = t.den, {}
    for w, a in t.items():
        row[w] = row_value(a, den, texts)
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
    values = _envelope(doc, "dist", "distribution")
    row = _support_pairs(values)
    if len(values) != structure.num_states:
        raise DimensionError(
            f"distribution has {len(values)} entries for {structure.num_states} states"
        )
    return _distribution(len(values), row)


def parse_payoffs(doc, structure: InformationStructure) -> tuple:
    """Per-player payoffs from ``{"payoffs": [...]}`` or a bare list, one
    dense integer form ``(den, nums)`` in lowest terms per player: each row
    read by ``_support_row`` and put over ``_common_form``'s denominator."""
    rows = _envelope(doc, "payoffs", "payoff")
    if len(rows) != structure.num_players:
        raise DimensionError(
            f"{len(rows)} payoff rows for {structure.num_players} players"
        )
    m = structure.num_states
    forms = []
    for row in rows:
        support, nums, dens = _support_row(row, m, "payoff row")
        den, nums = _common_form(nums, dens)
        at = dict(zip(support, nums)).get
        forms.append((den, tuple([at(w, 0) for w in range(m)])))
    return tuple(forms)
