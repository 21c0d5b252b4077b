"""The integer distribution layer against its dense-rational oracles.

Distributions carry ``nums`` over one ``den``; hull weights, witness
verification, expectation tables, pump pieces and pump deficits sum ints and
build one rational per result, and the block walk runs on reduced int
pairs. Each is compared, exactly, with the term-by-term ``Fraction``
definition it replaced (kept in ``harness``), on the six fixtures, generator
seeds 0..199 and planted structures at M in {24, 48}, broken ones for the
walk.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from prior_forge import (
    DimensionError,
    Distribution,
    GeneratorConfig,
    PriorWitness,
    StochasticityError,
    VerificationError,
    expectation_table,
    parse_structure,
    random_structure,
)
from prior_forge import jsonio
from prior_forge.certainty import support_graph
from prior_forge.harness import (
    dense_dot,
    dense_expectation_table,
    dense_hull_weights,
    dense_mixture,
    dense_pump_piece,
    dense_walk_blocks,
    planted_structure,
    random_distribution,
)
from prior_forge.model import dot
from prior_forge.priors import _walk_blocks, blocks, hull_weights
from prior_forge.trades import (
    MoneyPumpWitness,
    SemiTrade,
    find_multiplayer_money_pump,
    pump_piece,
)

FIXTURES = ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4")
SEEDS = range(200)
PLANTED = [(m, n, k) for m in (24, 48) for n in (2, 3) for k in (1, 2)]
CASES = (
    [("fixture", name) for name in FIXTURES]
    + [("seed", seed) for seed in SEEDS]
    + [("planted", mnk) for mnk in PLANTED]
)
CASE_IDS = [
    "-".join(map(str, (kind, *key))) if kind == "planted" else f"{kind}-{key}"
    for kind, key in CASES
]


def _build(kind, key, fixture_path):
    """The structure of one case, with its planted prior where it has one."""
    if kind == "fixture":
        return parse_structure(json.loads(fixture_path(key).read_text(encoding="utf-8"))), None
    if kind == "seed":
        return random_structure(GeneratorConfig(seed=key)), None
    return planted_structure(*key, random.Random(f"integer:{key}"))


def _distributions(structure, planted, rng):
    """The canonical prior, the planted one, and sampled distributions of
    every positivity grade."""
    cfg = GeneratorConfig(max_states=structure.num_states)
    found = [blocks(structure).prior, planted]
    grades = ("any", "maximal", "strongly_maximal")
    found += [random_distribution(structure, cfg, grade, rng) for grade in grades]
    return [d for d in found if d is not None]


def _random_row(m, rng):
    """A payoff row with small numerators and denominators, a quarter of
    it zero."""
    return tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 7)) if rng.randrange(4) else Fraction(0)
        for _ in range(m)
    )


def _dense_defect(structure, prior, rows):
    """The message ``PriorWitness.verify`` must raise, by the dense
    definition, or None when the witness holds."""
    for i, weights in enumerate(rows):
        if any(w < 0 for w in weights):
            return f"player {i} has a negative hull weight"
        if sum(weights, Fraction(0)) != 1:
            return f"player {i} hull weights do not sum to 1"
        mixed = dense_mixture(structure, i, weights)
        for w in range(structure.num_states):
            if mixed[w] != prior[w]:
                return f"player {i} weights fail to reconstruct the prior at state {w}"
    return None


def _message(witness, structure):
    try:
        witness.verify(structure)
    except VerificationError as err:
        return str(err)
    return None


def _dense_semi_trade_defect(structure, payoffs):
    """The message ``MoneyPumpWitness.verify`` must raise on a family that
    is not a semi-trade, by the dense table, or None."""
    for i, row in enumerate(dense_expectation_table(structure, payoffs)):
        for w, e in enumerate(row):
            if e < 0:
                return f"not a semi-trade: player {i} expects {e} < 0 at state {w}"
    return None


def _check_integer_form(dist):
    assert dist.den == math.lcm(*(v.denominator for v in dist.probs))
    assert all(Fraction(a, dist.den) == v for a, v in zip(dist.nums, dist.probs))
    assert dist.support() == tuple(w for w, v in enumerate(dist.probs) if v)


@pytest.mark.parametrize("kind,key", CASES, ids=CASE_IDS)
def test_integer_paths_match_dense_oracles(kind, key, fixture_path):
    structure, planted = _build(kind, key, fixture_path)
    rng = random.Random(f"{kind}:{key}")
    m, n = structure.num_states, structure.num_players
    for types in structure.cell_types:
        for t in types:
            _check_integer_form(t)
    dense_graph = tuple(
        tuple(sorted({v for i in range(n) for v in structure.type_at(i, s).support()}))
        for s in range(m)
    )
    assert support_graph(structure) == dense_graph

    for dist in _distributions(structure, planted, rng):
        _check_integer_form(dist)
        rows = [hull_weights(structure, i, dist) for i in range(n)]
        assert rows == [dense_hull_weights(structure, i, dist) for i in range(n)]
        masses = tuple(tuple(dist.mass(cell) for cell in cells) for cells in structure.partitions)
        assert masses == tuple(
            tuple(sum((dist[w] for w in cell), Fraction(0)) for cell in cells)
            for cells in structure.partitions
        )
        # Verify verdicts on the cell masses (the hull weights where dist is
        # inside a hull), on a prior bumped at one state (a plain tuple, not
        # a Distribution), and on weights swapped between two cells.
        bumped = list(dist.probs)
        bumped[rng.randrange(m)] += Fraction(1, 7)
        forged = [(dist, masses), (tuple(bumped), masses)]
        for i in range(n):
            if len(masses[i]) > 1:
                swapped = list(masses[i])
                swapped[0], swapped[-1] = swapped[-1], swapped[0]
                forged.append((dist, masses[:i] + (tuple(swapped),) + masses[i + 1 :]))
        for prior, weight_rows in forged:
            expected = _dense_defect(structure, prior, weight_rows)
            assert _message(PriorWitness(prior, weight_rows), structure) == expected

        pieces = tuple(pump_piece(structure, i, dist) for i in range(n))
        assert pieces == tuple(dense_pump_piece(structure, i, dist) for i in range(n))
        dense_deficit = dense_dot([sum(col, Fraction(0)) for col in zip(*pieces)], dist.probs)
        pump = find_multiplayer_money_pump(structure, dist)
        if pump is None:
            assert dense_deficit >= 0
        else:
            assert pump.deficit == dense_deficit < 0
        for payoffs in (pieces, tuple(_random_row(m, rng) for _ in range(n))):
            assert expectation_table(structure, payoffs) == dense_expectation_table(structure, payoffs)
            for f in payoffs:
                assert dot(f, dist) == dot(f, dist.probs) == dense_dot(f, dist.probs)
            deficit = sum((dense_dot(f, dist.probs) for f in payoffs), Fraction(0))
            message = _message(MoneyPumpWitness(dist, SemiTrade(payoffs), deficit, "plain"), structure)
            defect = _dense_semi_trade_defect(structure, payoffs)
            if defect is not None:
                assert message == defect
            else:
                assert message is None or not message.startswith("not a semi-trade")

    trade = blocks(structure).payoffs
    if trade is not None:
        assert expectation_table(structure, trade) == dense_expectation_table(structure, trade)


def test_distribution_errors_keep_their_messages():
    with pytest.raises(StochasticityError, match="^negative mass$"):
        Distribution(("-1/2", "3/2"))
    with pytest.raises(StochasticityError, match="^masses sum to 5/6, not 1$"):
        Distribution(("1/2", "1/3"))
    with pytest.raises(StochasticityError, match="^masses sum to 0, not 1$"):
        Distribution(())
    d = Distribution(("1/6", 0, "1/3", "1/2"))
    assert (d.den, d.nums, d.support()) == (6, (1, 0, 2, 3), (0, 2, 3))
    assert d.mass((0, 3)) == Fraction(2, 3)


def test_expectation_table_rejects_a_short_row(intro):
    with pytest.raises(DimensionError, match="^length mismatch: 5 vs 4$"):
        expectation_table(intro, ((0, 0, 0, 0), (0, 0, 0, 0, 0)))


BLOCK_FIELDS = ("live", "support", "prior", "hull_weights", "margin", "payoffs")


def _rational_types(value):
    """The types of every number in a walk field, flattened."""
    if isinstance(value, Distribution):
        return [type(v) for v in value.probs]
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return [type(v) for row in value for v in row]
    return [type(value)]


def test_walk_on_integer_forms_matches_the_fraction_walk(fixture_path, broken_planted):
    structures = [_build("fixture", name, fixture_path)[0] for name in FIXTURES]
    structures += [random_structure(GeneratorConfig(seed=seed)) for seed in SEEDS]
    for key in itertools.product((24, 48), (2, 3), ("mixed", "cycle"), (1, 2)):
        structures.append(broken_planted(*key))
    seen = set()
    for structure in structures:
        walk, dense = _walk_blocks(structure), dense_walk_blocks(structure)
        for name in BLOCK_FIELDS:
            ours, theirs = getattr(walk, name), getattr(dense, name)
            assert ours == theirs, name
            if name in ("prior", "hull_weights", "margin", "payoffs") and theirs is not None:
                assert _rational_types(ours) == _rational_types(theirs), name
        seen.add((walk.common, walk.strong))
    # Every verdict occurs: no block live, some live, all live.
    assert seen == {(False, False), (True, False), (True, True)}


def test_structure_rows_read_each_support_entry_once(monkeypatch, fixture_path):
    calls = []

    def counted(q):
        calls.append(q)
        return to_json_value(q)

    to_json_value = jsonio.to_json_value
    monkeypatch.setattr(jsonio, "to_json_value", counted)
    structures = [_build("fixture", name, fixture_path)[0] for name in FIXTURES]
    structures += [_build("planted", key, fixture_path)[0] for key in PLANTED]
    for structure in structures:
        calls.clear()
        doc = jsonio.structure_to_json(structure)
        entries = sum(len(t.support()) for types in structure.cell_types for t in types)
        assert len(calls) <= entries
        assert doc["types"] == [
            [[to_json_value(v) for v in t] for t in types] for types in structure.cell_types
        ]
