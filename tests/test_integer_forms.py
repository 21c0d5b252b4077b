"""The integer paths against their dense-rational oracles.

Distributions carry ``nums`` over one ``den``, and so does every row of a
payoff family; hull weights, witness verification, expectation tables, trade
grades, pump pieces and pump deficits sum ints and build one rational per
result, and the block walk runs on reduced int pairs. Each is compared,
exactly, with the term-by-term ``Fraction`` definition it replaced (kept in
``oracles``), on the six fixtures, generator seeds 0..199 and planted
structures at M in {24, 48}, broken ones for the walk.

LP constraints carry ``nums`` over one ``den`` as well, and the simplex's
starting tableau and self-checks read them; the two exponential event walks
of the single-player theory keep running integer sums. Their term-by-term
``Fraction`` definitions live in this file as their oracles: the starting
tableau against ``oracles.standardize`` on every program the pinned-outcome
test builds, the point and certificate checks against ``dense_feasibility_violations``
and ``dense_farkas_violations``, and the walks against
``dense_is_conglomerable`` and ``dense_disintegrable_by_definition`` on every
player view of seeds 0..1999 and the fixtures. The simplex's pivots and flips
on those programs are pinned by a digest.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from prior_forge import (
    DimensionError,
    Distribution,
    InconsistencyError,
    InputError,
    PriorWitness,
    StochasticityError,
    Trade,
    VerificationError,
    classify_trade,
    make_structure,
    parse_structure,
)
from prior_forge import jsonio
from prior_forge.certainty import closure
from prior_forge.harness import chain_structure, planted_structure, random_distribution
from prior_forge.harness import GeneratorConfig, common_prior_program, random_structure
from prior_forge.lp import (
    FarkasCertificate,
    LPBuilder,
    _RHS,
    _Tableau,
    farkas_violations,
    feasibility_violations,
    solve,
)
from prior_forge.model import fraction_rows, integer_form, single_player_view, state_nums
from prior_forge.priors import (
    NOTIONS,
    _off_hull,
    _read_off,
    _walk_blocks,
    blocks,
    cell_masses,
    disintegrable_by_definition,
    hull_weights,
    is_conglomerable,
)
from prior_forge.report import pump_json, trade_json
from prior_forge.trades import (
    MoneyPumpWitness,
    build_prior_report,
    find_multiplayer_money_pump,
    pump_piece,
)

from oracles import (
    acceptable_trade_program,
    add_constraint,
    agreeable_trade_program,
    dense_classify_trade,
    dense_dot,
    dense_expectation_table,
    dense_hull_weights,
    dense_mixture,
    dense_pump_piece,
    dense_walk_blocks,
    enumerate_basic_solutions,
    fraction_pump_json,
    fraction_read_off,
    fraction_trade_json,
    joint_common_prior_program,
    off_mixture,
    reachable,
    standardize,
    to_json_value,
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
    found += [random_distribution(structure, cfg, notion, rng) for notion in NOTIONS]
    return [d for d in found if d is not None]


def _random_row(m, rng):
    """A payoff row with small numerators and denominators, a quarter of
    it zero."""
    return tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 7)) if rng.randrange(4) else Fraction(0)
        for _ in range(m)
    )


def _graded_families(structure, rng):
    """Payoff families to grade: random rows, which are seldom trades; a
    zero-sum trade; that trade pushed over 0 at one state; and rows whose
    every cell expectation is exactly 0, one per player, with nonzero
    entries wherever a cell's type charges two states."""
    m, n = structure.num_states, structure.num_players
    found = [tuple(_random_row(m, rng) for _ in range(n))]
    rows = [list(_random_row(m, rng)) for _ in range(n - 1)]
    rows.append([-sum(col, Fraction(0)) for col in zip(*rows)] if rows else [Fraction(0)] * m)
    found.append(tuple(map(tuple, rows)))
    rows[0][rng.randrange(m)] += Fraction(1, 7)
    found.append(tuple(map(tuple, rows)))
    for i in range(n):
        row = [Fraction(0)] * m
        for t in structure.cell_types[i]:
            if len(t.support()) > 1:
                v, w = t.support()[:2]
                row[v], row[w] = t[w], -t[v]
        family = [_random_row(m, rng) for _ in range(n)]
        family[i] = tuple(row)
        found.append(tuple(family))
    return found


def _dense_defect(structure, prior):
    """The message ``PriorWitness.verify`` must raise, by the dense
    definition at the prior's cell masses, or None when the witness holds."""
    for i, cells in enumerate(structure.partitions):
        weights = [sum((prior[w] for w in cell), Fraction(0)) for cell in cells]
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
    assert [Fraction(a, dist.den) for _, a in dist.items()] == [v for v in dist.probs if v]
    assert dist.support() == tuple(w for w, v in enumerate(dist.probs) if v)
    assert dist.support() == tuple(w for w, _ in dist.items())


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
    assert [closure(structure, w) for w in range(m)] == list(reachable(dense_graph))

    families = _graded_families(structure, random.Random(f"grades:{kind}:{key}"))
    trade_forms = blocks(structure).payoff_forms
    if trade_forms is not None:
        families.append(fraction_rows(trade_forms))
    grades = [classify_trade(structure, tuple(map(integer_form, payoffs))) for payoffs in families]
    assert grades == [dense_classify_trade(structure, payoffs) for payoffs in families]
    assert [g.is_trade for g in grades[1:3]] == [True, False]
    for i in range(n):
        assert set(fraction_rows(grades[3 + i].expectation_forms)[i]) == {0}

    for dist in _distributions(structure, planted, rng):
        _check_integer_form(dist)
        rows = [hull_weights(structure, i, dist) for i in range(n)]
        assert rows == [dense_hull_weights(structure, i, dist) for i in range(n)]
        masses = tuple(tuple(dist.mass(cell) for cell in cells) for cells in structure.partitions)
        assert masses == tuple(
            tuple(sum((dist[w] for w in cell), Fraction(0)) for cell in cells)
            for cells in structure.partitions
        )
        # Verify verdicts on dist and on dist moved 1/7 of the way toward
        # one state, each at its own cell masses.
        moved = [6 * q / 7 for q in dist.probs]
        moved[rng.randrange(m)] += Fraction(1, 7)
        for prior in (dist, Distribution(moved)):
            assert _message(PriorWitness(prior), structure) == _dense_defect(structure, prior)

        forms = tuple(pump_piece(structure, i, state_nums(dist)) for i in range(n))
        pieces = tuple(dense_pump_piece(structure, i, dist) for i in range(n))
        assert forms == tuple(map(integer_form, pieces))
        dense_deficit = dense_dot([sum(col, Fraction(0)) for col in zip(*pieces)], dist.probs)
        pump = find_multiplayer_money_pump(structure, dist)
        if pump is None:
            assert dense_deficit >= 0
        else:
            assert pump.deficit == dense_deficit < 0
        for payoffs in (pieces, tuple(_random_row(m, rng) for _ in range(n))):
            forms = tuple(map(integer_form, payoffs))
            table = fraction_rows(classify_trade(structure, forms).expectation_forms)
            assert table == dense_expectation_table(structure, payoffs)
            deficit = sum((dense_dot(f, dist.probs) for f in payoffs), Fraction(0))
            witness = MoneyPumpWitness(dist, forms, deficit, "plain")
            message = _message(witness, structure)
            defect = _dense_semi_trade_defect(structure, payoffs)
            if defect is not None:
                assert message == defect
            else:
                assert message is None or not message.startswith("not a semi-trade")

    if trade_forms is not None:
        table = fraction_rows(classify_trade(structure, trade_forms).expectation_forms)
        assert table == dense_expectation_table(structure, fraction_rows(trade_forms))


# The benchmark's planted sizes: (M, N, blocks).
BENCH_PLANTED = tuple(itertools.product((32, 44), (3, 4), (1, 2, 4)))


def test_trade_and_pump_pieces_match_their_fraction_rendering(fixture_path):
    """The report writes the refuting trade, its expectations and a pump
    from their integer forms; the ``Fraction`` rendering they replaced,
    ``to_json_value`` over the dense oracles' rows, is the oracle, on the
    six fixtures, generator seeds 0..399 and planted structures at the
    benchmark's sizes, each with sampled distributions."""
    cases = [_build("fixture", name, fixture_path) for name in FIXTURES]
    cases += [_build("seed", seed, fixture_path) for seed in range(400)]
    cases += [_build("planted", key, fixture_path) for key in BENCH_PLANTED]
    trades = pumps = 0
    for structure, planted in cases:
        n = structure.num_players
        walk = blocks(structure)
        assert walk.payoff_forms == dense_walk_blocks(structure).payoff_forms
        if walk.payoff_forms is not None:
            priors = build_prior_report(structure)
            trade, cls = priors.trade, priors.trade_class
            payoffs = fraction_rows(trade.forms)
            assert cls == dense_classify_trade(structure, payoffs)
            table = dense_expectation_table(structure, payoffs)
            assert trade_json(structure, trade.forms, cls) == fraction_trade_json(
                structure, payoffs, cls, table
            )
            # Forms not in lowest terms name the same trade.
            scaled = tuple((3 * den, tuple(3 * a for a in nums)) for den, nums in trade.forms)
            twin, same = Trade(scaled), Trade(tuple(map(integer_form, payoffs)))
            assert twin == trade == same and hash(twin) == hash(same)
            assert twin.forms == trade.forms
            trades += 1
        rng = random.Random(f"render:{structure.num_states}:{n}")
        for dist in _distributions(structure, planted, rng):
            rows = tuple(dense_pump_piece(structure, i, dist) for i in range(n))
            forms = tuple(pump_piece(structure, i, state_nums(dist)) for i in range(n))
            assert forms == tuple(map(integer_form, rows))
            pump = find_multiplayer_money_pump(structure, dist)
            if pump is not None:
                assert fraction_rows(pump.forms) == rows
                assert pump_json(structure, pump) == fraction_pump_json(
                    dist, rows, pump.deficit, pump.kind
                )
                pumps += 1
    assert (trades, pumps) == (169, 912)


def test_distribution_errors_keep_their_messages():
    with pytest.raises(StochasticityError, match="^negative mass$"):
        Distribution(("-1/2", "3/2"))
    with pytest.raises(StochasticityError, match="^masses sum to 5/6, not 1$"):
        Distribution(("1/2", "1/3"))
    with pytest.raises(StochasticityError, match="^masses sum to 0, not 1$"):
        Distribution(())
    d = Distribution(("1/6", 0, "1/3", "1/2"))
    assert (d.den, tuple(d.items()), d.support()) == (6, ((0, 1), (2, 2), (3, 3)), (0, 2, 3))
    assert d.mass((0, 3)) == Fraction(2, 3)


def test_trade_rejects_a_tiny_positive_sum():
    """The pointwise sum is tested on ints over the rows' common
    denominator; the message prints it as the reduced rational."""
    tiny = Fraction(1, 10**40)
    Trade((integer_form((0, Fraction(1, 3))), integer_form((-1, Fraction(-1, 3)))))
    with pytest.raises(
        InconsistencyError,
        match=f"^payoffs sum to 1/1{'0' * 40} > 0 at state index 1; not a trade$",
    ):
        Trade((integer_form((0, Fraction(1, 3))), integer_form((-1, Fraction(-1, 3) + tiny))))


def test_a_trade_from_forms_checks_its_forms():
    # Forms are taken in any scale and reduced, a row's denominator is
    # positive, and the pointwise sums are checked on the forms.
    trade = Trade(((6, (0, 2)), (3, (-3, -1))))
    assert trade.forms == ((3, (0, 1)), (3, (-3, -1)))
    assert fraction_rows(trade.forms) == ((0, Fraction(1, 3)), (-1, Fraction(-1, 3)))
    with pytest.raises(InputError, match="^a trade's row denominators must be positive$"):
        Trade(((-3, (0, 1)), (3, (0, -1))))
    with pytest.raises(InconsistencyError, match="^payoffs sum to 1/3 > 0 at state index 1"):
        Trade(((3, (0, 2)), (3, (0, -1))))


def test_a_certificate_refuses_a_denominator_that_is_not_positive():
    # The denominator is checked before a form is reduced: a zero one would
    # divide by gcd(0, 0, 0), and a negative one would hold the payoff 1 as
    # (-1, (-1,)), unequal to (1, (1,)).
    two = Distribution(("1/2", "1/2"))
    builders = {
        "a trade": lambda den: Trade(forms=((den, (0, 0)), (1, (0, 0)))),
        "a semi-trade": lambda den: MoneyPumpWitness(
            distribution=two, forms=((den, (0, 0)),), deficit=0, kind="plain"
        ),
    }
    for what, build in builders.items():
        for den in (0, -1):
            with pytest.raises(InputError, match=f"^{what}'s row denominators must be positive$"):
                build(den)


def test_a_malformed_form_is_an_input_error():
    # A form is a pair of an int denominator, not a bool, and a sequence of
    # ints. Rows of rationals, a bare int for the numerators, a Fraction or
    # bool denominator and a numerator that is not an int (a Fraction, a
    # float or a bool) are refused with an InputError naming the holder,
    # classify_trade's payoff family included.
    two = Distribution(("1/2", "1/2"))
    s = make_structure(["a", "b"], ["P", "Q"], [[[0, 1]], [[0, 1]]], [[two], [two]])
    malformed = [
        [[0, 1, 1, 0], [0, -1, -1, 0]],
        [[1, 1], [1, 1]],
        [(1, 5), (1, 5)],
        [(Fraction(1, 2), (1, -1)), (1, (0, 0))],
        [(True, (0, 0)), (1, (0, 0))],
        [(1, (0, Fraction(1, 2))), (1, (0, 0))],
        [(1, (0, 0.5)), (1, (0, 0))],
        [(1, (0, True)), (1, (0, 0))],
        [(1, (0, 0), 1), (1, (0, 0))],
    ]
    builders = {
        "a trade": Trade,
        "a semi-trade": lambda forms: MoneyPumpWitness(two, forms, Fraction(-1), "plain"),
        "a payoff family": lambda forms: classify_trade(s, forms),
    }
    for what, build in builders.items():
        for forms in malformed:
            with pytest.raises(InputError, match=f"^{what}'s rows must be \\(den, nums\\) pairs of ints$"):
                build(forms)


def test_pump_piece_breaks_ties_toward_the_lower_state():
    """In cell {a, b} the ratios p/t are 1/2 at both states, with p's
    numerators (1, 2) over 6 and t's (1, 2) over 3: a is raised first, to
    +1, and b stops at -1/2. Raising b first would give (-1, 1/2)."""
    s = make_structure(["a", "b", "c"], ["P"], [[[0, 1], [2]]], [[{0: "1/3", 1: "2/3"}, {2: 1}]])
    p = Distribution(("1/6", "2/6", "3/6"))
    expected = (Fraction(1), Fraction(-1, 2), Fraction(0))
    assert dense_pump_piece(s, 0, p) == expected
    assert pump_piece(s, 0, state_nums(p)) == integer_form(expected) == (2, (2, -1, 0))


def test_expectation_table_rejects_a_short_row(intro):
    # Every row's length is checked, not only the first's.
    for forms in (((1, (0,) * 4), (1, (0,) * 5)), ((1, (0,) * 5), (1, (0,) * 4))):
        with pytest.raises(DimensionError, match="^payoff vector has 4 entries, expected 5$"):
            classify_trade(intro, forms)


BLOCK_FIELDS = ("live", "prior", "payoff_forms")


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
            if name.endswith("_forms"):  # compared as rows of rationals
                ours, theirs = (None if x is None else fraction_rows(x) for x in (ours, theirs))
            assert ours == theirs, name
            if name in ("prior", "payoff_forms") and theirs is not None:
                assert _rational_types(ours) == _rational_types(theirs), name
        seen.add((walk.common, walk.strong))
    # Every verdict occurs: no block live, some live, all live.
    assert seen == {(False, False), (True, False), (True, True)}


def test_prior_read_off_matches_the_fraction_read_off(monkeypatch, fixture_path):
    # The walk reads its canonical prior off as an integer form; the read-off
    # it replaced, one Fraction per state and cell and Distribution(probs),
    # is the oracle on the walk's own state values.
    structures = [_build("fixture", name, fixture_path)[0] for name in FIXTURES]
    structures += [random_structure(GeneratorConfig(seed=seed)) for seed in range(2000)]
    structures += [
        chain_structure(m, k) for m in (1, 2, 3, 256) for k in (1, 3, 2**64 - 1)
    ]
    calls = []

    def recording(*args):
        calls.append((args, _read_off(*args)))
        return calls[-1][1]

    monkeypatch.setattr("prior_forge.priors._read_off", recording)
    kinds = set()
    for structure in structures:
        walk = _walk_blocks(structure)
        args, ours = calls[-1]
        theirs = fraction_read_off(*args)
        # The oracle's hull weights, each live cell's lambda over its type,
        # are the prior's cell masses, which the report reads off it.
        prior = ours
        rows = None if prior is None else tuple(
            tuple(Fraction(a, prior.den) for a in cell_masses(structure, i, state_nums(prior)))
            for i in range(structure.num_players)
        )
        assert (prior, rows) == theirs
        assert walk.prior is prior
        if prior is not None:
            assert (prior.den, prior.support()) == (theirs[0].den, theirs[0].support())
        kinds.add((walk.common, walk.strong, len(args[2])))
    assert len(calls) == len(structures)
    # No block live, some live, all live; and several live blocks at once.
    assert {k[:2] for k in kinds} == {(False, False), (True, False), (True, True)}
    assert max(k[2] for k in kinds) > 1


def _pushed(dist, rng):
    """``dist`` moved off its place: one numerator unit carried from a
    charged state to another state, and ``dist`` moved 1/7 of the way
    toward one state."""
    m, nums = len(dist), state_nums(dist)
    a, b = rng.choice(dist.support()), rng.randrange(m)
    nums[a] -= 1
    nums[b] += 1
    unit = Distribution.from_support(m, {w: Fraction(a, dist.den) for w, a in enumerate(nums)})
    moved = [6 * q / 7 for q in dist.probs]
    moved[rng.randrange(m)] += Fraction(1, 7)
    return [unit, Distribution(moved)]


def test_hull_rule_matches_the_weighted_mixture_oracle():
    # The hull rule multiplies a cell mass by a small type numerator and
    # cancels den; the weighted-mixture check it replaced, at the cell
    # masses over den, gives the same off states: on the canonical prior
    # and a sampled distribution of generator seeds 0..999, on each pushed
    # off its place, and on the 256-state chain's prior, pushed too.
    rng = random.Random("hull rule")
    cases = []
    for seed in range(1000):
        cfg = GeneratorConfig(seed=seed)
        s = random_structure(cfg)
        dists = [random_distribution(s, cfg, NOTIONS[0], rng)]
        witness = _walk_blocks(s).prior
        if witness is not None:
            dists.append(witness)
        cases += [(s, d) for dist in dists for d in (dist, *_pushed(dist, rng))]
    chain = chain_structure(256, 2**64 - 1)
    prior = _walk_blocks(chain).prior
    cases += [(chain, d) for d in (prior, *_pushed(prior, rng))]
    counts = [0, 0]
    for s, dist in cases:
        nums = state_nums(dist)
        for i in range(s.num_players):
            ours = _off_hull(s, i, nums)
            masses = cell_masses(s, i, nums)
            assert ours == off_mixture(s, i, dist.den, masses, dist.den, nums)
            counts[bool(ours)] += 1
    assert min(counts) > 1000
    assert _off_hull(chain, 0, state_nums(prior)) == []


def test_structure_rows_read_each_support_entry_once(monkeypatch, fixture_path):
    # A row is written from the support's integer numerators: one gcd per
    # nonzero entry, and no rational built.
    calls = []

    def counted(a, b):
        calls.append(a)
        return math.gcd(a, b)

    monkeypatch.setattr(jsonio, "gcd", counted)
    structures = [_build("fixture", name, fixture_path)[0] for name in FIXTURES]
    structures += [_build("planted", key, fixture_path)[0] for key in PLANTED]
    for structure in structures:
        calls.clear()
        doc = jsonio.structure_to_json(structure)
        entries = sum(len(t.support()) for types in structure.cell_types for t in types)
        assert len(calls) == entries
        assert doc["types"] == [
            [[to_json_value(v) for v in t] for t in types] for types in structure.cell_types
        ]


# -- LP rows on integer forms ---------------------------------------------


def dense_feasibility_violations(lp, x):
    """``lp.feasibility_violations`` term by term in rationals: its oracle."""
    bad = []
    if len(x) != lp.num_vars:
        return [f"point has {len(x)} coordinates, expected {lp.num_vars}"]
    for k, con in enumerate(lp.constraints):
        lhs = sum((a * x[j] for j, a in con.coeffs.items()), Fraction(0))
        ok = lhs <= con.rhs if con.rel == "<=" else lhs >= con.rhs if con.rel == ">=" else lhs == con.rhs
        if not ok:
            bad.append(f"constraint {k}: {lhs} {con.rel} {con.rhs} fails")
    for j in range(lp.num_vars):
        if x[j] < lp.lower[j]:
            bad.append(f"variable {lp.names[j]} below lower bound")
        if lp.upper[j] is not None and x[j] > lp.upper[j]:
            bad.append(f"variable {lp.names[j]} above upper bound")
    return bad


def dense_farkas_violations(lp, cert):
    """``lp.farkas_violations`` term by term in rationals: its oracle."""
    bad = []
    mus = cert.constraint_multipliers
    los = cert.lower_multipliers
    ups = cert.upper_multipliers
    if len(mus) != len(lp.constraints) or len(los) != lp.num_vars or len(ups) != lp.num_vars:
        return ["certificate shape mismatch"]
    for k, con in enumerate(lp.constraints):
        if con.rel == "<=" and mus[k] < 0:
            bad.append(f"multiplier {k} negative on a <= row")
        if con.rel == ">=" and mus[k] > 0:
            bad.append(f"multiplier {k} positive on a >= row")
    for j in range(lp.num_vars):
        if los[j] > 0:
            bad.append(f"lower multiplier {j} positive")
        if ups[j] < 0:
            bad.append(f"upper multiplier {j} negative")
        if ups[j] != 0 and lp.upper[j] is None:
            bad.append(f"upper multiplier {j} used without a bound")
    combo = [Fraction(0)] * lp.num_vars
    rhs = Fraction(0)
    for mu, con in zip(mus, lp.constraints):
        if mu:
            for j, a in con.coeffs.items():
                combo[j] += mu * a
            rhs += mu * con.rhs
    for j in range(lp.num_vars):
        residual = combo[j] + los[j] + ups[j]
        if residual != 0:
            bad.append(f"variable {lp.names[j]} does not cancel (residual {residual})")
    rhs += sum((los[j] * lp.lower[j] for j in range(lp.num_vars) if los[j] != 0), Fraction(0))
    rhs += sum((ups[j] * lp.upper[j] for j in range(lp.num_vars) if ups[j] != 0), Fraction(0))
    if not rhs < 0:
        bad.append(f"combined right-hand side {rhs} is not negative")
    return bad


def _offset_bound_programs():
    """Programs shifted onto nonzero integer lower bounds under rows of
    fractions, so each rhs moves off the row's denominator: negative and
    positive lower bounds, upper bounds on shifted variables, a boxed
    program whose optimum holds x, y and z at their upper bounds, and an
    infeasible variant of each; the boxed one's certificate needs upper
    multipliers on the column bounds of x and y."""
    programs = []
    for infeasible in (False, True):
        b = LPBuilder()
        x = b.add_var("x", lower=1, objective=2)
        y = b.add_var("y", lower=-3, objective=Fraction(-1, 4))
        z = b.add_var("z", lower=2)
        add_constraint(b, {x: Fraction(3, 4), y: 1, z: Fraction(-2, 5)}, "<=", Fraction(9, 2))
        add_constraint(b, {x: 1, y: Fraction(1, 3)}, ">=", Fraction(-1, 6))
        add_constraint(b, {x: Fraction(1, 2), z: Fraction(3, 2)}, "<=", 4)
        add_constraint(b, {y: 1, z: 1}, "=", Fraction(5, 3))
        if infeasible:
            add_constraint(b, {x: 1, z: 1}, "<=", Fraction(4, 3))
        programs.append(b.build(maximize=True))

        b = LPBuilder()
        x = b.add_var("x", lower=-1, upper=2, objective=1)
        y = b.add_var("y", lower=-2, upper=1, objective=Fraction(2, 3))
        w = b.add_var("w", lower=0, upper=3, objective=-1)
        add_constraint(b, {x: 1, y: 1, w: Fraction(1, 2)}, "<=", Fraction(11, 4))
        add_constraint(b, {y: 1, w: -1}, ">=", Fraction(-3, 2))
        if infeasible:
            add_constraint(b, {x: 1, y: 1}, ">=", 4)
        programs.append(b.build(maximize=True))

        b = LPBuilder()
        x = b.add_var("x", lower=-1, upper=1, objective=3)
        y = b.add_var("y", lower=0, upper=2, objective=2)
        z = b.add_var("z", lower=-4, upper=1, objective=1)
        w = b.add_var("w", lower=0, objective=1)
        add_constraint(b, {x: Fraction(1, 2), y: 1, w: 1}, "<=", 4)
        add_constraint(b, {z: 1, y: -1}, ">=", -3)
        if infeasible:
            add_constraint(b, {x: 1, y: 1}, ">=", 4)
        programs.append(b.build(maximize=True))
    return programs


def _shifted_column_programs(count=60):
    """Random programs over three variables, each shifted onto a nonzero
    integer lower bound, mostly negative, and bounded above one time in
    three, under rows of small fractions."""
    rng = random.Random(26)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    programs = []
    for _ in range(count):
        b = LPBuilder()
        variables = []
        for name in ("x", "y", "z"):
            lower = rng.randint(-9, 1) or 1
            upper = rng.choice((None, None, lower + rng.randint(0, 3)))
            variables.append(b.add_var(name, lower=lower, upper=upper, objective=frac()))
        for _ in range(rng.randint(2, 3)):
            picked = rng.sample(variables, rng.randint(1, len(variables)))
            add_constraint(b, {j: frac() or 1 for j in picked}, rng.choice(("<=", ">=", "=")), frac())
        programs.append(b.build(maximize=rng.random() < 0.5))
    return programs


def test_shifted_columns_solve_as_the_enumerated_vertices():
    """On each of ``_shifted_column_programs`` the simplex agrees with the
    basis enumeration: the optimum is the best enumerated vertex, an
    infeasible program has no vertex and a Farkas certificate, and an
    unbounded one has a vertex."""
    statuses = []
    for lp in _shifted_column_programs():
        out = solve(lp)
        statuses.append(out.status)
        vertices = enumerate_basic_solutions(lp)
        if out.status == "optimal":
            assert feasibility_violations(lp, out.point) == []
            values = [dense_dot(lp.objective, point) for point in vertices]
            assert out.objective_value == (max(values) if lp.maximize else min(values))
        elif out.status == "infeasible":
            assert vertices == ()
            assert farkas_violations(lp, out.certificate) == []
        else:
            assert vertices
    assert min(map(statuses.count, ("optimal", "infeasible", "unbounded"))) >= 10


@pytest.fixture(scope="module")
def programs(fixture_path):
    """Every program ``test_simplex_outcomes_are_pinned`` solves, then
    ``_offset_bound_programs`` and ``_shifted_column_programs``, each with
    its outcome."""
    builders = (
        common_prior_program,
        joint_common_prior_program,
        agreeable_trade_program,
        acceptable_trade_program,
    )
    structures = [_build("fixture", name, fixture_path)[0] for name in FIXTURES]
    structures += [random_structure(GeneratorConfig(seed=seed)) for seed in SEEDS]
    found = [build(s) for s in structures for build in builders]
    found += _offset_bound_programs() + _shifted_column_programs()
    return [(lp, solve(lp)) for lp in found]


def test_offset_bounds_solve_to_enumerated_vertices():
    outcomes = []
    solved = [(lp, solve(lp)) for lp in _offset_bound_programs()]
    for lp, out in solved:
        outcomes.append(out.status)
        if out.status == "optimal":
            assert feasibility_violations(lp, out.point) == []
            best = max(dense_dot(lp.objective, point) for point in enumerate_basic_solutions(lp))
            assert out.objective_value == best
        else:
            assert enumerate_basic_solutions(lp) == ()
            assert farkas_violations(lp, out.certificate) == []
    assert outcomes == ["optimal"] * 3 + ["infeasible"] * 3
    lp, out = solved[2]
    assert [n for n, v, up in zip(lp.names, out.primal, lp.upper) if v == up] == ["x", "y", "z"]
    assert out.objective_value == Fraction(19, 2)
    lp, out = solved[5]
    uppers = out.certificate.upper_multipliers
    assert [n for n, u in zip(lp.names, uppers) if u] == ["x", "y"]


def test_integer_standard_form_matches_the_rational_one(programs):
    """The simplex's starting tableau against the oracle's standard form,
    which writes every upper bound as a row. Both shift every variable onto
    its lower bound, so column j is variable j in each. With the slack and
    artificial columns dropped and the negation undone, each starting row
    is its constraint's ``nums`` over its ``den`` and agrees with the
    oracle's user row entry by entry, their rhs moved alike. The oracle's
    rows after the user rows, one per finite upper bound in variable order,
    each appear as an equal column bound. The tableau's costs are the
    objective's, signed for minimization, and its cost constant is their
    sum over the lower bounds."""
    fractional = bounded = shifted = 0
    for lp, _ in programs:
        tab, theirs = _Tableau(lp), standardize(lp)
        n, user = lp.num_vars, len(lp.constraints)
        assert theirs.ncols == n
        upper = [j for j, up in enumerate(lp.upper) if up is not None]
        assert len(theirs.rows) == len(theirs.row_rel) == len(theirs.row_rhs) == user + len(upper)
        assert theirs.row_rel[:user] == [con.rel for con in lp.constraints]
        assert len(tab.rows) == len(tab.dens) == len(tab.negated) == user
        for con, row, den, negated, dense_row, dense_rhs in zip(
            lp.constraints, tab.rows, tab.dens, tab.negated, theirs.rows, theirs.row_rhs
        ):
            sign = -1 if negated else 1
            nums = {j: sign * v for j, v in row.items() if 0 <= j < n}
            rhs = sign * row.get(_RHS, 0)
            assert nums == con.nums and den == con.den
            assert {j: Fraction(v, den) for j, v in nums.items()} == dense_row
            assert Fraction(rhs, den) == dense_rhs
            # lowest terms: the rows the tableau starts from are unique
            assert math.gcd(den, rhs, *nums.values()) == 1
            fractional += den > 1
        tail = zip(upper, theirs.rows[user:], theirs.row_rel[user:], theirs.row_rhs[user:])
        bounds = {}
        for j, dense_row, rel, dense_rhs in tail:
            assert (dense_row, rel) == ({j: 1}, "<=")
            bounds[j] = dense_rhs
        assert tab.upper == bounds
        bounded += len(bounds)
        shifted += any(lp.lower)
        assert lp.cost_den > 0
        sign = -1 if lp.maximize else 1
        costs = {j: Fraction(v, lp.cost_den) for j, v in tab.costs.items()}
        assert costs == {j: sign * c for j, c in enumerate(lp.objective) if c}
        assert math.gcd(lp.cost_den, *tab.costs.values()) == 1
        constant = sum((sign * c * lo for c, lo in zip(lp.objective, lp.lower)), Fraction(0))
        assert Fraction(tab.cost_const, lp.cost_den) == constant
    assert fractional and bounded and shifted


def _row_breaking(lp, x, k):
    """``x`` moved along the first variable of row k so that the row fails."""
    con = lp.constraints[k]
    j, a = next(iter(con.coeffs.items()))
    lhs = sum((c * x[i] for i, c in con.coeffs.items()), Fraction(0))
    target = {"<=": con.rhs + Fraction(1, 3), ">=": con.rhs - Fraction(1, 3), "=": lhs + Fraction(1, 3)}
    moved = list(x)
    moved[j] += (target[con.rel] - lhs) / a
    return tuple(moved)


def test_feasibility_violations_match_the_term_by_term_check(programs):
    seen = {"constraint": 0, "below": 0, "above": 0}
    for lp, out in programs:
        if out.status != "optimal":
            continue
        x = out.primal
        assert feasibility_violations(lp, out.point) == dense_feasibility_violations(lp, x) == []
        rows = [k for k, con in enumerate(lp.constraints) if con.coeffs]
        points = [_row_breaking(lp, x, k) for k in rows[:2] + rows[-1:]]
        for bounds, step in ((lp.lower, Fraction(-1, 3)), (lp.upper, Fraction(1, 3))):
            held = [j for j, bound in enumerate(bounds) if bound is not None]
            points += [x[:j] + (bounds[j] + step,) + x[j + 1 :] for j in held[:1] + held[-1:]]
        for point in points:
            messages = feasibility_violations(lp, integer_form(point))
            assert messages and messages == dense_feasibility_violations(lp, point)
            for key in seen:
                seen[key] += any(key in message for message in messages)
        longer = x + (Fraction(0),)
        assert feasibility_violations(lp, integer_form(longer)) == dense_feasibility_violations(lp, longer)
    assert all(seen.values()), seen


def _tampered(lp, cert):
    """Certificates that must fail, forged on the integer forms: the
    multiplier of a non-empty row doubled, every multiplier negated, and
    one bound multiplier moved 1/5 off its value."""
    forms = (cert.constraint_form, cert.lower_form, cert.upper_form)
    (mden, mus), (lden, los), _ = forms
    k = next(k for k, mu in enumerate(mus) if mu and lp.constraints[k].coeffs)
    doubled = mus[:k] + (2 * mus[k],) + mus[k + 1 :]
    found = [
        FarkasCertificate((mden, doubled), *forms[1:]),
        FarkasCertificate(*((den, tuple(-v for v in nums)) for den, nums in forms)),
    ]
    moved = [5 * v for v in los]
    moved[0] -= lden
    found.append(FarkasCertificate(forms[0], (5 * lden, tuple(moved)), forms[2]))
    return found


def test_farkas_violations_match_the_term_by_term_check(programs):
    infeasible = 0
    for lp, out in programs:
        if out.status != "infeasible":
            continue
        infeasible += 1
        cert = out.certificate
        assert farkas_violations(lp, cert) == dense_farkas_violations(lp, cert) == []
        # Each form is in lowest terms, so it is its rationals' integer form.
        views = (cert.constraint_multipliers, cert.lower_multipliers, cert.upper_multipliers)
        assert (cert.constraint_form, cert.lower_form, cert.upper_form) == tuple(map(integer_form, views))
        for forged in _tampered(lp, cert):
            messages = farkas_violations(lp, forged)
            assert messages and messages == dense_farkas_violations(lp, forged)
    assert infeasible > 50


# The count of ``_Tableau.pivot(r, c)`` and ``flip(c)`` calls made in
# re-solving the ``programs`` fixture, and a sha256 over them: one line per
# program, its events in order.
PINNED_SIMPLEX_PATH = (
    6737,
    "7f786e54c5ba1a3c3d9cbcdc27389cdea9e545a820f187ada575298fe49f3088",
)


def test_simplex_path_is_pinned(programs, monkeypatch):
    """The outcome pins compare points and certificates; this one pins the
    pivots and flips that reach them, so a change to the simplex that
    reaches the same outcomes by other steps shows."""
    events = []
    pivot, flip = _Tableau.pivot, _Tableau.flip

    def spy_pivot(tab, r, c):
        events.append(f"p{r},{c}")
        pivot(tab, r, c)

    def spy_flip(tab, c):
        events.append(f"f{c}")
        flip(tab, c)

    monkeypatch.setattr(_Tableau, "pivot", spy_pivot)
    monkeypatch.setattr(_Tableau, "flip", spy_flip)
    digest, count = hashlib.sha256(), 0
    for lp, out in programs:
        assert solve(lp).status == out.status
        digest.update((" ".join(events) + "\n").encode())
        count += len(events)
        events.clear()
    assert (count, digest.hexdigest()) == PINNED_SIMPLEX_PATH


# -- the exponential event walks -------------------------------------------


def dense_is_conglomerable(structure, dist):
    """``priors.is_conglomerable``'s Gray-code walk with ``Fraction``
    running sums: its oracle."""
    m = structure.num_states
    cell_dists = structure.cell_types[0]
    p_e = Fraction(0)
    t_e = [Fraction(0)] * len(cell_dists)
    full = (1 << m) - 1
    prev = 0
    for k in range(1, 1 << m):
        gray = k ^ (k >> 1)
        bit = (gray ^ prev).bit_length() - 1
        if gray & (1 << bit):
            p_e += dist[bit]
            for c, td in enumerate(cell_dists):
                if td[bit]:
                    t_e[c] += td[bit]
        else:
            p_e -= dist[bit]
            for c, td in enumerate(cell_dists):
                if td[bit]:
                    t_e[c] -= td[bit]
        prev = gray
        if gray == full:
            continue
        if p_e < min(t_e) or p_e > max(t_e):
            event = tuple(s for s in range(m) if gray & (1 << s))
            return False, event
    return True, None


def dense_disintegrable_by_definition(structure, dist):
    """p(E n cell) == t_cell(E) * p(cell) over every event in mask order,
    every sum term by term: the oracle of
    ``priors.disintegrable_by_definition``."""
    m = structure.num_states
    cells, types = structure.partitions[0], structure.cell_types[0]
    cell_mass = [sum((dist[s] for s in cell), Fraction(0)) for cell in cells]
    for mask in range(1, 1 << m):
        event = [s for s in range(m) if mask & (1 << s)]
        for c, cell in enumerate(cells):
            inter = sum((dist[s] for s in event if s in cell), Fraction(0))
            t_event = sum((types[c][s] for s in event), Fraction(0))
            if inter != t_event * cell_mass[c]:
                return False
    return True


def test_event_walks_match_their_fraction_versions(fixture_path):
    """Two samples per structure, drawn as ``cross_check`` draws its first
    and its strongly maximal one, on every player view."""
    structures = [_build("fixture", name, fixture_path)[0] for name in FIXTURES]
    structures += [random_structure(GeneratorConfig(seed=seed)) for seed in range(2000)]
    seen = set()
    for k, structure in enumerate(structures):
        rng = random.Random(f"walks:{k}")
        cfg = GeneratorConfig(max_states=structure.num_states)
        samples = [random_distribution(structure, cfg, n, rng) for n in (NOTIONS[0], NOTIONS[2])]
        for i in range(structure.num_players):
            view = single_player_view(structure, i)
            for dist in samples:
                definitional = disintegrable_by_definition(view, dist)
                assert definitional == dense_disintegrable_by_definition(view, dist)
                conglomerable = is_conglomerable(view, dist)
                assert conglomerable == dense_is_conglomerable(view, dist)
                seen.add((definitional, conglomerable[0]))
    # Both verdicts of both walks occur, so violating events are compared.
    assert seen == {(True, True), (False, False), (False, True)}
