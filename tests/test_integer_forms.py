"""The integer paths against their dense-rational oracles.

Distributions carry ``nums`` over one ``den``; hull weights, witness
verification, expectation tables, pump pieces and pump deficits sum ints and
build one rational per result, and the block walk runs on reduced int
pairs. Each is compared, exactly, with the term-by-term ``Fraction``
definition it replaced (kept in ``oracles``), on the six fixtures, generator
seeds 0..199 and planted structures at M in {24, 48}, broken ones for the
walk.

LP constraints carry ``nums`` over one ``den`` as well, and the simplex's
standard form and self-checks read them; the two exponential event walks of
the single-player theory keep running integer sums. Their term-by-term
``Fraction`` definitions live in this file as their oracles: the standard
form against ``lp._standardize`` on every program the pinned-outcome test
builds, the point and certificate checks against ``dense_feasibility_violations``
and ``dense_farkas_violations``, and the walks against
``dense_is_conglomerable`` and ``dense_disintegrable_by_definition`` on every
player view of seeds 0..1999 and the fixtures.
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
    LPBuilder,
    PriorWitness,
    StochasticityError,
    VerificationError,
    expectation_table,
    parse_structure,
    random_structure,
)
from prior_forge import jsonio
from prior_forge.certainty import support_graph
from prior_forge.harness import planted_structure, random_distribution
from prior_forge.harness import (
    acceptable_trade_program,
    agreeable_trade_program,
    common_prior_program,
    joint_common_prior_program,
)
from prior_forge.lp import (
    FarkasCertificate,
    _int_standardize,
    _standardize,
    enumerate_basic_solutions,
    farkas_violations,
    feasibility_violations,
    solve,
)
from prior_forge.model import dot, single_player_view
from prior_forge.priors import (
    NOTIONS,
    _walk_blocks,
    blocks,
    disintegrable_by_definition,
    hull_weights,
    is_conglomerable,
)
from prior_forge.trades import (
    MoneyPumpWitness,
    SemiTrade,
    find_multiplayer_money_pump,
    pump_piece,
)

from oracles import (
    dense_dot,
    dense_expectation_table,
    dense_hull_weights,
    dense_mixture,
    dense_pump_piece,
    dense_walk_blocks,
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
        if lp.lower[j] is not None and x[j] < lp.lower[j]:
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
        if los[j] != 0 and lp.lower[j] is None:
            bad.append(f"lower multiplier {j} used without a bound")
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


def _fractional_bound_programs():
    """Programs whose bounds are not integers: fractional lower bounds (a
    shifted rhs off the row's denominator), fractional upper bounds on a
    shifted and on a free variable, and an infeasible variant of each."""
    programs = []
    for infeasible in (False, True):
        b = LPBuilder()
        x = b.add_var("x", lower=Fraction(1, 3), objective=2)
        y = b.add_var("y", lower=Fraction(-5, 2), objective=Fraction(-1, 4))
        z = b.add_var("z", lower=Fraction(7, 6))
        b.add_constraint({x: Fraction(3, 4), y: 1, z: Fraction(-2, 5)}, "<=", Fraction(9, 2))
        b.add_constraint({x: 1, y: Fraction(1, 3)}, ">=", Fraction(-1, 6))
        b.add_constraint({x: Fraction(1, 2), z: Fraction(3, 2)}, "<=", 4)
        b.add_constraint({y: 1, z: 1}, "=", Fraction(5, 3))
        if infeasible:
            b.add_constraint({x: 1, z: 1}, "<=", Fraction(4, 3))
        programs.append(b.build(maximize=True))

        b = LPBuilder()
        x = b.add_var("x", lower=Fraction(1, 3), upper=Fraction(7, 4), objective=1)
        y = b.add_var("y", upper=Fraction(5, 3), objective=Fraction(2, 3))
        w = b.add_var("w", lower=0, upper=Fraction(9, 8), objective=-1)
        b.add_constraint({x: 1, y: 1, w: Fraction(1, 2)}, "<=", Fraction(11, 4))
        b.add_constraint({y: 1, w: -1}, ">=", Fraction(-3, 2))
        if infeasible:
            b.add_constraint({x: 1, y: 1}, ">=", 4)
        programs.append(b.build(maximize=True))
    return programs


@pytest.fixture(scope="module")
def programs(fixture_path):
    """Every program ``test_simplex_outcomes_are_pinned`` solves, then the
    fractional-bound ones, each with its outcome."""
    builders = (
        common_prior_program,
        joint_common_prior_program,
        agreeable_trade_program,
        acceptable_trade_program,
    )
    structures = [_build("fixture", name, fixture_path)[0] for name in FIXTURES]
    structures += [random_structure(GeneratorConfig(seed=seed)) for seed in SEEDS]
    found = [build(s) for s in structures for build in builders] + _fractional_bound_programs()
    return [(lp, solve(lp)) for lp in found]


def test_fractional_bounds_solve_to_enumerated_vertices():
    outcomes = []
    for lp in _fractional_bound_programs():
        out = solve(lp)
        outcomes.append(out.status)
        if out.status == "optimal":
            assert feasibility_violations(lp, out.primal) == []
            best = max(dot(lp.objective, point) for point in enumerate_basic_solutions(lp))
            assert out.objective_value == best
        else:
            assert enumerate_basic_solutions(lp) == ()
            assert farkas_violations(lp, out.certificate) == []
    assert outcomes == ["optimal", "optimal", "infeasible", "infeasible"]


def test_integer_standard_form_matches_the_rational_one(programs):
    fractional = 0
    for lp, _ in programs:
        ours, theirs = _int_standardize(lp), _standardize(lp)
        assert ours.ncols == theirs.ncols
        assert ours.col_kind == theirs.col_kind
        assert ours.row_rel == theirs.row_rel
        assert ours.row_origin == theirs.row_origin
        assert ours.cost_const == theirs.cost_const
        assert len(ours.rows) == len(ours.dens) == len(ours.row_rhs) == len(theirs.rows)
        for row, den, rhs, dense_row, dense_rhs in zip(
            ours.rows, ours.dens, ours.row_rhs, theirs.rows, theirs.row_rhs
        ):
            assert den > 0
            assert {j: Fraction(v, den) for j, v in row.items()} == dense_row
            assert Fraction(rhs, den) == dense_rhs
            # lowest terms: the rows the tableau starts from are unique
            assert math.gcd(den, rhs, *row.values()) == 1
            fractional += den > 1
        assert ours.cost_den > 0
        assert {j: Fraction(v, ours.cost_den) for j, v in ours.costs.items()} == theirs.costs
        assert math.gcd(ours.cost_den, *ours.costs.values()) == 1
    assert fractional


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
        assert feasibility_violations(lp, x) == dense_feasibility_violations(lp, x) == []
        rows = [k for k, con in enumerate(lp.constraints) if con.coeffs]
        points = [_row_breaking(lp, x, k) for k in rows[:2] + rows[-1:]]
        for bounds, step in ((lp.lower, Fraction(-1, 3)), (lp.upper, Fraction(1, 3))):
            held = [j for j, bound in enumerate(bounds) if bound is not None]
            points += [x[:j] + (bounds[j] + step,) + x[j + 1 :] for j in held[:1] + held[-1:]]
        for point in points:
            messages = feasibility_violations(lp, point)
            assert messages and messages == dense_feasibility_violations(lp, point)
            for key in seen:
                seen[key] += any(key in message for message in messages)
        assert feasibility_violations(lp, x + (Fraction(0),)) == dense_feasibility_violations(
            lp, x + (Fraction(0),)
        )
    assert all(seen.values()), seen


def _tampered(lp, cert):
    """Certificates that must fail: the multiplier of a non-empty row
    doubled, every multiplier negated, and one bound multiplier moved off
    its value."""
    mus, los, ups = (
        list(cert.constraint_multipliers),
        list(cert.lower_multipliers),
        list(cert.upper_multipliers),
    )
    k = next(k for k, mu in enumerate(mus) if mu and lp.constraints[k].coeffs)
    doubled = mus[:k] + [2 * mus[k]] + mus[k + 1 :]
    found = [
        FarkasCertificate(tuple(doubled), tuple(los), tuple(ups)),
        FarkasCertificate(tuple(-v for v in mus), tuple(-v for v in los), tuple(-v for v in ups)),
    ]
    j = next((j for j, lo in enumerate(lp.lower) if lo is not None), None)
    if j is not None:
        moved = los[:j] + [los[j] - Fraction(1, 5)] + los[j + 1 :]
        found.append(FarkasCertificate(tuple(mus), tuple(moved), tuple(ups)))
    return found


def test_farkas_violations_match_the_term_by_term_check(programs):
    infeasible = 0
    for lp, out in programs:
        if out.status != "infeasible":
            continue
        infeasible += 1
        cert = out.certificate
        assert farkas_violations(lp, cert) == dense_farkas_violations(lp, cert) == []
        for forged in _tampered(lp, cert):
            messages = farkas_violations(lp, forged)
            assert messages and messages == dense_farkas_violations(lp, forged)
    assert infeasible > 50


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
