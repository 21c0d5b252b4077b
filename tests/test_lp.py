"""Exact simplex: solve outcomes, certificates, and the brute-force oracle."""

import hashlib

import pytest

from prior_forge import (
    InputError,
    SizeCapError,
    VerificationError,
    ZERO,
    rational,
)
from prior_forge import lp
from prior_forge.lp import (
    FarkasCertificate,
    LPBuilder,
    enumerate_basic_solutions,
    farkas_violations,
    feasibility_violations,
    solve,
)


def test_optimal_simple():
    b = LPBuilder()
    x = b.add_var("x", lower=0)
    y = b.add_var("y", lower=0)
    b.add_objective(x, 1)
    b.add_objective(y, 1)
    b.add_constraint({x: 1, y: 1}, "<=", 1)
    out = solve(b.build(maximize=True))
    assert out.status == "optimal"
    assert out.objective_value == 1
    assert sum(out.primal) == 1


def test_crossed_bounds_are_input_errors():
    # x in [8, 3]: rejected at construction, not solved into a bug report.
    b = LPBuilder()
    b.add_var("x", lower=8, upper=3, objective=1)
    with pytest.raises(InputError, match="^variable x has lower bound 8 above upper bound 3$"):
        b.build(maximize=True)
    # One crossed bound among several variables, compared exactly: 1/3 > 33/100.
    b = LPBuilder()
    x = b.add_var("x", lower=0, upper=1)
    b.add_var("y", lower=-1)
    b.add_var("z", lower="1/3", upper="33/100")
    b.add_var("u", lower="1/3", upper="1/3")
    b.add_constraint({x: 1}, "<=", 1)
    with pytest.raises(InputError, match="^variable z has lower bound 1/3 above upper bound 33/100$"):
        b.build(maximize=False)


@pytest.mark.parametrize("den", [-1, 0])
def test_row_denominators_must_be_positive(den):
    # x <= 1 written over a denominator that is not positive: rejected at
    # construction, not solved into a bug report or a KeyError.
    b = LPBuilder()
    x = b.add_var("x", lower=0, upper=5, objective=1)
    with pytest.raises(InputError, match=f"^row denominator {den} is not positive$"):
        b.add_integer_constraint({x: 1}, den, "<=", 1)
    with pytest.raises(InputError, match=f"^row denominator {den} is not positive$"):
        lp.Constraint({x: 1}, den, "<=", 1)


def test_optimal_exact_fractions():
    # max 2x + 3y  s.t.  x/3 + y/7 <= 1, x <= 2
    b = LPBuilder()
    x = b.add_var("x", lower=0, upper=2)
    y = b.add_var("y", lower=0)
    b.add_objective(x, 2)
    b.add_objective(y, 3)
    b.add_constraint({x: rational("1/3"), y: rational("1/7")}, "<=", 1)
    out = solve(b.build(maximize=True))
    assert out.status == "optimal"
    # everything into y: y = 7 beats any mix (3/7 per unit of slack vs 2/3 per 1/3)
    assert out.primal == (ZERO, rational(7))
    assert out.objective_value == 21


def test_free_variable():
    b = LPBuilder()
    x = b.add_var("x")
    b.add_objective(x, 1)
    b.add_constraint({x: 1}, ">=", -5)
    out = solve(b.build(maximize=False))
    assert out.status == "optimal"
    assert out.objective_value == -5
    assert out.primal == (rational(-5),)


def test_upper_bound_without_lower():
    # max x + y, x <= 3 (no lower bound), y >= 0, x + y <= 5, x >= -2.
    b = LPBuilder()
    x = b.add_var("x", upper=3, objective=1)
    y = b.add_var("y", lower=0, objective=1)
    b.add_constraint({x: 1, y: 1}, "<=", 5)
    b.add_constraint({x: 1}, ">=", -2)
    lp = b.build(maximize=True)
    out = solve(lp)
    assert out.status == "optimal"
    assert out.primal == (rational(3), rational(2))
    assert out.objective_value == 5
    # x <= 3 and x >= 4: the certificate uses the upper bound of a variable
    # that has no lower one.
    b = LPBuilder()
    x = b.add_var("x", upper=3)
    b.add_constraint({x: 1}, ">=", 4)
    lp = b.build(maximize=False)
    out = solve(lp)
    assert out.status == "infeasible"
    assert farkas_violations(lp, out.certificate) == []


def test_equality_rows():
    b = LPBuilder()
    x = b.add_var("x", lower=0)
    y = b.add_var("y", lower=0)
    b.add_constraint({x: 1, y: 1}, "=", 1)
    b.add_constraint({x: 1, y: -1}, "=", rational("1/3"))
    b.add_objective(x, 1)
    out = solve(b.build(maximize=False))
    assert out.status == "optimal"
    assert out.primal == (rational("2/3"), rational("1/3"))


def test_infeasible_yields_verified_farkas():
    b = LPBuilder()
    x = b.add_var("x", lower=0, upper=1)
    b.add_constraint({x: 1}, ">=", 2)
    lp = b.build(maximize=False)
    out = solve(lp)
    assert out.status == "infeasible"
    assert out.primal is None
    assert out.certificate is not None
    # Independent re-multiplication: 0 <= strictly negative.
    assert farkas_violations(lp, out.certificate) == []


def test_infeasible_equalities():
    b = LPBuilder()
    x = b.add_var("x", lower=0)
    y = b.add_var("y", lower=0)
    b.add_constraint({x: 1, y: 1}, "=", 1)
    b.add_constraint({x: 2, y: 2}, "=", 3)
    lp = b.build(maximize=False)
    out = solve(lp)
    assert out.status == "infeasible"
    assert farkas_violations(lp, out.certificate) == []


def test_unbounded():
    b = LPBuilder()
    x = b.add_var("x", lower=0)
    b.add_objective(x, 1)
    out = solve(b.build(maximize=True))
    assert out.status == "unbounded"
    assert out.primal is None
    assert out.objective_value is None


def test_beale_cycling_instance_terminates():
    # Classic degenerate instance that cycles under most-negative pivoting.
    # Bland's rule must terminate at value -1/20, also when x6 <= 1 is a
    # column bound, where bound flips join the ties.
    for bounded in (False, True):
        b = LPBuilder()
        x4 = b.add_var("x4", lower=0)
        x5 = b.add_var("x5", lower=0)
        x6 = b.add_var("x6", lower=0, upper=1 if bounded else None)
        x7 = b.add_var("x7", lower=0)
        b.add_objective(x4, rational("-3/4"))
        b.add_objective(x5, 150)
        b.add_objective(x6, rational("-1/50"))
        b.add_objective(x7, 6)
        b.add_constraint({x4: rational("1/4"), x5: -60, x6: rational("-1/25"), x7: 9}, "<=", 0)
        b.add_constraint({x4: rational("1/2"), x5: -90, x6: rational("-1/50"), x7: 3}, "<=", 0)
        if not bounded:
            b.add_constraint({x6: 1}, "<=", 1)
        out = solve(b.build(maximize=False))
        assert out.status == "optimal"
        assert out.objective_value == rational("-1/20")
        assert out.primal == (rational("1/25"), ZERO, rational(1), ZERO)


def test_feasibility_violations_reports():
    b = LPBuilder()
    x = b.add_var("x", lower=0, upper=1)
    b.add_constraint({x: 1}, ">=", rational("1/2"))
    lp = b.build(maximize=False)
    assert feasibility_violations(lp, (rational("1/2"),)) == []
    assert feasibility_violations(lp, (ZERO,))  # constraint fails
    assert feasibility_violations(lp, (rational(2),))  # above upper bound
    assert feasibility_violations(lp, (ZERO, ZERO))  # wrong arity


def test_bad_relation_rejected():
    # A relation other than <=, = and >= is bad input, as a non-positive row
    # denominator is, not a dimension mismatch.
    b = LPBuilder()
    x = b.add_var("x")
    with pytest.raises(InputError, match="^unknown relation '<'$") as bad:
        b.add_constraint({x: 1}, "<", 0)
    assert type(bad.value) is InputError


def test_enumerate_simplex_vertices():
    b = LPBuilder()
    xs = [b.add_var(f"x{j}", lower=0) for j in range(3)]
    b.add_constraint({j: 1 for j in xs}, "=", 1)
    lp = b.build(maximize=False)
    points = enumerate_basic_solutions(lp)
    expected = {
        (rational(1), ZERO, ZERO),
        (ZERO, rational(1), ZERO),
        (ZERO, ZERO, rational(1)),
    }
    assert set(points) == expected


def test_enumerate_agrees_with_solve():
    # Optimum of a bounded LP is attained at some enumerated vertex.
    b = LPBuilder()
    x = b.add_var("x", lower=0)
    y = b.add_var("y", lower=0)
    b.add_objective(x, 3)
    b.add_objective(y, 5)
    b.add_constraint({x: 1}, "<=", 4)
    b.add_constraint({y: 2}, "<=", 12)
    b.add_constraint({x: 3, y: 2}, "<=", 18)
    lp = b.build(maximize=True)
    out = solve(lp)
    points = enumerate_basic_solutions(lp)
    best = max(rational(3) * p[0] + rational(5) * p[1] for p in points)
    assert out.objective_value == best == 36


def test_enumerate_caps():
    b = LPBuilder()
    for j in range(13):
        b.add_var(f"x{j}", lower=0)
    lp = b.build(maximize=False)
    with pytest.raises(SizeCapError):
        enumerate_basic_solutions(lp)


def test_enumerate_infeasible_is_empty():
    b = LPBuilder()
    x = b.add_var("x", lower=0)
    b.add_constraint({x: 1}, "=", 1)
    b.add_constraint({x: 1}, "=", 2)
    assert enumerate_basic_solutions(b.build(maximize=False)) == ()


def test_starting_tableau_is_pinned():
    """Each relation with a positive, zero and negative rhs, so every
    set-up branch runs: the starting basis, the negated rows, the
    artificials, and each row's slack and artificial entries, its
    denominator signed."""
    b = LPBuilder()
    x = b.add_var("x", lower=0)
    y = b.add_var("y", lower=0)
    b.add_objective(x, 1)
    for rel in ("<=", ">=", "="):
        b.add_constraint({x: "1/2", y: 1}, rel, "1/2")
        b.add_constraint({x: 1, y: -1}, rel, 0)
        b.add_constraint({x: 1, y: "1/3"}, rel, -2)
    std = lp._int_standardize(b.build(maximize=True))
    tab = lp._Tableau(std)
    assert std.ncols == 2 and tab.dens == [2, 1, 3] * 3
    assert tab.basis == tab.init_col == [2, 3, 5, 7, 8, 9, 10, 11, 12]
    assert tab.negated == [False, False, True, False, True, True, False, False, True]
    assert sorted(tab.artificials) == [5, 7, 10, 11, 12]
    added = [{c: v for c, v in row.items() if c >= std.ncols} for row in tab.rows]
    assert added == [
        {2: 2}, {3: 1}, {4: -3, 5: 3},
        {6: -2, 7: 2}, {8: 1}, {9: 3},
        {10: 2}, {11: 1}, {12: 3},
    ]


# sha256 over the vertex sets of the common-prior and joint programs of the
# oracle battery's generator (M <= 4, N <= 2, d <= 5), seeds 0..399, recorded
# while the enumerator still solved each basis with its own elimination
# routine instead of ``_row_reduce``.
PINNED_VERTEX_SETS = "90ed1b0a7a3a3711f6862a90677b1002300df33b3c17aa6e5f9b53c7b2a9b954"


def test_enumerated_vertex_sets_are_pinned():
    from dataclasses import replace

    from prior_forge.harness import (
        GeneratorConfig,
        common_prior_program,
        joint_common_prior_program,
        random_structure,
    )

    cfg = GeneratorConfig(max_states=4, max_players=2, denominator_bound=5)
    h = hashlib.sha256()
    for seed in range(400):
        s = random_structure(replace(cfg, seed=seed))
        for build in (common_prior_program, joint_common_prior_program):
            h.update(repr(enumerate_basic_solutions(build(s))).encode() + b"\n")
    assert h.hexdigest() == PINNED_VERTEX_SETS


def _assert_optimal_duals(lp, out):
    # Max form, every variable bounded below by 0 and nothing else: the
    # duals are dual-feasible (A^T u >= c, u <= 0 on >= rows) and close the
    # duality gap exactly.
    assert all(lo == 0 for lo in lp.lower) and all(up is None for up in lp.upper)
    u = out.duals
    assert len(u) == len(lp.constraints)
    for con, uk in zip(lp.constraints, u):
        assert not (con.rel == ">=" and uk > 0) and not (con.rel == "<=" and uk < 0)
    for j in range(lp.num_vars):
        column = sum((uk * con.coeffs.get(j, ZERO) for con, uk in zip(lp.constraints, u)), ZERO)
        assert column >= lp.objective[j]
    assert sum((uk * con.rhs for con, uk in zip(lp.constraints, u)), ZERO) == out.objective_value


def test_common_prior_program_duals(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    from prior_forge.harness import GeneratorConfig, common_prior_program, random_structure

    checked = 0
    fixtures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    generated = [random_structure(GeneratorConfig(seed=k)) for k in range(200)]
    for s in fixtures + generated:
        lp = common_prior_program(s)
        out = solve(lp)
        if out.status == "optimal":
            _assert_optimal_duals(lp, out)
            checked += 1
        else:
            assert out.duals is None
    assert checked > 50


def test_solve_derives_the_optimum_again_from_the_costs(monkeypatch):
    # max x + y/2 on x in [1/3, 2], y in [-1, 1] with x + y <= 2: the
    # offsets put 1/3 - 1/2 into the cost constant, and a tableau whose
    # constant is off by 1/6 must fail the integer cross-check.
    b = LPBuilder()
    x = b.add_var("x", lower=rational("1/3"), upper=2, objective=1)
    y = b.add_var("y", lower=-1, upper=1, objective=rational("1/2"))
    b.add_constraint({x: 1, y: 1}, "<=", 2)
    program = b.build(maximize=True)
    out = solve(program)
    # The point and duals are integer forms until first read.
    assert "primal" not in vars(out) and "duals" not in vars(out)
    assert (out.objective_value, out.primal) == (rational(2), (rational(2), ZERO))
    den, nums = out.dual_form
    assert out.duals == tuple(rational(f"{n}/{den}") for n in nums)
    standardize = lp._int_standardize

    def shifted(p):
        std = standardize(p)
        num, den = std.cost_const
        return std._replace(cost_const=(num * 6 + den, den * 6))

    monkeypatch.setattr(lp, "_int_standardize", shifted)
    with pytest.raises(VerificationError, match="objective mismatch"):
        solve(program)


def test_duals_of_a_bounded_minimization():
    # min x + 2y s.t. x + y >= 1, x - y = 0, x <= 3: optimum 3/2 at x = y = 1/2.
    b = LPBuilder()
    x = b.add_var("x", lower=0, upper=3, objective=1)
    y = b.add_var("y", lower=0, objective=2)
    b.add_constraint({x: 1, y: 1}, ">=", 1)
    b.add_constraint({x: 1, y: -1}, "=", 0)
    out = solve(b.build(maximize=False))
    assert out.objective_value == rational("3/2")
    # In max form (max -x - 2y) the >= row's dual is <= 0, and
    # u . b = -3/2 = the max-form value.
    assert out.duals == (rational("-3/2"), rational("1/2"))


def _outcome_text(out):
    def row(values):
        return "-" if values is None else ",".join(map(str, values))

    cert = out.certificate
    parts = [
        out.status,
        row(out.primal),
        "-" if out.objective_value is None else str(out.objective_value),
        "-" if cert is None else "|".join(
            row(m) for m in (cert.constraint_multipliers, cert.lower_multipliers, cert.upper_multipliers)
        ),
        row(out.duals),
    ]
    return ";".join(parts)


def _decision_text(out):
    return out.status + ";" + ("-" if out.objective_value is None else str(out.objective_value))


# sha256 digests over the programs below, per structure in builder order.
# The decisions (status and optimum) of every program were recorded before
# bounds left the tableau, and so were the full outcomes of the two
# common-prior programs, which have no upper bounds. The trade programs'
# full outcomes were re-pinned when bounds became column bounds: points and
# duals moved on 19 of 206 agreeable and 71 of 206 acceptable programs,
# with every decision and optimum unchanged. Any change of pivots shows up
# as a changed point, certificate or dual.
PINNED_DECISIONS = "658ff1974b2b1587664cde30fec585c9cbd9133eccb729e85b86e2cc137cdb9f"
PINNED_PRIOR_OUTCOMES = "8b31d55018e0aa4b3f6ac3303556169648c59612b5571fc7950a744a244c4c92"
PINNED_TRADE_OUTCOMES = "19ecb18a625a97f18e119d0746a9ef2270e3f2a2668a3939d0032ed81ccb7011"


def test_simplex_outcomes_are_pinned(intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4):
    from prior_forge.harness import (
        GeneratorConfig,
        acceptable_trade_program,
        agreeable_trade_program,
        common_prior_program,
        joint_common_prior_program,
        random_structure,
    )

    builders = (
        common_prior_program,
        joint_common_prior_program,
        agreeable_trade_program,
        acceptable_trade_program,
    )
    structures = [intro, pl, ex_pl1, ex_pl2, pl4, ex_plbet4]
    structures += [random_structure(GeneratorConfig(seed=k)) for k in range(200)]
    outcomes = [[solve(build(s)) for build in builders] for s in structures]

    def digest(text, kinds):
        h = hashlib.sha256()
        for row in outcomes:
            for k in kinds:
                h.update(text(row[k]).encode() + b"\n")
        return h.hexdigest()

    assert digest(_decision_text, range(4)) == PINNED_DECISIONS
    assert digest(_outcome_text, (0, 1)) == PINNED_PRIOR_OUTCOMES
    assert digest(_outcome_text, (2, 3)) == PINNED_TRADE_OUTCOMES


def test_bland_ties_leave_on_the_smaller_basis_index():
    # max y + 2x s.t. 3x <= 3, (x + y)/2 <= 1/2. y enters first and becomes
    # basic in the second row; x then ties both rows at ratio 1. Bland's rule
    # sends out y (basis index 0) rather than the first row's slack, so the
    # whole price sits on the second row.
    b = LPBuilder()
    y = b.add_var("y", lower=0, objective=1)
    x = b.add_var("x", lower=0, objective=2)
    b.add_constraint({x: 3}, "<=", 3)
    b.add_constraint({x: rational("1/2"), y: rational("1/2")}, "<=", rational("1/2"))
    out = solve(b.build(maximize=True))
    assert out.primal == (ZERO, rational(1))
    assert out.objective_value == 2
    assert out.duals == (ZERO, rational(4))


def test_coefficients_beyond_64_bits():
    big = rational(2**70) / 3
    b = LPBuilder()
    x = b.add_var("x", lower=0)
    y = b.add_var("y", lower=0, upper=big)
    b.add_objective(x, big)
    b.add_objective(y, 1)
    b.add_constraint({x: big, y: 1}, "<=", big + 1)
    b.add_constraint({x: 1, y: -big}, ">=", rational(-(2**80)))
    lp = b.build(maximize=True)
    out = solve(lp)
    assert out.status == "optimal"
    assert feasibility_violations(lp, out.primal) == []
    assert out.objective_value == big + 1
    b.add_constraint({x: big, y: big}, ">=", 2 * big * big)
    lp = b.build(maximize=True)
    out = solve(lp)
    assert out.status == "infeasible"
    assert farkas_violations(lp, out.certificate) == []


def test_farkas_multiplier_on_a_missing_bound_is_reported():
    # x free, x >= 1 and x <= 0. A lower multiplier on x, which has no lower
    # bound, is named, not multiplied into the right-hand side.
    b = LPBuilder()
    x = b.add_var("x")
    b.add_constraint({x: 1}, ">=", 1)
    b.add_constraint({x: 1}, "<=", 0)
    lp = b.build(maximize=False)
    out = solve(lp)
    assert out.status == "infeasible"
    assert farkas_violations(lp, out.certificate) == []
    cert = FarkasCertificate(out.certificate.constraint_multipliers, (rational(-1),), (ZERO,))
    assert farkas_violations(lp, cert) == [
        "lower multiplier 0 used without a bound",
        "variable x does not cancel (residual -1)",
    ]
