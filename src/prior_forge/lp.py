"""Exact linear programming over rationals.

Two-phase bounded-variable primal simplex (Dantzig 1955) with Bland's
anti-cycling rule. Every coefficient is an exact rational; there is no
tolerance anywhere. A constraint is a sparse row, a map from variable index
to nonzero int numerator over one positive denominator, in lowest terms,
and it is built from that integer form alone
(``LPBuilder.add_integer_constraint``), with no rational per coefficient; a
numerator, denominator or rhs that is not an int is an ``InputError``. A
program fixes the integer form of its objective the same way. Its bounds
are ints: every variable has a lower bound and has an upper bound or none,
and anything else is an ``InputError``. The tableau and the self-checks
read only these ints; only the objective is a dense tuple, and it fixes the
number of variables.

The program is its own standard form. Tableau row k starts as constraint
k's ``nums`` over its ``den``, and column j is variable j shifted onto its
lower bound, x_j = l_j + x'_j with 0 <= x'_j <= u_j - l_j, so each row's
rhs moves by the sum of a_j * l_j, the costs gain the constant sum of
c_j * l_j, and bounds never become rows. A nonbasic column sits at either
bound: moving it to its upper bound complements it (x' = u - l - x'') on
the rows, so every nonbasic column reads 0. The ratio test also stops
where a basic variable reaches its upper bound, which is complemented
before it leaves, or where the entering column reaches its own, which
flips it without a pivot. Bland's rule covers both:
among tied candidates the smallest variable index leaves, the entering
column's own flip under its own index. The starting basis takes each row's
slack where, once the row is negated to a nonnegative rhs (a ``>=`` row
with rhs 0 too), the slack's sign is +1, and a new artificial for every
other row.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): each row, the
objective's too, is a sparse dict of integer numerators over one positive
denominator, in lowest terms, and one pivot updates every row that holds its
column, the objective's included, with integer multiplications and one gcd
per changed row. Pivots follow the same rule on the same exact values, so
bases, points, certificates and duals are those of a rational tableau;
rationals are built only where results are read.
Outcomes are verified before they are returned: optimal points are read off
as numerators over one denominator and re-substituted into every constraint
and bound, the optimum is derived again from the costs by one
cross-multiplication, and infeasibility comes with a Farkas certificate
whose contradiction is re-multiplied from scratch. Points and certificates
cross this module's boundary as integer forms ``(den, nums)``, ``nums`` a
tuple, which the checks (``feasibility_violations``, ``farkas_violations``)
read. An outcome's point and a certificate's multipliers build their
rationals on first read, and an outcome's duals stay an integer form;
besides failure messages, the one rational built is an optimum's value. A
failed internal check raises ``VerificationError`` and always indicates a
bug, never bad input.

This module is the program types, their checks and the simplex alone. Its
oracle, a brute-force enumeration of basic solutions, lives with the tests
(``tests/oracles.py``) and reads only a program's public fields, so it
shares no code with the simplex. Unbounded programs are detected and
reported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from ._rational import ZERO, rational
from .errors import DimensionError, InputError, VerificationError
from .model import Frozen, integer_form, lowest_terms

LESS, EQUAL, GREATER = "<=", "=", ">="
_RHS = -1  # dict key for the right-hand side inside sparse tableau rows


class Constraint:
    """The row ``sum_j nums[j] * x_j  rel  rhs_num``, over one positive
    ``den``; another ``den``, or a ``rel`` other than ``<=``, ``=`` and
    ``>=``, is an ``InputError``. ``nums`` maps variable indices to int
    numerators; a numerator, ``den`` or ``rhs_num`` that is not an int (a
    ``Fraction``, a float or a bool) is an ``InputError``, checked by one
    scan of the numerators' types. It is built from this integer form
    alone, as a ``Distribution`` is from its support: the row is reduced to
    lowest terms by one gcd, zero numerators are dropped, and ``nums`` is
    kept as given when it is in lowest terms with no zero. The simplex and
    the self-checks read the ints, and the tableau starts from a copy of
    ``nums``; the rationals ``coeffs[j] == nums[j] / den`` and
    ``rhs == rhs_num / den`` are made only when they are read."""

    def __init__(self, nums: dict, den: int, rel: str, rhs_num: int = 0) -> None:
        if rel not in (LESS, EQUAL, GREATER):
            raise InputError(f"unknown relation {rel!r}")
        if not {int}.issuperset(map(type, nums.values())):
            j = next(j for j, a in nums.items() if type(a) is not int)
            raise InputError(f"variable {j} has coefficient numerator {nums[j]!r}, which is not an int")
        for name, value in (("denominator", den), ("rhs numerator", rhs_num)):
            if type(value) is not int:
                raise InputError(f"row {name} {value!r} is not an int")
        if den <= 0:
            raise InputError(f"row denominator {den} is not positive")
        g = math.gcd(den, rhs_num, *nums.values())
        if g != 1 or 0 in nums.values():
            nums = {j: a // g for j, a in nums.items() if a}
        self.nums, self.den, self.rel, self.rhs_num = nums, den // g, rel, rhs_num // g

    @cached_property
    def coeffs(self) -> dict:
        return {j: Fraction(a, self.den) for j, a in self.nums.items()}

    @cached_property
    def rhs(self):
        return Fraction(self.rhs_num, self.den)


class LinearProgram(Frozen):
    """A program over ``len(objective)`` variables. Each variable j has the
    int lower bound ``lower[j]`` and the int upper bound ``upper[j]`` or
    None; a missing lower bound, a bound that is not an int (a ``Fraction``,
    a float or a bool) and crossed bounds are ``InputError``s naming the
    variable. Like its rows, it fixes the objective's integer form at
    construction: ``cost_nums[j] / cost_den == objective[j]``. The simplex
    and the self-checks read only these ints. Frozen; equality, the hash and
    ``repr`` read the six given fields, the objective as rationals."""

    _fields = ("objective", "maximize", "constraints", "lower", "upper", "names")
    objective: tuple
    maximize: bool
    constraints: tuple[Constraint, ...]
    lower: tuple[int, ...]
    upper: tuple  # per-variable int upper bound or None
    names: tuple[str, ...]

    def __init__(self, objective, maximize, constraints, lower, upper, names) -> None:
        n = len(objective)
        for name, value in (("lower", lower), ("upper", upper), ("names", names)):
            if len(value) != n:
                raise DimensionError(f"{name} must have one entry per variable")
        used = set().union(*(con.nums for con in constraints))
        if used and not (0 <= min(used) and max(used) < n):
            raise DimensionError(f"constraint names a variable outside 0..{n - 1}")
        for name, lo, hi in zip(names, lower, upper):
            if lo is None:
                raise InputError(f"variable {name} has no lower bound")
            for bound in (lo, hi):
                if bound is not None and type(bound) is not int:
                    raise InputError(f"variable {name} has bound {bound!r}, which is not an int")
            if hi is not None and lo > hi:
                raise InputError(f"variable {name} has lower bound {lo} above upper bound {hi}")
        objective = tuple(map(rational, objective))
        cost_den, cost_nums = integer_form(objective)
        vars(self).update(
            objective=objective, maximize=maximize, constraints=constraints, lower=tuple(lower),
            upper=tuple(upper), names=names, cost_den=cost_den, cost_nums=cost_nums,
        )

    @property
    def num_vars(self) -> int:
        return len(self.objective)


class LPBuilder:
    """Incremental construction with named variables and sparse rows."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._lower: list[int] = []
        self._upper: list = []
        self._objective: list = []
        self._rows: list[Constraint] = []

    def add_var(self, name: str, lower: int, upper: int | None = None, objective=ZERO) -> int:
        self._names.append(name)
        self._lower.append(lower)
        self._upper.append(upper)
        self._objective.append(objective)
        return len(self._names) - 1

    def add_integer_constraint(self, nums: dict, den: int, rel: str, rhs_num: int = 0) -> None:
        """The row ``sum_j nums[j] * x_j  rel  rhs_num``, ints over a
        positive ``den``; see ``Constraint``."""
        self._rows.append(Constraint(nums, den, rel, rhs_num))

    def add_objective(self, var: int, coeff) -> None:
        """Accumulate into a variable's objective coefficient."""
        current = self._objective[var]
        self._objective[var] = rational(current) + rational(coeff) if current else rational(coeff)

    def build(self, maximize: bool) -> LinearProgram:
        return LinearProgram(
            tuple(self._objective),
            maximize,
            tuple(self._rows),
            tuple(self._lower),
            tuple(self._upper),
            tuple(self._names),
        )


class FarkasCertificate(Frozen):
    """Multipliers combining constraints and bounds into ``0 <= negative``.

    Semantics: sum over constraints of ``mu_k * (row_k)`` plus
    ``lower_multipliers[j] * (x_j >= l_j)`` plus
    ``upper_multipliers[j] * (x_j <= u_j)`` must cancel every variable and
    leave a strictly negative right-hand side. Sign rules: ``mu_k >= 0`` for
    ``<=`` rows, ``mu_k <= 0`` for ``>=`` rows, free for equalities;
    lower multipliers ``<= 0``; upper multipliers ``>= 0``.

    The three vectors are kept as integer forms, ``constraint_form``,
    ``lower_form`` and ``upper_form``, each a ``(den, nums)`` pair, and
    their rationals are built on first read, as an outcome's are. Frozen;
    equality, the hash and ``repr`` read the three forms.
    """

    _fields = ("constraint_form", "lower_form", "upper_form")
    constraint_form: tuple
    lower_form: tuple
    upper_form: tuple

    def __init__(self, constraint_form, lower_form, upper_form) -> None:
        vars(self).update(constraint_form=constraint_form, lower_form=lower_form, upper_form=upper_form)

    constraint_multipliers = cached_property(lambda self: _rationals(self.constraint_form))
    lower_multipliers = cached_property(lambda self: _rationals(self.lower_form))
    upper_multipliers = cached_property(lambda self: _rationals(self.upper_form))


class LPOutcome(Frozen):
    """``point`` (optimal outcomes only): the optimal point. ``dual_form``
    (optimal outcomes only): one multiplier u_k per constraint, in max form
    (objective negated when minimizing), sign rules as in
    ``FarkasCertificate``. The reduced costs c - A^T u are priced by the
    variables' bounds; with every variable bounded below by 0 and nothing
    else, A^T u >= c and b.u = c.x.

    Both are integer forms, each a ``(den, nums)`` pair with ``nums`` a
    tuple, put in lowest terms (``model.lowest_terms``) as a certificate's
    are; the point's rationals, ``primal``, are built on first read.
    Frozen; equality, the hash and ``repr`` read the five given fields, so
    an optimal outcome hashes by value too."""

    _fields = ("status", "objective_value", "certificate", "point", "dual_form")
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective_value: object | None
    certificate: FarkasCertificate | None
    point: tuple | None
    dual_form: tuple | None

    def __init__(self, status, objective_value, certificate, point=None, dual_form=None) -> None:
        vars(self).update(
            status=status, objective_value=objective_value, certificate=certificate,
            point=point, dual_form=dual_form,
        )

    primal = cached_property(lambda self: _rationals(self.point))


def _rationals(form: tuple | None) -> tuple | None:
    """The rationals of an integer form ``(den, nums)``, or None."""
    if form is None:
        return None
    den, nums = form
    return tuple(Fraction(n, den) for n in nums)


def feasibility_violations(lp: LinearProgram, point: tuple) -> list[str]:
    """Human-readable list of constraint/bound violations of the point
    ``xnums / xden``, given as its integer form ``point == (xden, xnums)``:
    each row compares its integer dot product with its rhs, and each bound
    cross-multiplies."""
    xden, xnums = point
    if len(xnums) != lp.num_vars:
        return [f"point has {len(xnums)} coordinates, expected {lp.num_vars}"]
    if xden <= 0:
        return [f"point denominator {xden} is not positive"]
    bad = []
    for k, con in enumerate(lp.constraints):
        nums = con.nums
        lhs = sum(map(mul, nums.values(), map(xnums.__getitem__, nums)))
        rhs = con.rhs_num * xden
        ok = lhs <= rhs if con.rel == LESS else lhs >= rhs if con.rel == GREATER else lhs == rhs
        if not ok:
            shown = Fraction(lhs, con.den * xden)
            bad.append(f"constraint {k}: {shown} {con.rel} {con.rhs} fails")
    for j, (lo, up, v) in enumerate(zip(lp.lower, lp.upper, xnums)):
        if v < lo * xden:
            bad.append(f"variable {lp.names[j]} below lower bound")
        if up is not None and v > up * xden:
            bad.append(f"variable {lp.names[j]} above upper bound")
    return bad


def _combine(lp: LinearProgram, mus: Sequence) -> tuple[int, list, int]:
    """sum_k mus[k] * row_k over nonzero multipliers, on integer forms: the
    multipliers are numerators over a shared denominator ``d``, and the
    result is ``(den, coeffs, rhs)`` with ``coeffs[j] / (den * d)`` the
    combined coefficient of variable j and ``rhs / (den * d)`` the combined
    rhs; ``den`` is the lcm of the used rows' denominators."""
    used = [(mu, con) for mu, con in zip(mus, lp.constraints) if mu]
    den = math.lcm(*(con.den for _, con in used))
    coeffs = [0] * lp.num_vars
    rhs = 0
    for mu, con in used:
        scale = mu * (den // con.den)
        for j, a in con.nums.items():
            coeffs[j] += scale * a
        rhs += scale * con.rhs_num
    return den, coeffs, rhs


def farkas_violations(lp: LinearProgram, cert: FarkasCertificate) -> list[str]:
    """Check a Farkas certificate by exact re-multiplication on its integer
    forms: signs, cancellation and the combined rhs are integer tests."""
    bad = []
    (mden, mnums), (lden, lnums), (uden, unums) = cert.constraint_form, cert.lower_form, cert.upper_form
    if len(mnums) != len(lp.constraints) or len(lnums) != lp.num_vars or len(unums) != lp.num_vars:
        return ["certificate shape mismatch"]
    if min(mden, lden, uden) <= 0:
        return ["certificate denominator not positive"]
    for k, (con, mu) in enumerate(zip(lp.constraints, mnums)):
        if con.rel == LESS and mu < 0:
            bad.append(f"multiplier {k} negative on a <= row")
        if con.rel == GREATER and mu > 0:
            bad.append(f"multiplier {k} positive on a >= row")
    for j, (lo, up) in enumerate(zip(lnums, unums)):
        if lo > 0:
            bad.append(f"lower multiplier {j} positive")
        if up < 0:
            bad.append(f"upper multiplier {j} negative")
        if up and lp.upper[j] is None:
            bad.append(f"upper multiplier {j} used without a bound")
    den, combo, rhs = _combine(lp, mnums)
    den *= mden
    common = math.lcm(den, lden, uden)
    cs, ls, us = common // den, common // lden, common // uden
    for j, (c, lo, up) in enumerate(zip(combo, lnums, unums)):
        residual = c * cs + lo * ls + up * us
        if residual:
            shown = Fraction(residual, common)
            bad.append(f"variable {lp.names[j]} does not cancel (residual {shown})")
    rhs = (
        rhs * cs
        + sum(map(mul, lnums, lp.lower)) * ls
        + sum(u * b for u, b in zip(unums, lp.upper) if b is not None) * us
    )
    if not rhs < 0:
        bad.append(f"combined right-hand side {Fraction(rhs, common)} is not negative")
    return bad


# -- simplex -------------------------------------------------------------
#
# Fraction-free rows: entry j of row r is rows[r][j] / dens[r], with int
# numerators (zeros never stored) and a positive int denominator sharing no
# common factor with them. Pivoting touches only the rows that hold the
# entering column, so rows keep their own denominators; one denominator for
# the whole tableau would rescale every row on every pivot. Every nonbasic
# column reads 0: a column at its upper bound u is held complemented,
# x = u - x', so the rhs column is always the basic values.


def _eliminate(row: dict, den: int, prow: dict, pden: int, c: int) -> int:
    """Subtract ``m = row[c]`` times the row ``prow / pden`` from ``row`` in
    place: ``row * pden - m * prow`` over ``den * pden``, reduced by the gcd.
    A pivot row has entry 1 at ``c`` (``prow[c] == pden``), so the entry
    goes to 0. Returns the new denominator."""
    m = row[c]
    if pden != 1:
        for j in row:
            row[j] *= pden
    for j, v in prow.items():
        nv = row.get(j, 0) - m * v
        if nv:
            row[j] = nv
        else:
            del row[j]
    den *= pden
    g = math.gcd(den, *row.values())
    if g != 1:
        for j in row:
            row[j] //= g
        den //= g
    return den


def _complement(row: dict, den: int, c: int, bound: int) -> int:
    """Substitute x_c = u - x'_c, u the int ``bound``, in ``row`` over
    ``den`` in place, x'_c taking column c: subtracting ``row[c]`` times the
    row 2 x_c = u negates the entry and takes entry * u off the rhs. Returns
    the new denominator."""
    return _eliminate(row, den, {c: 2, _RHS: bound} if bound else {c: 2}, 1, c)


class _Tableau:
    """Sparse fraction-free simplex tableau; row key -1 holds the rhs. The
    objective row ``obj`` over ``obj_den`` has the same form. ``upper``
    holds the bounded columns' bounds and ``flipped`` the columns now held
    complemented. A starting row stays in lowest terms after the shift onto
    the lower bounds, because its gcd divides every a_j * l_j. ``costs``
    are the objective's numerators over its ``cost_den``, signed for
    minimization, and the lower bounds add ``cost_const`` to them."""

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        self.rows: list[dict] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.negated: list[bool] = []  # row multiplied by -1 to make rhs >= 0
        lower = lp.lower
        self.upper = {j: up - lo for j, (lo, up) in enumerate(zip(lower, lp.upper)) if up is not None}
        self.flipped: set[int] = set()
        ncols = lp.num_vars
        artificials: set[int] = set()
        for con in lp.constraints:
            nums, den, rel = con.nums, con.den, con.rel
            rhs = con.rhs_num - sum(a * lower[j] for j, a in nums.items())
            sign = (rel == LESS) - (rel == GREATER)  # the slack's sign; 0: no slack
            # Negating >= rows with rhs 0 turns their slack into a valid
            # starting basis column; many callers' programs then need no
            # phase 1 at all.
            negate = rhs < 0 or (rhs == 0 and sign == -1)
            if negate:
                row = {j: -v for j, v in nums.items()}
                rhs, sign = -rhs, -sign
            else:
                row = dict(nums)
            if sign:
                row[ncols] = sign * den
                ncols += 1
            if sign != 1:
                row[ncols] = den
                artificials.add(ncols)
                ncols += 1
            if rhs:
                row[_RHS] = rhs
            self.rows.append(row)
            self.dens.append(den)
            self.basis.append(ncols - 1)
            self.negated.append(negate)
        self.init_col = self.basis[:]  # the starting basis: each row's identity column
        self.artificials = artificials
        self.barred: set[int] = set()
        self.obj: dict = {}
        self.obj_den = 1
        sign = -1 if lp.maximize else 1
        self.costs = {j: sign * n for j, n in enumerate(lp.cost_nums) if n}
        self.cost_const = sum(n * lower[j] for j, n in self.costs.items())

    def pivot(self, r: int, c: int) -> None:
        """Scale row r to entry 1 at column c (its numerators, made coprime
        and positive at c, over the denominator ``prow[c]``) and eliminate c
        from every other row that holds it, the objective row included."""
        rows, dens = self.rows, self.dens
        prow = rows[r]
        g = math.gcd(*prow.values())
        if prow[c] < 0:
            g = -g
        if g != 1:
            for j in prow:
                prow[j] //= g
        pden = dens[r] = prow[c]
        for rr, row in enumerate(rows):
            if rr != r and c in row:
                dens[rr] = _eliminate(row, dens[rr], prow, pden, c)
        if c in self.obj:
            self.obj_den = _eliminate(self.obj, self.obj_den, prow, pden, c)
        self.basis[r] = c

    def flip(self, c: int) -> None:
        """Move column c to its other bound: complement it in every row
        that holds it and in the objective row."""
        bound = self.upper[c]
        for r, row in enumerate(self.rows):
            if c in row:
                self.dens[r] = _complement(row, self.dens[r], c, bound)
        if c in self.obj:
            self.obj_den = _complement(self.obj, self.obj_den, c, bound)
        self.flipped ^= {c}

    def _set_objective(self, obj: dict, den: int) -> None:
        """Make ``obj`` over ``den`` the objective row, every basic column
        priced out at once. A basic column holds entry 1 in its own row and
        none in the others, so pricing out is subtracting, per basic column
        b that ``obj`` holds, obj[b] times b's row; the sum is put over the
        lcm of the denominators and reduced."""
        held = [(obj[b], row, d) for row, d, b in zip(self.rows, self.dens, self.basis) if b in obj]
        total = den * math.lcm(*(d for _, _, d in held))
        out = {j: v * (total // den) for j, v in obj.items()}
        for c, row, d in held:
            scale = c * (total // (den * d))
            for j, v in row.items():
                out[j] = out.get(j, 0) - v * scale
        g = math.gcd(total, *out.values())
        self.obj, self.obj_den = {j: v // g for j, v in out.items() if v}, total // g

    def _iterate(self) -> str:
        rows, dens, basis, upper = self.rows, self.dens, self.basis, self.upper
        while True:
            entering = None
            for j, v in self.obj.items():
                if j >= 0 and v < 0 and j not in self.barred:
                    if entering is None or j < entering:
                        entering = j
            if entering is None:
                return "optimal"
            # The smallest step t = num / den (den > 0) at which the
            # entering column reaches its own bound or a basic variable
            # reaches 0 or its upper bound; ties go to the smaller variable
            # index. Rows compare rhs / a, their denominator cancelling.
            best = (upper[entering], 1, entering) if entering in upper else None
            leaving_row = to_upper = None
            for r, row in enumerate(rows):
                a = row.get(entering)
                if a is None:
                    continue
                b = basis[r]
                if a < 0 and b not in upper:
                    continue
                rhs = row.get(_RHS, 0)
                if a > 0:
                    step = (rhs, a, b)
                else:
                    step = (upper[b] * dens[r] - rhs, -a, b)
                if best is None or (diff := step[0] * best[1] - best[0] * step[1]) < 0 or (
                    diff == 0 and b < best[2]
                ):
                    leaving_row, to_upper, best = r, a < 0, step
            if best is None:
                return "unbounded"
            if leaving_row is None:
                self.flip(entering)
                continue
            leaving_col = basis[leaving_row]
            if to_upper:
                self.flip(leaving_col)
            self.pivot(leaving_row, entering)
            if leaving_col in self.artificials:
                self.barred.add(leaving_col)

    def phase1(self) -> bool:
        if not self.artificials:
            return True
        self._set_objective({a: 1 for a in self.artificials}, 1)
        status = self._iterate()
        if status != "optimal":  # pragma: no cover - phase 1 is bounded below
            raise VerificationError("phase 1 reported unbounded")
        if self.obj.get(_RHS, 0) < 0:
            return False
        self._cleanup_artificials()
        return True

    def _cleanup_artificials(self) -> None:
        drop = []
        for r in range(len(self.rows)):
            if self.basis[r] not in self.artificials:
                continue
            target = None
            for j in sorted(self.rows[r]):
                if j >= 0 and j not in self.artificials:
                    target = j
                    break
            if target is None:
                drop.append(r)
            else:
                self.pivot(r, target)
        for r in reversed(drop):
            del self.rows[r]
            del self.dens[r]
            del self.basis[r]
        self.barred.update(self.artificials)

    def phase2(self) -> str:
        obj, den = dict(self.costs), self.lp.cost_den
        # the costs of the columns phase 1 left complemented, then the basic
        # columns priced out; remaining negative reduced costs drive the
        # iteration
        for c in self.flipped:
            if c in obj:
                den = _complement(obj, den, c, self.upper[c])
        self._set_objective(obj, den)
        return self._iterate()

    def point(self) -> tuple[int, tuple[int, ...]]:
        """The current point as ``(den, nums)``, ``nums[j] / den == x_j``:
        each column's value (a complemented column's read back off its
        bound) over the lcm of the nonzero values' denominators, plus the
        variable's lower bound."""
        upper, ncols = self.upper, self.lp.num_vars
        value = {b: (row.get(_RHS, 0), d) for row, d, b in zip(self.rows, self.dens, self.basis) if b < ncols}
        for c in self.flipped:
            n, d = value.get(c, (0, 1))
            value[c] = (upper[c] * d - n, d)
        den = math.lcm(*(d for n, d in value.values() if n))
        nums = [lo * den for lo in self.lp.lower]
        for c, (n, d) in value.items():
            if n:
                nums[c] += n * (den // d)
        return den, tuple(nums)

    def multipliers(self, phase1: bool) -> tuple:
        """Max-form multipliers of the user's constraints, as numerators
        over ``obj_den``. The objective row is c - yA and B^-1 sits under
        the rows' initial identity columns, so the rows' multipliers are
        y = c - (objective row) there; c is 1 on the artificial columns in
        phase 1 and 0 on every identity column in phase 2 (a row dropped as
        redundant held a zero-cost artificial). y applies to the rows as the
        tableau holds them, after negation."""
        den, obj, artificials = self.obj_den, self.obj, self.artificials
        return tuple(
            (1 if negated else -1) * ((den if phase1 and col in artificials else 0) - obj.get(col, 0))
            for col, negated in zip(self.init_col, self.negated)
        )


def _extract_farkas(lp: LinearProgram, tab: _Tableau) -> FarkasCertificate:
    """The certificate of phase 1's duals: the rows' multipliers, numerators
    over the objective row's denominator, and what they leave of each
    variable cancelled by a bound multiplier, its sign naming the bound (a
    positive residual the lower, a negative one the upper), each vector
    an integer form in lowest terms. Every variable has a lower bound; the
    verifier catches a negative residual on one without an upper bound."""
    den = tab.obj_den
    mus = tab.multipliers(phase1=True)
    cden, combo, _ = _combine(lp, mus)
    bounds = ([0] * lp.num_vars, [0] * lp.num_vars)
    for j, c in enumerate(combo):
        if c:
            bounds[c < 0][j] = -c
    return FarkasCertificate(
        lowest_terms((den, mus)), *(lowest_terms((cden * den, nums)) for nums in bounds)
    )


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve exactly; outcomes are self-verified before being returned."""
    tab = _Tableau(lp)
    if not tab.phase1():
        cert = _extract_farkas(lp, tab)
        problems = farkas_violations(lp, cert)
        if problems:
            raise VerificationError("bad Farkas certificate: " + "; ".join(problems))
        return LPOutcome("infeasible", None, cert)
    status = tab.phase2()
    if status == "unbounded":
        return LPOutcome("unbounded", None, None)
    xden, xnums = point = lowest_terms(tab.point())
    problems = feasibility_violations(lp, point)
    if problems:
        raise VerificationError("optimal point infeasible: " + "; ".join(problems))
    # The optimum derived again from the costs, c.x = num / (cost_den *
    # xden), against the tableau's: its minimum is the cost constant less
    # the objective row's rhs, negated for a maximum. One cross-multiplication.
    num, den = sum(map(mul, lp.cost_nums, xnums)), lp.cost_den * xden
    rhs, rhs_den = tab.obj.get(_RHS, 0), tab.obj_den
    claimed_num, claimed_den = tab.cost_const * rhs_den - rhs * lp.cost_den, lp.cost_den * rhs_den
    if lp.maximize:
        claimed_num = -claimed_num
    if claimed_num * den != num * claimed_den:
        claimed, value = Fraction(claimed_num, claimed_den), Fraction(num, den)
        raise VerificationError(
            f"objective mismatch: tableau {claimed}, recomputed {value}"
        )
    duals = lowest_terms((tab.obj_den, tab.multipliers(phase1=False)))
    return LPOutcome("optimal", Fraction(num, den), None, point, duals)
