"""Exact linear programming over rationals.

Two-phase bounded-variable primal simplex (Dantzig 1955) with Bland's
anti-cycling rule. Every coefficient is an exact rational; there is no
tolerance anywhere. A constraint is a sparse row, a map from variable index
to nonzero int numerator over one positive denominator, in lowest terms,
and it is built from that integer form alone
(``LPBuilder.add_integer_constraint``), with no rational per coefficient. A
program fixes the integer forms of its objective and bounds the same way.
Standardization, the tableau and the self-checks read only these ints; only
the objective is a dense tuple, and it fixes the number of variables.

Bounds never become rows. Standardizing shifts a variable with a lower bound
onto it, substitutes x = u - x' for a variable with only an upper bound u,
and splits a free variable into a positive and a negative part; a finite
upper bound of a shifted variable stays a bound of its column. A nonbasic
column sits at either bound: moving it to its upper bound complements it
(x = u - x') on the rows, so every nonbasic column reads 0. The ratio test
also stops where a basic variable reaches its upper bound, which is
complemented before it leaves, or where the entering column reaches its
own, which flips it without a pivot. Bland's rule covers both: among tied
candidates the smallest variable index leaves, the entering column's own
flip under its own index. The starting basis takes each row's slack where,
once the row is negated to a nonnegative rhs (a ``>=`` row with rhs 0 too),
the slack's sign is +1, and a new artificial for every other row.

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
cross this module's boundary as integer forms ``(den, nums)``, which the
checks (``feasibility_violations``, ``farkas_violations``) read. An
outcome's point and duals and a certificate's multipliers build their
rationals on first read; besides failure messages, the one rational built
is an optimum's value. A failed internal check raises ``VerificationError``
and always indicates a bug, never bad input.

This module is the program types, their checks and the simplex alone. Its
oracle, a brute-force enumeration of basic solutions, lives with the tests
(``tests/oracles.py``) and reads only a program's public fields, so it
shares no standardization or elimination with the simplex.

Variables are free unless bounds say otherwise; nothing is implicitly
non-negative. Callers are expected to keep their programs bounded via explicit
box bounds where it matters (payoffs live in [-1, 1] throughout this package),
but unbounded programs are still detected and reported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple, Sequence

from ._rational import ZERO, rational
from .errors import DimensionError, InputError, VerificationError
from .model import Frozen, integer_form, lowest_terms

LESS, EQUAL, GREATER = "<=", "=", ">="
_RHS = -1  # dict key for the right-hand side inside sparse tableau rows


class Constraint:
    """The row ``sum_j nums[j] * x_j  rel  rhs_num``, over one positive
    ``den``; another ``den``, or a ``rel`` other than ``<=``, ``=`` and
    ``>=``, is an ``InputError``. ``nums`` maps variable
    indices to int numerators. It is built from this integer form alone,
    as a ``Distribution`` is from its support: the row is reduced to lowest
    terms by one gcd, zero numerators are dropped, and ``nums`` is kept as
    given when it is in lowest terms with no zero. The simplex and the
    self-checks read the ints; the rationals ``coeffs[j] == nums[j] / den``
    and ``rhs == rhs_num / den`` are made only when they are read."""

    def __init__(self, nums: dict, den: int, rel: str, rhs_num: int = 0) -> None:
        if rel not in (LESS, EQUAL, GREATER):
            raise InputError(f"unknown relation {rel!r}")
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
    """A program over ``len(objective)`` variables. Like its rows, it fixes
    its integer forms at construction: ``cost_nums[j] / cost_den ==
    objective[j]``, and each bound in ``lower_forms`` and ``upper_forms``
    is a ``(num, den)`` pair, or None where ``lower`` or ``upper`` is. The
    simplex and the self-checks read only these ints. Frozen; equality, the
    hash and ``repr`` read the six given fields, the objective and bounds
    as rationals."""

    _fields = ("objective", "maximize", "constraints", "lower", "upper", "names")
    objective: tuple
    maximize: bool
    constraints: tuple[Constraint, ...]
    lower: tuple  # per-variable lower bound or None
    upper: tuple  # per-variable upper bound or None
    names: tuple[str, ...]

    def __init__(self, objective, maximize, constraints, lower, upper, names) -> None:
        n = len(objective)
        for name, value in (("lower", lower), ("upper", upper), ("names", names)):
            if len(value) != n:
                raise DimensionError(f"{name} must have one entry per variable")
        used = set().union(*(con.nums for con in constraints))
        if used and not (0 <= min(used) and max(used) < n):
            raise DimensionError(f"constraint names a variable outside 0..{n - 1}")
        objective = tuple(map(rational, objective))
        cost_den, cost_nums = integer_form(objective)
        lower = tuple(None if b is None else rational(b) for b in lower)
        upper = tuple(None if b is None else rational(b) for b in upper)
        lower_forms = tuple(None if q is None else q.as_integer_ratio() for q in lower)
        upper_forms = tuple(None if q is None else q.as_integer_ratio() for q in upper)
        for j, (lo, hi) in enumerate(zip(lower_forms, upper_forms)):
            if lo and hi and lo[0] * hi[1] > hi[0] * lo[1]:
                raise InputError(
                    f"variable {names[j]} has lower bound {lower[j]} above upper bound {upper[j]}"
                )
        vars(self).update(
            objective=objective, maximize=maximize, constraints=constraints, lower=lower,
            upper=upper, names=names, cost_den=cost_den, cost_nums=cost_nums,
            lower_forms=lower_forms, upper_forms=upper_forms,
        )

    @property
    def num_vars(self) -> int:
        return len(self.objective)


class LPBuilder:
    """Incremental construction with named variables and sparse rows."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._lower: list = []
        self._upper: list = []
        self._objective: list = []
        self._rows: list[Constraint] = []

    def add_var(self, name: str, lower=None, upper=None, objective=ZERO) -> int:
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
    """``primal`` (optimal outcomes only): the optimal point. ``duals``
    (optimal outcomes only): one multiplier u_k per constraint, in max form
    (objective negated when minimizing), sign rules as in
    ``FarkasCertificate``. The reduced costs c - A^T u are priced by the
    variables' bounds; with every variable bounded below by 0 and nothing
    else, A^T u >= c and b.u = c.x.

    Both are kept as integer forms, ``point`` and ``dual_form``, each a
    ``(den, nums)`` pair, and their rationals are built on first read.
    Frozen; equality, the hash and ``repr`` read the five given fields."""

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
    duals = cached_property(lambda self: _rationals(self.dual_form))


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
    for j, (lo, up, v) in enumerate(zip(lp.lower_forms, lp.upper_forms, xnums)):
        if lo is not None and v * lo[1] < lo[0] * xden:
            bad.append(f"variable {lp.names[j]} below lower bound")
        if up is not None and v * up[1] > up[0] * xden:
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
        if lo and lp.lower[j] is None:
            bad.append(f"lower multiplier {j} used without a bound")
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
    terms = [(rhs, den)]
    for nums, d, bounds in ((lnums, lden, lp.lower_forms), (unums, uden, lp.upper_forms)):
        terms += [(u * b[0], d * b[1]) for u, b in zip(nums, bounds) if u and b is not None]
    total = math.lcm(*(d for _, d in terms))
    rhs = sum(n * (total // d) for n, d in terms)
    if not rhs < 0:
        bad.append(f"combined right-hand side {Fraction(rhs, total)} is not negative")
    return bad


# -- standardization -----------------------------------------------------
#
# Internal form: A x' = b with 0 <= x' <= u, u finite or not. The simplex
# reads it off the constraints' integer forms (``_int_standardize``): std row
# k is constraint k, and bounds stay on the columns.


class _IntStdForm(NamedTuple):
    """The simplex's input on ints: std row k is ``rows[k][col] / dens[k]``
    with rhs ``row_rhs[k] / dens[k]``, in lowest terms; a bounded column
    col is bounded above by ``col_upper[col]``, a ``(num, den)`` pair; the
    costs are ``costs[col] / cost_den``, and the offsets add the constant
    ``cost_const``, a ``(num, den)`` pair. ``offsets`` maps each variable
    with a nonzero offset (its lower bound, or a mirrored one's upper bound)
    to it as a ``(num, den)`` pair."""

    ncols: int
    col_kind: list[tuple]         # per std column: ("shift" | "mirror" | "pos" | "neg", j)
    col_upper: dict
    offsets: dict
    rows: list[dict]
    dens: list[int]
    row_rel: list[str]
    row_rhs: list[int]
    cost_const: tuple[int, int]
    costs: dict
    cost_den: int


def _int_standardize(lp: LinearProgram) -> _IntStdForm:
    """The standard form read off the program's integer forms. A variable
    with a lower bound l is shifted, x = l + x', and keeps u - l as its
    column's bound; one with only an upper bound u is mirrored, x = u - x',
    and negates its coefficients; a free one is split, its negative part
    taking the next column. Each row moves its rhs by the sum of a_j * o_j
    over the offsets o_j of its variables, over their lcm, and is reduced
    to lowest terms only when that lcm is not 1: the row's gcd divides
    every a_j * o_j of an integral shift. A row whose every variable keeps
    its index as its column, unsigned, is the constraint's own ``nums``,
    which nothing writes."""
    col_kind: list[tuple] = []
    col_upper: dict = {}
    colmap: list[int] = []  # per variable: its column (a free one's positive part)
    free: set = set()
    mirrored: set = set()
    moved: set = set()      # variables that do not keep their index as their column
    offsets: dict = {}      # variable: its offset, a (num, den) pair, when nonzero
    for j, (lo, up) in enumerate(zip(lp.lower_forms, lp.upper_forms)):
        col = len(col_kind)
        colmap.append(col)
        if col != j:
            moved.add(j)
        if lo is None and up is None:
            col_kind += [("pos", j), ("neg", j)]
            free.add(j)
            continue
        if lo is None:
            col_kind.append(("mirror", j))
            mirrored.add(j)
            off = up
        else:
            col_kind.append(("shift", j))
            off = lo
            if up is not None:
                (ln, ld), (un, ud) = lo, up
                num, den = un * ld - ln * ud, ud * ld
                g = math.gcd(num, den)
                col_upper[col] = (num // g, den // g)
        if off[0]:
            offsets[j] = off
    moved |= free | mirrored

    rows: list[dict] = []
    dens: list[int] = []
    row_rhs: list[int] = []
    for con in lp.constraints:
        nums = con.nums
        if moved.isdisjoint(nums):
            row = nums
        else:
            row = {}
            for j, a in nums.items():
                col = colmap[j]
                row[col] = -a if j in mirrored else a
                if j in free:
                    row[col + 1] = -a
        den, rhs = con.den, con.rhs_num
        terms = [(a * off[0], off[1]) for j, a in nums.items() if (off := offsets.get(j))]
        if terms:
            scale = math.lcm(*(od for _, od in terms))
            rhs = rhs * scale - sum(n * (scale // od) for n, od in terms)
            if scale != 1:
                den *= scale
                g = math.gcd(den, rhs, *(v * scale for v in row.values()))
                row = {c: v * scale // g for c, v in row.items()}
                den, rhs = den // g, rhs // g
        rows.append(row)
        dens.append(den)
        row_rhs.append(rhs)

    # Costs signed for minimization; the offsets' costs sum to the constant.
    sign = -1 if lp.maximize else 1
    costs: dict = {}
    const_terms = []
    for j, n in enumerate(lp.cost_nums):
        if not n:
            continue
        n *= sign
        col = colmap[j]
        costs[col] = -n if j in mirrored else n
        if j in free:
            costs[col + 1] = -n
        elif j in offsets:
            on, od = offsets[j]
            const_terms.append((n * on, od))
    const_den = math.lcm(*(od for _, od in const_terms))
    const_num = sum(n * (const_den // od) for n, od in const_terms)
    return _IntStdForm(
        len(col_kind), col_kind, col_upper, offsets, rows, dens, [con.rel for con in lp.constraints],
        row_rhs, (const_num, const_den * lp.cost_den), costs, lp.cost_den,
    )


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


def _complement(row: dict, den: int, c: int, bound: tuple[int, int]) -> int:
    """Substitute x_c = u - x'_c, u = un / ud, in ``row`` over ``den`` in
    place, x'_c taking column c: subtracting ``row[c]`` times the row
    2 x_c = u negates the entry and takes entry * u off the rhs. Returns the
    new denominator."""
    un, ud = bound
    return _eliminate(row, den, {c: 2 * ud, _RHS: un} if un else {c: 2 * ud}, ud, c)


class _Tableau:
    """Sparse fraction-free simplex tableau; row key -1 holds the rhs. The
    objective row ``obj`` over ``obj_den`` has the same form. ``upper``
    holds the bounded columns' bounds and ``flipped`` the columns now held
    complemented."""

    def __init__(self, std: _IntStdForm) -> None:
        self.std = std
        self.rows: list[dict] = []
        self.dens: list[int] = std.dens[:]
        self.basis: list[int] = []
        self.negated: list[bool] = []  # std row multiplied by -1 to make rhs >= 0
        self.upper = std.col_upper
        self.flipped: set[int] = set()
        ncols = std.ncols
        artificials: set[int] = set()
        for base_row, den, rel, rhs in zip(std.rows, std.dens, std.row_rel, std.row_rhs):
            sign = (rel == LESS) - (rel == GREATER)  # the slack's sign; 0: no slack
            # Negating >= rows with rhs 0 turns their slack into a valid
            # starting basis column; many callers' programs then need no
            # phase 1 at all.
            negate = rhs < 0 or (rhs == 0 and sign == -1)
            if negate:
                row = {j: -v for j, v in base_row.items()}
                rhs, sign = -rhs, -sign
            else:
                row = dict(base_row)
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
            self.basis.append(ncols - 1)
            self.negated.append(negate)
        self.init_col = self.basis[:]  # the starting basis: each std row's identity column
        self.artificials = artificials
        self.barred: set[int] = set()
        self.obj: dict = {}
        self.obj_den = 1

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
            best = (*upper[entering], entering) if entering in upper else None
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
                    un, ud = upper[b]
                    step = (un * dens[r] - ud * rhs, -a * ud, b)
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
        obj, den = dict(self.std.costs), self.std.cost_den
        # the costs of the columns phase 1 left complemented, then the basic
        # columns priced out; remaining negative reduced costs drive the
        # iteration
        for c in self.flipped:
            if c in obj:
                den = _complement(obj, den, c, self.upper[c])
        self._set_objective(obj, den)
        return self._iterate()

    def point(self, lp: LinearProgram) -> tuple[int, list[int]]:
        """The current point in the original variables as ``(den, nums)``,
        ``nums[j] / den == x_j``: every nonzero term, the offsets and the
        std columns' values (a complemented column's read back off its
        bound, negated for a mirrored variable or a negative part), is put
        over the lcm of their denominators."""
        std, upper = self.std, self.upper
        ncols = std.ncols
        value = {b: (row.get(_RHS, 0), d) for row, d, b in zip(self.rows, self.dens, self.basis) if b < ncols}
        for c in self.flipped:
            n, d = value.get(c, (0, 1))
            un, ud = upper[c]
            value[c] = (un * d - n * ud, ud * d)
        terms = [(j, n, d) for j, (n, d) in std.offsets.items()]
        for c, (n, d) in value.items():
            if n:
                tag, j = std.col_kind[c]
                terms.append((j, -n if tag == "mirror" or tag == "neg" else n, d))
        den = math.lcm(*(d for _, _, d in terms))
        nums = [0] * lp.num_vars
        for j, n, d in terms:
            nums[j] += n * (den // d)
        return den, nums

    def multipliers(self, phase1: bool) -> list:
        """Max-form multipliers of the user's constraints, as numerators
        over ``obj_den``. The objective row is c - yA and B^-1 sits under
        the rows' initial identity columns, so the rows' multipliers are
        y = c - (objective row) there; c is 1 on the artificial columns in
        phase 1 and 0 on every identity column in phase 2 (a row dropped as
        redundant held a zero-cost artificial). y applies to the rows as the
        tableau holds them, after negation."""
        den, obj, artificials = self.obj_den, self.obj, self.artificials
        return [
            (1 if negated else -1) * ((den if phase1 and col in artificials else 0) - obj.get(col, 0))
            for col, negated in zip(self.init_col, self.negated)
        ]


def _extract_farkas(lp: LinearProgram, tab: _Tableau) -> FarkasCertificate:
    """The certificate of phase 1's duals: the rows' multipliers, numerators
    over the objective row's denominator, and what they leave of each
    variable cancelled by a bound multiplier, its sign naming the bound (a
    positive residual the lower, a negative one the upper), each vector
    an integer form in lowest terms. The verifier catches a residual on a
    variable without that bound."""
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
    std = _int_standardize(lp)
    tab = _Tableau(std)
    if not tab.phase1():
        cert = _extract_farkas(lp, tab)
        problems = farkas_violations(lp, cert)
        if problems:
            raise VerificationError("bad Farkas certificate: " + "; ".join(problems))
        return LPOutcome("infeasible", None, cert)
    status = tab.phase2()
    if status == "unbounded":
        return LPOutcome("unbounded", None, None)
    xden, xnums = point = tab.point(lp)
    problems = feasibility_violations(lp, point)
    if problems:
        raise VerificationError("optimal point infeasible: " + "; ".join(problems))
    # The optimum derived again from the costs, c.x = num / (cost_den *
    # xden), against the tableau's: its minimum is the cost constant less
    # the objective row's rhs, negated for a maximum. One cross-multiplication.
    num, den = sum(map(mul, lp.cost_nums, xnums)), lp.cost_den * xden
    (kn, kd), rhs, rhs_den = std.cost_const, tab.obj.get(_RHS, 0), tab.obj_den
    claimed_num, claimed_den = kn * rhs_den - rhs * kd, kd * rhs_den
    if lp.maximize:
        claimed_num = -claimed_num
    if claimed_num * den != num * claimed_den:
        claimed, value = Fraction(claimed_num, claimed_den), Fraction(num, den)
        raise VerificationError(
            f"objective mismatch: tableau {claimed}, recomputed {value}"
        )
    duals = (tab.obj_den, tab.multipliers(phase1=False))
    return LPOutcome("optimal", Fraction(num, den), None, point, duals)
