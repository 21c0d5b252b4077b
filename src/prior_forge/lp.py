"""Exact linear programming over rationals.

Two-phase primal simplex with Bland's anti-cycling rule. Every coefficient is
an exact rational; there is no tolerance anywhere. The tableau is
fraction-free (Edmonds 1967, Bareiss 1968): each row is a sparse dict of
integer numerators over one positive row denominator, kept in lowest terms,
so a pivot costs integer multiplications and one gcd per changed row instead
of a normalized rational per entry. Pivots follow the same rule on the same
exact values, so bases, points, certificates and duals are those of a
rational tableau; rationals are built only where results are read off.
Outcomes are verified before they are returned: optimal points are
re-substituted into every constraint and bound, and infeasibility comes with
a Farkas certificate whose contradiction is re-multiplied from scratch. A
failed internal check raises ``VerificationError`` and always indicates a
bug, never bad input.

``enumerate_basic_solutions`` is the independent oracle: it enumerates basic
solutions of the standardized system by brute-force basis selection with exact
Gaussian elimination. It shares no code path with the simplex iteration and is
capped because its work is combinatorial.

Variables are free unless bounds say otherwise; nothing is implicitly
non-negative. Callers are expected to keep their programs bounded via explicit
box bounds where it matters (payoffs live in [-1, 1] throughout this package),
but unbounded programs are still detected and reported.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Iterator, Sequence

from ._rational import ONE, ZERO, Rational, format_rational, rational
from .errors import DimensionError, SizeCapError, VerificationError
from .model import dot

LESS, EQUAL, GREATER = "<=", "=", ">="
_RHS = -1  # dict key for the right-hand side inside sparse tableau rows

# Debug stream that every program solved, and its outcome, is written to;
# set only inside ``dumping``.
_DUMP: ContextVar[IO[str] | None] = ContextVar("prior_forge_lp_dump", default=None)


@contextmanager
def dumping(stream: IO[str] | None) -> Iterator[None]:
    """Within the block, write every program solved, and its outcome, to
    ``stream`` (None: write nothing). The previous setting comes back on exit."""
    token = _DUMP.set(stream)
    try:
        yield
    finally:
        _DUMP.reset(token)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple
    rel: str
    rhs: object

    def __post_init__(self) -> None:
        if self.rel not in (LESS, EQUAL, GREATER):
            raise DimensionError(f"unknown relation {self.rel!r}")
        object.__setattr__(self, "coeffs", tuple(rational(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", rational(self.rhs))


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple
    maximize: bool
    constraints: tuple[Constraint, ...]
    lower: tuple  # per-variable lower bound or None
    upper: tuple  # per-variable upper bound or None
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.objective)
        object.__setattr__(self, "objective", tuple(rational(c) for c in self.objective))
        for field in ("lower", "upper", "names"):
            if len(getattr(self, field)) != n:
                raise DimensionError(f"{field} must have one entry per variable")
        object.__setattr__(
            self, "lower", tuple(None if b is None else rational(b) for b in self.lower)
        )
        object.__setattr__(
            self, "upper", tuple(None if b is None else rational(b) for b in self.upper)
        )
        for con in self.constraints:
            if len(con.coeffs) != n:
                raise DimensionError("constraint width does not match variable count")

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
        self._rows: list[tuple[dict, str, object]] = []

    def add_var(self, name: str, lower=None, upper=None, objective=0) -> int:
        self._names.append(name)
        self._lower.append(lower)
        self._upper.append(upper)
        self._objective.append(objective)
        return len(self._names) - 1

    def add_constraint(self, coeffs: dict, rel: str, rhs) -> None:
        if rel not in (LESS, EQUAL, GREATER):
            raise DimensionError(f"unknown relation {rel!r}")
        self._rows.append((dict(coeffs), rel, rhs))

    def add_objective(self, var: int, coeff) -> None:
        """Accumulate into a variable's objective coefficient."""
        self._objective[var] = rational(self._objective[var]) + rational(coeff)

    def build(self, maximize: bool) -> LinearProgram:
        n = len(self._names)
        constraints = []
        for coeffs, rel, rhs in self._rows:
            dense = [ZERO] * n
            for j, c in coeffs.items():
                dense[j] = rational(c)
            # Values are already exact here; skip __post_init__'s per-entry
            # re-coercion of the dense row.
            con = object.__new__(Constraint)
            object.__setattr__(con, "coeffs", tuple(dense))
            object.__setattr__(con, "rel", rel)
            object.__setattr__(con, "rhs", rational(rhs))
            constraints.append(con)
        return LinearProgram(
            tuple(self._objective),
            maximize,
            tuple(constraints),
            tuple(self._lower),
            tuple(self._upper),
            tuple(self._names),
        )


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers combining constraints and bounds into ``0 <= negative``.

    Semantics: sum over constraints of ``mu_k * (row_k)`` plus
    ``lower_multipliers[j] * (x_j >= l_j)`` plus
    ``upper_multipliers[j] * (x_j <= u_j)`` must cancel every variable and
    leave a strictly negative right-hand side. Sign rules: ``mu_k >= 0`` for
    ``<=`` rows, ``mu_k <= 0`` for ``>=`` rows, free for equalities;
    lower multipliers ``<= 0``; upper multipliers ``>= 0``.
    """

    constraint_multipliers: tuple
    lower_multipliers: tuple
    upper_multipliers: tuple


@dataclass(frozen=True)
class LPOutcome:
    """``duals`` (optimal outcomes only): one multiplier u_k per constraint,
    in max form (objective negated when minimizing), sign rules as in
    ``FarkasCertificate``. The reduced costs c - A^T u are priced by the
    variables' bounds; with every variable bounded below by 0 and nothing
    else, A^T u >= c and b.u = c.x."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: tuple | None
    objective_value: object | None
    certificate: FarkasCertificate | None
    duals: tuple | None = None


def feasibility_violations(lp: LinearProgram, x: Sequence) -> list[str]:
    """Human-readable list of constraint/bound violations of ``x`` (exact)."""
    bad = []
    if len(x) != lp.num_vars:
        return [f"point has {len(x)} coordinates, expected {lp.num_vars}"]
    for k, con in enumerate(lp.constraints):
        lhs = dot(con.coeffs, x)
        ok = lhs <= con.rhs if con.rel == LESS else lhs >= con.rhs if con.rel == GREATER else lhs == con.rhs
        if not ok:
            bad.append(f"constraint {k}: {format_rational(lhs)} {con.rel} {format_rational(con.rhs)} fails")
    for j in range(lp.num_vars):
        if lp.lower[j] is not None and x[j] < lp.lower[j]:
            bad.append(f"variable {lp.names[j]} below lower bound")
        if lp.upper[j] is not None and x[j] > lp.upper[j]:
            bad.append(f"variable {lp.names[j]} above upper bound")
    return bad


def _combine(lp: LinearProgram, mus: Sequence) -> tuple[list, object]:
    """sum_k mus[k] * row_k over nonzero multipliers and nonzero coefficients:
    the combined coefficient of each variable, and the combined rhs."""
    coeffs = [ZERO] * lp.num_vars
    rhs = ZERO
    for mu, con in zip(mus, lp.constraints):
        if not mu:
            continue
        for j, a in enumerate(con.coeffs):
            if a:
                coeffs[j] += mu * a
        if con.rhs:
            rhs += mu * con.rhs
    return coeffs, rhs


def farkas_violations(lp: LinearProgram, cert: FarkasCertificate) -> list[str]:
    """Check a Farkas certificate by exact re-multiplication."""
    bad = []
    mus = cert.constraint_multipliers
    los = cert.lower_multipliers
    ups = cert.upper_multipliers
    if len(mus) != len(lp.constraints) or len(los) != lp.num_vars or len(ups) != lp.num_vars:
        return ["certificate shape mismatch"]
    for k, con in enumerate(lp.constraints):
        if con.rel == LESS and mus[k] < ZERO:
            bad.append(f"multiplier {k} negative on a <= row")
        if con.rel == GREATER and mus[k] > ZERO:
            bad.append(f"multiplier {k} positive on a >= row")
    for j in range(lp.num_vars):
        if los[j] > ZERO:
            bad.append(f"lower multiplier {j} positive")
        if ups[j] < ZERO:
            bad.append(f"upper multiplier {j} negative")
        if los[j] != ZERO and lp.lower[j] is None:
            bad.append(f"lower multiplier {j} used without a bound")
        if ups[j] != ZERO and lp.upper[j] is None:
            bad.append(f"upper multiplier {j} used without a bound")
    combo, rhs = _combine(lp, mus)
    for j in range(lp.num_vars):
        residual = combo[j] + los[j] + ups[j]
        if residual != ZERO:
            bad.append(f"variable {lp.names[j]} does not cancel (residual {format_rational(residual)})")
    rhs += sum((los[j] * lp.lower[j] for j in range(lp.num_vars) if los[j] != ZERO), ZERO)
    rhs += sum((ups[j] * lp.upper[j] for j in range(lp.num_vars) if ups[j] != ZERO), ZERO)
    if not rhs < ZERO:
        bad.append(f"combined right-hand side {format_rational(rhs)} is not negative")
    return bad


def render_lp(lp: LinearProgram) -> str:
    """Plain-text rendering (used by the CLI --dump-lp debug flag)."""
    out = ["maximize" if lp.maximize else "minimize"]
    out.append("  " + _render_row(lp.objective, lp.names))
    out.append("subject to")
    for con in lp.constraints:
        out.append(f"  {_render_row(con.coeffs, lp.names)} {con.rel} {format_rational(con.rhs)}")
    bounds = []
    for j in range(lp.num_vars):
        lo, up = lp.lower[j], lp.upper[j]
        if lo is None and up is None:
            continue
        left = format_rational(lo) + " <= " if lo is not None else ""
        right = " <= " + format_rational(up) if up is not None else ""
        bounds.append(f"  {left}{lp.names[j]}{right}")
    if bounds:
        out.append("bounds")
        out.extend(bounds)
    return "\n".join(out) + "\n"


def _render_row(coeffs: Sequence, names: Sequence[str]) -> str:
    terms = [
        f"{format_rational(c)}*{names[j]}"
        for j, c in enumerate(coeffs)
        if c != ZERO
    ]
    return " + ".join(terms) if terms else "0"


# -- standardization -----------------------------------------------------
#
# Internal form: A x' = b with x' >= 0. Finite lower bounds shift, variables
# without one split into a positive and a negative part, and every finite
# upper bound becomes an extra <= row over the variable's columns. Row
# bookkeeping keeps enough structure to translate phase-1 duals back into an
# original-space Farkas certificate.


@dataclass
class _StdForm:
    ncols: int
    col_kind: list[tuple]         # per std column: ("shift", j) | ("pos", j) | ("neg", j)
    rows: list[dict]              # transformed coefficient rows (sparse), pre-negation
    row_rel: list[str]
    row_rhs: list
    row_origin: list[tuple]       # ("user", k) | ("upper", j)
    cost_const: object
    costs: dict                   # minimization costs over std columns

    def to_original(self, lp: LinearProgram, xstd: Sequence) -> tuple:
        x = [ZERO] * lp.num_vars
        for col, kind in enumerate(self.col_kind):
            tag, j = kind
            v = xstd[col]
            if tag == "shift":
                x[j] = lp.lower[j] + v
            elif tag == "pos":
                x[j] = x[j] + v
            else:
                x[j] = x[j] - v
        return tuple(x)


def _standardize(lp: LinearProgram) -> _StdForm:
    col_kind: list[tuple] = []
    col_of_var: list[list[tuple[int, int]]] = []  # var -> [(col, sign)]
    for j in range(lp.num_vars):
        col = len(col_kind)
        if lp.lower[j] is not None:
            col_kind.append(("shift", j))
            col_of_var.append([(col, 1)])
        else:
            col_kind.append(("pos", j))
            col_kind.append(("neg", j))
            col_of_var.append([(col, 1), (col + 1, -1)])

    rows: list[dict] = []
    row_rel: list[str] = []
    row_rhs: list = []
    row_origin: list[tuple] = []
    for k, con in enumerate(lp.constraints):
        row: dict = {}
        rhs = con.rhs
        for j, a in enumerate(con.coeffs):
            if not a:
                continue
            if lp.lower[j]:
                rhs -= a * lp.lower[j]
            for col, sign in col_of_var[j]:
                row[col] = a if sign == 1 else -a
        rows.append(row)
        row_rel.append(con.rel)
        row_rhs.append(rhs)
        row_origin.append(("user", k))
    for j, up in enumerate(lp.upper):
        if up is None:
            continue
        rows.append({col: ONE if sign == 1 else -ONE for col, sign in col_of_var[j]})
        row_rel.append(LESS)
        row_rhs.append(up - lp.lower[j] if lp.lower[j] else up)
        row_origin.append(("upper", j))

    raw_costs = lp.objective if not lp.maximize else tuple(-c for c in lp.objective)
    costs: dict = {}
    cost_const = ZERO
    for j, c in enumerate(raw_costs):
        if not c:
            continue
        if lp.lower[j]:
            cost_const += c * lp.lower[j]
        for col, sign in col_of_var[j]:
            costs[col] = c if sign == 1 else -c
    return _StdForm(len(col_kind), col_kind, rows, row_rel, row_rhs, row_origin, cost_const, costs)


# -- simplex -------------------------------------------------------------
#
# Fraction-free rows: entry j of row r is rows[r][j] / dens[r], with int
# numerators (zeros never stored) and a positive int denominator sharing no
# common factor with them. Pivoting touches only the rows that hold the
# entering column, so rows keep their own denominators; one denominator for
# the whole tableau would rescale every row on every pivot.


def _to_ints(row: dict) -> tuple[dict, int]:
    """An exact rational row as int numerators over the lcm of its entries'
    denominators, which is already in lowest terms."""
    den = math.lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in row.items()}, den


def _eliminate(row: dict, den: int, prow: dict, pden: int, c: int) -> int:
    """Subtract ``row[c]`` times the pivot row, whose entry at ``c`` is 1
    (``prow[c] == pden``), from ``row`` in place: ``row * pden - m * prow``
    over ``den * pden``, reduced by the gcd. Returns the new denominator."""
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


class _Tableau:
    """Sparse fraction-free simplex tableau; row key -1 holds the rhs. The
    objective row ``obj`` over ``obj_den`` has the same form."""

    def __init__(self, std: _StdForm) -> None:
        self.std = std
        self.rows: list[dict] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.init_col: list[int] = []  # identity column of each std row
        self.negated: list[bool] = []  # std row multiplied by -1 to make rhs >= 0
        ncols = std.ncols
        artificials: set[int] = set()
        for r, base_row in enumerate(std.rows):
            rel, rhs = std.row_rel[r], std.row_rhs[r]
            row = dict(base_row)
            if rel == LESS:
                slack_sign = 1
            elif rel == GREATER:
                slack_sign = -1
            else:
                slack_sign = None
            # Negating >= rows with rhs 0 turns their slack into a valid
            # starting basis column; many callers' programs then need no
            # phase 1 at all.
            negate = rhs < ZERO or (rhs == ZERO and slack_sign == -1)
            if negate:
                row = {j: -v for j, v in row.items()}
                rhs = -rhs
                if slack_sign is not None:
                    slack_sign = -slack_sign
            if slack_sign is not None:
                row[ncols] = slack_sign
                slack_col = ncols
                ncols += 1
            else:
                slack_col = None
            if slack_col is not None and slack_sign == 1:
                ident = slack_col
            else:
                row[ncols] = 1
                artificials.add(ncols)
                ident = ncols
                ncols += 1
            if rhs:
                row[_RHS] = rhs
            nums, den = _to_ints(row)
            self.rows.append(nums)
            self.dens.append(den)
            self.basis.append(ident)
            self.init_col.append(ident)
            self.negated.append(negate)
        self.artificials = artificials
        self.barred: set[int] = set()
        self.obj: dict = {}
        self.obj_den = 1

    def pivot(self, r: int, c: int) -> None:
        """Scale row r to entry 1 at column c (its numerators, made coprime
        and positive at c, over the denominator ``prow[c]``) and eliminate c
        from every other row that holds it."""
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
        self.basis[r] = c

    def _price_out(self, r: int) -> None:
        """Zero the objective's entry at row r's basic column."""
        b = self.basis[r]
        if b in self.obj:
            self.obj_den = _eliminate(self.obj, self.obj_den, self.rows[r], self.dens[r], b)

    def _iterate(self) -> str:
        rows, basis, obj = self.rows, self.basis, self.obj
        while True:
            entering = None
            for j, v in obj.items():
                if j >= 0 and v < 0 and j not in self.barred:
                    if entering is None or j < entering:
                        entering = j
            if entering is None:
                return "optimal"
            # Smallest ratio rhs / a, ties to the smaller basis index; both
            # numerators share the row's denominator, so it cancels.
            leaving_row = None
            for r, row in enumerate(rows):
                a = row.get(entering)
                if a is None or a <= 0:
                    continue
                rhs = row.get(_RHS, 0)
                if leaving_row is not None:
                    diff = rhs * best_a - best_rhs * a
                    if diff > 0 or (diff == 0 and basis[r] > basis[leaving_row]):
                        continue
                leaving_row, best_rhs, best_a = r, rhs, a
            if leaving_row is None:
                return "unbounded"
            leaving_col = basis[leaving_row]
            self.pivot(leaving_row, entering)
            self._price_out(leaving_row)
            if leaving_col in self.artificials:
                self.barred.add(leaving_col)

    def phase1(self) -> bool:
        if not self.artificials:
            return True
        self.obj, self.obj_den = {a: 1 for a in self.artificials}, 1
        for r, b in enumerate(self.basis):
            if b in self.artificials:
                self._price_out(r)
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
        self.obj, self.obj_den = _to_ints(self.std.costs)
        # price out the basic columns; remaining negative reduced costs
        # drive the iteration
        for r in range(len(self.rows)):
            self._price_out(r)
        return self._iterate()

    def objective_entry(self, j: int):
        """Entry j of the objective row as a rational (key -1: its rhs)."""
        n = self.obj.get(j)
        return ZERO if n is None else Rational(n, self.obj_den)

    def primal_std(self) -> list:
        x = [ZERO] * self.std.ncols
        for r, b in enumerate(self.basis):
            n = self.rows[r].get(_RHS)
            if n is not None and b < self.std.ncols:
                x[b] = Rational(n, self.dens[r])
        return x

    def phase1_duals(self) -> list:
        # y = (phase-1 basic costs) times B^-1; B^-1 columns sit under the
        # rows' initial identity columns.
        art_rows = [r for r, b in enumerate(self.basis) if b in self.artificials]
        return [
            sum(
                (Rational(self.rows[r][col], self.dens[r]) for r in art_rows if col in self.rows[r]),
                ZERO,
            )
            for col in self.init_col
        ]


def _row_multipliers(lp: LinearProgram, tab: _Tableau, y: list) -> tuple[list, list]:
    """Minimization multipliers ``y`` of the std rows, mapped to max-form
    multipliers of the user's constraints and of the variables' upper bounds."""
    mus = [ZERO] * len(lp.constraints)
    uppers = [ZERO] * lp.num_vars
    for k, origin in enumerate(tab.std.row_origin):
        # y applies to the rows as the tableau holds them, after negation.
        mult = y[k] if tab.negated[k] else -y[k]
        if origin[0] == "user":
            mus[origin[1]] = mult
        else:
            uppers[origin[1]] += mult
    return mus, uppers


def _extract_farkas(lp: LinearProgram, tab: _Tableau) -> FarkasCertificate:
    mus, uppers = _row_multipliers(lp, tab, tab.phase1_duals())
    combo, _ = _combine(lp, mus)
    lowers = [ZERO] * lp.num_vars
    for j in range(lp.num_vars):
        residual = combo[j] + uppers[j]
        if residual == ZERO:
            continue
        if lp.lower[j] is not None:
            lowers[j] = -residual
        # split variables must already cancel; the verifier catches it if not
    return FarkasCertificate(tuple(mus), tuple(lowers), tuple(uppers))


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve exactly; outcomes are self-verified before being returned."""
    dump = _DUMP.get()
    if dump is not None:
        dump.write(render_lp(lp))
    std = _standardize(lp)
    tab = _Tableau(std)
    if not tab.phase1():
        cert = _extract_farkas(lp, tab)
        problems = farkas_violations(lp, cert)
        if problems:
            raise VerificationError("bad Farkas certificate: " + "; ".join(problems))
        _dump_status(dump, "infeasible")
        return LPOutcome("infeasible", None, None, cert)
    status = tab.phase2()
    if status == "unbounded":
        _dump_status(dump, "unbounded")
        return LPOutcome("unbounded", None, None, None)
    x = std.to_original(lp, tab.primal_std())
    problems = feasibility_violations(lp, x)
    if problems:
        raise VerificationError("optimal point infeasible: " + "; ".join(problems))
    value = dot(lp.objective, x)
    tableau_min = -tab.objective_entry(_RHS) + std.cost_const
    claimed = -tableau_min if lp.maximize else tableau_min
    if claimed != value:
        raise VerificationError(
            f"objective mismatch: tableau {format_rational(claimed)}, recomputed {format_rational(value)}"
        )
    # The final objective row is c - yA; identity columns cost nothing, so
    # theirs read -y (rows dropped as redundant held a zero-cost artificial).
    y = [-tab.objective_entry(col) for col in tab.init_col]
    duals = tuple(_row_multipliers(lp, tab, y)[0])
    _dump_status(dump, f"optimal value={format_rational(value)}")
    return LPOutcome("optimal", x, value, None, duals)


def _dump_status(dump: IO[str] | None, text: str) -> None:
    if dump is not None:
        dump.write(f"-> {text}\n\n")


# -- independent oracle --------------------------------------------------


def enumerate_basic_solutions(
    lp: LinearProgram,
    max_vars: int = 12,
    max_constraints: int = 24,
    max_bases: int = 200_000,
) -> tuple[tuple, ...]:
    """All basic feasible solutions of the standardized system, mapped back to
    original variables, deduplicated and sorted.

    For a pointed feasible region this is exactly the vertex set. Brute force
    by construction: every size-rank column subset is tried with exact
    Gaussian elimination. Raises ``SizeCapError`` when the instance exceeds
    the caps.
    """
    if lp.num_vars > max_vars:
        raise SizeCapError(f"{lp.num_vars} variables exceeds oracle cap {max_vars}")
    if len(lp.constraints) > max_constraints:
        raise SizeCapError(f"{len(lp.constraints)} constraints exceeds oracle cap {max_constraints}")
    std = _standardize(lp)
    # Dense copy of the standardized equality system (slack per inequality).
    ncols = std.ncols
    dense: list[list] = []
    for k, row in enumerate(std.rows):
        rel, rhs = std.row_rel[k], std.row_rhs[k]
        line = [ZERO] * ncols
        for j, v in row.items():
            line[j] = v
        if rel == LESS:
            line.append(ONE)
            ncols += 1
        elif rel == GREATER:
            line.append(-ONE)
            ncols += 1
        line.append(rhs)
        dense.append(line)
    for line in dense:
        line[-1:-1] = [ZERO] * (ncols - (len(line) - 1))

    reduced, consistent = _row_reduce(dense, ncols)
    if not consistent:
        return ()
    rank = len(reduced)
    if rank == 0:
        # No binding equalities: the only basic solution is the origin.
        zero = tuple([ZERO] * ncols)
        return (std.to_original(lp, zero),)
    if math.comb(ncols, rank) > max_bases:
        raise SizeCapError(
            f"C({ncols},{rank}) basis combinations exceed oracle cap {max_bases}"
        )
    seen = set()
    for cols in combinations(range(ncols), rank):
        solution = _solve_square(reduced, cols, ncols)
        if solution is None:
            continue
        if any(v < ZERO for v in solution):
            continue
        point = std.to_original(lp, solution[: std.ncols])
        seen.add(point)
    return tuple(sorted(seen))


def _row_reduce(dense: list[list], ncols: int) -> tuple[list[list], bool]:
    """Gauss-Jordan over the augmented matrix; drops dependent rows."""
    rows = [list(r) for r in dense]
    kept: list[list] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        target = None
        for row in rows:
            if row[col]:
                target = row
                break
        if target is None:
            continue
        rows.remove(target)
        inv = ONE / target[col]
        target = [v * inv for v in target]
        kept.append(target)
        pivot_cols.append(col)
        for other in [*rows, *kept[:-1]]:
            f = other[col]
            if f:
                for j in range(ncols + 1):
                    if target[j]:
                        other[j] -= f * target[j]
    for row in rows:
        if row[-1]:
            return [], False
    return kept, True


def _solve_square(reduced: list[list], cols: tuple[int, ...], ncols: int) -> list | None:
    """Solve the reduced system with nonbasic columns fixed to zero."""
    r = len(reduced)
    mat = [[row[c] for c in cols] + [row[-1]] for row in reduced]
    # Forward elimination with exact pivots.
    for i in range(r):
        pivot_row = None
        for k in range(i, r):
            if mat[k][i]:
                pivot_row = k
                break
        if pivot_row is None:
            return None  # singular: not a basis
        mat[i], mat[pivot_row] = mat[pivot_row], mat[i]
        inv = ONE / mat[i][i]
        mat[i] = [v * inv for v in mat[i]]
        for k in range(r):
            if k != i and mat[k][i]:
                f = mat[k][i]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[i])]
    solution = [ZERO] * ncols
    for i, c in enumerate(cols):
        solution[c] = mat[i][r]
    return solution
