"""Trades, their grades, and money pumps.

A trade hands every player a payoff vector whose pointwise sum never exceeds
zero. Grades order how emphatically players want it: acceptable (no player
ever loses in expectation, someone somewhere gains), weakly agreeable
(everyone gains throughout some common certainty component), agreeable
(everyone gains everywhere). Each grade is the dual of a prior notion, and
the synthesizers here are the constructive halves of those dualities: they
either produce a graded trade or the prior side exists.

No LP is solved here. The three refuting trades are one trade, built by
``priors.blocks`` from the dead blocks of the same walk that decides the
prior notions, graded once per structure. Each finder returns it exactly
when its dual prior finder returns None, after checking the notion's grade
in ``priors.NOTIONS``: agreeable when no block is live, weakly agreeable
when some minimal component meets no live block, acceptable when some block
is dead. The trade LPs and the common-prior program stay in ``harness``.

Money pumps are the distribution-level mirror: a semi-trade (every player's
conditional expectation non-negative at every state, no sum constraint)
whose total payoff has strictly negative expectation under p. Such an f
drains p-average money from an outside party while every player is content
at every information set, which is exactly what fails to exist when p is a
common prior.

Synthesized trades and money pumps box payoffs into [-1, 1]; every
defining condition is scale-invariant, so this only normalizes witnesses.
Every object returned has been re-verified against its definition; failures
raise VerificationError and mean a bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from ._rational import ONE, ZERO, rational_text
from .certainty import check_dimension, minimal_components
from .errors import DimensionError, InconsistencyError, VerificationError
from .model import (
    Distribution,
    InformationStructure,
    cell_expectations,
    integer_form,
    payoff_vector,
    state_nums,
)
from .priors import (
    NOTIONS,
    Notion,
    PriorClassification,
    PriorWitness,
    blocks,
    check_single_player,
    classify_prior,
    find_common_prior,
    find_prior,
)


@dataclass(frozen=True)
class Trade:
    """Per-player payoffs with pointwise sum <= 0 (zero-sum with slack).

    Like a ``Distribution``, a payoff family fixes its integer form at
    construction: ``forms[i]`` is ``integer_form(payoffs[i])``."""

    payoffs: tuple[tuple, ...]
    forms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows, forms = _payoff_rows(self.payoffs, "a trade")
        object.__setattr__(self, "payoffs", rows)
        object.__setattr__(self, "forms", forms)
        den, sums = _column_sums(forms)
        for w, total in enumerate(sums):
            if total > 0:
                raise InconsistencyError(
                    f"payoffs sum to {rational_text(Fraction(total, den))} > 0 at state index {w}; not a trade"
                )


def _payoff_rows(payoffs, what: str) -> tuple[tuple, tuple]:
    """``(rows, forms)``: ``payoffs`` coerced to exact rows, one per player
    and all of one length, and their integer forms."""
    rows = tuple(payoff_vector(f) for f in payoffs)
    if not rows:
        raise DimensionError(f"{what} needs at least one player")
    if any(len(f) != len(rows[0]) for f in rows):
        raise DimensionError("payoff vectors differ in length")
    return rows, tuple(integer_form(f) for f in rows)


def _column_sums(forms) -> tuple[int, list[int]]:
    """``(den, sums)``: the pointwise sums of the rows whose integer forms
    are ``forms``, as numerators over ``den``, the lcm of the rows'
    denominators."""
    den = lcm(*(d for d, _ in forms))
    rows = [g if d == den else [(den // d) * x for x in g] for d, g in forms]
    return den, list(map(sum, zip(*rows)))


def _deficit(forms, dist: Distribution):
    """The p-expectation of the summed rows whose integer forms are
    ``forms``: one integer sum of their column sums times p's numerators
    over p's support, one rational."""
    den, sums = _column_sums(forms)
    return Fraction(sum(sums[w] * a for w, a in dist.items()), den * dist.den)


@dataclass(frozen=True)
class TradeClassification:
    is_trade: bool
    is_semi_trade: bool
    acceptable: bool
    weakly_agreeable: bool
    agreeable: bool
    expectations: tuple[tuple, ...]  # [player][state], exact
    agreeable_component: tuple[int, ...] | None


@dataclass(frozen=True)
class MoneyPumpWitness:
    """A distribution, the semi-trade that pumps it, and the deficit. The
    semi-trade condition depends on a structure, so ``verify`` checks it;
    construction only coerces the payoff rows and fixes their integer forms,
    as a ``Trade`` does. A pumping search, which derived the forms of its
    rows to test the deficit, hands them over as ``forms`` instead."""

    distribution: Distribution
    payoffs: tuple[tuple, ...]
    deficit: object
    kind: str
    forms: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.forms is None:
            rows, forms = _payoff_rows(self.payoffs, "a semi-trade")
            object.__setattr__(self, "payoffs", rows)
            object.__setattr__(self, "forms", forms)

    def verify(self, structure: InformationStructure) -> None:
        """Re-derive every claim from scratch; VerificationError on defect."""
        payoffs = self.payoffs
        if len(payoffs) != structure.num_players:
            raise VerificationError("pump witness has wrong player count")
        if len(payoffs[0]) != structure.num_states or len(self.distribution) != structure.num_states:
            raise VerificationError("pump witness has wrong state count")
        # One sign test per (player, cell) on the fixed integer forms; cells
        # are ordered by least state, so the first failing cell holds the
        # player's least failing state.
        for i, form in enumerate(self.forms):
            for cell, num, den in cell_expectations(structure, i, form):
                if num < 0:
                    raise VerificationError(
                        f"not a semi-trade: player {i} expects {rational_text(Fraction(num, den))} < 0 "
                        f"at state {cell[0]}"
                    )
        deficit = _deficit(self.forms, self.distribution)
        if deficit != self.deficit:
            raise VerificationError(
                f"stored deficit {rational_text(self.deficit)} differs from recomputed {rational_text(deficit)}"
            )
        if not deficit < ZERO:
            raise VerificationError(f"deficit {rational_text(deficit)} is not negative")
        notion = next((n for n in NOTIONS if n.pump == self.kind), None)
        if notion is None:
            raise VerificationError(f"unknown pump kind {self.kind!r}")
        if not notion.charged_by(structure, self.distribution):
            raise VerificationError(f"{self.kind} pump distribution fails {notion.charges.__name__}")


@dataclass(frozen=True)
class DistributionVerdict:
    """The exactly-one case split for a distribution: prior or pump, graded
    by how much of the structure p charges."""

    classification: PriorClassification
    prior_witness: PriorWitness | None
    pump_witness: MoneyPumpWitness | None
    base: str  # "common_prior" | "money_pump"
    universal: str | None  # set only when p is maximal
    strong: str | None  # set only when p is strongly maximal


def classify_trade(
    structure: InformationStructure, payoffs
) -> TradeClassification:
    """Exact flags for an arbitrary payoff family, or for a ``Trade``.
    Flags are independent evaluations of the defining conditions; in
    particular expectation flags are reported even when the family is not a
    trade.

    Each row is put over one denominator once, or, for a ``Trade``, its
    fixed integer forms are read. Per player, a cell's expectation is one
    integer sum from ``cell_expectations`` and one rational when nonzero;
    the signs of the expectations and of the pointwise sums are read off
    integers."""
    m = structure.num_states
    if isinstance(payoffs, Trade):
        size = len(payoffs.payoffs[0])
        if size != m:
            raise DimensionError(f"payoff vector has {size} entries, expected {m}")
        forms = payoffs.forms
    else:
        forms = [integer_form(payoff_vector(f, m)) for f in payoffs]
    if len(forms) != structure.num_players:
        raise DimensionError(
            f"{len(forms)} payoff vectors for {structure.num_players} players"
        )
    table, signs = [], []
    for i, form in enumerate(forms):
        row, sign = [ZERO] * m, [0] * m
        for cell, num, den in cell_expectations(structure, i, form):
            if num:
                e, s = Fraction(num, den), 1 if num > 0 else -1
                for w in cell:
                    row[w] = e
                    sign[w] = s
        table.append(tuple(row))
        signs.append(sign)
    is_semi = min(map(min, signs)) >= 0
    everyone = [min(col) > 0 for col in zip(*signs)]
    component = next(
        (comp for comp in minimal_components(structure) if all(everyone[w] for w in comp)),
        None,
    )
    return TradeClassification(
        is_trade=max(_column_sums(forms)[1]) <= 0,
        is_semi_trade=is_semi,
        acceptable=is_semi and max(map(max, signs)) > 0,
        weakly_agreeable=component is not None,
        agreeable=all(everyone),
        expectations=tuple(table),
        agreeable_component=component,
    )


# -- synthesis ------------------------------------------------------------


def _grade_block_trade(structure: InformationStructure) -> tuple[Trade, TradeClassification]:
    payoffs = blocks(structure).payoffs
    if payoffs is None:
        raise VerificationError("a prior notion fails, yet every block is live")
    trade = Trade(payoffs)
    return trade, classify_trade(structure, trade)


def graded_block_trade(structure: InformationStructure) -> tuple[Trade, TradeClassification]:
    """The refuting trade of ``priors.blocks`` and its grades, built and
    graded once per structure; raises when every block is live."""
    return structure.derived("block_trade", _grade_block_trade)


def _refutation(structure: InformationStructure, notion: Notion) -> Trade | None:
    """The one refuting trade of ``priors.blocks`` when ``notion`` has no
    prior, else None. It must carry the notion's dual grade."""
    if find_prior(structure, notion) is not None:
        return None
    trade, cls = graded_block_trade(structure)
    if not getattr(cls, notion.trade):
        raise VerificationError(f"block trade is not {notion.trade.replace('_', ' ')}")
    return trade


def find_agreeable_trade(structure: InformationStructure) -> Trade | None:
    """The block trade when no block is live, else None."""
    return _refutation(structure, NOTIONS[0])


def find_weakly_agreeable_trade(structure: InformationStructure) -> Trade | None:
    """The block trade when some minimal component meets no live block,
    else None."""
    return _refutation(structure, NOTIONS[1])


def find_acceptable_trade(structure: InformationStructure) -> Trade | None:
    """The block trade when some block is dead, else None."""
    return _refutation(structure, NOTIONS[2])


def pump_kind(structure: InformationStructure, dist: Distribution) -> str:
    """Strongest pump kind the distribution allows by its support: strong
    needs every cell charged, universal every minimal component."""
    return next(n.pump for n in reversed(NOTIONS) if n.charged_by(structure, dist))


def pump_piece(
    structure: InformationStructure, player: int, dist: Distribution
) -> tuple:
    """One player's boxed payoff with the most negative p-expectation among
    those whose conditional expectation is non-negative at every cell.

    Semi-trades carry no budget row, so the pump program splits by player and
    then by cell. Each cell is a continuous knapsack, min sum p_w f_w subject
    to sum t_w f_w >= 0 and f in [-1, 1], which the greedy rule solves
    exactly (Dantzig 1957): start every f_w at -1, which puts the constraint
    at -1, then raise the states with t_w > 0 to +1 in ascending p_w / t_w,
    lower state index first on ties, until the constraint reaches 0. The
    last state raised may stop at a fractional value.

    The greedy runs on the integer forms: with L the lcm of the type's
    numerators on its support, p_w / t_w orders as the int a_w * (L / b_w)
    does (a and b the numerators of p and t), a stable sort keeps the lower
    state first on ties, and the constraint is counted in units of the
    type's denominator, so each cell builds at most one fractional entry.
    """
    f = [-ONE] * structure.num_states
    a, b = state_nums(dist), structure.own_nums(player)
    for t in structure.cell_types[player]:
        need, support = t.den, t.support()
        scale = lcm(*(b[w] for w in support))
        for w in sorted(support, key=lambda w: a[w] * (scale // b[w])):
            gain = 2 * b[w]  # of raising f_w from -1 to +1
            if gain >= need:
                f[w] = Fraction(need - b[w], b[w])
                break
            f[w] = ONE
            need -= gain
    return tuple(f)


def _pump_search(
    structure: InformationStructure, dist: Distribution
) -> MoneyPumpWitness | None:
    """The semi-trade of ``pump_piece`` rows and its witness, built once and
    verified, when its deficit is negative; else None. Each row's integer
    form is derived once, for the deficit, and the witness keeps it."""
    check_dimension(structure, dist)
    payoffs = tuple(pump_piece(structure, i, dist) for i in range(structure.num_players))
    forms = tuple(integer_form(f) for f in payoffs)
    deficit = _deficit(forms, dist)
    if not deficit < ZERO:
        return None
    witness = MoneyPumpWitness(dist, payoffs, deficit, pump_kind(structure, dist), forms)
    witness.verify(structure)
    return witness


def find_single_money_pump(
    structure: InformationStructure, dist: Distribution
) -> MoneyPumpWitness | None:
    """Single-player pump: a payoff with non-negative conditional expectation
    at every state whose p-expectation is negative. Exists iff p fails to
    disintegrate."""
    check_single_player(structure)
    return _pump_search(structure, dist)


def find_multiplayer_money_pump(
    structure: InformationStructure, dist: Distribution
) -> MoneyPumpWitness | None:
    """Minimize the p-expectation of the summed payoffs over all semi-trades;
    a witness exists iff the minimum is negative, iff p is not a common
    prior."""
    return _pump_search(structure, dist)


def classify_distribution(
    structure: InformationStructure, dist: Distribution
) -> DistributionVerdict:
    """The theorem-level case split. Always exactly one of common prior /
    money pump; when p is maximal the universal pair splits the same way,
    and when strongly maximal the strong pair does. A missing pump for a
    non-prior is a bug and raises."""
    cls = classify_prior(structure, dist)
    prior_witness = None
    pump_witness = None
    if cls.common:
        prior_witness = PriorWitness(dist, weight_forms=cls.weight_forms)
        prior_witness.verify(structure)
        base = "common_prior"
    else:
        pump_witness = find_multiplayer_money_pump(structure, dist)
        if pump_witness is None:
            raise VerificationError(
                "distribution is neither a common prior nor a money pump"
            )
        base = "money_pump"
    return DistributionVerdict(
        classification=cls,
        prior_witness=prior_witness,
        pump_witness=pump_witness,
        base=base,
        universal=f"universal_{base}" if cls.maximal else None,
        strong=f"strong_{base}" if cls.strongly_maximal else None,
    )


@dataclass(frozen=True)
class PriorReport:
    """The three prior notions of one structure: the canonical prior, the
    keys of the notions it witnesses (``priors.NOTIONS`` order), and the one
    block trade that refutes every other notion, with its classification."""

    witness: PriorWitness | None
    holds: tuple[str, ...]
    trade: Trade | None
    trade_class: TradeClassification | None

    def notion(self, key: str) -> tuple[PriorWitness | None, Trade | None]:
        """(witness, refutation) for one notion: the canonical prior where the
        notion holds, else the block trade."""
        return (self.witness, None) if key in self.holds else (None, self.trade)

    # Per-notion views, read by the correctness gate in perfbench/workloads.py.
    common_prior = property(lambda self: self.notion("common")[0])
    universal_common_prior = property(lambda self: self.notion("universal")[0])
    strong_common_prior = property(lambda self: self.notion("strong")[0])
    common_refutation = property(lambda self: self.notion("common")[1])
    universal_refutation = property(lambda self: self.notion("universal")[1])
    strong_refutation = property(lambda self: self.notion("strong")[1])


def build_prior_report(structure: InformationStructure) -> PriorReport:
    """The canonical prior, the notions whose charge test it passes, and,
    unless every notion holds, the block trade that refutes the others with
    the classification ``graded_block_trade`` made for it. Each charge test
    runs once here; the report checks that classification against each
    notion the trade refutes."""
    holds = tuple(n.key for n in NOTIONS if find_prior(structure, n) is not None)
    trade = cls = None
    if len(holds) < len(NOTIONS):
        trade, cls = graded_block_trade(structure)
    return PriorReport(find_common_prior(structure), holds, trade, cls)
