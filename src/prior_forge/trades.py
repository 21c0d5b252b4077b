"""Trades, their grades, and money pumps.

A trade hands every player a payoff vector whose pointwise sum never exceeds
zero. Grades order how emphatically players want it: acceptable (no player
ever loses in expectation, someone somewhere gains), weakly agreeable
(everyone gains throughout some common certainty component), agreeable
(everyone gains everywhere). Each grade is the dual of a prior notion, and
the synthesizers here are the constructive halves of those dualities: they
either produce a graded trade or the prior side exists.

No LP is solved here. The three prior notions and their refutations are
one decision, ``build_prior_report``, memoized on the structure: the
canonical prior of ``priors.blocks``, the notions whose charge test it
passes and, where one fails, the one trade the same walk builds from its
dead blocks, graded once by ``classify_trade``. Every claim is checked
against those certificates once, before the report is kept. Each trade
finder reads that report and returns the trade exactly when its dual prior
finder returns None, with the notion's grade in ``priors.NOTIONS``:
agreeable when no block is live, weakly agreeable when some minimal
component meets no live block, acceptable when some block is dead. The
common-prior program and the trade LPs stay in ``harness`` as oracles; the
trade LPs hold payoffs for N - 1 players only, the last player's being the
budget's remainder.

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

Every payoff family is held as integer forms, one ``(den, nums)`` in lowest
terms per player, from the document to the grade: ``jsonio.parse_payoffs``
reads a payoff document to forms, and ``classify_trade`` takes forms and
nothing else. A certificate takes its forms too: the block walk hands the
refuting trade over as ``Trade(forms)``, ``classify_trade`` keeps each
player's expectation table as one, and ``pump_piece`` returns its row's,
which the pump's witness keeps and verifies. Both renderings write rows
from the forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ._rational import ZERO, rational_text
from .certainty import check_dimension, minimal_components
from .errors import DimensionError, InconsistencyError, VerificationError
from .model import (
    Distribution,
    InformationStructure,
    cell_expectations,
    lowest_terms,
    reduced_forms,
    state_nums,
)
from .priors import (
    NOTIONS,
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

    The payoffs are integer forms: ``forms[i]`` is ``(den, nums)``, player
    i's payoff at state w being ``nums[w] / den``, each put in lowest terms
    when the trade is built, so equality and the hash are those of the
    payoffs' values."""

    forms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "forms", _payoff_forms(self.forms, "a trade"))
        den, sums = _column_sums(self.forms)
        for w, total in enumerate(sums):
            if total > 0:
                raise InconsistencyError(
                    f"payoffs sum to {rational_text(Fraction(total, den))} > 0 at state index {w}; not a trade"
                )

    @property
    def payoffs(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``forms`` under its older name, which the benchmark's correctness
        gate (``perfbench/workloads.py``) reads to grade a refuting trade.
        ROADMAP item 1 moves the gate to ``forms`` and deletes this name."""
        return self.forms


def _payoff_forms(forms, what: str) -> tuple:
    """A payoff family's integer forms, checked and put in lowest terms by
    ``reduced_forms``, one per player and all of one length."""
    forms = reduced_forms(forms, what)
    if not forms:
        raise DimensionError(f"{what} needs at least one player")
    if any(len(g) != len(forms[0][1]) for _, g in forms):
        raise DimensionError("payoff vectors differ in length")
    return forms


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
    """The grades of a payoff family, and per player its expectation table
    as an integer form ``(den, nums)`` in lowest terms, ``nums[w] / den``
    the expectation of the player's cell at w."""

    is_trade: bool
    is_semi_trade: bool
    acceptable: bool
    weakly_agreeable: bool
    agreeable: bool
    expectation_forms: tuple[tuple[int, tuple[int, ...]], ...]  # [player], exact
    agreeable_component: tuple[int, ...] | None


@dataclass(frozen=True)
class MoneyPumpWitness:
    """A distribution, the semi-trade that pumps it, and the deficit. The
    semi-trade condition depends on a structure, so ``verify`` checks it.
    Like a ``Trade``, the semi-trade is held as integer forms, one
    ``(den, nums)`` per player put in lowest terms when the witness is
    built, and both renderings write its rows from them, so what is
    printed is what ``verify`` checked."""

    distribution: Distribution
    forms: tuple[tuple[int, tuple[int, ...]], ...]
    deficit: object
    kind: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "forms", _payoff_forms(self.forms, "a semi-trade"))

    def verify(self, structure: InformationStructure) -> None:
        """Re-derive every claim from scratch; VerificationError on defect."""
        forms = self.forms
        if len(forms) != structure.num_players:
            raise VerificationError("pump witness has wrong player count")
        if len(forms[0][1]) != structure.num_states or len(self.distribution) != structure.num_states:
            raise VerificationError("pump witness has wrong state count")
        # One sign test per (player, cell) on the integer forms; cells are
        # ordered by least state, so the first failing cell holds the
        # player's least failing state.
        for i, form in enumerate(forms):
            for cell, num, den in cell_expectations(structure, i, form):
                if num < 0:
                    raise VerificationError(
                        f"not a semi-trade: player {i} expects {rational_text(Fraction(num, den))} < 0 "
                        f"at state {cell[0]}"
                    )
        deficit = _deficit(forms, self.distribution)
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

    # The graded verdicts: universal only when p is maximal, strong only when
    # p is strongly maximal.
    universal = property(lambda self: f"universal_{self.base}" if self.classification.maximal else None)
    strong = property(lambda self: f"strong_{self.base}" if self.classification.strongly_maximal else None)


def classify_trade(structure: InformationStructure, forms) -> TradeClassification:
    """Exact flags for an arbitrary payoff family, one integer form ``(den,
    nums)`` per player, such as a ``Trade``'s or ``jsonio.parse_payoffs``'.
    Flags are independent evaluations of the defining conditions; in
    particular expectation flags are reported even when the family is not a
    trade.

    The player count is checked, then the forms (``reduced_forms``), then
    each row's length. Per player, a cell's expectation is one integer sum
    from ``cell_expectations``, over the cell type's ``den`` times the
    row's; the player's table is those sums over the lcm of the types'
    ``den``s, one integer form put in lowest terms by one gcd. The signs of
    the expectations and of the pointwise sums are read off integers."""
    n, m = structure.num_players, structure.num_states
    if len(forms) != n:
        raise DimensionError(f"{len(forms)} payoff vectors for {n} players")
    forms = reduced_forms(forms, "a payoff family")
    for _, g in forms:
        if len(g) != m:
            raise DimensionError(f"payoff vector has {len(g)} entries, expected {m}")
    table, signs = [], []
    for i, form in enumerate(forms):
        cells = cell_expectations(structure, i, form)
        scale = lcm(*(t.den for t in structure.cell_types[i]))
        row, sign = [0] * m, [0] * m
        for (cell, num, _), t in zip(cells, structure.cell_types[i]):
            if num:
                e, s = num * (scale // t.den), 1 if num > 0 else -1
                for w in cell:
                    row[w] = e
                    sign[w] = s
        table.append(lowest_terms((scale * form[0], row)))
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
        expectation_forms=tuple(table),
        agreeable_component=component,
    )


# -- synthesis ------------------------------------------------------------


def find_agreeable_trade(structure: InformationStructure) -> Trade | None:
    """The block trade when no block is live, else None."""
    return build_prior_report(structure).notion("common")[1]


def find_weakly_agreeable_trade(structure: InformationStructure) -> Trade | None:
    """The block trade when some minimal component meets no live block,
    else None."""
    return build_prior_report(structure).notion("universal")[1]


def find_acceptable_trade(structure: InformationStructure) -> Trade | None:
    """The block trade when some block is dead, else None."""
    return build_prior_report(structure).notion("strong")[1]


def pump_kind(structure: InformationStructure, dist: Distribution) -> str:
    """Strongest pump kind the distribution allows by its support: strong
    needs every cell charged, universal every minimal component."""
    return next(n.pump for n in reversed(NOTIONS) if n.charged_by(structure, dist))


def pump_piece(
    structure: InformationStructure, player: int, p_nums: list[int]
) -> tuple[int, tuple[int, ...]]:
    """One player's boxed payoff with the most negative p-expectation among
    those whose conditional expectation is non-negative at every cell, as
    its integer form ``(den, nums)`` in lowest terms. ``p_nums`` is p's
    row, ``state_nums(dist)``, which the caller builds once for every
    player.

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
    type's denominator, so a cell's entries are -1, +1 and at most one
    ``(need - b_w) / b_w``, kept as a reduced pair. The row's ``den`` is
    the lcm of those pairs' denominators, so the form is in lowest terms.
    """
    f = [-1] * structure.num_states
    stops = []  # per cell, a state that stopped part way, not at 0, and its reduced pair
    a, b = p_nums, structure.own_nums(player)
    for t in structure.cell_types[player]:
        need, support = t.den, t.support()
        if len(support) > 1:
            scale = lcm(*map(b.__getitem__, support))
            support = sorted(support, key=lambda w: a[w] * (scale // b[w]))
        for w in support:
            gain = 2 * b[w]  # of raising f_w from -1 to +1
            if gain >= need:
                num, den = need - b[w], b[w]
                if num:
                    g = gcd(num, den)
                    stops.append((w, num // g, den // g))
                else:  # a type with one state always stops there, at 0
                    f[w] = 0
                break
            f[w] = 1
            need -= gain
    if not stops:
        return 1, tuple(f)
    den = lcm(*(d for _, _, d in stops))
    if den > 1:
        f = [x * den for x in f]
    for w, num, d in stops:
        f[w] = num * (den // d)
    return den, tuple(f)


def _pump_search(
    structure: InformationStructure, dist: Distribution, kind: str | None = None
) -> MoneyPumpWitness | None:
    """The semi-trade of ``pump_piece`` forms and its witness, built once
    from those forms and verified, when its deficit is negative; else None.
    ``kind`` is the pump's kind when the caller has already graded ``dist``,
    else ``pump_kind`` grades it."""
    check_dimension(structure, dist)
    p_nums = state_nums(dist)
    forms = tuple(pump_piece(structure, i, p_nums) for i in range(structure.num_players))
    deficit = _deficit(forms, dist)
    if not deficit < ZERO:
        return None
    if kind is None:
        kind = pump_kind(structure, dist)
    witness = MoneyPumpWitness(dist, forms, deficit, kind)
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
    if cls.common:
        witness = PriorWitness(dist)
        witness.verify(structure)
        return DistributionVerdict(cls, witness, None, "common_prior")
    # The pump's kind is read off the grades ``classify_prior`` made, as
    # ``pump_kind`` would find it: the strongest notion p charges.
    kind = NOTIONS[2 if cls.strongly_maximal else 1 if cls.maximal else 0].pump
    pump = _pump_search(structure, dist, kind)
    if pump is None:
        raise VerificationError("distribution is neither a common prior nor a money pump")
    return DistributionVerdict(cls, None, pump, "money_pump")


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
    """The one decision of the three prior notions, memoized on the
    structure: the canonical prior, the notions whose charge test it
    passes, and, unless every notion holds, the block trade that refutes
    the others, graded once by ``classify_trade``. Each charge test runs
    once here, and ``_verify_prior_report`` checks every claim once before
    the report is kept; the trade finders, ``report.analyze``, the command
    line and the battery all read this report."""
    return structure.derived("prior_report", _prior_report)


def _prior_report(structure: InformationStructure) -> PriorReport:
    holds = tuple(n.key for n in NOTIONS if find_prior(structure, n) is not None)
    trade = cls = None
    if len(holds) < len(NOTIONS):
        forms = blocks(structure).payoff_forms
        if forms is None:
            raise VerificationError("a prior notion fails, yet every block is live")
        trade = Trade(forms)
        cls = classify_trade(structure, trade.forms)
    report = PriorReport(find_common_prior(structure), holds, trade, cls)
    _verify_prior_report(structure, report)
    return report


def _verify_prior_report(s: InformationStructure, priors: PriorReport) -> None:
    """Check every notion's claim against the report's certificates: where
    it holds the canonical prior must charge what the notion asks, where it
    fails the refuting trade's classification must carry the notion's
    grade."""
    witness = priors.witness
    cls = None if priors.trade is None else priors.trade_class
    for n in NOTIONS:
        if n.key in priors.holds:
            if witness is None:
                raise VerificationError(f"{n.key} prior claimed without a witness")
            if not n.charged_by(s, witness.prior):
                raise VerificationError(f"{n.key} prior witness fails {n.charges.__name__}")
        elif cls is None or not (cls.is_trade and getattr(cls, n.trade)):
            raise VerificationError(f"{n.key} prior fails and no {n.trade} trade refutes it")
