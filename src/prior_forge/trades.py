"""Trades, their grades, and money pumps.

A trade hands every player a payoff vector whose pointwise sum never exceeds
zero. Grades order how emphatically players want it: acceptable (no player
ever loses in expectation, someone somewhere gains), weakly agreeable
(everyone gains throughout some common certainty component), agreeable
(everyone gains everywhere). Each grade is the dual of a prior notion, and
the synthesizers here are the constructive halves of those dualities: they
either produce a graded trade or the prior side exists.

No LP is solved here. Every refuting trade comes from
``priors.refuting_payoffs``, one map from the memoized common-prior
program's multipliers, the other half of the same separation argument:
with no common prior it gives an agreeable trade, which also refutes the
strong prior; with a common prior but a zero optimal margin, an acceptable
trade; the weakly agreeable trade comes from the per-component programs
that decide the universal prior. Where the closed-form strong prior exists
there is nothing to refute and no program is solved. The trade LPs stay in
``harness`` as oracles.

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

from dataclasses import dataclass

from ._rational import ONE, ZERO
from .certainty import is_maximal, is_strongly_maximal, minimal_components
from .errors import (
    DimensionError,
    InconsistencyError,
    PlayerCountError,
    VerificationError,
)
from .model import (
    Distribution,
    InformationStructure,
    dot,
    expectation_table,
    payoff_vector,
    zero_extend,
)
from .priors import (
    PriorClassification,
    PriorReport,
    PriorWitness,
    _solve_common,
    classify_prior,
    component_substructures,
    find_common_prior,
    find_strong_common_prior,
    find_universal_common_prior,
    hull_weights,
    refuting_payoffs,
    strong_prior,
)

PLAIN, UNIVERSAL, STRONG = "plain", "universal", "strong"


@dataclass(frozen=True)
class Trade:
    """Per-player payoffs with pointwise sum <= 0 (zero-sum with slack)."""

    payoffs: tuple[tuple, ...]

    def __post_init__(self) -> None:
        norm = _payoff_rows(self, "a trade")
        for w in range(len(norm[0])):
            total = sum((f[w] for f in norm), ZERO)
            if total > ZERO:
                raise InconsistencyError(
                    f"payoffs sum to {total} > 0 at state index {w}; not a trade"
                )


@dataclass(frozen=True)
class SemiTrade:
    """Per-player payoffs; the defining expectation conditions depend on a
    structure, so they are checked by MoneyPumpWitness.verify, not here."""

    payoffs: tuple[tuple, ...]

    def __post_init__(self) -> None:
        _payoff_rows(self, "a semi-trade")


def _payoff_rows(family: Trade | SemiTrade, what: str) -> tuple[tuple, ...]:
    """Coerce ``family.payoffs`` in place to exact rows, one per player and
    all of one length, and return them."""
    norm = tuple(payoff_vector(f) for f in family.payoffs)
    if not norm:
        raise DimensionError(f"{what} needs at least one player")
    if any(len(f) != len(norm[0]) for f in norm):
        raise DimensionError("payoff vectors differ in length")
    object.__setattr__(family, "payoffs", norm)
    return norm


@dataclass(frozen=True)
class TradeClassification:
    is_trade: bool
    is_semi_trade: bool
    acceptable: bool
    weakly_agreeable: bool
    agreeable: bool
    expectations: tuple[tuple, ...]  # [player][state], exact
    sum_violations: tuple[int, ...]  # states where the pointwise sum is > 0
    strict_states: tuple[tuple[int, int], ...]  # (player, state), expectation > 0
    agreeable_component: tuple[int, ...] | None


@dataclass(frozen=True)
class MoneyPumpWitness:
    distribution: Distribution
    semi_trade: SemiTrade
    deficit: object
    kind: str

    def verify(self, structure: InformationStructure) -> None:
        """Re-derive every claim from scratch; VerificationError on defect."""
        payoffs = self.semi_trade.payoffs
        if len(payoffs) != structure.num_players:
            raise VerificationError("pump witness has wrong player count")
        if len(payoffs[0]) != structure.num_states or len(self.distribution) != structure.num_states:
            raise VerificationError("pump witness has wrong state count")
        table = expectation_table(structure, payoffs)
        for i, row in enumerate(table):
            for w, e in enumerate(row):
                if e < ZERO:
                    raise VerificationError(
                        f"not a semi-trade: player {i} expects {e} < 0 at state {w}"
                    )
        total = [sum((f[w] for f in payoffs), ZERO) for w in range(structure.num_states)]
        deficit = dot(total, self.distribution)
        if deficit != self.deficit:
            raise VerificationError(
                f"stored deficit {self.deficit} differs from recomputed {deficit}"
            )
        if not deficit < ZERO:
            raise VerificationError(f"deficit {deficit} is not negative")
        if self.kind not in (PLAIN, UNIVERSAL, STRONG):
            raise VerificationError(f"unknown pump kind {self.kind!r}")
        if self.kind == UNIVERSAL and not is_maximal(structure, self.distribution):
            raise VerificationError("universal pump with non-maximal distribution")
        if self.kind == STRONG and not is_strongly_maximal(structure, self.distribution):
            raise VerificationError("strong pump with non-strongly-maximal distribution")


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
    """Exact flags for an arbitrary payoff family. Flags are independent
    evaluations of the defining conditions; in particular expectation flags
    are reported even when the family is not a trade."""
    norm = tuple(payoff_vector(f, structure.num_states) for f in payoffs)
    if len(norm) != structure.num_players:
        raise DimensionError(
            f"{len(norm)} payoff vectors for {structure.num_players} players"
        )
    m = structure.num_states
    table = expectation_table(structure, norm)
    sums = [sum((f[w] for f in norm), ZERO) for w in range(m)]
    sum_violations = tuple(w for w in range(m) if sums[w] > ZERO)
    strict = tuple(
        (i, w) for i in range(len(norm)) for w in range(m) if table[i][w] > ZERO
    )
    is_semi = all(e >= ZERO for row in table for e in row)
    agreeable = all(e > ZERO for row in table for e in row)
    component = None
    for comp in minimal_components(structure):
        if all(table[i][w] > ZERO for i in range(len(norm)) for w in comp):
            component = comp
            break
    return TradeClassification(
        is_trade=not sum_violations,
        is_semi_trade=is_semi,
        acceptable=is_semi and bool(strict),
        weakly_agreeable=component is not None,
        agreeable=agreeable,
        expectations=table,
        sum_violations=sum_violations,
        strict_states=strict,
        agreeable_component=component,
    )


# -- synthesis ------------------------------------------------------------


def _refutation(structure: InformationStructure) -> Trade | None:
    """The trade ``priors.refuting_payoffs`` reads off the common-prior
    program, re-verified: agreeable when the program is infeasible,
    acceptable otherwise. The finders keep it in the structure's memo."""
    payoffs = refuting_payoffs(structure)
    if payoffs is None:
        return None
    trade = Trade(payoffs)
    cls = classify_trade(structure, trade.payoffs)
    if _solve_common(structure).status == "infeasible":
        if not cls.agreeable:
            raise VerificationError("certificate trade is not agreeable")
    elif not cls.acceptable:
        raise VerificationError("dual trade is not acceptable")
    return trade


def find_agreeable_trade(structure: InformationStructure) -> Trade | None:
    """The trade read off the Farkas certificate of the common-prior program,
    or None when that program is feasible. No LP of its own is solved: the
    certificate is the one ``lp.solve`` verified when it decided the common
    prior, and a structure with a closed-form strong prior needs none."""
    if strong_prior(structure) is not None or _solve_common(structure).status != "infeasible":
        return None
    return structure.derived("refutation", _refutation)


def find_weakly_agreeable_trade(structure: InformationStructure) -> Trade | None:
    """The agreeable trade of the first minimal component (by least state)
    that has one, zero-extended to the full state space. The components are
    the ones the universal-prior finder solved, so no LP runs here."""
    for comp, sub in component_substructures(structure):
        inner = find_agreeable_trade(sub)
        if inner is None:
            continue
        if sub is structure:
            return inner  # agreeable everywhere, hence on every component
        payoffs = tuple(
            zero_extend(f, comp, structure.num_states) for f in inner.payoffs
        )
        trade = Trade(payoffs)
        if not classify_trade(structure, trade.payoffs).weakly_agreeable:
            raise VerificationError("zero-extended trade lost weak agreeability")
        return trade
    return None


def find_acceptable_trade(structure: InformationStructure) -> Trade | None:
    """With a closed-form strong prior none; otherwise read off the
    common-prior program: with no common prior the agreeable trade
    (agreeable implies acceptable), with a zero margin the trade its optimal
    duals give."""
    return structure.derived("refutation", _refutation)


def pump_kind(structure: InformationStructure, dist: Distribution) -> str:
    """Strongest pump definition the distribution satisfies by its support:
    strong needs every cell charged, universal every minimal component."""
    if is_strongly_maximal(structure, dist):
        return STRONG
    if is_maximal(structure, dist):
        return UNIVERSAL
    return PLAIN


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
    """
    f = [-ONE] * structure.num_states
    for cell, t in zip(structure.partitions[player], structure.cell_types[player]):
        need = ONE
        for w in sorted((w for w in cell if t[w]), key=lambda w: (dist[w] / t[w], w)):
            gain = 2 * t[w]  # of raising f_w from -1 to +1
            if gain >= need:
                f[w] = need / t[w] - ONE
                break
            f[w] = ONE
            need -= gain
    return tuple(f)


def _pump_search(
    structure: InformationStructure, dist: Distribution
) -> MoneyPumpWitness | None:
    payoffs = tuple(pump_piece(structure, i, dist) for i in range(structure.num_players))
    total = sum((dot(f, dist.probs) for f in payoffs), ZERO)
    if not total < ZERO:
        return None
    witness = MoneyPumpWitness(
        distribution=dist,
        semi_trade=SemiTrade(payoffs),
        deficit=total,
        kind=pump_kind(structure, dist),
    )
    witness.verify(structure)
    return witness


def find_single_money_pump(
    structure: InformationStructure, dist: Distribution
) -> MoneyPumpWitness | None:
    """Single-player pump: a payoff with non-negative conditional expectation
    at every state whose p-expectation is negative. Exists iff p fails to
    disintegrate."""
    if structure.num_players != 1:
        raise PlayerCountError(
            f"single-player pump on a {structure.num_players}-player structure"
        )
    return _pump_search(structure, dist)


def find_multiplayer_money_pump(
    structure: InformationStructure, dist: Distribution
) -> MoneyPumpWitness | None:
    """Minimize the p-expectation of the summed payoffs over all semi-trades;
    a witness exists iff the minimum is negative, iff p is not a common
    prior."""
    if len(dist) != structure.num_states:
        raise DimensionError("distribution dimension does not match structure")
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
        weights = tuple(
            hull_weights(structure, i, dist) for i in range(structure.num_players)
        )
        prior_witness = PriorWitness(dist, weights)
        prior_witness.verify(structure)
        base = "common_prior"
    else:
        pump_witness = find_multiplayer_money_pump(structure, dist)
        if pump_witness is None:
            raise VerificationError(
                "distribution is neither a common prior nor a money pump"
            )
        base = "money_pump"
    universal = None
    if cls.maximal:
        universal = "universal_common_prior" if cls.common else "universal_money_pump"
    strong = None
    if cls.strongly_maximal:
        strong = "strong_common_prior" if cls.common else "strong_money_pump"
    return DistributionVerdict(
        classification=cls,
        prior_witness=prior_witness,
        pump_witness=pump_witness,
        base=base,
        universal=universal,
        strong=strong,
    )


def build_prior_report(structure: InformationStructure) -> PriorReport:
    """All three prior notions with refuting trades for the absent ones. The
    dualities guarantee a refutation exists whenever a notion fails; their
    absence would be a bug."""
    common = find_common_prior(structure)
    universal = find_universal_common_prior(structure)
    strong = find_strong_common_prior(structure)
    if strong is not None and universal is None:
        raise VerificationError("strong prior present but universal absent")
    if universal is not None and common is None:
        raise VerificationError("universal prior present but common absent")
    refut_c = find_agreeable_trade(structure) if common is None else None
    refut_u = find_weakly_agreeable_trade(structure) if universal is None else None
    refut_s = find_acceptable_trade(structure) if strong is None else None
    if common is None and refut_c is None:
        raise VerificationError("no common prior and no agreeable trade")
    if universal is None and refut_u is None:
        raise VerificationError("no universal prior and no weakly agreeable trade")
    if strong is None and refut_s is None:
        raise VerificationError("no strong prior and no acceptable trade")
    return PriorReport(
        common_prior=common,
        universal_common_prior=universal,
        strong_common_prior=strong,
        common_refutation=refut_c,
        universal_refutation=refut_u,
        strong_refutation=refut_s,
    )
