"""Trades, their grades, and money pumps.

A trade hands every player a payoff vector whose pointwise sum never exceeds
zero. Grades order how emphatically players want it: acceptable (no player
ever loses in expectation, someone somewhere gains), weakly agreeable
(everyone gains throughout some common certainty component), agreeable
(everyone gains everywhere). Each grade is the dual of a prior notion, and
the synthesizers here are the constructive halves of those dualities: they
either produce a graded trade or the prior side exists.

One LP settles each duality pair. The refuting trades are read off the
memoized joint common-prior program: with no common prior, its verified
Farkas certificate gives an agreeable trade, which also refutes the strong
prior; the weakly agreeable trade comes from the per-component programs
that decide the universal prior. Only when a common prior exists but no
strong one does the acceptable-trade LP run. The trade LPs that production
no longer solves stay in ``harness`` as oracles.

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

from ._rational import ONE, ZERO, rational
from .certainty import is_maximal, is_strongly_maximal, minimal_components
from .errors import (
    DimensionError,
    InconsistencyError,
    PlayerCountError,
    VerificationError,
)
from .lp import LinearProgram, LPBuilder, solve
from .model import (
    Distribution,
    InformationStructure,
    dot,
    payoff_vector,
    zero_extend,
)
from .priors import (
    PriorClassification,
    PriorReport,
    PriorWitness,
    _solve_common,
    certificate_payoffs,
    classify_prior,
    component_substructures,
    find_common_prior,
    find_strong_common_prior,
    find_universal_common_prior,
    hull_weights,
)

PLAIN, UNIVERSAL, STRONG = "plain", "universal", "strong"


@dataclass(frozen=True)
class Trade:
    """Per-player payoffs with pointwise sum <= 0 (zero-sum with slack)."""

    payoffs: tuple[tuple, ...]

    def __post_init__(self) -> None:
        norm = tuple(payoff_vector(f) for f in self.payoffs)
        if not norm:
            raise DimensionError("a trade needs at least one player")
        m = len(norm[0])
        if any(len(f) != m for f in norm):
            raise DimensionError("payoff vectors differ in length")
        object.__setattr__(self, "payoffs", norm)
        for w in range(m):
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
        norm = tuple(payoff_vector(f) for f in self.payoffs)
        if not norm:
            raise DimensionError("a semi-trade needs at least one player")
        m = len(norm[0])
        if any(len(f) != m for f in norm):
            raise DimensionError("payoff vectors differ in length")
        object.__setattr__(self, "payoffs", norm)


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
    negative_states: tuple[tuple[int, int], ...]  # (player, state), expectation < 0
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


def expectation_table(
    structure: InformationStructure, payoffs: tuple[tuple, ...]
) -> tuple[tuple, ...]:
    """Per player, per state, the exact conditional expectation of that
    player's payoff under their type. Constant on cells by construction."""
    table = []
    for i, f in enumerate(payoffs):
        per_cell = [
            dot(f, structure.type_of_cell(i, c)) for c in range(structure.num_cells(i))
        ]
        table.append(
            tuple(per_cell[structure.cell_of(i, w)] for w in range(structure.num_states))
        )
    return tuple(table)


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
    negative = tuple(
        (i, w) for i in range(len(norm)) for w in range(m) if table[i][w] < ZERO
    )
    is_semi = not negative
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
        negative_states=negative,
        agreeable_component=component,
    )


# -- synthesis ------------------------------------------------------------


def find_agreeable_trade(structure: InformationStructure) -> Trade | None:
    """The trade read off the Farkas certificate of the joint common-prior
    program, or None when that program is feasible. No LP of its own is
    solved: the certificate is the one ``lp.solve`` verified when it decided
    the common prior. Memoized on the structure: the weakly agreeable and
    acceptable finders re-ask for it."""
    return structure.derived("agreeable_trade", _agreeable_from_certificate)


def _agreeable_from_certificate(structure: InformationStructure) -> Trade | None:
    outcome = _solve_common(structure)
    if outcome.status != "infeasible":
        return None
    trade = Trade(certificate_payoffs(structure, outcome.certificate))
    if not classify_trade(structure, trade.payoffs).agreeable:
        raise VerificationError("certificate trade is not agreeable")
    return trade


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
    """Read off the joint common-prior program where it settles the question:
    with no common prior the agreeable trade is returned (agreeable implies
    acceptable); with a strong common prior there is none. Only when a common
    prior exists but no strong one is ``acceptable_trade_program`` solved; an
    acceptable trade exists iff its optimum is strictly positive."""
    outcome = _solve_common(structure)
    if outcome.status == "infeasible":
        return find_agreeable_trade(structure)
    if outcome.objective_value > ZERO:
        return None
    out = solve(acceptable_trade_program(structure))
    if out.status != "optimal":
        raise VerificationError(f"acceptable-trade program ended {out.status}")
    if not out.objective_value > ZERO:
        return None
    m = structure.num_states
    trade = Trade(
        tuple(out.primal[i * m : (i + 1) * m] for i in range(structure.num_players))
    )
    if not classify_trade(structure, trade.payoffs).acceptable:
        raise VerificationError("synthesized trade is not acceptable")
    return trade


def acceptable_trade_program(structure: InformationStructure) -> LinearProgram:
    """Payoffs f[i, w] in [-1, 1] (variable i*M + w) with pointwise sum <= 0
    and no player ever expecting a loss; the objective totals all conditional
    expectations, each (player, cell) weighted by the cell size, i.e. summed
    over states. Scale invariance makes the boxed optimum decisive."""
    b = LPBuilder()
    fvar = trade_variables(b, structure)
    for i in range(structure.num_players):
        for cell, t in zip(structure.partitions[i], structure.cell_types[i]):
            row = {fvar[i][w]: t[w] for w in cell if t[w]}
            b.add_constraint(row, ">=", 0)
            weight = rational(len(cell))
            for var, coeff in row.items():
                b.add_objective(var, weight * coeff)
    return b.build(maximize=True)


def trade_variables(b: LPBuilder, structure: InformationStructure) -> list[list[int]]:
    """Add payoff variables f[i, w] in [-1, 1], player-major, and one budget
    row per state (pointwise sum <= 0); return the variable indices."""
    m = structure.num_states
    fvar = [
        [
            b.add_var(f"f[{structure.players[i]},{structure.states[w]}]", lower=-1, upper=1)
            for w in range(m)
        ]
        for i in range(structure.num_players)
    ]
    for w in range(m):
        b.add_constraint({fvar[i][w]: 1 for i in range(structure.num_players)}, "<=", 0)
    return fvar


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
