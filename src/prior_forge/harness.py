"""Random instance generation and the executable-theorem battery.

The six dualities this package implements are exactly-one statements: a
notion holds or its dual witness exists, never both, never neither. That
makes them ideal property tests, because both sides are computed by
independent code paths and any disagreement is a bug somewhere. cross_check
runs all six on one structure, together with the single-player theory on
every player's marginal view and the commonly-certain reformulations of the
trade grades. Production solves no LP: every prior verdict, the canonical
prior and the one refuting trade come from the block walk
(``priors.blocks``). The programs it replaced live here as its oracles.
cross_check solves the common-prior program on the structure and on its
components and requires the walk's verdicts, canonical prior and trade
grades from it; it solves the trade LPs and requires the same decisions as
the finders. The joint common-prior formulation, with explicit hull
weights, is the oracle of the projected program in ``oracle_battery``. The
term-by-term ``Fraction`` oracles of the integer paths live with the tests,
in ``tests/oracles.py``.

Generation is fully deterministic in the seed. Partitions are drawn
uniformly over all set partitions of the state set; type values are uniform
compositions with bounded denominators; supports are thinned, each state
dropped with probability ``ZERO_MASS_RATE``, so sparse structures (rich
component geometry) appear often. ``planted_structure`` draws the other
side at any size: a structure built around a chosen strong common prior.
"""

from __future__ import annotations

import hashlib
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from ._rational import ONE, ZERO, rational
from .certainty import closure, is_commonly_certain, minimal_components
from .errors import InputError, PriorForgeError, VerificationError
from .lp import (
    LinearProgram,
    LPBuilder,
    LPOutcome,
    enumerate_basic_solutions,
    feasibility_violations,
    solve,
)
from .model import (
    Distribution,
    InformationStructure,
    dot,
    expectation_table,
    forward_closed,
    induced_substructure,
    make_structure,
    single_player_view,
)
from .priors import (
    DEFINITION_CAP,
    EVENT_CAP,
    NOTIONS,
    Notion,
    blocks,
    classify_prior,
    disintegrable_by_definition,
    find_common_prior,
    find_strong_common_prior,
    find_universal_common_prior,
    hull_weights,
    is_conglomerable,
    is_disintegrable,
)
from .trades import (
    classify_trade,
    find_acceptable_trade,
    find_agreeable_trade,
    find_multiplayer_money_pump,
    find_single_money_pump,
    find_weakly_agreeable_trade,
    pump_piece,
)

REJECTION_CAP = 1000
ZERO_MASS_RATE = rational("1/4")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the random instance generator. All sampled probabilities
    have denominators bounded by denominator_bound (stretched to the support
    size when a support is larger than the bound, which cannot happen when
    the bound is at least max_states)."""

    seed: int = 0
    max_states: int = 6
    max_players: int = 3
    denominator_bound: int = 6

    def __post_init__(self) -> None:
        if self.max_states < 1 or self.max_players < 1 or self.denominator_bound < 1:
            raise InputError("generator sizes must be positive")


# The Bell numbers found so far and the last row of the Bell triangle, whose
# first entry is the last of them; ``_bell`` extends both on demand.
_BELL = ([1], [1])


def _bell(n: int) -> int:
    """The Bell number B_n, by the Bell triangle: each row starts with the
    last entry of the row above, and each further entry is its left
    neighbour plus the entry above that neighbour, one big-int addition per
    entry. Row n starts with B_n."""
    bells, row = _BELL
    while len(bells) <= n:
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row[:] = nxt
        bells.append(nxt[0])
    return bells[n]


def _sample_set_partition(items: list[int], rng: random.Random) -> list[list[int]]:
    """Uniform over all set partitions: pick the size of the block holding
    the first item with the exact Bell-recurrence probabilities, then its
    members, then recurse."""
    if not items:
        return []
    n = len(items)
    total = _bell(n)
    pick = rng.randrange(total)
    acc = 0
    for size in range(1, n + 1):
        acc += math.comb(n - 1, size - 1) * _bell(n - size)
        if pick < acc:
            break
    rest = items[1:]
    mates = sorted(rng.sample(rest, size - 1))
    block = [items[0], *mates]
    taken = set(mates)
    remaining = [x for x in rest if x not in taken]
    return [block, *_sample_set_partition(remaining, rng)]


def _drop(rng: random.Random) -> bool:
    return rng.randrange(ZERO_MASS_RATE.denominator) < ZERO_MASS_RATE.numerator


def _positive_composition(total: int, parts: int, rng: random.Random) -> list[int]:
    """Uniform composition of total into the given number of positive parts."""
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0, *cuts, total]
    return [edges[k + 1] - edges[k] for k in range(parts)]


def _random_masses(states: Sequence[int], cfg: GeneratorConfig, rng: random.Random) -> dict:
    """{state: mass}, masses summing to 1 on a thinned, never empty, subset
    of ``states``: a uniform composition of a random denominator."""
    support = [s for s in states if not _drop(rng)]
    if not support:
        support = [states[rng.randrange(len(states))]]
    k = len(support)
    d = rng.randint(k, max(cfg.denominator_bound, k))
    parts = _positive_composition(d, k, rng)
    dq = rational(d)
    return {s: rational(part) / dq for s, part in zip(support, parts)}


def random_structure(cfg: GeneratorConfig) -> InformationStructure:
    """Deterministic in cfg.seed; always passes structure validation."""
    rng = random.Random(cfg.seed)
    m = rng.randint(1, cfg.max_states)
    n = rng.randint(1, cfg.max_players)
    states = [f"w{k + 1}" for k in range(m)]
    players = [f"P{k + 1}" for k in range(n)]
    partitions = []
    cell_types = []
    for _ in range(n):
        blocks = _sample_set_partition(list(range(m)), rng)
        blocks = sorted([sorted(b) for b in blocks])
        partitions.append(blocks)
        cell_types.append(
            [Distribution.from_support(m, _random_masses(b, cfg, rng)) for b in blocks]
        )
    return make_structure(states, players, partitions, cell_types)


def planted_structure(
    m: int, n: int, blocks: int, rng: random.Random
) -> tuple[InformationStructure, Distribution]:
    """A structure with m states and n players built around a planted
    full-support prior p, returned with it. p has weights 1..6, normalized;
    the shuffled states are cut into ``blocks`` non-empty closed blocks;
    each player's partition refines that split (a uniform set partition per
    block), and each type is p conditioned on its cell. p is then a common
    prior charging every cell, a strong one. The benchmark's planted inputs
    follow the same rule."""
    if not 1 <= blocks <= m:
        raise InputError(f"cannot cut {m} states into {blocks} non-empty blocks")
    weights = [rng.randint(1, 6) for _ in range(m)]
    total = rational(sum(weights))
    prior = [rational(v) / total for v in weights]
    order = list(range(m))
    rng.shuffle(order)
    cuts = [0, *sorted(rng.sample(range(1, m), blocks - 1)), m]
    split = [sorted(order[cuts[k] : cuts[k + 1]]) for k in range(blocks)]
    partitions, cell_types = [], []
    for _ in range(n):
        cells = [cell for block in split for cell in _sample_set_partition(block, rng)]
        rows = []
        for cell in cells:
            mass = sum((prior[w] for w in cell), ZERO)
            rows.append(Distribution.from_support(m, {w: prior[w] / mass for w in cell}))
        partitions.append(cells)
        cell_types.append(rows)
    structure = make_structure(
        [f"w{k + 1}" for k in range(m)], [f"P{k + 1}" for k in range(n)], partitions, cell_types
    )
    return structure, Distribution(tuple(prior))


def random_distribution(
    structure: InformationStructure,
    cfg: GeneratorConfig,
    notion: Notion,
    rng: random.Random,
) -> Distribution:
    """Rejection-samples a distribution that charges what ``notion`` asks of
    its prior; after the attempt cap falls back to a perturbed uniform, which
    always qualifies."""
    m = structure.num_states
    for _ in range(REJECTION_CAP):
        dist = Distribution.from_support(m, _random_masses(range(m), cfg, rng))
        if notion.charged_by(structure, dist):
            return dist
    weights = [1 + rng.randrange(cfg.denominator_bound + 1) for _ in range(m)]
    total = rational(sum(weights))
    return Distribution(tuple(rational(w) / total for w in weights))


# -- the battery -----------------------------------------------------------


@dataclass(frozen=True)
class CheckFailure:
    name: str
    details: str


@dataclass(frozen=True)
class CrossCheckReport:
    structure: InformationStructure
    checks_run: int
    failures: tuple[CheckFailure, ...]
    minimized: InformationStructure | None = None
    skipped: int = 0  # checks left out because the structure exceeds their cap

    @property
    def passed(self) -> bool:
        return not self.failures


def structure_digest(structure: InformationStructure) -> int:
    """Content hash, stable across processes; seeds per-structure sampling."""
    parts = [",".join(structure.states), ",".join(structure.players)]
    for cells, types in zip(structure.partitions, structure.cell_types):
        for cell, t in zip(cells, types):
            parts.append("|".join(map(str, cell)))
            parts.append("|".join(str(q) for q in t))
    blob = ";".join(parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class _Recorder:
    def __init__(self) -> None:
        self.count = 0
        self.skipped = 0
        self.failures: list[CheckFailure] = []

    def check(self, name: str, ok: bool, details: str = "") -> None:
        self.count += 1
        if not ok:
            self.failures.append(CheckFailure(name, details))

    @contextmanager
    def guard(self, name: str) -> Iterator[None]:
        """Count one check; a ``PriorForgeError`` raised inside is recorded as
        its failure rather than aborting the battery."""
        try:
            yield
        except PriorForgeError as exc:
            self.failures.append(CheckFailure(name, f"raised {exc!r}"))
        finally:
            self.count += 1


def _event_set(table, relation) -> tuple[int, ...]:
    players = range(len(table))
    states = range(len(table[0]))
    return tuple(w for w in states if all(relation(table[i][w]) for i in players))


def _check_trade_forms(rec: _Recorder, structure, payoffs, label: str) -> None:
    """The pointwise trade grades must match their commonly-certain forms."""
    cls = classify_trade(structure, payoffs)
    table = cls.expectations
    positive = _event_set(table, lambda e: e > ZERO)
    nonneg = _event_set(table, lambda e: e >= ZERO)
    m = structure.num_states
    if positive:
        cc_everywhere = all(
            is_commonly_certain(structure, positive, w) for w in range(m)
        )
        cc_somewhere = any(
            is_commonly_certain(structure, positive, w) for w in range(m)
        )
    else:
        cc_everywhere = False
        cc_somewhere = False
    rec.check(
        f"{label}: agreeable == commonly-certain-everywhere",
        cls.agreeable == cc_everywhere,
        f"payoffs {payoffs}",
    )
    rec.check(
        f"{label}: weakly == commonly-certain-somewhere",
        cls.weakly_agreeable == cc_somewhere,
        f"payoffs {payoffs}",
    )
    semi_cc = all(
        is_commonly_certain(structure, nonneg, w) for w in range(m)
    ) if nonneg else False
    rec.check(
        f"{label}: semi-trade == commonly-certain non-negative",
        cls.is_semi_trade == semi_cc,
        f"payoffs {payoffs}",
    )


# -- the common prior program ---------------------------------------------


def common_prior_program(structure: InformationStructure) -> LinearProgram:
    """The common priors, projected onto p alone, with the strictness margin
    epsilon maximized. The forced-weight identity makes hull membership
    linear in p. Feasible iff a common prior exists; optimal epsilon > 0 iff
    a strong one does. The oracle of ``priors.blocks``.

    Row order, which ``refuting_payoffs`` reads its multipliers by: for
    each player i, the M rows ``p_w - t_i(w) * p(cell_i(w)) = 0``; next
    ``sum p = 1``; last one row ``p(d) - eps >= 0`` per distinct cell set d
    (``distinct_cell_sets``)."""
    b = LPBuilder()
    m = structure.num_states
    p_vars = [b.add_var(f"p[{structure.states[w]}]", lower=0) for w in range(m)]
    eps = b.add_var("eps", lower=0, objective=1)
    for i in range(structure.num_players):
        for w in range(m):
            t_w = structure.type_at(i, w)[w]
            row = {p_vars[s]: -t_w for s in structure.partitions[i][structure.cell_of(i, w)]}
            row[p_vars[w]] = ONE - t_w
            b.add_constraint(row, "=", 0)
    b.add_constraint({pv: 1 for pv in p_vars}, "=", 1)
    for cell_set in distinct_cell_sets(structure):
        row = {p_vars[w]: 1 for w in cell_set}
        row[eps] = -1
        b.add_constraint(row, ">=", 0)
    return b.build(maximize=True)


def refuting_payoffs(structure: InformationStructure, outcome: LPOutcome) -> tuple[tuple, ...] | None:
    """The refuting trade's payoffs, read off the multipliers u of
    ``outcome``, the common-prior program's (the constructive half of the
    Samet / Morris separation): the Farkas certificate when the program is
    infeasible, the optimal duals when the margin is 0, and None when the
    margin is positive.

    With u_i player i's rows, u_0 that of ``sum p = 1`` and nu_d <= 0 that
    of cell set d, set h_i = T_i u_i - u_i - u_0/N + sum |nu_d| 1_d over the
    d that i owns, T_i the expectation table, and box h into [-1, 1]. On
    column p_s the row of player i carries (u_i - T_i u_i)(s), so the
    column's cancellation (certificate) or dual feasibility (duals) gives
    sum_i h_i <= 0. T_i is idempotent and types live on their cells, so
    E_i[h_i | c] = -u_0/N + |nu_c| when i owns c, else -u_0/N. Only
    ``sum p = 1`` has a nonzero rhs and every lower bound is 0, so a
    certificate's negative rhs is u_0 and h is agreeable; optimal duals have
    u_0 = b.u = eps* = 0 and sum |nu| >= 1 from the eps column, so h is
    acceptable."""
    if outcome.status == "infeasible":
        u = outcome.certificate.constraint_multipliers
    elif outcome.objective_value == ZERO:
        u = outcome.duals
    else:
        return None
    m, n = structure.num_states, structure.num_players
    rows = tuple(u[i * m : (i + 1) * m] for i in range(n))
    shift = u[n * m] / n
    h = [
        [e - v - shift for e, v in zip(te, f)]
        for te, f in zip(expectation_table(structure, rows), rows)
    ]
    for (cell_set, owner), nu in zip(distinct_cell_sets(structure).items(), u[n * m + 1 :]):
        for w in cell_set:
            h[owner][w] -= nu
    scale = max(abs(v) for hi in h for v in hi)
    return tuple(tuple(v / scale for v in hi) for hi in h)


def distinct_cell_sets(structure: InformationStructure) -> dict[tuple[int, ...], int]:
    """Cell state-sets across players, deduplicated (mass constraints only
    depend on the set of states), each with the first player owning it."""
    seen: dict[tuple[int, ...], int] = {}
    for i in range(structure.num_players):
        for cell in structure.partitions[i]:
            seen.setdefault(cell, i)
    return seen


def component_substructures(
    structure: InformationStructure,
) -> tuple[tuple[tuple[int, ...], InformationStructure], ...]:
    """Each minimal component with its induced structure; ``cross_check``
    builds them once and walks them in this order."""
    return tuple((comp, induced_substructure(structure, comp)) for comp in minimal_components(structure))


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


def agreeable_trade_program(structure: InformationStructure) -> LinearProgram:
    """Payoffs f[i, w] in [-1, 1] with pointwise sum <= 0, maximizing delta,
    the worst conditional expectation over all (player, cell) pairs; an
    agreeable trade exists iff the optimum is strictly positive. The oracle
    of the block trade's agreeable grade."""
    b = LPBuilder()
    fvar = trade_variables(b, structure)
    delta = b.add_var("delta", objective=1)
    for i in range(structure.num_players):
        for cell, t in zip(structure.partitions[i], structure.cell_types[i]):
            row = {fvar[i][w]: t[w] for w in cell if t[w]}
            row[delta] = -ONE
            b.add_constraint(row, ">=", 0)
    return b.build(maximize=True)


def acceptable_trade_program(structure: InformationStructure) -> LinearProgram:
    """Payoffs f[i, w] in [-1, 1] with pointwise sum <= 0 and no player ever
    expecting a loss, maximizing all conditional expectations summed over
    states; an acceptable trade exists iff the optimum is strictly positive.
    The oracle of the block trade's acceptable grade."""
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


def joint_common_prior_program(structure: InformationStructure) -> LinearProgram:
    """The common priors as a joint program over (p, lambda per player and
    cell, epsilon): p matches every player's mixture of cell types, every
    cell's mass dominates epsilon, epsilon is maximized. The same decision
    and optimum as ``common_prior_program``, which drops the lambda
    columns because the hull weights are forced to be the cell masses; kept
    as that projection's oracle."""
    b = LPBuilder()
    m = structure.num_states
    p_vars = [b.add_var(f"p[{structure.states[w]}]", lower=0) for w in range(m)]
    lam_vars: list[list[int]] = []
    for i in range(structure.num_players):
        lam_vars.append(
            [
                b.add_var(f"w[{structure.players[i]},{v}]", lower=0)
                for v in range(structure.num_cells(i))
            ]
        )
    eps = b.add_var("eps", lower=0, objective=1)
    for i in range(structure.num_players):
        for w in range(m):
            row = {p_vars[w]: 1}
            for v, tdist in enumerate(structure.cell_types[i]):
                if tdist[w]:
                    row[lam_vars[i][v]] = -tdist[w]
            b.add_constraint(row, "=", 0)
        b.add_constraint({lv: 1 for lv in lam_vars[i]}, "=", 1)
    b.add_constraint({pv: 1 for pv in p_vars}, "=", 1)
    for cell_set in distinct_cell_sets(structure):
        row = {p_vars[w]: 1 for w in cell_set}
        row[eps] = -1
        b.add_constraint(row, ">=", 0)
    return b.build(maximize=True)


def _trade_program_decides(program: LinearProgram) -> bool:
    """True when a trade program's boxed optimum is strictly positive."""
    out = solve(program)
    if out.status != "optimal":
        raise VerificationError(f"trade program ended {out.status}")
    return out.objective_value > ZERO


def _check_trade_oracles(rec: _Recorder, structure, components, priors, trades) -> None:
    """Each trade LP decides its duality again, and must agree with both the
    prior finder and the trade finder; production solves none of them. Each
    runs at most once per (sub)structure: the agreeable one on the structure
    and on the components in order up to the first that has a trade, the
    acceptable one on the structure."""
    agreeable = _trade_program_decides(agreeable_trade_program(structure))
    # Components in the finders' order, up to the first that has a trade.
    weakly = False
    for _, sub in components:
        if sub is structure:
            weakly = agreeable
        else:
            weakly = _trade_program_decides(agreeable_trade_program(sub))
        if weakly:
            break
    acceptable = _trade_program_decides(acceptable_trade_program(structure))
    for notion, decided, prior, trade in zip(NOTIONS, (agreeable, weakly, acceptable), priors, trades):
        claim = f"oracle: {notion.trade} program matches the"
        rec.check(f"{claim} {notion.key} prior", decided == (prior is None))
        rec.check(f"{claim} {notion.trade} trade", decided == (trade is not None))


def _check_common_program(rec: _Recorder, structure, components) -> None:
    """The common-prior program decides again what ``blocks`` decided: on
    the structure, and on the components in order up to the first with no
    common prior, where it must also agree with whether the structure's live
    blocks meet the component. Where every block is live the canonical prior
    and its margin must be the program's optimum. On the structure the
    canonical prior must satisfy the program's rows, and where a block is
    dead the program must give a trade, read off its certificate or duals,
    that is a trade, acceptable and agreeable exactly as the block trade is
    (weak agreeability is a per-component grade, which the component trade
    programs check)."""
    walk, program = blocks(structure), common_prior_program(structure)
    top = solve(program)
    subs = [(comp, sub) for comp, sub in components if sub is not structure]
    for comp, sub in ((None, structure), *subs):
        outcome = top if comp is None else solve(common_prior_program(sub))
        feasible = outcome.status == "optimal"
        positive = feasible and outcome.objective_value > ZERO
        sub_walk = blocks(sub)
        met = walk.common if comp is None else not walk.support.isdisjoint(comp)
        rec.check(
            "oracle: common-prior program decides as the blocks",
            (feasible, positive) == (sub_walk.common, sub_walk.strong) and feasible == met,
            f"states {sub.states}: program {outcome.status}, blocks {sub_walk.live}",
        )
        ok = positive == sub_walk.strong
        if ok and positive:
            optimum = (tuple(outcome.primal[: sub.num_states]), outcome.objective_value)
            ok = optimum == (sub_walk.prior.probs, sub_walk.margin)
        rec.check(
            "oracle: closed-form strong prior equals the margin program's optimum",
            ok,
            "" if ok else f"states {sub.states}: blocks {sub_walk}, program {outcome}",
        )
        if comp is not None and not feasible:
            break
    if walk.common:
        point = (*walk.prior.probs, walk.margin)
        violations = feasibility_violations(program, point)
        rec.check("oracle: canonical prior satisfies the common-prior program", not violations, str(violations))
    if not walk.strong:
        grades = []
        for payoffs in (refuting_payoffs(structure, top), walk.payoffs):
            cls = None if payoffs is None else classify_trade(structure, payoffs)
            grades.append(cls and (cls.is_trade, cls.acceptable, cls.agreeable))
        rec.check(
            "oracle: program trade grades as the block trade",
            grades[0] == grades[1] == (True, True, not walk.common),
            f"program {grades[0]}, blocks {grades[1]}",
        )


def cross_check(
    structure: InformationStructure,
    sample_count: int = 2,
    cfg: GeneratorConfig | None = None,
    minimize: bool = True,
) -> CrossCheckReport:
    """All six exactly-one dualities, the presence chains, the single-player
    theory on each player's view, and the commonly-certain reformulations,
    on one structure. Deterministic: sampling is seeded by a content digest.
    The distribution-level checks run on one sample per notion and
    sample_count - 1 more unconstrained ones."""
    if sample_count < 0:
        raise InputError(f"sample count must be non-negative, got {sample_count}")
    if cfg is None:
        cfg = GeneratorConfig()
    rec = _Recorder()
    rng = random.Random(structure_digest(structure))

    # Per notion, in ``NOTIONS`` order: the prior finder's witness and the
    # dual trade finder's trade.
    priors = trades = (None,) * len(NOTIONS)
    with rec.guard("prior finders"):
        priors = (
            find_common_prior(structure),
            find_universal_common_prior(structure),
            find_strong_common_prior(structure),
        )
    with rec.guard("trade finders"):
        trades = (
            find_agreeable_trade(structure),
            find_weakly_agreeable_trade(structure),
            find_acceptable_trade(structure),
        )
    for notion, witness, trade in zip(NOTIONS, priors, trades):
        rec.check(
            f"duality: {notion.key} prior xor {notion.trade.replace('_', ' ')} trade",
            (witness is None) != (trade is None),
        )
        if witness is not None and notion.charges is not None:
            rec.check(
                f"{notion.key} witness passes {notion.charges.__name__}",
                notion.charges(structure, witness.prior),
            )
    # One witness or trade may answer several notions: each distinct object,
    # by identity, is checked once.
    for witness in {id(w): w for w in priors if w is not None}.values():
        with rec.guard("prior witness re-verifies"):
            witness.verify(structure)
    for trade in {id(t): t for t in trades if t is not None}.values():
        _check_trade_forms(rec, structure, trade.payoffs, "synthesized trade")
    held = [witness is not None for witness in priors]
    found = [trade is not None for trade in trades]
    rec.check("chain: strong => universal => common", held == sorted(held, reverse=True))
    rec.check("chain: agreeable => weakly => acceptable (synthesized)", found == sorted(found))
    components = component_substructures(structure)
    with rec.guard("oracle: trade programs"):
        _check_trade_oracles(rec, structure, components, priors, trades)
    with rec.guard("oracle: common-prior program"):
        _check_common_program(rec, structure, components)

    # Components sanity: minimal components are components; closures are
    # components containing their state.
    comps = minimal_components(structure)
    rec.check("minimal components exist", len(comps) >= 1)
    for comp in comps:
        rec.check("minimal component is forward-closed", forward_closed(structure, comp))
    for w in range(structure.num_states):
        cl = closure(structure, w)
        rec.check(
            "closure is a component containing its state",
            w in cl and forward_closed(structure, cl),
        )

    # Distribution-level dualities: one sample drawn to pass each notion's
    # charge test, then sample_count - 1 more for the common notion, which
    # charges nothing.
    drawn = (*NOTIONS, *[NOTIONS[0]] * (sample_count - 1))
    samples = [(random_distribution(structure, cfg, n, rng), n) for n in drawn]
    sample_pumps = []
    for dist, notion in samples:
        cls = classify_prior(structure, dist)
        pump = None
        with rec.guard("pump finder"):
            pump = find_multiplayer_money_pump(structure, dist)
        sample_pumps.append(pump)
        rec.check(
            "duality: common prior xor money pump",
            cls.common != (pump is not None),
            f"p={tuple(dist)} drawn for {notion.key}",
        )
        if pump is not None:
            with rec.guard("pump witness re-verifies"):
                pump.verify(structure)
        if notion.charges is not None:
            charged = notion.charges(structure, dist)
            rec.check(f"sampled {notion.key} distribution passes {notion.charges.__name__}", charged)
            rec.check(
                f"duality: {notion.key} prior xor {notion.pump} pump",
                getattr(cls, notion.key) != (pump is not None and charged),
                f"p={tuple(dist)}",
            )
        # When no common prior exists anywhere, every distribution pumps.
        if priors[0] is None:
            rec.check(
                "no common prior => every distribution pumps",
                pump is not None,
                f"p={tuple(dist)}",
            )

    # Single-player theory on each player's marginal view.
    for i in range(structure.num_players):
        view = single_player_view(structure, i)
        for k, (dist, _) in enumerate(samples):
            disintegrable, weights = is_disintegrable(view, dist)
            if view.num_states > DEFINITION_CAP:
                rec.skipped += 1
            else:
                rec.check(
                    "closed-form disintegrability matches definitional oracle",
                    disintegrable == disintegrable_by_definition(view, dist),
                    f"player {i} p={tuple(dist)}",
                )
            rec.check(
                "view membership matches full-structure hull membership",
                disintegrable == (hull_weights(structure, i, dist) is not None),
                f"player {i}",
            )
            if disintegrable and view.num_states > EVENT_CAP:
                rec.skipped += 1
            elif disintegrable:
                conglomerable, _ = is_conglomerable(view, dist)
                rec.check(
                    "disintegrable => conglomerable",
                    conglomerable,
                    f"player {i} p={tuple(dist)}",
                )
            # A one-player structure is its own view: reuse the pump found
            # above.
            if structure.num_players == 1:
                pump = sample_pumps[k]
            else:
                pump = None
                with rec.guard("single pump finder"):
                    pump = find_single_money_pump(view, dist)
            rec.check(
                "duality: disintegrable xor single-player pump",
                disintegrable != (pump is not None),
                f"player {i} p={tuple(dist)}",
            )

    minimized = None
    if rec.failures and minimize:
        minimized = _minimize_failure(structure, sample_count, cfg)
    return CrossCheckReport(structure, rec.count, tuple(rec.failures), minimized, rec.skipped)


def _still_fails(structure: InformationStructure, sample_count: int, cfg: GeneratorConfig) -> bool:
    try:
        report = cross_check(structure, sample_count, cfg, minimize=False)
    except PriorForgeError:
        return True
    return not report.passed


def _delete_player(structure: InformationStructure, player: int) -> InformationStructure | None:
    if structure.num_players <= 1:
        return None
    keep = [i for i in range(structure.num_players) if i != player]
    return make_structure(
        structure.states,
        [structure.players[i] for i in keep],
        [[list(cell) for cell in structure.partitions[i]] for i in keep],
        [list(structure.cell_types[i]) for i in keep],
    )


def _delete_state(structure: InformationStructure, state: int) -> InformationStructure | None:
    if structure.num_states <= 1:
        return None
    keep = [w for w in range(structure.num_states) if w != state]
    index = {w: k for k, w in enumerate(keep)}
    partitions = []
    cell_types = []
    for i in range(structure.num_players):
        blocks = []
        types = []
        for old, t in zip(structure.partitions[i], structure.cell_types[i]):
            cell = [w for w in old if w != state]
            if not cell:
                continue
            mass = sum((t[w] for w in cell), ZERO)
            if mass == ZERO:
                return None  # renormalization impossible; skip this deletion
            blocks.append([index[w] for w in cell])
            types.append([t[w] / mass for w in keep])
        partitions.append(blocks)
        cell_types.append(types)
    return make_structure(
        [structure.states[w] for w in keep],
        structure.players,
        partitions,
        cell_types,
    )


def _minimize_failure(
    structure: InformationStructure, sample_count: int, cfg: GeneratorConfig
) -> InformationStructure:
    """Greedy shrinking: drop players, then states (renormalizing types),
    keeping every deletion that preserves failure."""
    current = structure
    changed = True
    while changed:
        changed = False
        for i in range(current.num_players):
            candidate = _delete_player(current, i)
            if candidate is not None and _still_fails(candidate, sample_count, cfg):
                current = candidate
                changed = True
                break
        if changed:
            continue
        for w in range(current.num_states):
            try:
                candidate = _delete_state(current, w)
            except PriorForgeError:
                candidate = None
            if candidate is not None and _still_fails(candidate, sample_count, cfg):
                current = candidate
                changed = True
                break
    return current


@dataclass(frozen=True)
class BatteryReport:
    structures_checked: int
    checks_run: int
    failures: tuple[tuple[int, CrossCheckReport], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_battery(seeds) -> BatteryReport:
    """cross_check, with its default sampling, over the default generator on
    a seed range; deterministic and mergeable."""
    checked = 0
    checks = 0
    failures = []
    for seed in seeds:
        report = cross_check(random_structure(GeneratorConfig(seed=seed)))
        checked += 1
        checks += report.checks_run
        if not report.passed:
            failures.append((seed, report))
    return BatteryReport(checked, checks, tuple(failures))


def pump_piece_program(
    structure: InformationStructure, player: int, dist: Distribution
) -> LinearProgram:
    """The program ``pump_piece`` solves in closed form: one player's payoff
    in [-1, 1] per state, a non-negative conditional expectation at every
    cell, the p-expectation minimized. Kept as that closed form's oracle."""
    b = LPBuilder()
    fvar = [b.add_var(f"f[{w}]", lower=-1, upper=1) for w in range(structure.num_states)]
    for cell, t in zip(structure.partitions[player], structure.cell_types[player]):
        b.add_constraint({fvar[w]: t[w] for w in cell if t[w]}, ">=", 0)
    for w, mass in enumerate(dist):
        if mass:
            b.add_objective(fvar[w], mass)
    return b.build(maximize=False)


def oracle_battery(seeds) -> BatteryReport:
    """Simplex vs exhaustive basis enumeration on the common-prior program,
    feasibility and strictness-margin objective, exactly; the joint
    formulation vs the projected one; and the closed-form pump piece vs the
    simplex on its program, per player, for one sampled distribution. The
    structures are small (M <= 4, N <= 2) so that enumeration stays cheap."""
    cfg = GeneratorConfig(max_states=4, max_players=2, denominator_bound=5)
    checked = 0
    checks = 0
    failures = []
    for seed in seeds:
        structure = random_structure(replace(cfg, seed=seed))
        rec = _Recorder()
        eps_lp = common_prior_program(structure)
        out_eps = solve(eps_lp)
        vertices_eps = enumerate_basic_solutions(eps_lp)
        rec.check(
            "oracle: margin program feasibility agrees",
            (out_eps.status == "optimal") == bool(vertices_eps),
        )
        joint = solve(joint_common_prior_program(structure))
        if out_eps.status == "optimal":
            best = max(v[-1] for v in vertices_eps)
            rec.check(
                "oracle: margin optimum equals best vertex",
                out_eps.objective_value == best,
                f"lp={out_eps.objective_value} vertices={best}",
            )
            rec.check(
                "oracle: joint formulation matches projected margin",
                joint.status == "optimal" and joint.objective_value == out_eps.objective_value,
            )
        else:
            rec.check(
                "oracle: joint formulation agrees on infeasibility",
                joint.status == "infeasible",
            )
        dist = random_distribution(structure, cfg, NOTIONS[0], random.Random(seed))
        for i in range(structure.num_players):
            piece = pump_piece(structure, i, dist)
            program = pump_piece_program(structure, i, dist)
            out_pump = solve(program)
            rec.check(
                "oracle: closed-form pump piece is feasible and LP-optimal",
                not feasibility_violations(program, piece)
                and out_pump.status == "optimal"
                and out_pump.objective_value == dot(piece, dist.probs),
                f"player {i} p={tuple(dist)} lp={out_pump.objective_value}",
            )
        checked += 1
        checks += rec.count
        if rec.failures:
            failures.append((seed, CrossCheckReport(structure, rec.count, tuple(rec.failures))))
    return BatteryReport(checked, checks, tuple(failures))
