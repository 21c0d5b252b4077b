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
in ``tests/oracles.py``. cross_check and run_battery report failures
unshrunk, a guarded step that raises ``PriorForgeError`` among them;
``minimize_failure`` shrinks one for ``prior-forge fuzz``.

Generation is fully deterministic in the seed. Partitions are drawn
uniformly over all set partitions of the state set; type values are uniform
compositions with bounded denominators; supports are thinned, each state
dropped with probability ``ZERO_MASS_RATE``, so sparse structures (rich
component geometry) appear often. ``planted_structure`` draws the other
side at any size: a structure built around a chosen strong common prior.
``chain_structure`` builds inputs whose witnesses grow in bits, not states.
No state outlives a call: the Bell numbers are built once per structure.
"""

from __future__ import annotations

import hashlib
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from ._rational import ONE, ZERO, rational
from .certainty import closure, is_commonly_certain, minimal_components
from .errors import InputError, PriorForgeError, VerificationError
from .jsonio import type_row
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
    cell_expectations,
    dot,
    forward_closed,
    induced_substructure,
    integer_form,
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
    Trade,
    classify_trade,
    find_acceptable_trade,
    find_agreeable_trade,
    find_multiplayer_money_pump,
    find_single_money_pump,
    find_weakly_agreeable_trade,
    graded_block_trade,
    pump_piece,
)

REJECTION_CAP = 1000
ZERO_MASS_RATE = rational("1/4")
NEG_ONE = -ONE  # payoffs live in [NEG_ONE, ONE]


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


def _bell_numbers(n: int) -> list[int]:
    """B_0..B_n, by the Bell triangle: each row starts with the last entry
    of the row above, and each further entry is its left neighbour plus the
    entry above that neighbour, one big-int addition per entry. Row k
    starts with B_k."""
    bells, row = [1], [1]
    while len(bells) <= n:
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
        bells.append(row[0])
    return bells


def _sample_set_partition(items: list[int], rng: random.Random, bells: list[int]) -> list[list[int]]:
    """Uniform over all set partitions: pick the size of the block holding
    the first item with the exact Bell-recurrence probabilities, then its
    members, then recurse. ``bells`` holds B_0 up to at least B_len(items)
    (``_bell_numbers``)."""
    if not items:
        return []
    n = len(items)
    pick = rng.randrange(bells[n])
    acc = 0
    for size in range(1, n + 1):
        acc += math.comb(n - 1, size - 1) * bells[n - size]
        if pick < acc:
            break
    rest = items[1:]
    mates = sorted(rng.sample(rest, size - 1))
    block = [items[0], *mates]
    taken = set(mates)
    remaining = [x for x in rest if x not in taken]
    return [block, *_sample_set_partition(remaining, rng, bells)]


def _drop(rng: random.Random) -> bool:
    return rng.randrange(ZERO_MASS_RATE.denominator) < ZERO_MASS_RATE.numerator


def _positive_composition(total: int, parts: int, rng: random.Random) -> list[int]:
    """Uniform composition of total into the given number of positive parts."""
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0, *cuts, total]
    return [edges[k + 1] - edges[k] for k in range(parts)]


def _random_composition(
    states: Sequence[int], cfg: GeneratorConfig, rng: random.Random
) -> tuple[list[int], int, list[int]]:
    """``(support, d, parts)``: a thinned, never empty, subset of ``states``
    and a uniform composition of a random denominator d over it, so that
    ``parts[k] / d`` is the mass of ``support[k]``."""
    support = [s for s in states if not _drop(rng)]
    if not support:
        support = [states[rng.randrange(len(states))]]
    k = len(support)
    d = rng.randint(k, max(cfg.denominator_bound, k))
    return support, d, _positive_composition(d, k, rng)


def _masses(support: list[int], d: int, parts: list[int]) -> dict:
    """{state: mass} of a ``_random_composition``."""
    return {s: Fraction(part, d) for s, part in zip(support, parts)}


def random_structure(cfg: GeneratorConfig) -> InformationStructure:
    """Deterministic in cfg.seed; always passes structure validation."""
    rng = random.Random(cfg.seed)
    m = rng.randint(1, cfg.max_states)
    n = rng.randint(1, cfg.max_players)
    states = [f"w{k + 1}" for k in range(m)]
    players = [f"P{k + 1}" for k in range(n)]
    bells = _bell_numbers(m)
    partitions = []
    cell_types = []
    for _ in range(n):
        blocks = _sample_set_partition(list(range(m)), rng, bells)
        blocks = sorted([sorted(b) for b in blocks])
        partitions.append(blocks)
        cell_types.append(
            [Distribution.from_support(m, _masses(*_random_composition(b, cfg, rng))) for b in blocks]
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
    bells = _bell_numbers(max(map(len, split)))
    partitions, cell_types = [], []
    for _ in range(n):
        cells = [cell for block in split for cell in _sample_set_partition(block, rng, bells)]
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


def chain_structure(m: int, k: int) -> InformationStructure:
    """The two-player chain on states w1..wm: P1's cells are {w1, w2},
    {w3, w4}, ..., P2's are {w1}, {w2, w3}, ..., so the cells link every
    state to the next, and every two-state type puts 1/(k+1) on its first
    state and k/(k+1) on its second. Its one common prior is proportional
    to k**j on state w(j+1), so the prior's bits, not the state count, grow
    with m: at k = 2**64 - 1 and m = 256 they pass the interpreter's digit
    limit for int-to-text conversion."""
    if m < 1 or k < 1:
        raise InputError(f"a chain needs m >= 1 states and k >= 1, got m={m}, k={k}")
    low, high = Fraction(1, k + 1), Fraction(k, k + 1)

    def cells(first: int) -> tuple:
        pairs = [(w, w + 1) for w in range(first, m - 1, 2)]
        ends = [(0,)] * first + [(m - 1,)] * ((m - first) % 2)
        return tuple(sorted(ends + pairs))

    partitions = (cells(0), cells(1))
    cell_types = [
        [{c[0]: ONE} if len(c) == 1 else {c[0]: low, c[1]: high} for c in part]
        for part in partitions
    ]
    return make_structure([f"w{j + 1}" for j in range(m)], ["P1", "P2"], partitions, cell_types)


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
        # The charge test reads only the drawn support, so the masses are
        # built for the kept draw alone.
        support, d, parts = _random_composition(range(m), cfg, rng)
        marks = [0] * m
        for w in support:
            marks[w] = 1
        if notion.charged_by(structure, marks):
            return Distribution.from_support(m, _masses(support, d, parts))
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
    checks_run: int
    failures: tuple[CheckFailure, ...]
    skipped: int = 0  # checks left out because the structure exceeds their cap

    @property
    def passed(self) -> bool:
        return not self.failures


def structure_digest(structure: InformationStructure) -> int:
    """Content hash, stable across processes; seeds per-structure sampling.
    A type's text is its JSON row (``jsonio.type_row``): each mass in lowest
    terms, "0" off its support."""
    parts = [",".join(structure.states), ",".join(structure.players)]
    for cells, types in zip(structure.partitions, structure.cell_types):
        for cell, t in zip(cells, types):
            parts.append("|".join(map(str, cell)))
            parts.append("|".join(map(str, type_row(t))))
    blob = ";".join(parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class _Recorder:
    def __init__(self) -> None:
        self.count = 0
        self.skipped = 0
        self.failures: list[CheckFailure] = []

    def check(self, name: str, ok: bool, details: Callable[[], str] | None = None) -> None:
        """Count one check; ``details`` builds the failure text, so a check
        that passes formats nothing."""
        self.count += 1
        if not ok:
            self.failures.append(CheckFailure(name, details() if details else ""))

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


def _check_trade_forms(rec: _Recorder, structure, trade: Trade, label: str) -> None:
    """The pointwise trade grades must match their commonly-certain forms."""
    cls = classify_trade(structure, trade)
    payoffs = trade.payoffs
    table = cls.expectations
    positive = _event_set(table, lambda e: e > ZERO)
    nonneg = _event_set(table, lambda e: e >= ZERO)
    m = structure.num_states
    # With no positive state neither grade holds: [False] answers both.
    certain = [is_commonly_certain(structure, positive, w) for w in range(m)] if positive else [False]
    cc_everywhere, cc_somewhere = all(certain), any(certain)
    rec.check(
        f"{label}: agreeable == commonly-certain-everywhere",
        cls.agreeable == cc_everywhere,
        lambda: f"payoffs {payoffs}",
    )
    rec.check(
        f"{label}: weakly == commonly-certain-somewhere",
        cls.weakly_agreeable == cc_somewhere,
        lambda: f"payoffs {payoffs}",
    )
    semi_cc = all(
        is_commonly_certain(structure, nonneg, w) for w in range(m)
    ) if nonneg else False
    rec.check(
        f"{label}: semi-trade == commonly-certain non-negative",
        cls.is_semi_trade == semi_cc,
        lambda: f"payoffs {payoffs}",
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
    p_vars = [b.add_var(f"p[{structure.states[w]}]", lower=ZERO) for w in range(m)]
    eps = b.add_var("eps", lower=ZERO, objective=ONE)
    for i in range(structure.num_players):
        own = structure.own_nums(i)
        for w in range(m):
            t, t_w = structure.type_at(i, w), own[w]
            row = {p_vars[s]: -t_w for s in structure.partitions[i][structure.cell_of(i, w)]}
            row[p_vars[w]] = t.den - t_w
            b.add_integer_constraint(row, t.den, "=")
    _add_mass_rows(b, structure, p_vars, eps)
    return b.build(maximize=True)


def _add_mass_rows(b: LPBuilder, structure: InformationStructure, p_vars: list[int], eps: int) -> None:
    """``sum p = 1``, then ``p(d) - eps >= 0`` per distinct cell set d."""
    b.add_integer_constraint(dict.fromkeys(p_vars, 1), 1, "=", 1)
    for cell_set in distinct_cell_sets(structure):
        row = {p_vars[w]: 1 for w in cell_set}
        row[eps] = -1
        b.add_integer_constraint(row, 1, ">=")


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
    acceptable.

    On ints: with u = U / D and L (``types_den``) the lcm of the types'
    denominators, every term is a numerator over D * N * L, and the box
    divides by the largest one."""
    if outcome.status == "infeasible":
        _, u = integer_form(outcome.certificate.constraint_multipliers)
    elif outcome.objective_value == ZERO:
        u = outcome.dual_form[1]
    else:
        return None
    m, n = structure.num_states, structure.num_players
    types_den = math.lcm(*(t.den for types in structure.cell_types for t in types))
    shift = u[n * m] * types_den
    h = []
    for i in range(n):
        ui = u[i * m : (i + 1) * m]
        hi = [-v * n * types_den - shift for v in ui]
        for cell, num, den in cell_expectations(structure, i, (1, ui)):
            e = num * n * (types_den // den)
            for w in cell:
                hi[w] += e
        h.append(hi)
    for (cell_set, owner), nu in zip(distinct_cell_sets(structure).items(), u[n * m + 1 :]):
        for w in cell_set:
            h[owner][w] -= nu * n * types_den
    scale = max(abs(v) for hi in h for v in hi)
    return tuple(tuple(Fraction(v, scale) for v in hi) for hi in h)


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
            b.add_var(f"f[{structure.players[i]},{structure.states[w]}]", lower=NEG_ONE, upper=ONE)
            for w in range(m)
        ]
        for i in range(structure.num_players)
    ]
    for w in range(m):
        b.add_integer_constraint({fvar[i][w]: 1 for i in range(structure.num_players)}, 1, "<=")
    return fvar


def _type_row(fvar: list[int], t: Distribution) -> dict:
    """A cell's expectation of the payoffs ``fvar``, as numerators over
    ``t.den``."""
    return {fvar[w]: a for w, a in t.items()}


def agreeable_trade_program(structure: InformationStructure) -> LinearProgram:
    """Payoffs f[i, w] in [-1, 1] with pointwise sum <= 0, maximizing delta,
    the worst conditional expectation over all (player, cell) pairs; an
    agreeable trade exists iff the optimum is strictly positive. The oracle
    of the block trade's agreeable grade."""
    b = LPBuilder()
    fvar = trade_variables(b, structure)
    delta = b.add_var("delta", objective=ONE)
    for i in range(structure.num_players):
        for t in structure.cell_types[i]:
            row = _type_row(fvar[i], t)
            row[delta] = -t.den
            b.add_integer_constraint(row, t.den, ">=")
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
            row = _type_row(fvar[i], t)
            b.add_integer_constraint(row, t.den, ">=")
            for var, coeff in row.items():
                b.add_objective(var, Fraction(len(cell) * coeff, t.den))
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
    p_vars = [b.add_var(f"p[{structure.states[w]}]", lower=ZERO) for w in range(m)]
    lam_vars: list[list[int]] = []
    for i in range(structure.num_players):
        lam_vars.append(
            [
                b.add_var(f"w[{structure.players[i]},{v}]", lower=ZERO)
                for v in range(structure.num_cells(i))
            ]
        )
    eps = b.add_var("eps", lower=ZERO, objective=ONE)
    for i in range(structure.num_players):
        held: list[list] = [[] for _ in range(m)]  # per state, every type that charges it
        for v, t in enumerate(structure.cell_types[i]):
            for w, a in t.items():
                held[w].append((v, t.den, a))
        for w in range(m):
            den = math.lcm(*(d for _, d, _ in held[w]))
            row = {p_vars[w]: den}
            for v, d, a in held[w]:
                row[lam_vars[i][v]] = -a * (den // d)
            b.add_integer_constraint(row, den, "=")
        b.add_integer_constraint(dict.fromkeys(lam_vars[i], 1), 1, "=", 1)
    _add_mass_rows(b, structure, p_vars, eps)
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
    by the grades ``trades`` keeps with it (weak agreeability is a
    per-component grade, which the component trade programs check)."""
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
            lambda: f"states {sub.states}: program {outcome.status}, blocks {sub_walk.live}",
        )
        ok = positive == sub_walk.strong
        if ok and positive:
            optimum = (tuple(outcome.primal[: sub.num_states]), outcome.objective_value)
            ok = optimum == (sub_walk.prior.probs, sub_walk.margin)
        rec.check(
            "oracle: closed-form strong prior equals the margin program's optimum",
            ok,
            lambda: f"states {sub.states}: blocks {sub_walk}, program {outcome}",
        )
        if comp is not None and not feasible:
            break
    if walk.common:
        point = (*walk.prior.probs, walk.margin)
        violations = feasibility_violations(program, point)
        rec.check("oracle: canonical prior satisfies the common-prior program", not violations, lambda: str(violations))
    if not walk.strong:
        payoffs = refuting_payoffs(structure, top)
        classes = (
            None if payoffs is None else classify_trade(structure, payoffs),
            graded_block_trade(structure)[1],
        )
        grades = [cls and (cls.is_trade, cls.acceptable, cls.agreeable) for cls in classes]
        rec.check(
            "oracle: program trade grades as the block trade",
            grades[0] == grades[1] == (True, True, not walk.common),
            lambda: f"program {grades[0]}, blocks {grades[1]}",
        )


def cross_check(
    structure: InformationStructure,
    sample_count: int = 2,
    cfg: GeneratorConfig | None = None,
) -> CrossCheckReport:
    """All six exactly-one dualities, the presence chains, the single-player
    theory on each player's view, and the commonly-certain reformulations,
    on one structure. Deterministic: sampling is seeded by a content digest.
    The distribution-level checks run on one sample per notion and
    sample_count - 1 more unconstrained ones, so sample counts 0 and 1 both
    draw one sample per notion and nothing more."""
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
        _check_trade_forms(rec, structure, trade, "synthesized trade")
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
    # charge test, then sample_count - 1 more (none for 0 or 1) for the
    # common notion, which charges nothing.
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
            lambda: f"p={tuple(dist)} drawn for {notion.key}",
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
                lambda: f"p={tuple(dist)}",
            )
        # When no common prior exists anywhere, every distribution pumps.
        if priors[0] is None:
            rec.check(
                "no common prior => every distribution pumps",
                pump is not None,
                lambda: f"p={tuple(dist)}",
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
                    lambda: f"player {i} p={tuple(dist)}",
                )
            rec.check(
                "view membership matches full-structure hull membership",
                disintegrable == (hull_weights(structure, i, dist) is not None),
                lambda: f"player {i}",
            )
            if disintegrable and view.num_states > EVENT_CAP:
                rec.skipped += 1
            elif disintegrable:
                conglomerable, _ = is_conglomerable(view, dist)
                rec.check(
                    "disintegrable => conglomerable",
                    conglomerable,
                    lambda: f"player {i} p={tuple(dist)}",
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
                lambda: f"player {i} p={tuple(dist)}",
            )

    return CrossCheckReport(rec.count, tuple(rec.failures), rec.skipped)


def _still_fails(structure: InformationStructure, sample_count: int, cfg: GeneratorConfig | None) -> bool:
    try:
        report = cross_check(structure, sample_count, cfg)
    except PriorForgeError:
        return True
    return not report.passed


def _delete_player(structure: InformationStructure, player: int) -> InformationStructure:
    keep = [i for i in range(structure.num_players) if i != player]
    return make_structure(
        structure.states,
        [structure.players[i] for i in keep],
        [[list(cell) for cell in structure.partitions[i]] for i in keep],
        [list(structure.cell_types[i]) for i in keep],
    )


def _delete_state(structure: InformationStructure, state: int) -> InformationStructure | None:
    """``structure`` without ``state``, each type renormalized on what its
    support keeps; None when a cell keeps states but no mass."""
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
            kept = {index[w]: a for w, a in t.items() if w != state}
            if not kept:
                return None  # renormalization impossible; skip this deletion
            mass = sum(kept.values())
            blocks.append([index[w] for w in cell])
            types.append({k: Fraction(a, mass) for k, a in kept.items()})
        partitions.append(blocks)
        cell_types.append(types)
    return make_structure(
        [structure.states[w] for w in keep],
        structure.players,
        partitions,
        cell_types,
    )


def _one_smaller(structure: InformationStructure) -> Iterator[InformationStructure]:
    """Every player deletion, then every state deletion, in index order."""
    if structure.num_players > 1:
        for i in range(structure.num_players):
            yield _delete_player(structure, i)
    if structure.num_states > 1:
        for w in range(structure.num_states):
            try:
                candidate = _delete_state(structure, w)
            except PriorForgeError:
                continue
            if candidate is not None:
                yield candidate


def minimize_failure(
    structure: InformationStructure, sample_count: int, cfg: GeneratorConfig | None
) -> InformationStructure:
    """Greedy shrinking of a structure that fails ``cross_check`` with these
    arguments: move to the first one-smaller candidate that still fails,
    until none does."""
    current = structure
    while True:
        smaller = next((c for c in _one_smaller(current) if _still_fails(c, sample_count, cfg)), None)
        if smaller is None:
            return current
        current = smaller


@dataclass(frozen=True)
class BatteryReport:
    structures_checked: int
    checks_run: int
    failures: tuple[tuple[int, CrossCheckReport], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _battery(seeds, check: Callable[[int], CrossCheckReport]) -> BatteryReport:
    """``check`` on every seed, its counts summed and its failures kept by
    seed."""
    checked = checks = 0
    failures = []
    for seed in seeds:
        report = check(seed)
        checked += 1
        checks += report.checks_run
        if not report.passed:
            failures.append((seed, report))
    return BatteryReport(checked, checks, tuple(failures))


def run_battery(seeds) -> BatteryReport:
    """cross_check, with its default sampling, over the default generator on
    a seed range; deterministic and mergeable."""
    return _battery(seeds, lambda seed: cross_check(random_structure(GeneratorConfig(seed=seed))))


def pump_piece_program(
    structure: InformationStructure, player: int, dist: Distribution
) -> LinearProgram:
    """The program ``pump_piece`` solves in closed form: one player's payoff
    in [-1, 1] per state, a non-negative conditional expectation at every
    cell, the p-expectation minimized. Kept as that closed form's oracle."""
    b = LPBuilder()
    fvar = [b.add_var(f"f[{w}]", lower=NEG_ONE, upper=ONE) for w in range(structure.num_states)]
    for t in structure.cell_types[player]:
        b.add_integer_constraint(_type_row(fvar, t), t.den, ">=")
    for w, a in dist.items():
        b.add_objective(fvar[w], Fraction(a, dist.den))
    return b.build(maximize=False)


def oracle_battery(seeds) -> BatteryReport:
    """Simplex vs exhaustive basis enumeration on the common-prior program,
    feasibility and strictness-margin objective, exactly; the joint
    formulation vs the projected one; and the closed-form pump piece vs the
    simplex on its program, per player, for one sampled distribution. The
    structures are small (M <= 4, N <= 2) so that enumeration stays cheap."""
    return _battery(seeds, _oracle_check)


def _oracle_check(seed: int) -> CrossCheckReport:
    """The checks of ``oracle_battery`` on one seed."""
    cfg = GeneratorConfig(max_states=4, max_players=2, denominator_bound=5, seed=seed)
    structure = random_structure(cfg)
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
            lambda: f"lp={out_eps.objective_value} vertices={best}",
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
            lambda: f"player {i} p={tuple(dist)} lp={out_pump.objective_value}",
        )
    return CrossCheckReport(rec.count, tuple(rec.failures))
