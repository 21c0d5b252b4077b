"""Random instance generation and the executable-theorem battery.

The six dualities this package implements are exactly-one statements: a
notion holds or its dual witness exists, never both, never neither. That
makes them ideal property tests, because both sides are computed by
independent code paths and any disagreement is a bug somewhere. cross_check
runs all six on one structure, together with the single-player theory on
every player's marginal view and the commonly-certain reformulations of the
trade grades. Production reads every refuting trade off the common-prior
program (its Farkas certificate or its optimal duals), and decides the
strong prior in closed form without it; cross_check solves the trade LPs
that production no longer runs and requires the same decisions from them,
and it solves the common-prior program wherever the closed form found a
strong prior, which must be that program's optimum. The joint common-prior
formulation, with explicit hull weights, is the oracle of the projected
program in ``oracle_battery``.

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
from functools import lru_cache
from typing import Iterator, Sequence

from ._rational import ONE, ZERO, rational
from .certainty import (
    closure,
    is_commonly_certain,
    is_maximal,
    is_strongly_maximal,
    minimal_components,
)
from .errors import InputError, PriorForgeError, VerificationError
from .lp import (
    LinearProgram,
    LPBuilder,
    enumerate_basic_solutions,
    feasibility_violations,
    solve,
)
from .model import (
    Distribution,
    InformationStructure,
    dot,
    forward_closed,
    make_structure,
    single_player_view,
)
from .priors import (
    _solve_common,
    classify_prior,
    common_prior_program,
    component_substructures,
    disintegrable_by_definition,
    distinct_cell_sets,
    find_common_prior,
    find_strong_common_prior,
    find_universal_common_prior,
    hull_weights,
    is_conglomerable,
    is_disintegrable,
    strong_prior,
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


@lru_cache(maxsize=None)
def _bell(n: int) -> int:
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k) * _bell(k) for k in range(n))


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
    remaining = [x for x in rest if x not in set(mates)]
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


def _random_masses(states: Sequence[int], size: int, cfg: GeneratorConfig, rng: random.Random) -> list:
    """Masses over ``size`` states summing to 1 on a thinned, never empty,
    subset of ``states``: a uniform composition of a random denominator."""
    support = [s for s in states if not _drop(rng)]
    if not support:
        support = [states[rng.randrange(len(states))]]
    k = len(support)
    d = rng.randint(k, max(cfg.denominator_bound, k))
    parts = _positive_composition(d, k, rng)
    masses = [ZERO] * size
    dq = rational(d)
    for s, part in zip(support, parts):
        masses[s] = rational(part) / dq
    return masses


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
            [_random_masses(b, m, cfg, rng) for b in blocks]
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
            row = [ZERO] * m
            for w in cell:
                row[w] = prior[w] / mass
            rows.append(row)
        partitions.append(cells)
        cell_types.append(rows)
    structure = make_structure(
        [f"w{k + 1}" for k in range(m)], [f"P{k + 1}" for k in range(n)], partitions, cell_types
    )
    return structure, Distribution(tuple(prior))


def random_distribution(
    structure: InformationStructure,
    cfg: GeneratorConfig,
    constraint: str,
    rng: random.Random,
) -> Distribution:
    """Rejection-samples a distribution satisfying the constraint; after the
    attempt cap falls back to a perturbed uniform, which always qualifies."""
    if constraint not in ("any", "maximal", "strongly_maximal"):
        raise PriorForgeError(f"unknown constraint {constraint!r}")
    m = structure.num_states
    for _ in range(REJECTION_CAP):
        dist = Distribution(tuple(_random_masses(range(m), m, cfg, rng)))
        if constraint == "any":
            return dist
        if constraint == "maximal" and is_maximal(structure, dist):
            return dist
        if constraint == "strongly_maximal" and is_strongly_maximal(structure, dist):
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
    agreeable trade exists iff the optimum is strictly positive. Production
    reads the trade off the common-prior program's Farkas certificate
    instead; this program is that path's oracle."""
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
    The oracle of the trades production reads off the common-prior
    program's certificate and optimal duals."""
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
    and optimum as ``priors.common_prior_program``, which drops the lambda
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


def _check_trade_oracles(rec: _Recorder, structure, priors, trades) -> None:
    """Each trade LP decides its duality again, and must agree with both the
    prior finder and the trade finder; production solves none of them. Each
    runs at most once per (sub)structure: the agreeable one on the structure
    and on the components the universal finder solved, the acceptable one on
    the structure."""
    common, universal, strong = priors
    agree, weak, accept = trades
    agreeable = _trade_program_decides(agreeable_trade_program(structure))
    # Components in the finders' order, up to the first that has a trade.
    weakly = False
    for _, sub in component_substructures(structure):
        if sub is structure:
            weakly = agreeable
        else:
            weakly = _trade_program_decides(agreeable_trade_program(sub))
        if weakly:
            break
    acceptable = _trade_program_decides(acceptable_trade_program(structure))
    for claim, decided, prior, prior_name, trade, trade_name in (
        ("agreeable program matches", agreeable, common, "common", agree, "agreeable"),
        ("component agreeable programs match", weakly, universal, "universal", weak, "weakly agreeable"),
        ("acceptable program matches", acceptable, strong, "strong", accept, "acceptable"),
    ):
        rec.check(f"oracle: {claim} the {prior_name} prior", decided == (prior is None))
        rec.check(f"oracle: {claim} the {trade_name} trade", decided == (trade is not None))


def _check_strong_closed_form(rec: _Recorder, structure: InformationStructure) -> None:
    """The closed-form strong prior must be the margin program's optimum, on
    the structure and on the components the finders walked: in order, up to
    the first with no common prior. Where the closed form found a prior, the
    program is solved here, as production no longer does; elsewhere
    production solved it, and its memoized outcome must be infeasible or
    have margin 0."""
    subs = [sub for _, sub in component_substructures(structure) if sub is not structure]
    for sub in (structure, *subs):
        closed = strong_prior(sub)
        if closed is None:
            outcome = _solve_common(sub)
            ok = outcome.status == "infeasible" or outcome.objective_value == ZERO
        else:
            outcome = solve(common_prior_program(sub))
            ok = outcome.status == "optimal" and (
                tuple(outcome.primal[: sub.num_states]), outcome.objective_value
            ) == (closed[0].probs, closed[1])
        rec.check(
            "oracle: closed-form strong prior equals the margin program's optimum",
            ok,
            "" if ok else f"states {sub.states}: closed form {closed}, program {outcome}",
        )
        if sub is not structure and outcome.status == "infeasible":
            break


def cross_check(
    structure: InformationStructure,
    sample_count: int = 2,
    cfg: GeneratorConfig | None = None,
    minimize: bool = True,
) -> CrossCheckReport:
    """All six exactly-one dualities, the presence chains, the single-player
    theory on each player's view, and the commonly-certain reformulations,
    on one structure. Deterministic: sampling is seeded by a content digest.
    The distribution-level checks run on one maximal, one strongly maximal
    and max(sample_count, 1) unconstrained samples."""
    if sample_count < 0:
        raise InputError(f"sample count must be non-negative, got {sample_count}")
    if cfg is None:
        cfg = GeneratorConfig()
    rec = _Recorder()
    rng = random.Random(structure_digest(structure))

    common = universal = strong = None
    agree = weak = accept = None
    with rec.guard("prior finders"):
        common = find_common_prior(structure)
        universal = find_universal_common_prior(structure)
        strong = find_strong_common_prior(structure)
    with rec.guard("trade finders"):
        agree = find_agreeable_trade(structure)
        weak = find_weakly_agreeable_trade(structure)
        accept = find_acceptable_trade(structure)

    rec.check(
        "duality: common prior xor agreeable trade",
        (common is None) != (agree is None),
    )
    rec.check(
        "duality: universal prior xor weakly agreeable trade",
        (universal is None) != (weak is None),
    )
    rec.check(
        "duality: strong prior xor acceptable trade",
        (strong is None) != (accept is None),
    )
    rec.check(
        "chain: strong => universal => common",
        (strong is None or universal is not None)
        and (universal is None or common is not None),
    )
    rec.check(
        "chain: agreeable => weakly => acceptable (synthesized)",
        (agree is None or weak is not None)
        and (weak is None or accept is not None),
    )
    for witness, name in ((common, "common"), (universal, "universal"), (strong, "strong")):
        if witness is not None:
            with rec.guard(f"{name} prior witness re-verifies"):
                witness.verify(structure)
    if universal is not None:
        rec.check("universal witness is maximal", is_maximal(structure, universal.prior))
    if strong is not None:
        rec.check(
            "strong witness is strongly maximal",
            is_strongly_maximal(structure, strong.prior),
        )
    for trade, label in ((agree, "agreeable"), (weak, "weakly"), (accept, "acceptable")):
        if trade is not None:
            _check_trade_forms(rec, structure, trade.payoffs, f"synthesized {label}")
    with rec.guard("oracle: trade programs"):
        _check_trade_oracles(rec, structure, (common, universal, strong), (agree, weak, accept))
    with rec.guard("oracle: closed-form strong prior"):
        _check_strong_closed_form(rec, structure)

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

    # Distribution-level dualities on sampled distributions.
    samples = [
        (random_distribution(structure, cfg, "any", rng), "any"),
        (random_distribution(structure, cfg, "maximal", rng), "maximal"),
        (random_distribution(structure, cfg, "strongly_maximal", rng), "strongly_maximal"),
    ]
    for _ in range(sample_count - 1):
        samples.append((random_distribution(structure, cfg, "any", rng), "any"))
    sample_pumps = []
    for dist, kind in samples:
        cls = classify_prior(structure, dist)
        pump = None
        with rec.guard("pump finder"):
            pump = find_multiplayer_money_pump(structure, dist)
        sample_pumps.append(pump)
        rec.check(
            "duality: common prior xor money pump",
            cls.common != (pump is not None),
            f"p={tuple(dist)} kind={kind}",
        )
        if pump is not None:
            with rec.guard("pump witness re-verifies"):
                pump.verify(structure)
        if kind == "maximal":
            rec.check("sampled maximal is maximal", cls.maximal)
            rec.check(
                "duality: universal prior xor universal pump (maximal p)",
                cls.universal != (pump is not None and cls.maximal),
                f"p={tuple(dist)}",
            )
        if kind == "strongly_maximal":
            rec.check("sampled strongly maximal is strongly maximal", cls.strongly_maximal)
            rec.check(
                "duality: strong prior xor strong pump (strongly maximal p)",
                cls.strong != (pump is not None and cls.strongly_maximal),
                f"p={tuple(dist)}",
            )
        # When no common prior exists anywhere, every distribution pumps.
        if common is None:
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
            if disintegrable:
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
    return CrossCheckReport(structure, rec.count, tuple(rec.failures), minimized)


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
        dist = random_distribution(structure, cfg, "any", random.Random(seed))
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
