"""Dense-rational oracles of the integer paths, and the LP's vertex oracle.

Distributions and payoff families carry integer numerators over one
denominator, and the hull checks, witness verification, expectations, trade
grades, pump pieces and the block walk of ``model``, ``priors`` and
``trades`` compute on ints and build one rational per result, and the
report writes trades and pumps from their integer forms. These are the
definitions they replaced, one Fraction operation per term or one
``to_json_value`` per entry, kept here as their oracles for the tests;
``off_mixture`` is the weighted-mixture check on ints that the hull rule
replaced. The full trade programs, with a budget row per state and a boxed
payoff per player and state, are the oracles of ``harness``'s trade
programs, which drop the budget rows and the last player's payoffs. The
state-level support graph, its reachability and its strongly connected
components by mutual reachability are the oracles of ``certainty``, which
reads one contracted graph. ``add_constraint`` writes a program's row in
rationals, for the tests; ``lp`` takes integer forms only.
``fraction_random_structure``, ``fraction_random_distribution``,
``fraction_planted_structure``, ``fraction_chain_structure`` and
``fraction_delete_state`` are the generators and the shrinker's state
deletion as they built types and samples before: one ``Fraction`` per mass,
through ``Distribution.from_support``, and the fallback's perturbed uniform
and the planted prior through ``Distribution``, on the same random draws.
They are the oracles of ``harness``'s types built from integer forms.

The vertex oracle of ``lp.solve`` lives here too, and reads only a
program's public fields: ``enumerate_basic_solutions`` standardizes term by
term in rationals (``standardize``), every upper bound a row, scales each
row of the system to ints once, reduces it to its rank by fraction-free
Gauss-Jordan elimination on ints (``int_row_reduce``, whose oracle is
``row_reduce`` in ``Fraction``s) and decides every candidate basis by the
same step (``basis_solution``), building rationals only for the values of
a feasible basis. It shares no standardization or
elimination with the simplex. ``oracle_battery`` runs it against the
simplex on the common-prior program, with the joint formulation
(``joint_common_prior_program``) and the pump piece's program
(``pump_piece_program``), the oracles of the projected program and of the
closed-form pump piece.
Pytest does not collect this file; the tests import it as ``oracles``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from prior_forge._rational import ONE, ZERO, rational, rational_text
from prior_forge.errors import DimensionError, SizeCapError
from prior_forge.harness import (
    REJECTION_CAP,
    BatteryReport,
    CrossCheckReport,
    GeneratorConfig,
    _add_mass_rows,
    _battery,
    _bell_numbers,
    _random_composition,
    _Recorder,
    _sample_set_partition,
    _type_row,
    common_prior_program,
    random_distribution,
    random_structure,
)
from prior_forge.lp import EQUAL, LESS, LinearProgram, LPBuilder, feasibility_violations, solve
from prior_forge.model import (
    Distribution,
    InformationStructure,
    integer_form,
    make_structure,
    state_nums,
)
from prior_forge.jsonio import type_row
from prior_forge.priors import NOTIONS, Blocks, Notion
from prior_forge.report import TRADE_FLAGS
from prior_forge.trades import TradeClassification, pump_piece


def to_json_value(q):
    """A rational as a document holds it, a plain int when integral and an
    ``"a/b"`` string otherwise, written from the ``Fraction``: the oracle of
    ``jsonio.ratio_value``."""
    if q.denominator == 1:
        return q.numerator
    return rational_text(q)


def support_graph(structure: InformationStructure) -> tuple[tuple[int, ...], ...]:
    """Per-state successor lists (sorted, deduplicated): each cell's type
    support is read once and added to every state of the cell."""
    succ: list[set[int]] = [set() for _ in range(structure.num_states)]
    for i in range(structure.num_players):
        for cell, t in zip(structure.partitions[i], structure.cell_types[i]):
            support = t.support()
            for s in cell:
                succ[s].update(support)
    return tuple(tuple(sorted(x)) for x in succ)


def reachable(adj) -> tuple[tuple[int, ...], ...]:
    """Per node, the sorted nodes it reaches in ``adj``, itself included:
    on the support graph, the oracle of ``certainty.closure``."""
    out = []
    for start in range(len(adj)):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out.append(tuple(sorted(seen)))
    return tuple(out)


def condensation(structure: InformationStructure):
    """The strongly connected components of the support graph, found as
    mutual reachability and ordered by least state, and for each the
    components its edges reach in one step."""
    adj = support_graph(structure)
    reach = [frozenset(r) for r in reachable(adj)]
    sccs = sorted({tuple(sorted(v for v in reach[w] if w in reach[v])) for w in range(len(adj))})
    comp_of = {w: k for k, comp in enumerate(sccs) for w in comp}
    successors = [
        tuple(sorted({comp_of[v] for w in comp for v in adj[w]} - {k}))
        for k, comp in enumerate(sccs)
    ]
    return sccs, successors


def add_constraint(b: LPBuilder, coeffs: dict, rel: str, rhs) -> None:
    """The row ``sum_j coeffs[j] * x_j  rel  rhs``, written in exact
    rationals, put over their least common denominator and added to ``b``
    as its integer form (``LPBuilder.add_integer_constraint``)."""
    den, nums = integer_form([*map(rational, coeffs.values()), rational(rhs)])
    b.add_integer_constraint(dict(zip(coeffs, nums)), den, rel, nums[-1])


def dense_dot(weights, values):
    """sum_k weights[k] * values[k], term by term: the exact inner product
    of two rows of rationals (or ints), for the tests' expectations and
    objective values. Production computes on integer forms and has no
    rational inner product."""
    if len(weights) != len(values):
        raise DimensionError(f"length mismatch: {len(weights)} vs {len(values)}")
    return sum((w * v for w, v in zip(weights, values) if w), ZERO)


def dense_expectation_table(
    structure: InformationStructure, payoffs: tuple[tuple, ...]
) -> tuple[tuple, ...]:
    """``dense_dot`` of every type with the player's payoff row over all M
    states, read off per state: the oracle of ``trades.classify_trade``'s
    ``expectations``."""
    table = []
    for i, f in enumerate(payoffs):
        per_cell = [dense_dot(t.probs, f) for t in structure.cell_types[i]]
        table.append(
            tuple(per_cell[structure.cell_of(i, w)] for w in range(structure.num_states))
        )
    return tuple(table)


def dense_classify_trade(structure: InformationStructure, payoffs) -> TradeClassification:
    """The flags of ``trades.classify_trade`` from rows of rationals, each
    entry coerced by ``rational``, with ``dense_expectation_table``,
    per-state ``Fraction`` column sums and the minimal components read off
    ``condensation``, the state-level graph: its oracle."""
    m = structure.num_states
    norm = tuple(tuple(map(rational, f)) for f in payoffs)
    if len(norm) != structure.num_players:
        raise DimensionError(f"{len(norm)} payoff vectors for {structure.num_players} players")
    for f in norm:
        if len(f) != m:
            raise DimensionError(f"payoff vector has {len(f)} entries, expected {m}")
    table = dense_expectation_table(structure, norm)
    is_semi, gainers = True, [0] * m
    for row in table:
        for w, e in enumerate(row):
            if e > ZERO:
                gainers[w] += 1
            elif e < ZERO:
                is_semi = False
    everyone = [k == len(norm) for k in gainers]
    sccs, successors = condensation(structure)
    bottoms = [comp for comp, out in zip(sccs, successors) if not out]  # by least state
    component = next((comp for comp in bottoms if all(everyone[w] for w in comp)), None)
    return TradeClassification(
        is_trade=all(sum((f[w] for f in norm), ZERO) <= ZERO for w in range(m)),
        is_semi_trade=is_semi,
        acceptable=is_semi and any(gainers),
        weakly_agreeable=component is not None,
        agreeable=all(everyone),
        expectation_forms=tuple(map(integer_form, table)),
        agreeable_component=component,
    )


def dense_mixture(structure: InformationStructure, player: int, weights) -> list:
    """sum_c weights[c] * type_c, state by state. Types vanish off their own
    cell and every state lies in exactly one cell, so each state's sum has
    at most one nonzero term."""
    mixed = [ZERO] * structure.num_states
    for cell, tdist, lam in zip(structure.partitions[player], structure.cell_types[player], weights):
        if lam:
            for w in cell:
                if tdist[w]:
                    mixed[w] = lam * tdist[w]
    return mixed


def off_mixture(
    structure: InformationStructure, player: int, wden: int, wnums, den: int, nums
) -> list[int]:
    """The states where sum_c (wnums[c] / wden) * type_c differs from
    nums / den, for any weights: on cell c with type b / E the mixture is
    right at w iff ``wnums[c] * den * b[w] == nums[w] * wden * E``, with
    b[w] the player's ``own_nums`` entry. At the cell masses over ``den``
    it is the oracle of ``priors._off_hull``, which cancels ``den`` and
    multiplies a cell mass by one small type numerator."""
    own = structure.own_nums(player)
    off = []
    for cell, t, u in zip(structure.partitions[player], structure.cell_types[player], wnums):
        lhs, rhs = u * den, wden * t.den
        off += [w for w in cell if lhs * own[w] != nums[w] * rhs]
    return off


def dense_hull_weights(
    structure: InformationStructure, player: int, dist: Distribution
) -> tuple | None:
    """The cell masses when their mixture of the types is ``dist``, else
    None: the oracle of ``priors.hull_weights``."""
    weights = [sum((dist[w] for w in cell), ZERO) for cell in structure.partitions[player]]
    if dense_mixture(structure, player, weights) != list(dist.probs):
        return None
    return tuple(weights)


def dense_pump_piece(
    structure: InformationStructure, player: int, dist: Distribution
) -> tuple:
    """The greedy knapsack of ``trades.pump_piece`` with rational ratios and
    a rational running constraint: its oracle."""
    f = [-ONE] * structure.num_states
    for cell, t in zip(structure.partitions[player], structure.cell_types[player]):
        need = ONE
        for w in sorted((w for w in cell if t[w]), key=lambda w: (dist[w] / t[w], w)):
            gain = 2 * t[w]
            if gain >= need:
                f[w] = need / t[w] - ONE
                break
            f[w] = ONE
            need -= gain
    return tuple(f)


def dense_walk_blocks(structure: InformationStructure) -> Blocks:
    """The walk of ``priors.blocks`` in ``Fraction`` arithmetic, one
    operation per charged state and transfer: the oracle of the walk on
    integer forms."""
    m, n = structure.num_states, structure.num_players
    types = structure.cell_types
    scale = [[None] * structure.num_cells(i) for i in range(n)]  # lambda per cell
    value: list = [None] * m  # lambda_c t_c(w), the same for every charging c
    setter: list = [None] * m  # the cell that first set value[w]
    payoffs = [[ZERO] * m for _ in range(n)]
    live, support = [], []
    total = ZERO

    def gain(cell, w):  # lambda_c t_c(w), 0 off the walked cells
        i, c = cell
        return scale[i][c] * types[i][c][w] if scale[i][c] is not None else ZERO

    def transfer(w, giver, taker, y):
        payoffs[taker[0]][w] += y
        payoffs[giver[0]][w] -= y

    for root in ((i, c) for i in range(n) for c in range(structure.num_cells(i))):
        if scale[root[0]][root[1]] is not None:
            continue
        scale[root[0]][root[1]] = ONE
        cells, states, tree, reason = [root], [], {}, None
        for cell in cells:  # the list grows while it is walked
            i, c = cell
            lam, t = scale[i][c], types[i][c]
            for w in structure.partitions[i][c]:
                if not t[w]:
                    continue
                v = lam * t[w]
                if value[w] is not None:
                    if reason is None and value[w] != v:  # a ratio cycle
                        reason = (w, cell, setter[w]) if v > value[w] else (w, setter[w], cell)
                    continue
                value[w], setter[w] = v, cell
                states.append(w)
                for j in range(n):
                    d = structure.cell_of(j, w)
                    if not types[j][d][w]:
                        if reason is None:  # a mixed charge
                            reason = (w, cell, (j, d))
                    elif scale[j][d] is None:
                        scale[j][d] = v / types[j][d][w]
                        tree[(j, d)] = (cell, w)
                        cells.append((j, d))
        live.append(reason is None)
        if reason is None:
            least = min(scale[i][c] for i, c in cells)
            for i, c in cells:
                scale[i][c] /= least
            for w in states:
                value[w] /= least
                total += value[w]
            support += states
            continue

        w, taker, giver = reason
        transfer(w, giver, taker, ONE)
        sub = dict.fromkeys(cells, ZERO)  # each subtree's gain, before the tree transfers
        sub[taker] += gain(taker, w)
        if giver in sub:
            sub[giver] -= gain(giver, w)
        share = sum(sub.values(), ZERO) / len(cells)
        size = dict.fromkeys(cells, 1)
        for cell in reversed(cells[1:]):
            parent, s = tree[cell]
            transfer(s, parent, cell, (share * size[cell] - sub[cell]) / value[s])
            size[parent] += size[cell]
            sub[parent] += sub[cell]
        for i, c in cells:  # a dead cell carries no mass
            scale[i][c] = ZERO
    prior = None
    if support:
        probs = [ZERO] * m
        for w in support:
            probs[w] = value[w] / total
        prior = Distribution(tuple(probs))
    boxed = None
    if not all(live):
        top = max(abs(v) for row in payoffs for v in row)
        # Blocks keeps the trade as integer forms too.
        boxed = tuple(integer_form([v / top for v in row]) for row in payoffs)
    return Blocks(tuple(live), prior, boxed)


def fraction_read_off(structure: InformationStructure, value: list, lives: list):
    """The read-off of ``priors._read_off`` with one ``Fraction`` per state
    and per cell and the prior built by ``Distribution(probs)``: its oracle,
    returned with the hull weights. The block totals are summed as reduced
    pairs; a live cell's lambda is its value over its type at the first
    state of its type's support."""
    if not lives:
        return None, None
    sn, sd = 0, 1
    for states, an, ad in lives:
        den = lcm(*(value[w][1] for w in states))
        num = sum(value[w][0] * (den // value[w][1]) for w in states)
        sn, sd = sn * den * an + num * ad * sd, sd * den * an
        g = gcd(sn, sd)
        sn, sd = sn // g, sd // g
    probs = [ZERO] * structure.num_states
    scale = {}  # per live state, its block's factor to the prior
    for states, an, ad in lives:
        fn, fd = ad * sd, an * sn
        for w in states:
            probs[w] = Fraction(value[w][0] * fn, value[w][1] * fd)
            scale[w] = Fraction(fn, fd)
    weights = []
    for cells in structure.cell_types:
        row = []
        for t in cells:
            w = t.support()[0]
            row.append(Fraction(*value[w]) / t[w] * scale[w] if w in scale else ZERO)
        weights.append(tuple(row))
    return Distribution(tuple(probs)), tuple(weights)


def fraction_trade_json(structure: InformationStructure, payoffs, cls: TradeClassification, table) -> dict:
    """The piece of ``report.trade_json`` with every payoff and expectation
    written by ``to_json_value`` from rows of ``Fraction``s, ``payoffs``
    and the expectation table ``table``: its oracle."""
    return {
        "payoffs": [[to_json_value(v) for v in row] for row in payoffs],
        "flags": {attr: getattr(cls, attr) for attr, _ in TRADE_FLAGS},
        "expectations": [[to_json_value(v) for v in row] for row in table],
        "agreeable_component": None
        if cls.agreeable_component is None
        else [structure.states[w] for w in cls.agreeable_component],
    }


def fraction_pump_json(dist: Distribution, payoffs, deficit, kind: str) -> dict:
    """The piece of ``report.pump_json`` with every payoff written by
    ``to_json_value`` from rows of ``Fraction``s: its oracle."""
    return {
        "dist": type_row(dist),
        "payoffs": [[to_json_value(v) for v in row] for row in payoffs],
        "deficit": to_json_value(deficit),
        "kind": kind,
    }


def _fraction_masses(support: list[int], d: int, parts: list[int]) -> dict:
    """{state: mass} of a ``harness._random_composition``, one ``Fraction``
    per support state."""
    return {s: Fraction(part, d) for s, part in zip(support, parts)}


def fraction_random_structure(cfg: GeneratorConfig) -> InformationStructure:
    """``harness.random_structure`` on the same draws, each type built from
    its ``Fraction`` masses by ``Distribution.from_support``: its oracle."""
    rng = random.Random(cfg.seed)
    m = rng.randint(1, cfg.max_states)
    n = rng.randint(1, cfg.max_players)
    bells = _bell_numbers(m)
    partitions, cell_types = [], []
    for _ in range(n):
        blocks = sorted(sorted(b) for b in _sample_set_partition(list(range(m)), rng, bells))
        partitions.append(blocks)
        cell_types.append(
            [Distribution.from_support(m, _fraction_masses(*_random_composition(b, cfg, rng))) for b in blocks]
        )
    return make_structure(
        [f"w{k + 1}" for k in range(m)], [f"P{k + 1}" for k in range(n)], partitions, cell_types
    )


def fraction_random_distribution(
    structure: InformationStructure, cfg: GeneratorConfig, notion: Notion, rng: random.Random
) -> tuple[Distribution, bool]:
    """``harness.random_distribution`` on the same draws, the kept draw
    built from its ``Fraction`` masses and the fallback's perturbed uniform
    from ``Fraction`` weights over their sum: its oracle. Returned with
    whether the fallback was taken."""
    m = structure.num_states
    for _ in range(REJECTION_CAP):
        support, d, parts = _random_composition(range(m), cfg, rng)
        marks = [1 if w in support else 0 for w in range(m)]
        if notion.charged_by(structure, marks):
            return Distribution.from_support(m, _fraction_masses(support, d, parts)), False
    weights = [1 + rng.randrange(cfg.denominator_bound + 1) for _ in range(m)]
    total = Fraction(sum(weights))
    return Distribution(tuple(Fraction(w) / total for w in weights)), True


def fraction_planted_structure(
    m: int, n: int, blocks: int, rng: random.Random
) -> tuple[InformationStructure, Distribution]:
    """``harness.planted_structure`` on the same draws, the prior one
    ``Fraction`` per state and each type that prior conditioned on its cell
    by ``Distribution.from_support``: its oracle."""
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


def fraction_chain_structure(m: int, k: int) -> InformationStructure:
    """``harness.chain_structure`` with each type a map of ``Fraction``
    masses, 1/(k+1) and k/(k+1) on a two-state cell: its oracle."""
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


def fraction_delete_state(structure: InformationStructure, state: int) -> InformationStructure | None:
    """``harness._delete_state`` with each kept type renormalized one
    ``Fraction`` per mass: its oracle."""
    keep = [w for w in range(structure.num_states) if w != state]
    index = {w: k for k, w in enumerate(keep)}
    partitions, cell_types = [], []
    for cells, types in zip(structure.partitions, structure.cell_types):
        kept_cells, kept_types = [], []
        for old, t in zip(cells, types):
            cell = [index[w] for w in old if w != state]
            if not cell:
                continue
            kept = {index[w]: a for w, a in t.items() if w != state}
            if not kept:
                return None
            mass = sum(kept.values())
            kept_cells.append(cell)
            kept_types.append({k: Fraction(a, mass) for k, a in kept.items()})
        partitions.append(kept_cells)
        cell_types.append(kept_types)
    return make_structure([structure.states[w] for w in keep], structure.players, partitions, cell_types)


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
        b.add_integer_constraint({fvar[i][w]: 1 for i in range(structure.num_players)}, 1, "<=")
    return fvar


def agreeable_trade_program(structure: InformationStructure) -> LinearProgram:
    """Payoffs f[i, w] in [-1, 1] with pointwise sum <= 0, maximizing delta,
    the worst conditional expectation over all (player, cell) pairs, at
    least 0 as f = 0 is feasible; an agreeable trade exists iff the optimum
    is strictly positive. The oracle of ``harness.agreeable_trade_program``,
    which holds no budget row and no last player's payoff."""
    b = LPBuilder()
    fvar = trade_variables(b, structure)
    delta = b.add_var("delta", lower=0, objective=ONE)
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
    The oracle of ``harness.acceptable_trade_program``, which holds no
    budget row and no last player's payoff."""
    b = LPBuilder()
    fvar = trade_variables(b, structure)
    for i in range(structure.num_players):
        for cell, t in zip(structure.partitions[i], structure.cell_types[i]):
            row = _type_row(fvar[i], t)
            b.add_integer_constraint(row, t.den, ">=")
            for var, coeff in row.items():
                b.add_objective(var, Fraction(len(cell) * coeff, t.den))
    return b.build(maximize=True)


# -- the vertex oracle -----------------------------------------------------

# Caps of the basis enumeration, whose work is combinatorial.
ORACLE_MAX_VARS = 12
ORACLE_MAX_CONSTRAINTS = 24
ORACLE_MAX_BASES = 200_000


class StdForm(NamedTuple):
    """The oracle's standard form ``A x' = b``, ``x' >= 0``, in rationals,
    term by term: every variable is shifted onto its lower bound l, x = l +
    x', so column j is variable j; the user rows come in order, then one
    ``<=`` row per finite upper bound in variable order."""

    ncols: int
    rows: list[dict]       # sparse coefficient rows, pre-negation
    row_rel: list[str]
    row_rhs: list


def standardize(lp: LinearProgram) -> StdForm:
    """``lp``'s ``StdForm``, read off its rows' ``coeffs`` and ``rhs`` and
    its ``lower`` and ``upper`` bounds."""
    rows: list[dict] = []
    row_rel: list[str] = []
    row_rhs: list = []
    for con in lp.constraints:
        rows.append(con.coeffs)
        row_rel.append(con.rel)
        row_rhs.append(con.rhs - sum((a * lp.lower[j] for j, a in con.coeffs.items()), ZERO))
    for j, up in enumerate(lp.upper):
        if up is None:
            continue
        rows.append({j: ONE})
        row_rel.append(LESS)
        row_rhs.append(up - lp.lower[j])
    return StdForm(lp.num_vars, rows, row_rel, row_rhs)


def row_reduce(dense: list[list], ncols: int) -> tuple[list[list], bool]:
    """Gauss-Jordan in rationals over the augmented matrix ``dense``, its
    ``ncols`` columns then the rhs: the reduced rows, dependent ones
    dropped, and whether the system is consistent. The oracle of
    ``int_row_reduce``, and on a square system of ``basis_solution``."""
    rows = [list(r) for r in dense]
    kept: list[list] = []
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


def dense_system(lp: LinearProgram) -> tuple[StdForm, int, list[list]]:
    """The standard form, the number of columns of its equality system (a
    slack column per inequality after the structural ones) and that
    system's augmented rows in rationals, each row's rhs last."""
    std = standardize(lp)
    ncols = std.ncols + sum(rel != EQUAL for rel in std.row_rel)
    dense: list[list] = []
    slack = std.ncols
    for row, rel, rhs in zip(std.rows, std.row_rel, std.row_rhs):
        line = [ZERO] * ncols + [rhs]
        for j, v in row.items():
            line[j] = v
        if rel != EQUAL:
            line[slack] = ONE if rel == LESS else -ONE
            slack += 1
        dense.append(line)
    return std, ncols, dense


def int_row_reduce(rows: list[list[int]], ncols: int) -> list[list[int]] | None:
    """Gauss-Jordan on the integer augmented matrix ``rows``, its ``ncols``
    columns then the rhs, by ``basis_solution``'s fraction-free step
    (Bareiss 1968), with ``row_reduce``'s choice of pivots: the first row
    left with a nonzero entry in the column. After a pivot every entry of
    every row is a minor of the pivots so far, so each update divides
    exactly by the previous pivot. The kept rows, each divided by the gcd
    of its entries, are those of ``row_reduce`` scaled by their leading
    entries; the rows left over are 0 in every column, and dropped. None
    when one of them has a nonzero rhs, so the system is inconsistent."""
    live = [list(row) for row in rows]
    kept: list[list[int]] = []
    prev = 1
    for col in range(ncols):
        p = next((i for i, row in enumerate(live) if row[col]), None)
        if p is None:
            continue
        pivot = live.pop(p)
        pk = pivot[col]
        for group in (live, kept):
            for i, row in enumerate(group):
                f = row[col]
                if f:
                    group[i] = [(pk * v - f * pv) // prev for v, pv in zip(row, pivot)]
                elif pk != prev:
                    group[i] = [pk * v // prev for v in row]
        kept.append(pivot)
        prev = pk
    if any(row[-1] for row in live):
        return None
    return [[v // g for v in row] for row in kept for g in (gcd(*row),)]


def reduced_system(lp: LinearProgram) -> tuple[StdForm, int, list[list[int]]] | None:
    """The standard form, the number of columns of its equality system and
    that system, each row scaled to ints once, reduced to its rank by
    ``int_row_reduce``; None when it is inconsistent."""
    std, ncols, dense = dense_system(lp)
    reduced = int_row_reduce([integer_form(row)[1] for row in dense], ncols)
    return None if reduced is None else (std, ncols, reduced)


def basis_solution(rows: list[list[int]], cols: Sequence[int]) -> tuple[int, list[int]] | None:
    """The basic solution of the integer system ``rows`` (each row's last
    entry its rhs, as many rows as ``cols``) on the columns ``cols``, the
    others fixed at 0, by fraction-free Gauss-Jordan elimination (Bareiss
    1968): after step k every entry is a minor of order k + 1, so each
    update divides exactly by the previous pivot, and every diagonal entry
    is the latest pivot. None when the columns are singular, else
    ``(d, nums)`` with d > 0 and ``nums[k] / d`` the value of column
    ``cols[k]``."""
    r = len(cols)
    a = [[row[c] for c in cols] + [row[-1]] for row in rows]
    prev = 1
    for k in range(r):
        # Each row holds its entries from column k on, then the rhs: an
        # earlier column is 0 in it, or its diagonal, which is ``prev``.
        p = next((i for i in range(k, r) if a[i][0]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        pivot = a[k]
        pk = pivot[0]
        for i, row in enumerate(a):
            if i == k:
                continue
            f = row[0]
            if f:
                row = [(pk * v - f * pv) // prev for v, pv in zip(row, pivot)]
            elif pk != prev:
                row = [pk * v // prev for v in row]
            del row[0]
            a[i] = row
        del pivot[0]
        prev = pk
    nums = [row[0] for row in a]
    return (prev, nums) if prev > 0 else (-prev, [-v for v in nums])


def enumerate_basic_solutions(lp: LinearProgram) -> tuple[tuple, ...]:
    """All basic feasible solutions of the standardized system, mapped back to
    original variables (x = l + x'), deduplicated and sorted.

    For a pointed feasible region this is exactly the vertex set. Brute force
    by construction: every size-rank column subset of the system reduced on
    ints (``reduced_system``) is decided by ``basis_solution``, the empty
    one at rank 0, whose solution is the origin. Rationals are built
    only for the values of a feasible basis. Raises ``SizeCapError`` when
    the instance exceeds the caps.
    """
    if lp.num_vars > ORACLE_MAX_VARS:
        raise SizeCapError(f"{lp.num_vars} variables exceeds oracle cap {ORACLE_MAX_VARS}")
    if len(lp.constraints) > ORACLE_MAX_CONSTRAINTS:
        raise SizeCapError(
            f"{len(lp.constraints)} constraints exceeds oracle cap {ORACLE_MAX_CONSTRAINTS}"
        )
    system = reduced_system(lp)
    if system is None:
        return ()
    std, ncols, reduced = system
    rank = len(reduced)
    if comb(ncols, rank) > ORACLE_MAX_BASES:
        raise SizeCapError(
            f"C({ncols},{rank}) basis combinations exceed oracle cap {ORACLE_MAX_BASES}"
        )
    seen = set()
    for cols in combinations(range(ncols), rank):
        solved = basis_solution(reduced, cols)
        if solved is None or min(solved[1], default=0) < 0:
            continue  # singular, or infeasible
        d, nums = solved
        solution = list(map(Fraction, lp.lower))
        for c, n in zip(cols, nums):
            if n and c < std.ncols:
                solution[c] += Fraction(n, d)
        seen.add(tuple(solution))
    return tuple(sorted(seen))


# -- the LP oracle battery -------------------------------------------------


def joint_common_prior_program(structure: InformationStructure) -> LinearProgram:
    """The common priors as a joint program over (p, lambda per player and
    cell, epsilon): p matches every player's mixture of cell types, every
    cell's mass dominates epsilon, epsilon is maximized. The same decision
    and optimum as ``harness.common_prior_program``, which drops the lambda
    columns because the hull weights are forced to be the cell masses: that
    projection's oracle."""
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
    eps = b.add_var("eps", lower=0, objective=ONE)
    for i in range(structure.num_players):
        held: list[list] = [[] for _ in range(m)]  # per state, every type that charges it
        for v, t in enumerate(structure.cell_types[i]):
            for w, a in t.items():
                held[w].append((v, t.den, a))
        for w in range(m):
            den = lcm(*(d for _, d, _ in held[w]))
            row = {p_vars[w]: den}
            for v, d, a in held[w]:
                row[lam_vars[i][v]] = -a * (den // d)
            b.add_integer_constraint(row, den, "=")
        b.add_integer_constraint(dict.fromkeys(lam_vars[i], 1), 1, "=", 1)
    _add_mass_rows(b, structure, p_vars, eps)
    return b.build(maximize=True)


def pump_piece_program(
    structure: InformationStructure, player: int, dist: Distribution
) -> LinearProgram:
    """The program ``trades.pump_piece`` solves in closed form: one player's
    payoff in [-1, 1] per state, a non-negative conditional expectation at
    every cell, the p-expectation minimized. That closed form's oracle."""
    b = LPBuilder()
    fvar = [b.add_var(f"f[{w}]", lower=-1, upper=1) for w in range(structure.num_states)]
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
    p_nums = state_nums(dist)
    for i in range(structure.num_players):
        den, nums = piece = pump_piece(structure, i, p_nums)
        program = pump_piece_program(structure, i, dist)
        out_pump = solve(program)
        rec.check(
            "oracle: closed-form pump piece is feasible and LP-optimal",
            not feasibility_violations(program, piece)
            and out_pump.status == "optimal"
            and out_pump.objective_value == Fraction(sum(map(mul, nums, p_nums)), den * dist.den),
            lambda: f"player {i} p={tuple(dist)} lp={out_pump.objective_value}",
        )
    return CrossCheckReport(rec.count, tuple(rec.failures))
