"""Dense-rational oracles of the integer paths.

Distributions carry integer numerators over one denominator, and the hull
checks, witness verification, expectations, pump pieces and the block walk
of ``model``, ``priors`` and ``trades`` compute on ints and build one
rational per result. These are the definitions they replaced, one Fraction
operation per term, kept here as their oracles for the tests. Pytest does
not collect this file; the tests import it as ``oracles``.
"""

from __future__ import annotations

from prior_forge._rational import ONE, ZERO
from prior_forge.errors import DimensionError
from prior_forge.model import Distribution, InformationStructure
from prior_forge.priors import Blocks


def dense_dot(weights, values):
    """sum_k weights[k] * values[k], term by term: the oracle of ``model.dot``."""
    if len(weights) != len(values):
        raise DimensionError(f"length mismatch: {len(weights)} vs {len(values)}")
    return sum((w * v for w, v in zip(weights, values) if w), ZERO)


def dense_expectation_table(
    structure: InformationStructure, payoffs: tuple[tuple, ...]
) -> tuple[tuple, ...]:
    """``dense_dot`` of every type with the player's payoff row over all M
    states, read off per state: the oracle of ``model.expectation_table``."""
    table = []
    for i, f in enumerate(payoffs):
        per_cell = [dense_dot(t.probs, f) for t in structure.cell_types[i]]
        table.append(
            tuple(per_cell[structure.cell_of(i, w)] for w in range(structure.num_states))
        )
    return tuple(table)


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
    prior = weights = None
    if support:
        probs = [ZERO] * m
        for w in support:
            probs[w] = value[w] / total
        prior = Distribution(tuple(probs))
        weights = tuple(tuple(lam / total for lam in row) for row in scale)
    boxed = None
    if not all(live):
        top = max(abs(v) for row in payoffs for v in row)
        boxed = tuple(tuple(v / top for v in row) for row in payoffs)
    margin = ONE / total if all(live) else ZERO
    return Blocks(tuple(live), frozenset(support), prior, weights, margin, boxed)
