"""Prior notions for single players and groups.

Single-player side: disintegrability (the generalized law of total
probability) and conglomerability (every event's probability sandwiched
between the extreme posteriors). Group side: the three common-prior notions,
ordered strong => universal => common, each decided exactly and returned with
a hull-weight witness that reconstructs the prior by re-multiplication.

A structural fact does most of the work here: types are supported inside
their own cells, so distinct cells of one player always carry distinct types,
and the convex weight of each type in any hull representation of p is forced
to be the mass p puts on that type's cell. Hull membership therefore reduces
to one exact linear identity per state, which also makes the set of common
priors a polytope in p alone.

Every group verdict comes from one walk over linked cell blocks
(``blocks``): on each cell p is its mass times the cell's type, so p is
fixed up to one scalar per block of cells linked through the states they
charge, and a block can carry mass or not. Which blocks are live decides all
three notions, gives one canonical prior and, where a notion fails, one
refuting trade. No LP is solved; the common-prior program stays in
``harness`` as the walk's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import ONE, ZERO, Rational
from .certainty import is_maximal, is_strongly_maximal, minimal_components
from .errors import (
    DimensionError,
    PlayerCountError,
    SizeCapError,
    VerificationError,
)
from .model import Distribution, InformationStructure, integer_form

EVENT_CAP = 24  # exhaustive event enumeration refuses beyond this many states
DEFINITION_CAP = 20  # the same for the definitional disintegrability oracle


@dataclass(frozen=True)
class PriorWitness:
    """A prior plus, per player, convex weights over that player's cells
    expressing it as a mixture of the cells' types."""

    prior: Distribution
    hull_weights: tuple[tuple, ...]

    def verify(self, structure: InformationStructure) -> None:
        """Exact re-multiplication; raises VerificationError on any defect.
        The prior need not be a ``Distribution``: a plain tuple of rationals
        is checked the same way."""
        if len(self.hull_weights) != structure.num_players:
            raise VerificationError("witness has wrong number of weight vectors")
        if len(self.prior) != structure.num_states:
            raise VerificationError("witness prior has wrong dimension")
        prior = self.prior
        if isinstance(prior, Distribution):
            den, nums = prior.den, prior.nums
        else:
            den, nums = integer_form(prior)
        for i in range(structure.num_players):
            weights = self.hull_weights[i]
            if len(weights) != structure.num_cells(i):
                raise VerificationError(f"player {i} weight vector has wrong length")
            wden, wnums = integer_form(weights)
            if any(u < 0 for u in wnums):
                raise VerificationError(f"player {i} has a negative hull weight")
            if sum(wnums) != wden:
                raise VerificationError(f"player {i} hull weights do not sum to 1")
            off = _off_mixture(structure, i, wden, wnums, den, nums)
            if off:
                raise VerificationError(
                    f"player {i} weights fail to reconstruct the prior at state {min(off)}"
                )


@dataclass(frozen=True)
class PriorClassification:
    prior_for_player: tuple[bool, ...]
    hull_weights: tuple[tuple | None, ...]  # per player, None outside the hull
    common: bool
    maximal: bool
    strongly_maximal: bool
    universal: bool
    strong: bool


def _check_single_player(structure: InformationStructure) -> None:
    if structure.num_players != 1:
        raise PlayerCountError(
            f"operation needs exactly one player, structure has {structure.num_players}"
        )


def _check_dimension(structure: InformationStructure, dist: Distribution) -> None:
    if len(dist) != structure.num_states:
        raise DimensionError(
            f"distribution has {len(dist)} entries, structure has {structure.num_states} states"
        )


def hull_weights(
    structure: InformationStructure, player: int, dist: Distribution
) -> tuple | None:
    """Convex weights over the player's cells reconstructing dist from the
    cells' types, or None when dist is outside the hull. Weights are forced
    to be the cell masses, so this is a direct exact check, not a search."""
    _check_dimension(structure, dist)
    den, nums = dist.den, dist.nums
    masses = [sum(nums[w] for w in cell) for cell in structure.partitions[player]]
    if _off_mixture(structure, player, den, masses, den, nums):
        return None
    return tuple(Rational(a, den) for a in masses)


def _off_mixture(
    structure: InformationStructure, player: int, wden: int, wnums, den: int, nums
) -> list[int]:
    """The states where sum_c (wnums[c] / wden) * type_c differs from
    nums / den. Types vanish off their own cell and every state lies in
    exactly one cell, so on cell c with type b / E the mixture is right at w
    iff wnums[c] * den * b[w] == nums[w] * wden * E: ints only."""
    off = []
    for cell, t, u in zip(structure.partitions[player], structure.cell_types[player], wnums):
        lhs, rhs, b = u * den, wden * t.den, t.nums
        off += [w for w in cell if lhs * b[w] != nums[w] * rhs]
    return off


def is_disintegrable(
    structure: InformationStructure, dist: Distribution
) -> tuple[bool, tuple | None]:
    """Single-player: does dist disintegrate over the partition via the type
    function? Equivalent to membership in the convex hull of the types."""
    _check_single_player(structure)
    weights = hull_weights(structure, 0, dist)
    return (weights is not None), weights


def is_conglomerable(
    structure: InformationStructure, dist: Distribution
) -> tuple[bool, tuple[int, ...] | None]:
    """Single-player sandwich property: for every proper non-empty event E,
    min_cell t(E) <= dist(E) <= max_cell t(E). Exhaustive over all 2^M - 2
    events (a Gray-code walk keeps the running sums incremental); returns a
    violating event when the answer is no."""
    _check_single_player(structure)
    _check_dimension(structure, dist)
    m = structure.num_states
    if m > EVENT_CAP:
        raise SizeCapError(f"{m} states exceeds the event enumeration cap {EVENT_CAP}")
    cell_dists = structure.cell_types[0]
    p_e = ZERO
    t_e = [ZERO] * len(cell_dists)
    full = (1 << m) - 1
    prev = 0
    for k in range(1, 1 << m):
        gray = k ^ (k >> 1)
        bit = (gray ^ prev).bit_length() - 1
        if gray & (1 << bit):
            p_e += dist[bit]
            for c, td in enumerate(cell_dists):
                if td[bit]:
                    t_e[c] += td[bit]
        else:
            p_e -= dist[bit]
            for c, td in enumerate(cell_dists):
                if td[bit]:
                    t_e[c] -= td[bit]
        prev = gray
        if gray == full:
            continue
        if p_e < min(t_e) or p_e > max(t_e):
            event = tuple(s for s in range(m) if gray & (1 << s))
            return False, event
    return True, None


def disintegrable_by_definition(structure: InformationStructure, dist: Distribution) -> bool:
    """The literal product identity p(E n cell) == t_cell(E) * p(cell) over
    every event and cell. Exponential; exists purely as an independent oracle
    for the closed-form test above."""
    _check_single_player(structure)
    _check_dimension(structure, dist)
    m = structure.num_states
    if m > DEFINITION_CAP:
        raise SizeCapError(f"{m} states exceeds the event enumeration cap {DEFINITION_CAP}")
    cells, types = structure.partitions[0], structure.cell_types[0]
    cell_mass = [dist.mass(cell) for cell in cells]
    for mask in range(1, 1 << m):
        event = [s for s in range(m) if mask & (1 << s)]
        for c, cell in enumerate(cells):
            inter = sum((dist[s] for s in event if s in cell), ZERO)
            t_event = sum((types[c][s] for s in event), ZERO)
            if inter != t_event * cell_mass[c]:
                return False
    return True


# -- linked cell blocks -----------------------------------------------------


@dataclass(frozen=True)
class Blocks:
    """The structure's linked cell blocks, walked once: a live flag per
    block in walk order, the states live blocks charge, the canonical prior
    with its least cell mass, and the one refuting trade. ``prior`` is None
    when no block is live, ``payoffs`` when every block is."""

    live: tuple[bool, ...]
    support: frozenset[int]
    prior: Distribution | None
    margin: Rational
    universal: bool
    payoffs: tuple[tuple, ...] | None

    @property
    def common(self) -> bool:
        return any(self.live)

    @property
    def strong(self) -> bool:
        return all(self.live)


def blocks(structure: InformationStructure) -> Blocks:
    """Every prior verdict and the one refuting trade, from the cycle
    condition on posteriors (Rodrigues-Neto 2009); memoized on the
    structure.

    On player i's cell c a common prior is p = lambda_c * t_c, lambda_c the
    cell's mass, so a state w charged by cells c and d forces lambda_c t_c(w)
    = lambda_d t_d(w). Link cells through the states they charge. Linked
    cells are all empty or all charged, and a block can be charged (is
    live) iff every state its cells charge is charged by every player's
    cell there (no mixed charge) and the forced ratios agree around every
    cycle. The equations never cross blocks, so the common priors are the
    mixtures of one normalized q_K per live block K: a common prior exists
    iff some block is live, a universal one iff the live blocks' states
    meet every minimal component, a strong one iff every block is live.

    The canonical prior scales each live block so that its least cell has
    mass 1 and normalizes the sum. It charges every live cell, so it
    witnesses each notion that holds; with every block live it is the
    unique maximizer of the least cell mass, which is then ``margin``, 1
    over the total, and otherwise 0.

    The refuting trade sums one transfer family per dead block, built from
    the first reason the walk finds it dead, at state w. Mixed charge: the
    charging cell's owner takes 1 at w from the player whose cell does not
    charge w. Ratio cycle: the cell whose lambda_c t_c(w) is the larger
    takes 1 at w from the other. Either way the block's cells gain S > 0 in
    sum, a cell's gain being lambda_c times its expectation. Each cell then
    takes its subtree's shortfall against S / |K| across the tree edge
    (parent cell, state s) that fixed its lambda: a transfer y at s moves y
    times p's value at s from the parent's gain to the child's. Every
    payoff column sums to 0, every dead cell expects strictly more than 0
    and every live cell exactly 0, so boxed into [-1, 1] the trade is
    acceptable whenever a block is dead, agreeable iff none is live, and
    weakly agreeable iff some minimal component meets no live block
    (Samet 1998)."""
    return structure.derived("blocks", _walk_blocks)


def _walk_blocks(structure: InformationStructure) -> Blocks:
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
    prior = None
    if support:
        probs = [ZERO] * m
        for w in support:
            probs[w] = value[w] / total
        prior = Distribution(tuple(probs))
    charged = frozenset(support)
    universal = prior is not None and all(
        not charged.isdisjoint(comp) for comp in minimal_components(structure)
    )
    boxed = None
    if not all(live):
        top = max(abs(v) for row in payoffs for v in row)
        boxed = tuple(tuple(v / top for v in row) for row in payoffs)
    margin = ONE / total if all(live) else ZERO
    return Blocks(tuple(live), charged, prior, margin, universal, boxed)


def find_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """The canonical prior of ``blocks`` with hull weights, or None when no
    block is live; built and verified once per structure."""
    return structure.derived("witness", _canonical_witness)


def _canonical_witness(structure: InformationStructure) -> PriorWitness | None:
    prior = blocks(structure).prior
    if prior is None:
        return None
    weight_rows = []
    for i in range(structure.num_players):
        weights = hull_weights(structure, i, prior)
        if weights is None:
            raise VerificationError(
                f"claimed common prior is outside player {i}'s type hull"
            )
        weight_rows.append(weights)
    witness = PriorWitness(prior, tuple(weight_rows))
    witness.verify(structure)
    return witness


def find_strong_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """The canonical prior when every block is live: it charges every cell."""
    if not blocks(structure).strong:
        return None
    witness = find_common_prior(structure)
    if not is_strongly_maximal(structure, witness.prior):
        raise VerificationError("strong prior witness misses a cell")
    return witness


def find_universal_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """The canonical prior when the live blocks' states meet every minimal
    component: it charges every state of every live block."""
    if not blocks(structure).universal:
        return None
    witness = find_common_prior(structure)
    if not is_maximal(structure, witness.prior):
        raise VerificationError("universal prior witness misses a component")
    return witness


def classify_prior(
    structure: InformationStructure, dist: Distribution
) -> PriorClassification:
    """Exact flags for a given distribution: per-player hull membership plus
    the positivity grades that upgrade a common prior to universal/strong."""
    _check_dimension(structure, dist)
    rows = tuple(hull_weights(structure, i, dist) for i in range(structure.num_players))
    per_player = tuple(row is not None for row in rows)
    common = all(per_player)
    maximal = is_maximal(structure, dist)
    strongly = is_strongly_maximal(structure, dist)
    return PriorClassification(
        prior_for_player=per_player,
        hull_weights=rows,
        common=common,
        maximal=maximal,
        strongly_maximal=strongly,
        universal=common and maximal,
        strong=common and strongly,
    )
