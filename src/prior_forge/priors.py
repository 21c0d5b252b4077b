"""Prior notions for single players and groups.

Single-player side: disintegrability (the generalized law of total
probability) and conglomerability (every event's probability sandwiched
between the extreme posteriors). Group side: the three common-prior notions,
ordered strong => universal => common, each decided exactly and returned with
its prior as the witness, which every player's hull reconstructs by
re-multiplication.

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

A prior witness is its prior: ``PriorWitness`` holds ``prior`` alone, and
the renderings read the hull weights off it as cell masses. One rule,
``_off_hull``, decides hull membership (``hull_form``, ``classify_prior``,
``is_disintegrable``) and verifies a witness, a big cell mass times a small
type numerator per state. ``hull_weights`` is ``hull_form``'s row of
``Fraction``s, a view that nothing on the decision path reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterator, NamedTuple

from ._rational import ZERO
from .certainty import check_dimension, is_maximal, is_strongly_maximal
from .errors import PlayerCountError, SizeCapError, VerificationError
from .model import (
    Distribution,
    Frozen,
    InformationStructure,
    check_index,
    fraction_rows,
    lowest_terms,
    state_nums,
)

EVENT_CAP = 24  # exhaustive event enumeration refuses beyond this many states
DEFINITION_CAP = 20  # the same for the definitional disintegrability oracle


class Notion(Frozen):
    """A common-prior notion: JSON key, text label, what its prior must
    charge beyond being common (None: nothing more), the flag of the trade
    grade that refutes it, and the kind of the money pump that matches it.
    Frozen, and equal, hashed and shown by those five fields."""

    _fields = ("key", "label", "charges", "trade", "pump")
    key: str
    label: str
    charges: Callable[[InformationStructure, Distribution], bool] | None
    trade: str
    pump: str

    def __init__(self, key, label, charges, trade, pump) -> None:
        vars(self).update(key=key, label=label, charges=charges, trade=trade, pump=pump)

    def charged_by(self, structure: InformationStructure, dist: Distribution) -> bool:
        """Whether ``dist`` charges what the notion asks of its prior."""
        return self.charges is None or self.charges(structure, dist)


# The three notions, strongest refuting trade first (Samet 1998).
NOTIONS = (
    Notion("common", "common prior", None, "agreeable", "plain"),
    Notion("universal", "universal common prior", is_maximal, "weakly_agreeable", "universal"),
    Notion("strong", "strong common prior", is_strongly_maximal, "acceptable", "strong"),
)


class PriorWitness(NamedTuple):
    """A common prior. Each player's hull weights, the convex weights over
    its cells that mix the cells' types into the prior, are forced to be
    the prior's cell masses, so the prior is the whole certificate."""

    prior: Distribution

    def verify(self, structure: InformationStructure) -> None:
        """The hull rule ``_off_hull`` for every player, at the prior's cell
        masses; raises VerificationError on any defect."""
        if len(self.prior) != structure.num_states:
            raise VerificationError("witness prior has wrong dimension")
        nums = state_nums(self.prior)
        for i in range(structure.num_players):
            off = _off_hull(structure, i, nums)
            if off:
                raise VerificationError(
                    f"player {i} weights fail to reconstruct the prior at state {min(off)}"
                )


class PriorClassification(NamedTuple):
    """Per-player hull membership of a distribution and its charge grades."""

    prior_for_player: tuple[bool, ...]
    common: bool
    maximal: bool
    strongly_maximal: bool

    # A common prior's grades, read off the stored flags.
    universal = property(lambda self: self.common and self.maximal)
    strong = property(lambda self: self.common and self.strongly_maximal)


def check_single_player(structure: InformationStructure) -> None:
    if structure.num_players != 1:
        raise PlayerCountError(
            f"operation needs exactly one player, structure has {structure.num_players}"
        )


def cell_masses(structure: InformationStructure, player: int, nums) -> tuple[int, ...]:
    """Per cell of the player, the sum of ``nums`` over it: a distribution's
    cell masses over its ``den``, with ``nums`` its numerators."""
    get = nums.__getitem__
    return tuple([sum(map(get, cell)) for cell in structure.partitions[player]])


def hull_form(
    structure: InformationStructure, player: int, dist: Distribution
) -> tuple[int, tuple[int, ...]] | None:
    """The player's convex weights over its cells reconstructing dist from
    the cells' types, as ``(dist.den, masses)``, or None when dist is
    outside the hull. Weights are forced to be the cell masses, so this is
    ``_off_hull``, a direct exact check on ints, not a search."""
    check_index("player", player, structure.num_players)
    check_dimension(structure, dist)
    nums = state_nums(dist)
    if _off_hull(structure, player, nums):
        return None
    return dist.den, cell_masses(structure, player, nums)


def hull_weights(
    structure: InformationStructure, player: int, dist: Distribution
) -> tuple | None:
    """``hull_form`` as a row of ``Fraction``s, or None outside the hull."""
    return fraction_rows((hull_form(structure, player, dist),))[0]


def _off_hull(structure: InformationStructure, player: int, nums) -> list[int]:
    """The states where p = nums / den is not the mixture of the player's
    types at p's cell masses. Types vanish off their own cell, so on cell c
    with type b / E that mixture is right at w iff ``mass_c * b[w] ==
    nums[w] * E``, mass_c the sum of nums over c and b[w] the player's
    ``own_nums`` entry: den cancels. A plain loop, as cells are small."""
    own, masses = structure.own_nums(player), cell_masses(structure, player, nums)
    off = []
    for cell, t, mass in zip(structure.partitions[player], structure.cell_types[player], masses):
        e = t.den
        for w in cell:
            if mass * own[w] != nums[w] * e:
                off.append(w)
    return off


def is_disintegrable(
    structure: InformationStructure, dist: Distribution
) -> tuple[bool, tuple[int, tuple[int, ...]] | None]:
    """Single-player: does dist disintegrate over the partition via the type
    function? Equivalent to membership in the convex hull of the types.
    Returns the answer and the hull weights, the cell masses, as
    ``hull_form``'s integer form ``(den, masses)`` in lowest terms, or None
    when dist does not disintegrate."""
    check_single_player(structure)
    form = hull_form(structure, 0, dist)
    if form is None:
        return False, None
    return True, lowest_terms(form)


def _gray_steps(m: int) -> Iterator[tuple[int, int, int]]:
    """The Gray-code walk over the non-empty subsets of ``range(m)``: per
    step, the event as a bit mask, the state toggled, and +1 if it entered
    the event or -1 if it left."""
    prev = 0
    for k in range(1, 1 << m):
        gray = k ^ (k >> 1)
        bit = (gray ^ prev).bit_length() - 1
        yield gray, bit, 1 if gray >> bit & 1 else -1
        prev = gray


def is_conglomerable(
    structure: InformationStructure, dist: Distribution
) -> tuple[bool, tuple[int, ...] | None]:
    """Single-player sandwich property: for every proper non-empty event E,
    min_cell t(E) <= dist(E) <= max_cell t(E). Exhaustive over all 2^M - 2
    events on a Gray-code walk; returns a violating event when the answer is
    no. The running sums are ints over one common denominator of dist and
    every type, so each step adds ints and compares ints."""
    check_single_player(structure)
    check_dimension(structure, dist)
    m = structure.num_states
    if m > EVENT_CAP:
        raise SizeCapError(f"{m} states exceeds the event enumeration cap {EVENT_CAP}")
    types = structure.cell_types[0]
    den = lcm(dist.den, *(t.den for t in types))
    p_step = [a * (den // dist.den) for a in state_nums(dist)]
    # per state, its cell and the scaled mass the cell's type puts on it
    own = structure.own_nums(0)
    t_step = [
        (structure.cell_of(0, w), own[w] * (den // structure.type_at(0, w).den)) for w in range(m)
    ]
    p_e = 0
    t_e = [0] * len(types)
    full = (1 << m) - 1
    for gray, bit, sign in _gray_steps(m):
        p_e += sign * p_step[bit]
        c, a = t_step[bit]
        t_e[c] += sign * a
        if gray == full:
            continue
        if p_e < min(t_e) or p_e > max(t_e):
            return False, tuple(s for s in range(m) if gray & (1 << s))
    return True, None


def disintegrable_by_definition(structure: InformationStructure, dist: Distribution) -> bool:
    """The literal product identity p(E n cell) == t_cell(E) * p(cell) at
    every non-empty event E and every cell, on a Gray-code walk with running
    integer sums: with p = nums / den, ``inter[c]`` the numerator of
    p(E n c), ``tev[c]`` that of t_c(E) over t_c's denominator and
    ``mass[c]`` that of p(c), the identity reads
    ``inter[c] * t_c.den == tev[c] * mass[c]``. Exponential; exists purely
    as an independent oracle for the closed-form test above, and shares no
    code with ``hull_form``."""
    check_single_player(structure)
    check_dimension(structure, dist)
    m = structure.num_states
    if m > DEFINITION_CAP:
        raise SizeCapError(f"{m} states exceeds the event enumeration cap {DEFINITION_CAP}")
    cells, types = structure.partitions[0], structure.cell_types[0]
    nums = state_nums(dist)
    t_dens = [t.den for t in types]
    mass = [sum(nums[s] for s in cell) for cell in cells]
    home = [0] * m  # the cell holding each state
    for c, cell in enumerate(cells):
        for s in cell:
            home[s] = c
    t_step: list[list] = [[] for _ in range(m)]  # per state, (cell, type mass) where charged
    for c, t in enumerate(types):
        for s, a in t.items():
            t_step[s].append((c, a))
    inter = [0] * len(cells)
    tev = [0] * len(cells)
    for _, bit, sign in _gray_steps(m):
        inter[home[bit]] += sign * nums[bit]
        for c, a in t_step[bit]:
            tev[c] += sign * a
        if list(map(mul, inter, t_dens)) != list(map(mul, tev, mass)):
            return False
    return True


# -- linked cell blocks -----------------------------------------------------


class Blocks(NamedTuple):
    """The structure's linked cell blocks, walked once: a live flag per
    block in walk order, the states live blocks charge, the canonical prior
    and its least cell mass, and the one refuting trade, one integer form
    ``(den, nums)`` in lowest terms per player. ``prior`` is None when no
    block is live, ``payoff_forms`` when every block is."""

    live: tuple[bool, ...]
    support: frozenset[int]
    prior: Distribution | None
    margin: Fraction
    payoff_forms: tuple[tuple, ...] | None

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
    mass 1 and normalizes the sum; its hull weights are those cell masses,
    0 on dead cells. It charges every state of every live block and nothing
    else, so it witnesses each notion that holds; with every block live it
    is the unique maximizer of the least cell mass, which is then
    ``margin``, 1 over the total, and otherwise 0.

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
    """The walk of ``blocks`` on the types' integer forms. Cell c's type is
    b / E (the numerators of ``t.items()`` over ``t.den``), and player j's
    type at w puts ``own_nums(j)[w]`` on w; each lambda, state value, gain and
    transfer is a reduced pair (numerator, positive denominator), and
    comparisons cross-multiply. The prior is read off as an integer form
    (``_read_off``), and so is the boxed trade (``_boxed_forms``); the one
    rational built is the margin."""
    m, n = structure.num_states, structure.num_players
    types = structure.cell_types
    own = [structure.own_nums(j) for j in range(n)]
    lam = [[None] * structure.num_cells(i) for i in range(n)]  # lambda per cell
    value: list = [None] * m  # lambda_c t_c(w), the same for every charging c
    setter: list = [None] * m  # the cell that first set value[w]
    pay: dict = {}  # (player, state): the unboxed payoff
    live, lives = [], []  # a flag per block; each live block with its least lambda

    def transfer(w, giver, taker, num, den):
        for key, y in (((taker[0], w), num), ((giver[0], w), -num)):
            on, od = pay.get(key, (0, 1))
            y, d = y * od + on * den, den * od
            g = gcd(y, d)
            pay[key] = (y // g, d // g)

    for root in ((i, c) for i in range(n) for c in range(structure.num_cells(i))):
        if lam[root[0]][root[1]] is not None:
            continue
        lam[root[0]][root[1]] = (1, 1)
        cells, states, tree, reason = [root], [], {}, None
        for cell in cells:  # the list grows while it is walked
            i, c = cell
            ln, ld = lam[i][c]
            t = types[i][c]
            ld *= t.den
            for w, bw in t.items():
                vn = ln * bw
                g = gcd(vn, ld)
                v = (vn // g, ld // g)
                old = value[w]
                if old is not None:
                    if reason is None and old != v:  # a ratio cycle
                        if v[0] * old[1] > old[0] * v[1]:
                            reason = (w, cell, v, setter[w], old)
                        else:
                            reason = (w, setter[w], old, cell, v)
                    continue
                value[w], setter[w] = v, cell
                states.append(w)
                for j in range(n):
                    d = structure.cell_of(j, w)
                    u = types[j][d]
                    bj = own[j][w]
                    if not bj:
                        if reason is None:  # a mixed charge
                            reason = (w, cell, v, (j, d), (0, 1))
                    elif lam[j][d] is None:
                        num, den = v[0] * u.den, v[1] * bj
                        g = gcd(num, den)
                        lam[j][d] = (num // g, den // g)
                        tree[(j, d)] = (cell, w)
                        cells.append((j, d))
        live.append(reason is None)
        if reason is None:
            an, ad = lam[root[0]][root[1]]
            for i, c in cells:
                xn, xd = lam[i][c]
                if xn * ad < an * xd:
                    an, ad = xn, xd
            lives.append((states, an, ad))
            continue

        # The taker gains tn / td at w and the giver hn / hd (0 on a mixed
        # charge). Subtree gains are numerators over g = lcm(td, hd), the
        # share S / |K| is total / (g k), so each transfer is one int pair.
        w, taker, (tn, td), giver, (hn, hd) = reason
        transfer(w, giver, taker, 1, 1)
        g = lcm(td, hd)
        sub = dict.fromkeys(cells, 0)  # each subtree's gain over g
        sub[taker] += tn * (g // td)
        if giver in sub:
            sub[giver] -= hn * (g // hd)
        k, total = len(cells), sum(sub.values())
        size = dict.fromkeys(cells, 1)
        for cell in reversed(cells[1:]):
            parent, s = tree[cell]
            vn, vd = value[s]
            transfer(s, parent, cell, (total * size[cell] - k * sub[cell]) * vd, g * k * vn)
            size[parent] += size[cell]
            sub[parent] += sub[cell]
        for i, c in cells:  # a dead cell carries no mass
            lam[i][c] = (0, 1)

    support = frozenset(w for states, _, _ in lives for w in states)
    prior, margin = _read_off(structure, value, lives, all(live))
    boxed = None if all(live) else _boxed_forms(m, n, pay)
    return Blocks(tuple(live), support, prior, margin, boxed)


def _boxed_forms(m: int, n: int, pay: dict) -> tuple[tuple, ...]:
    """The trade whose unboxed payoffs ``pay`` holds, per (player, state),
    as reduced pairs, divided by its largest absolute payoff top_n / top_d:
    per player, its entries over the lcm D of their denominators, and the
    row ``nums * top_d / (D * top_n)`` put in lowest terms by one gcd."""
    top_n, top_d = 0, 1
    dens = [1] * n
    for (i, _), (pn, pd) in pay.items():
        if abs(pn) * top_d > top_n * pd:
            top_n, top_d = abs(pn), pd
        dens[i] = lcm(dens[i], pd)
    rows = [[0] * m for _ in range(n)]
    for (i, w), (pn, pd) in pay.items():
        rows[i][w] = pn * (dens[i] // pd) * top_d
    return tuple(lowest_terms((den * top_n, row)) for den, row in zip(dens, rows))


def _read_off(
    structure: InformationStructure, value: list, lives: list, strong: bool
) -> tuple[Distribution | None, Fraction]:
    """The canonical prior, as an integer form, and its margin: each live
    block's (states, an, ad) in ``lives`` takes numerators over the lcm of
    its ``value`` denominators, scaled by ``ad / (lcm * an)`` so that its
    least cell has mass 1 (over the lcm of those scales' own denominators
    when several blocks are live), and one gcd over the support reduces
    them. The margin, with every block live, is the least cell mass."""
    if not lives:
        return None, ZERO
    nums = [0] * structure.num_states
    factors = []
    for states, an, ad in lives:
        den = lcm(*(value[w][1] for w in states))
        for w in states:
            vn, vd = value[w]
            nums[w] = vn * (den // vd)
        factors.append((states, ad, den * an))
    if len(factors) > 1:
        top = lcm(*(fd for _, _, fd in factors))
        for states, fn, fd in factors:
            scale = fn * (top // fd)
            for w in states:
                nums[w] *= scale
    support = sorted(w for states, _, _ in factors for w in states)
    g = gcd(*(nums[w] for w in support))
    if g > 1:
        nums = [a // g for a in nums]
    den = sum(nums)
    prior = Distribution.from_integer_form(
        structure.num_states, tuple(support), den, tuple(nums[w] for w in support)
    )
    least = min(min(cell_masses(structure, i, nums)) for i in range(structure.num_players))
    return prior, Fraction(least, den) if strong else ZERO


def find_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """The canonical prior of ``blocks``, or None when no block is live;
    built and verified once per structure."""
    return structure.derived("witness", _canonical_witness)


def _canonical_witness(structure: InformationStructure) -> PriorWitness | None:
    walk = blocks(structure)
    if walk.prior is None:
        return None
    witness = PriorWitness(walk.prior)
    witness.verify(structure)
    return witness


def find_prior(structure: InformationStructure, notion: Notion) -> PriorWitness | None:
    """The canonical prior when it charges what ``notion`` asks, else None.
    It charges every state of every live block, so it passes the charge
    test exactly when some prior of the notion exists."""
    witness = find_common_prior(structure)
    if witness is None or not notion.charged_by(structure, witness.prior):
        return None
    return witness


def find_universal_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """The canonical prior when it is maximal, else None."""
    return find_prior(structure, NOTIONS[1])


def find_strong_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """The canonical prior when it is strongly maximal, else None."""
    return find_prior(structure, NOTIONS[2])


def classify_prior(
    structure: InformationStructure, dist: Distribution
) -> PriorClassification:
    """Exact flags for a given distribution: per-player hull membership, by
    ``_off_hull`` on one numerator row of dist shared by every player, plus
    the positivity grades that upgrade a common prior to universal/strong."""
    check_dimension(structure, dist)
    nums = state_nums(dist)
    per_player = tuple(not _off_hull(structure, i, nums) for i in range(structure.num_players))
    return PriorClassification(
        prior_for_player=per_player,
        common=all(per_player),
        maximal=is_maximal(structure, dist),
        strongly_maximal=is_strongly_maximal(structure, dist),
    )
