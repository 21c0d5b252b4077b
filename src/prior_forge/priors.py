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
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterator

from ._rational import ZERO
from .certainty import check_dimension, is_maximal, is_strongly_maximal
from .errors import PlayerCountError, SizeCapError, VerificationError
from .model import Distribution, InformationStructure, integer_form, state_nums

EVENT_CAP = 24  # exhaustive event enumeration refuses beyond this many states
DEFINITION_CAP = 20  # the same for the definitional disintegrability oracle


@dataclass(frozen=True)
class Notion:
    """A common-prior notion: JSON key, text label, what its prior must
    charge beyond being common (None: nothing more), the flag of the trade
    grade that refutes it, and the kind of the money pump that matches it."""

    key: str
    label: str
    charges: Callable[[InformationStructure, Distribution], bool] | None
    trade: str
    pump: str

    def charged_by(self, structure: InformationStructure, dist: Distribution) -> bool:
        """Whether ``dist`` charges what the notion asks of its prior."""
        return self.charges is None or self.charges(structure, dist)


# The three notions, strongest refuting trade first (Samet 1998).
NOTIONS = (
    Notion("common", "common prior", None, "agreeable", "plain"),
    Notion("universal", "universal common prior", is_maximal, "weakly_agreeable", "universal"),
    Notion("strong", "strong common prior", is_strongly_maximal, "acceptable", "strong"),
)


@dataclass(frozen=True, init=False)
class PriorWitness:
    """A prior plus, per player, convex weights over that player's cells
    expressing it as a mixture of the cells' types.

    The weights are held as integer forms: ``weight_forms[i]`` is
    ``(den, nums)`` in lowest terms, player i's weight on cell c being
    ``nums[c] / den``. ``PriorWitness(prior, hull_weights)`` takes rows of
    rationals and derives their forms (``integer_form``); the walk and
    ``classify_prior``, whose weights are cell masses over the prior's
    ``den``, hand theirs over as ``PriorWitness(prior, weight_forms=...)``,
    each form put in lowest terms by one gcd. ``hull_weights`` builds the
    rows of ``Fraction``s when read. Equality and the hash are those of the
    prior and the forms, so of the weights' values."""

    prior: Distribution
    weight_forms: tuple[tuple[int, tuple[int, ...]], ...]

    def __init__(self, prior, hull_weights=None, *, weight_forms=None) -> None:
        if weight_forms is None:
            forms = tuple(map(integer_form, hull_weights))
        else:
            forms = tuple(map(_lowest_terms, weight_forms))
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "weight_forms", forms)

    @property
    def hull_weights(self) -> tuple[tuple, ...]:
        """The weights as rows of ``Fraction``s, built on each read."""
        return _fraction_rows(self.weight_forms)

    def verify(self, structure: InformationStructure) -> None:
        """Exact re-multiplication on the weights' integer forms; raises
        VerificationError on any defect. The prior need not be a
        ``Distribution``: a plain tuple of rationals is checked the same
        way."""
        if len(self.weight_forms) != structure.num_players:
            raise VerificationError("witness has wrong number of weight vectors")
        if len(self.prior) != structure.num_states:
            raise VerificationError("witness prior has wrong dimension")
        prior = self.prior
        if isinstance(prior, Distribution):
            den, nums = prior.den, state_nums(prior)
        else:
            den, nums = integer_form(prior)
        for i, (wden, wnums) in enumerate(self.weight_forms):
            if len(wnums) != structure.num_cells(i):
                raise VerificationError(f"player {i} weight vector has wrong length")
            if any(u < 0 for u in wnums):
                raise VerificationError(f"player {i} has a negative hull weight")
            if sum(wnums) != wden:
                raise VerificationError(f"player {i} hull weights do not sum to 1")
            off = _off_mixture(structure, i, wden, wnums, den, nums)
            if off:
                raise VerificationError(
                    f"player {i} weights fail to reconstruct the prior at state {min(off)}"
                )


def _lowest_terms(form: tuple) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)`` over the least common denominator of its values."""
    den, nums = form
    g = gcd(den, *nums)
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple([a // g for a in nums])


def _fraction_rows(forms) -> tuple:
    """Rows of ``Fraction``s from integer forms ``(den, nums)``; a form
    that is None gives None."""
    return tuple(
        None if form is None else tuple(Fraction(a, form[0]) for a in form[1]) for form in forms
    )


@dataclass(frozen=True)
class PriorClassification:
    """Per-player hull membership of a distribution and its charge grades.
    ``weight_forms[i]`` is player i's hull weights as ``hull_form`` gives
    them, or None outside the hull; ``hull_weights`` reads them as rows of
    ``Fraction``s."""

    prior_for_player: tuple[bool, ...]
    weight_forms: tuple[tuple | None, ...]
    common: bool
    maximal: bool
    strongly_maximal: bool
    universal: bool
    strong: bool

    @property
    def hull_weights(self) -> tuple[tuple | None, ...]:
        return _fraction_rows(self.weight_forms)


def check_single_player(structure: InformationStructure) -> None:
    if structure.num_players != 1:
        raise PlayerCountError(
            f"operation needs exactly one player, structure has {structure.num_players}"
        )


def hull_form(
    structure: InformationStructure, player: int, dist: Distribution
) -> tuple[int, tuple[int, ...]] | None:
    """The player's convex weights over its cells reconstructing dist from
    the cells' types, as ``(dist.den, masses)``, or None when dist is
    outside the hull. Weights are forced to be the cell masses, so this is
    a direct exact check on ints, not a search."""
    check_dimension(structure, dist)
    den, nums = dist.den, state_nums(dist)
    masses = tuple([sum(nums[w] for w in cell) for cell in structure.partitions[player]])
    if _off_mixture(structure, player, den, masses, den, nums):
        return None
    return den, masses


def hull_weights(
    structure: InformationStructure, player: int, dist: Distribution
) -> tuple | None:
    """``hull_form`` as a row of ``Fraction``s, or None outside the hull."""
    return _fraction_rows((hull_form(structure, player, dist),))[0]


def _off_mixture(
    structure: InformationStructure, player: int, wden: int, wnums, den: int, nums
) -> list[int]:
    """The states where sum_c (wnums[c] / wden) * type_c differs from
    nums / den. Types vanish off their own cell and every state lies in
    exactly one cell, so on cell c with type b / E the mixture is right at w
    iff wnums[c] * den * b[w] == nums[w] * wden * E, with b[w] the player's
    ``own_nums`` entry: ints only."""
    own = structure.own_nums(player)
    off = []
    for cell, t, u in zip(structure.partitions[player], structure.cell_types[player], wnums):
        lhs, rhs = u * den, wden * t.den
        off += [w for w in cell if lhs * own[w] != nums[w] * rhs]
    return off


def is_disintegrable(
    structure: InformationStructure, dist: Distribution
) -> tuple[bool, tuple | None]:
    """Single-player: does dist disintegrate over the partition via the type
    function? Equivalent to membership in the convex hull of the types."""
    check_single_player(structure)
    weights = hull_weights(structure, 0, dist)
    return (weights is not None), weights


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
    code with ``hull_weights``."""
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


@dataclass(frozen=True)
class Blocks:
    """The structure's linked cell blocks, walked once: a live flag per
    block in walk order, the states live blocks charge, the canonical prior
    with its hull weights (per player, the mass of each cell, as the
    integer form ``(den, masses)`` over the prior's ``den``) and its least
    cell mass, and the one refuting trade. ``prior`` and ``weight_forms``
    are None when no block is live, ``payoffs`` when every block is."""

    live: tuple[bool, ...]
    support: frozenset[int]
    prior: Distribution | None
    weight_forms: tuple[tuple, ...] | None
    margin: Fraction
    payoffs: tuple[tuple, ...] | None

    @property
    def hull_weights(self) -> tuple[tuple, ...] | None:
        """The hull weights as rows of ``Fraction``s, built when read."""
        return None if self.weight_forms is None else _fraction_rows(self.weight_forms)

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
    comparisons cross-multiply. The prior and its hull weights are read off
    as integer forms (``_read_off``); rationals are built once per result:
    the margin and the boxed payoffs."""
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
    prior, weights, margin = _read_off(structure, value, lives, all(live))
    boxed = None
    if not all(live):
        top_n, top_d = 0, 1
        for pn, pd in pay.values():
            if abs(pn) * top_d > top_n * pd:
                top_n, top_d = abs(pn), pd
        rows = [[ZERO] * m for _ in range(n)]
        for (i, w), (pn, pd) in pay.items():
            rows[i][w] = Fraction(pn * top_d, pd * top_n)
        boxed = tuple(map(tuple, rows))
    return Blocks(tuple(live), support, prior, weights, margin, boxed)


def _read_off(
    structure: InformationStructure, value: list, lives: list, strong: bool
) -> tuple[Distribution | None, tuple[tuple, ...] | None, Fraction]:
    """The canonical prior, its hull weights and its margin, as an integer
    form: each live block's (states, an, ad) in ``lives`` takes numerators
    over the lcm of its ``value`` denominators, scaled by ``ad / (lcm * an)``
    so that its least cell has mass 1 (over the lcm of those scales' own
    denominators when several blocks are live), and one gcd over the
    support reduces them. A hull weight is its cell's mass, kept as the
    integer form ``(den, masses)`` per player; the margin, with every block
    live, is the least one."""
    if not lives:
        return None, None, ZERO
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
    masses = [tuple([sum(nums[w] for w in cell) for cell in cells]) for cells in structure.partitions]
    margin = Fraction(min(map(min, masses)), den) if strong else ZERO
    return prior, tuple((den, row) for row in masses), margin


def find_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """The canonical prior of ``blocks`` with hull weights, or None when no
    block is live; built and verified once per structure."""
    return structure.derived("witness", _canonical_witness)


def _canonical_witness(structure: InformationStructure) -> PriorWitness | None:
    walk = blocks(structure)
    if walk.prior is None:
        return None
    witness = PriorWitness(walk.prior, weight_forms=walk.weight_forms)
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
    """Exact flags for a given distribution: per-player hull membership plus
    the positivity grades that upgrade a common prior to universal/strong."""
    check_dimension(structure, dist)
    forms = tuple(hull_form(structure, i, dist) for i in range(structure.num_players))
    per_player = tuple(form is not None for form in forms)
    common = all(per_player)
    maximal = is_maximal(structure, dist)
    strongly = is_strongly_maximal(structure, dist)
    return PriorClassification(
        prior_for_player=per_player,
        weight_forms=forms,
        common=common,
        maximal=maximal,
        strongly_maximal=strongly,
        universal=common and maximal,
        strong=common and strongly,
    )
