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

The strong prior has a closed form (``strong_prior``): on each cell p is
its mass times the cell's type, so a prior charging every cell fixes p up
to one scalar per linked block of cells, and the epsilon-maximal mixture of
the blocks is unique. A structure with a strong prior therefore solves no
LP. Otherwise one program over the polytope is solved per structure, for
what needs a vertex or a certificate: it decides the common prior, and
``refuting_payoffs`` maps its multipliers to every refuting trade by one
formula: the Farkas certificate is the infeasible case, the optimal duals
the zero-margin one. Only this module knows the program's row layout. The
program is the closed form's oracle in ``harness``, and the joint
formulation with explicit hull weights the program's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import ONE, ZERO, Rational, rational
from .certainty import is_maximal, is_strongly_maximal, minimal_components
from .errors import (
    DimensionError,
    PlayerCountError,
    SizeCapError,
    VerificationError,
)
from .lp import LinearProgram, LPBuilder, LPOutcome, solve
from .model import (
    Distribution,
    InformationStructure,
    expectation_table,
    induced_substructure,
    zero_extend,
)

EVENT_CAP = 24  # exhaustive event enumeration refuses beyond this many states
DEFINITION_CAP = 20  # the same for the definitional disintegrability oracle


@dataclass(frozen=True)
class PriorWitness:
    """A prior plus, per player, convex weights over that player's cells
    expressing it as a mixture of the cells' types."""

    prior: Distribution
    hull_weights: tuple[tuple, ...]

    def verify(self, structure: InformationStructure) -> None:
        """Exact re-multiplication; raises VerificationError on any defect."""
        if len(self.hull_weights) != structure.num_players:
            raise VerificationError("witness has wrong number of weight vectors")
        if len(self.prior) != structure.num_states:
            raise VerificationError("witness prior has wrong dimension")
        for i in range(structure.num_players):
            weights = self.hull_weights[i]
            types = structure.cell_types[i]
            if len(weights) != len(types):
                raise VerificationError(f"player {i} weight vector has wrong length")
            if any(w < ZERO for w in weights):
                raise VerificationError(f"player {i} has a negative hull weight")
            if sum(weights, ZERO) != ONE:
                raise VerificationError(f"player {i} hull weights do not sum to 1")
            mixed = _mixture(structure, i, weights)
            for w in range(structure.num_states):
                if mixed[w] != self.prior[w]:
                    raise VerificationError(
                        f"player {i} weights fail to reconstruct the prior at state {w}"
                    )


@dataclass(frozen=True)
class PriorClassification:
    prior_for_player: tuple[bool, ...]
    common: bool
    maximal: bool
    strongly_maximal: bool
    universal: bool
    strong: bool


@dataclass(frozen=True)
class PriorReport:
    """The three notions side by side; absent notions may carry a refutation
    (a trade witness) supplied by the trade layer."""

    common_prior: PriorWitness | None
    universal_common_prior: PriorWitness | None
    strong_common_prior: PriorWitness | None
    common_refutation: object | None
    universal_refutation: object | None
    strong_refutation: object | None


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
    weights = [dist.mass(cell) for cell in structure.partitions[player]]
    if _mixture(structure, player, weights) != list(dist.probs):
        return None
    return tuple(weights)


def _mixture(structure: InformationStructure, player: int, weights) -> list:
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


# -- the common prior program ---------------------------------------------


def common_prior_program(structure: InformationStructure) -> LinearProgram:
    """The common priors, projected onto p alone, with the strictness margin
    epsilon maximized. The forced-weight identity makes hull membership
    linear in p. Feasible iff a common prior exists; optimal epsilon > 0 iff
    a strong one does.

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


def refuting_payoffs(structure: InformationStructure) -> tuple[tuple, ...] | None:
    """The refuting trade's payoffs, read off the common-prior program's
    multipliers u (the constructive half of the Samet / Morris separation):
    the Farkas certificate when the program is infeasible, the optimal duals
    when the margin is 0, and None when ``strong_prior`` finds a strong
    prior, in which case no program is solved.

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
    if strong_prior(structure) is not None:
        return None
    outcome = _solve_common(structure)
    if outcome.status == "infeasible":
        u = outcome.certificate.constraint_multipliers
    elif outcome.objective_value == ZERO:
        u = outcome.duals
    else:
        raise VerificationError("positive margin, yet the closed form finds no strong prior")
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


def _solve_common(structure: InformationStructure) -> LPOutcome:
    """The common prior program's outcome, solved once per structure and
    only where ``strong_prior`` returned None: the common finder reads its
    vertex, and ``refuting_payoffs`` every refuting trade."""
    return structure.derived("common_prior", lambda s: solve(common_prior_program(s)))


def strong_prior(structure: InformationStructure) -> tuple[Distribution, Rational] | None:
    """The epsilon-maximal strong common prior and its margin epsilon*, or
    None when no common prior charges every cell; in closed form, memoized
    on the structure.

    On player i's cell c a common prior is p = lambda_c * t_c, lambda_c the
    cell's mass. With every lambda positive, p_w > 0 exactly where t_i(w) >
    0, so every state must be charged by all players' types or by none, and
    a state charged by cells c and d forces lambda_d / lambda_c = t_c(w) /
    t_d(w). Link cells through the states they charge: on each linked block
    K the ratios must agree around every cycle, and then the common priors
    are the mixtures sum_K mu_K q_K of one normalized q_K per block.
    epsilon = min_K mu_K m_K, m_K the least cell mass under q_K, is largest
    only at mu_K proportional to 1 / m_K: scale each block so that its
    least cell has mass 1, and p is the sum normalized, epsilon* one over
    the total. That optimum is unique, so it is the margin program's primal
    and value."""
    return structure.derived("strong_prior", _strong_prior)


def _strong_prior(structure: InformationStructure) -> tuple[Distribution, Rational] | None:
    m, n = structure.num_states, structure.num_players
    for w in range(m):
        charging = sum(1 for i in range(n) if structure.type_at(i, w)[w])
        if charging not in (0, n):
            return None
    scale = [[None] * structure.num_cells(i) for i in range(n)]  # lambda per cell
    value: list = [None] * m  # p on charged states, up to each block's scalar
    total = ZERO
    for root in ((i, c) for i in range(n) for c in range(structure.num_cells(i))):
        if scale[root[0]][root[1]] is not None:
            continue
        scale[root[0]][root[1]] = ONE
        cells, states = [root], []
        for i, c in cells:  # the list grows while it is walked
            lam, t = scale[i][c], structure.cell_types[i][c]
            for w in structure.partitions[i][c]:
                if not t[w]:
                    continue
                v = lam * t[w]
                if value[w] is not None:
                    if value[w] != v:
                        return None  # the ratios disagree around a cycle
                    continue
                value[w] = v
                states.append(w)
                for j in range(n):
                    d = structure.cell_of(j, w)
                    if scale[j][d] is None:
                        scale[j][d] = v / structure.cell_types[j][d][w]
                        cells.append((j, d))
        least = min(scale[i][c] for i, c in cells)
        for w in states:
            value[w] /= least
            total += value[w]
    return Distribution(tuple(v / total if v is not None else ZERO for v in value)), ONE / total


def component_substructures(
    structure: InformationStructure,
) -> tuple[tuple[tuple[int, ...], InformationStructure], ...]:
    """Each minimal component with its induced structure, built once per
    structure. The universal-prior and weakly-agreeable-trade finders both
    walk these objects, so each component's program is solved once."""
    return structure.derived(
        "component_substructures",
        lambda s: tuple(
            (comp, induced_substructure(s, comp)) for comp in minimal_components(s)
        ),
    )


def _witness_from_prior(
    structure: InformationStructure, prior: Distribution
) -> PriorWitness:
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


def find_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """A common prior with hull weights, or None. The returned prior is the
    epsilon-maximal one, so it is as spread out over cells as the structure
    allows; existence is unaffected by the objective. The closed form gives
    it when a strong prior exists, the common-prior program otherwise."""
    strong = strong_prior(structure)
    if strong is not None:
        return _witness_from_prior(structure, strong[0])
    outcome = _solve_common(structure)
    if outcome.status == "infeasible":
        return None
    prior = Distribution(outcome.primal[: structure.num_states])
    return _witness_from_prior(structure, prior)


def find_strong_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """A common prior charging every cell of every player, from the closed
    form; no LP is solved."""
    strong = strong_prior(structure)
    if strong is None:
        return None
    witness = _witness_from_prior(structure, strong[0])
    if not is_strongly_maximal(structure, strong[0]):
        raise VerificationError("strong prior witness misses a cell")
    return witness


def find_universal_common_prior(structure: InformationStructure) -> PriorWitness | None:
    """A common prior charging every common certainty component. Built from
    the minimal components: each one's induced structure must admit a common
    prior; the equal-weight mixture of their zero-extensions then charges
    every component and stays in every hull (cross-component types put no
    mass outside their own component)."""
    parts = []
    for comp, sub in component_substructures(structure):
        witness = find_common_prior(sub)
        if witness is None:
            return None
        parts.append((comp, witness.prior))
    share = ONE / rational(len(parts))
    mixed = [ZERO] * structure.num_states
    for comp, sub_prior in parts:
        extended = zero_extend(tuple(sub_prior), comp, structure.num_states)
        for w in range(structure.num_states):
            if extended[w]:
                mixed[w] += share * extended[w]
    prior = Distribution(tuple(mixed))
    witness = _witness_from_prior(structure, prior)
    if not is_maximal(structure, prior):
        raise VerificationError("universal prior witness misses a component")
    return witness


def classify_prior(
    structure: InformationStructure, dist: Distribution
) -> PriorClassification:
    """Exact flags for a given distribution: per-player hull membership plus
    the positivity grades that upgrade a common prior to universal/strong."""
    _check_dimension(structure, dist)
    per_player = tuple(
        hull_weights(structure, i, dist) is not None
        for i in range(structure.num_players)
    )
    common = all(per_player)
    maximal = is_maximal(structure, dist)
    strongly = is_strongly_maximal(structure, dist)
    return PriorClassification(
        prior_for_player=per_player,
        common=common,
        maximal=maximal,
        strongly_maximal=strongly,
        universal=common and maximal,
        strong=common and strongly,
    )
