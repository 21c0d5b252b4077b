"""Finite multi-player information structures over exact rationals.

A structure is a finite state space, one partition per player, and one type
(posterior distribution) per player and cell. Types must be probability
distributions supported inside their own cell and constant across the cell.
All model objects are immutable once validated and every operation on them is
a pure function.

State and player labels are strings at the boundary; internally everything is
index-based (states ``0..M-1`` in declaration order, players likewise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Sequence, TypeVar

from ._rational import ZERO, Rational, rational
from .errors import (
    DimensionError,
    EmptySetError,
    NotAComponentError,
    PartitionError,
    SchemaError,
    StochasticityError,
    SupportError,
)

T = TypeVar("T")

# A payoff vector is a plain tuple of exact rationals, one entry per state.
PayoffVector = tuple


def payoff_vector(values: Sequence, size: int | None = None) -> PayoffVector:
    """Coerce a sequence into a payoff vector, rejecting floats."""
    vec = tuple(rational(v) for v in values)
    if size is not None and len(vec) != size:
        raise DimensionError(f"payoff vector has {len(vec)} entries, expected {size}")
    return vec


def integer_form(values: Sequence) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)``: the least common denominator of exact rationals (or
    ints) and their numerators over it, so ``nums[k] / den == values[k]``."""
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


@dataclass(frozen=True)
class Distribution:
    """An exact probability distribution over indexed states.

    Its integer form is fixed at construction: ``nums[w] / den == probs[w]``
    with ``den`` the least common denominator. Validation, masses and
    expectations read the ints and build one rational per result.

    Every distribution is filled and checked from its nonzero entries alone,
    by the routine behind ``from_support``; ``probs`` and ``nums`` stay dense
    tuples, with the shared ``ZERO`` and ``0`` off the support."""

    probs: tuple
    den: int = field(init=False, repr=False, compare=False)
    nums: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        probs = tuple(map(rational, self.probs))
        self._fill(len(probs), {w: q for w, q in enumerate(probs) if q})

    @classmethod
    def from_support(cls, size: int, entries: dict) -> "Distribution":
        """The distribution over ``size`` states with ``entries``, a map
        {state: rational}, on its support and 0 elsewhere. Zero entries are
        dropped."""
        dist = object.__new__(cls)
        masses = map(rational, entries.values())
        dist._fill(size, {w: q for w, q in zip(entries, masses) if q})
        return dist

    def _fill(self, size: int, entries: dict) -> None:
        """Dense rows from the nonzero ``entries``, with ``den`` the lcm over
        the support; then the negative-mass and sum-to-1 checks on the
        support."""
        support = tuple(sorted(entries))
        if support and not (0 <= support[0] and support[-1] < size):
            raise DimensionError(f"support {support} outside states 0..{size - 1}")
        den = math.lcm(*(q.denominator for q in entries.values()))
        probs = [ZERO] * size
        nums = [0] * size
        for w, q in entries.items():
            probs[w] = q
            nums[w] = q.numerator * (den // q.denominator)
        object.__setattr__(self, "probs", tuple(probs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "_support", support)
        if any(nums[w] < 0 for w in support):
            raise StochasticityError("negative mass")
        total = sum(nums[w] for w in support)
        if total != den:
            raise StochasticityError(f"masses sum to {Rational(total, den)}, not 1")

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int):
        return self.probs[i]

    def __iter__(self):
        return iter(self.probs)

    def mass(self, states: Iterable[int]):
        nums = self.nums
        return Rational(sum(nums[s] for s in states), self.den)

    def support(self) -> tuple[int, ...]:
        return self._support  # type: ignore[attr-defined]


def dot(weights: Sequence, values: Sequence):
    """Exact inner product: one integer sum over a common denominator per
    side, one rational. A ``Distribution`` side reads its own ints."""
    if len(weights) != len(values):
        raise DimensionError(f"length mismatch: {len(weights)} vs {len(values)}")
    den, nums = integer_form(weights)
    if isinstance(values, Distribution):
        vden, vnums = values.den, values.nums
    else:
        vden, vnums = integer_form(values)
    return Rational(sum(map(mul, nums, vnums)), den * vden)


def expectation_table(
    structure: InformationStructure, payoffs: tuple[tuple, ...]
) -> tuple[tuple, ...]:
    """Per player, per state, the exact conditional expectation of that
    player's payoff under their type. Constant on cells by construction.

    Each payoff row is put over one denominator once; a cell's expectation
    is then one integer sum over its type's support, which lies in the cell,
    so a player's row costs O(M)."""
    m = structure.num_states
    table = []
    for i, f in enumerate(payoffs):
        if len(f) != m:
            raise DimensionError(f"length mismatch: {m} vs {len(f)}")
        row = [None] * m
        for cell, num, den in cell_expectations(structure, i, integer_form(f)):
            e = Rational(num, den)
            for w in cell:
                row[w] = e
        table.append(tuple(row))
    return tuple(table)


def cell_expectations(
    structure: InformationStructure, player: int, form: tuple[int, tuple[int, ...]]
) -> list:
    """Per cell of ``player``, ``(cell, num, den)``: the expectation of the
    payoff row whose ``integer_form`` is ``form`` under the cell's type is
    ``num / den``, an integer sum over the type's support with ``den > 0``,
    so its sign is ``num``'s."""
    fden, g = form
    return [
        (cell, sum(t.nums[w] * g[w] for w in t.support()), t.den * fden)
        for cell, t in zip(structure.partitions[player], structure.cell_types[player])
    ]


def uniform(size: int) -> Distribution:
    if size <= 0:
        raise EmptySetError("cannot build a distribution over no states")
    w = Rational(1, size)
    return Distribution((w,) * size)


@dataclass(frozen=True)
class InformationStructure:
    """States, players, per-player partitions, per-cell types.

    ``partitions[i]`` lists player ``i``'s cells as sorted index tuples, ordered
    by smallest contained state. ``cell_types[i][c]`` is the type shared by all
    states of cell ``c``. Construction validates every invariant; instances are
    immutable afterwards, apart from the ``derived`` memo of values computed
    from them.
    """

    states: tuple[str, ...]
    players: tuple[str, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], ...]
    cell_types: tuple[tuple[Distribution, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.states)
        if m == 0:
            raise EmptySetError("a structure needs at least one state")
        if len(self.players) == 0:
            raise EmptySetError("a structure needs at least one player")
        for labels, kind in ((self.states, "state"), (self.players, "player")):
            if any(not isinstance(x, str) or not x for x in labels):
                raise SchemaError(f"{kind} labels must be non-empty strings")
            if len(set(labels)) != len(labels):
                raise SchemaError(f"duplicate {kind} labels")
        if len(self.partitions) != len(self.players) or len(self.cell_types) != len(self.players):
            raise DimensionError("need one partition and one type table per player")

        cell_of = []
        for i, player in enumerate(self.players):
            cells = self.partitions[i]
            seen = [-1] * m
            for c, cell in enumerate(cells):
                if len(cell) == 0:
                    raise PartitionError(f"player {player!r} has an empty cell")
                if tuple(sorted(cell)) != tuple(cell):
                    raise PartitionError(f"player {player!r}: cell {cell} not sorted")
                for s in cell:
                    if not 0 <= s < m:
                        raise PartitionError(f"player {player!r}: state index {s} out of range")
                    if seen[s] != -1:
                        where = "is listed twice in one cell" if seen[s] == c else "appears in two cells"
                        raise PartitionError(f"player {player!r}: state {self.states[s]!r} {where}")
                    seen[s] = c
            if any(c == -1 for c in seen):
                missing = self.states[seen.index(-1)]
                raise PartitionError(f"player {player!r}: state {missing!r} not covered")
            if list(cells) != sorted(cells, key=lambda cell: cell[0]):
                raise PartitionError(f"player {player!r}: cells not ordered by least state")

            types = self.cell_types[i]
            if len(types) != len(cells):
                raise DimensionError(f"player {player!r}: {len(types)} types for {len(cells)} cells")
            for c, t in enumerate(types):
                if len(t) != m:
                    raise DimensionError(
                        f"player {player!r}: type for cell {c} has {len(t)} entries, expected {m}"
                    )
                if sum(t.nums[w] for w in cells[c]) != t.den:
                    raise SupportError(
                        f"player {player!r}: type for cell {cells[c]} puts mass outside the cell"
                    )
            cell_of.append(tuple(seen))
        object.__setattr__(self, "_cell_of", tuple(cell_of))
        object.__setattr__(self, "_derived", {})

    # -- indexed access -------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_players(self) -> int:
        return len(self.players)

    def cell_of(self, player: int, state: int) -> int:
        return self._cell_of[player][state]  # type: ignore[attr-defined]

    def num_cells(self, player: int) -> int:
        return len(self.partitions[player])

    def type_at(self, player: int, state: int) -> Distribution:
        return self.cell_types[player][self.cell_of(player, state)]

    def derived(self, key: str, compute: Callable[["InformationStructure"], T]) -> T:
        """``compute(self)``, evaluated on the first request for ``key`` and
        kept on this instance. The memo belongs to one structure object: it
        is not shared with equal structures and not part of equality."""
        memo = self._derived  # type: ignore[attr-defined]
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]


def make_structure(
    states: Sequence[str],
    players: Sequence[str],
    partitions: Sequence[Sequence[Sequence[int]]],
    cell_types: Sequence[Sequence[Distribution | dict | Sequence]],
) -> InformationStructure:
    """Index-based constructor; checks the counts, normalizes ordering, then
    validates. A type is a ``Distribution``, a {state: rational} map of its
    support (built by ``Distribution.from_support``) or a dense row."""
    if len(partitions) != len(players) or len(cell_types) != len(players):
        raise DimensionError("need one partition and one type table per player")
    for player, cells, types in zip(players, partitions, cell_types):
        if len(types) != len(cells):
            raise DimensionError(f"player {player!r}: {len(types)} types for {len(cells)} cells")
    norm_parts = tuple(
        tuple(sorted((tuple(sorted(cell)) for cell in cells), key=lambda c: c[0] if c else -1))
        for cells in partitions
    )
    # Types must follow their cells through the normalization.
    norm_types = []
    for i, cells in enumerate(partitions):
        keyed = {
            tuple(sorted(cell)): _as_distribution(cell_types[i][c], len(states))
            for c, cell in enumerate(cells)
        }
        if len(keyed) != len(cells):
            raise PartitionError(f"player {players[i]!r}: duplicate cells")
        norm_types.append(tuple(keyed[cell] for cell in norm_parts[i]))
    return InformationStructure(tuple(states), tuple(players), norm_parts, tuple(norm_types))


def _as_distribution(obj, size: int) -> Distribution:
    """A type as given: a ``Distribution``, a {state: rational} map of its
    support, or a dense row."""
    if isinstance(obj, Distribution):
        return obj
    if isinstance(obj, dict):
        return Distribution.from_support(size, obj)
    return Distribution(tuple(obj))


# -- substructures ------------------------------------------------------


def forward_closed(structure: InformationStructure, states: Iterable[int]) -> bool:
    """True when every type at a member state keeps its support inside the set.

    A type lives on its own cell, so each (player, cell) that meets the set
    is checked once, by the support alone. This is exactly the
    common-certainty-component condition; the certainty module layers graph
    machinery on top of it.
    """
    inside = frozenset(states)
    if not inside:
        raise EmptySetError("the empty set is never a component")
    if not all(0 <= s < structure.num_states for s in inside):
        raise DimensionError("state index out of range")
    for i in range(structure.num_players):
        for cell, t in zip(structure.partitions[i], structure.cell_types[i]):
            if not inside.isdisjoint(cell) and not inside.issuperset(w for w in cell if t[w]):
                return False
    return True


def induced_substructure(
    structure: InformationStructure, states: Iterable[int]
) -> InformationStructure:
    """Restriction to a common certainty component.

    Types are restricted without renormalization; on a component they keep
    full mass, so the result is again a valid structure. Raises
    ``NotAComponentError`` otherwise. The whole state space gives back
    ``structure`` itself, derived memo included.
    """
    subset = sorted(set(states))
    if subset == list(range(structure.num_states)):
        return structure
    if not forward_closed(structure, subset):
        raise NotAComponentError(f"{subset} is not a common certainty component")
    reindex = {s: k for k, s in enumerate(subset)}
    states_out = tuple(structure.states[s] for s in subset)
    partitions = []
    types = []
    for i in range(structure.num_players):
        cells_out = []
        types_out = []
        for cell, t in zip(structure.partitions[i], structure.cell_types[i]):
            kept = tuple(reindex[s] for s in cell if s in reindex)
            if not kept:
                continue
            cells_out.append(kept)
            support = {reindex[w]: t.probs[w] for w in t.support()}
            types_out.append(Distribution.from_support(len(subset), support))
        order = sorted(range(len(cells_out)), key=lambda k: cells_out[k][0])
        partitions.append(tuple(cells_out[k] for k in order))
        types.append(tuple(types_out[k] for k in order))
    return InformationStructure(states_out, structure.players, tuple(partitions), tuple(types))


def single_player_view(structure: InformationStructure, player: int) -> InformationStructure:
    """The one-player structure (same states, this player's partition/types)."""
    return InformationStructure(
        structure.states,
        (structure.players[player],),
        (structure.partitions[player],),
        (structure.cell_types[player],),
    )
