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

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from ._rational import ONE, ZERO, Rational, rational
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


@dataclass(frozen=True)
class Distribution:
    """An exact probability distribution over indexed states."""

    probs: tuple

    def __post_init__(self) -> None:
        probs = tuple(rational(v) for v in self.probs)
        object.__setattr__(self, "probs", probs)
        if any(v < ZERO for v in probs):
            raise StochasticityError("negative mass")
        if sum(probs, ZERO) != ONE:
            raise StochasticityError(f"masses sum to {sum(probs, ZERO)}, not 1")

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int):
        return self.probs[i]

    def __iter__(self):
        return iter(self.probs)

    def mass(self, states: Iterable[int]):
        return sum((self.probs[s] for s in states), ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.probs) if v)


def dot(weights: Sequence, values: Sequence):
    if len(weights) != len(values):
        raise DimensionError(f"length mismatch: {len(weights)} vs {len(values)}")
    return sum((w * v for w, v in zip(weights, values) if w), ZERO)


def expectation_table(
    structure: InformationStructure, payoffs: tuple[tuple, ...]
) -> tuple[tuple, ...]:
    """Per player, per state, the exact conditional expectation of that
    player's payoff under their type. Constant on cells by construction."""
    table = []
    for i, f in enumerate(payoffs):
        per_cell = [
            dot(structure.type_of_cell(i, c).probs, f) for c in range(structure.num_cells(i))
        ]
        table.append(
            tuple(per_cell[structure.cell_of(i, w)] for w in range(structure.num_states))
        )
    return tuple(table)


def expectation(f: Sequence, d: Distribution):
    """Expected value of payoff vector ``f`` under distribution ``d``."""
    return dot(d.probs, f)


def uniform(size: int) -> Distribution:
    if size <= 0:
        raise EmptySetError("cannot build a distribution over no states")
    w = Rational(1, size)
    return Distribution((w,) * size)


def point_mass(state: int, size: int) -> Distribution:
    return Distribution(tuple(ONE if i == state else ZERO for i in range(size)))


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
                        raise PartitionError(
                            f"player {player!r}: state {self.states[s]!r} appears in two cells"
                        )
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
                if t.mass(cells[c]) != ONE:
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

    def cell_states(self, player: int, cell: int) -> tuple[int, ...]:
        return self.partitions[player][cell]

    def type_of_cell(self, player: int, cell: int) -> Distribution:
        return self.cell_types[player][cell]

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
    cell_types: Sequence[Sequence[Distribution | Sequence]],
) -> InformationStructure:
    """Index-based constructor; normalizes ordering, then validates."""
    norm_parts = tuple(
        tuple(sorted((tuple(sorted(cell)) for cell in cells), key=lambda c: c[0] if c else -1))
        for cells in partitions
    )
    # Types must follow their cells through the normalization.
    norm_types = []
    for i, cells in enumerate(partitions):
        keyed = {
            tuple(sorted(cell)): _as_distribution(cell_types[i][c])
            for c, cell in enumerate(cells)
        }
        if len(keyed) != len(cells):
            raise PartitionError(f"player index {i}: duplicate cells")
        norm_types.append(tuple(keyed[cell] for cell in norm_parts[i]))
    return InformationStructure(tuple(states), tuple(players), norm_parts, tuple(norm_types))


def _as_distribution(obj) -> Distribution:
    return obj if isinstance(obj, Distribution) else Distribution(tuple(obj))


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
        for c, cell in enumerate(structure.partitions[i]):
            kept = tuple(reindex[s] for s in cell if s in reindex)
            if not kept:
                continue
            t = structure.type_of_cell(i, c)
            cells_out.append(kept)
            types_out.append(Distribution(tuple(t[s] for s in subset)))
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


def zero_extend(values: Sequence, subset: Sequence[int], size: int) -> tuple:
    """Embed a vector on ``subset`` into the full space, zero elsewhere."""
    out = [ZERO] * size
    for v, s in zip(values, subset):
        out[s] = v
    return tuple(out)
