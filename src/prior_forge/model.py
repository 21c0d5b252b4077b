"""Finite multi-player information structures over exact rationals.

A structure is a finite state space, one partition per player, and one type
(posterior distribution) per player and cell. Types must be probability
distributions supported inside their own cell and constant across the cell.
Both model objects are frozen value classes (``Frozen``), immutable once
validated, and every operation on them is a pure function.

State and player labels are strings at the boundary; internally everything is
index-based (states ``0..M-1`` in declaration order, players likewise).

Payoff and certificate rows are integer forms ``(den, nums)``, entry w
being ``nums[w] / den``, from the parsed document to the grade; a family of
them is checked by ``reduced_forms`` alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import index, mul
from typing import Callable, Iterable, Sequence, TypeVar

from ._rational import ZERO, rational, rational_text
from .errors import (
    DimensionError,
    EmptySetError,
    InputError,
    NotAComponentError,
    PartitionError,
    SchemaError,
    StochasticityError,
    SupportError,
)

T = TypeVar("T")


class Frozen:
    """Base of the package's frozen value classes. ``_fields`` names the
    attributes that equality, the hash and ``repr`` read, in order, as a
    frozen dataclass's would: equal only to an instance of the same class,
    hashed as the tuple of those values. The constructor stores its
    attributes with ``object.__setattr__`` (or into ``__dict__``);
    afterwards assignment and deletion raise the dataclass's
    ``FrozenInstanceError``, which is imported only then, so that loading
    the package does not load ``dataclasses``."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def integer_form(values: Sequence) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)``: the least common denominator of exact rationals (or
    ints) and their numerators over it, so ``nums[k] / den == values[k]``."""
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    if den == 1:
        return 1, tuple([v.numerator for v in values])
    return den, tuple([v.numerator * (den // d) for v, d in zip(values, dens)])


def lowest_terms(form: tuple) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)`` over the least common denominator of its values: one
    gcd, so two forms of the same values are equal exactly when reduced."""
    den, nums = form
    g = math.gcd(den, *nums)
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple([a // g for a in nums])


_ROWS = (tuple, list)


def reduced_forms(forms, what: str) -> tuple:
    """The integer forms ``(den, nums)`` a certificate or a graded payoff
    family holds, each put in lowest terms (``lowest_terms``) once every
    form is checked: a tuple or list of an int ``den > 0`` (not a bool) and
    a tuple or list of ints; InputError otherwise. The checks are type
    tests, so a row costs one C-speed scan of its entries' types."""
    for form in forms:
        if not (type(form) in _ROWS and len(form) == 2 and type(form[0]) is int
                and type(form[1]) in _ROWS and {int}.issuperset(map(type, form[1]))):
            raise InputError(f"{what}'s rows must be (den, nums) pairs of ints")
        if form[0] <= 0:
            raise InputError(f"{what}'s row denominators must be positive")
    return tuple(map(lowest_terms, forms))


def fraction_rows(forms) -> tuple:
    """Rows of ``Fraction``s from integer forms ``(den, nums)``; a form
    that is None gives None."""
    return tuple(
        None if form is None else tuple(Fraction(a, form[0]) for a in form[1]) for form in forms
    )


class Distribution(Frozen):
    """An exact probability distribution over ``size`` indexed states, held
    on its support.

    It keeps ``size``, ``den``, the least common denominator of its masses,
    the sorted support, and one integer numerator over ``den`` per support
    state (``items()`` pairs them), and nothing per state off the support,
    so a type costs its nonzero entries, not the state count. Every
    constructor ends in one integer-form core, ``from_integer_form``, which
    checks the support's range, a negative mass and the sum to 1 on those
    ints: ``Distribution(probs)`` and ``from_support`` first derive the
    integer form of their rationals (``integer_form``), while the document
    parser, substructures and copies hand theirs over as they have it, with
    no rational per entry. Validation, masses and expectations read those
    ints and build one rational per result. Indexing, iteration and
    ``probs`` give the dense values, 0 off the support, and build them when
    read. Instances are frozen; equality and the hash are those of the four
    slots, so of the dense ``probs``, and ``repr`` shows ``probs``."""

    __slots__ = _fields = ("size", "den", "_support", "_nums")

    def __init__(self, probs) -> None:
        probs = tuple(map(rational, probs))
        support = tuple(w for w, q in enumerate(probs) if q)
        self._fill(len(probs), support, *integer_form([probs[w] for w in support]))

    @classmethod
    def from_support(cls, size: int, entries: dict) -> "Distribution":
        """The distribution over ``size`` states with ``entries``, a map
        {state: rational}, on its support and 0 elsewhere. Zero entries are
        dropped."""
        masses = map(rational, entries.values())
        nonzero = {w: q for w, q in zip(entries, masses) if q}
        support = tuple(sorted(nonzero))
        return cls.from_integer_form(size, support, *integer_form([nonzero[w] for w in support]))

    @classmethod
    def from_integer_form(cls, size: int, support: tuple, den: int, nums: tuple) -> "Distribution":
        """The distribution over ``size`` states with mass ``nums[k] / den``
        at ``support[k]`` and 0 elsewhere. The caller guarantees the form:
        ``support`` strictly increasing, no zero in ``nums``, and ``den > 0``
        the least common denominator, so ``gcd(den, *nums) == 1``; the
        support's range, the signs and the sum are checked here."""
        dist = object.__new__(cls)
        dist._fill(size, support, den, nums)
        return dist

    def _fill(self, size: int, support: tuple, den: int, nums: tuple) -> None:
        """The one core: store the integer form, then the negative-mass and
        sum-to-1 checks."""
        if support and not (0 <= support[0] and support[-1] < size):
            raise DimensionError(f"support {support} outside states 0..{size - 1}")
        for name, value in (("size", size), ("den", den), ("_support", support), ("_nums", nums)):
            object.__setattr__(self, name, value)
        if any(a < 0 for a in nums):
            raise StochasticityError("negative mass")
        if sum(nums) != den:
            total = rational_text(Fraction(sum(nums), den))
            raise StochasticityError(f"masses sum to {total}, not 1")

    def __repr__(self) -> str:
        return f"Distribution(probs={self.probs!r})"

    def __reduce__(self):
        # Frozen slots refuse assignment, so copies and pickles rebuild from the integer form.
        return self.from_integer_form, (self.size, self._support, self.den, self._nums)

    @property
    def probs(self) -> tuple:
        """The dense masses, built on each read, with ``ZERO`` off the
        support: for messages, tests and oracles."""
        probs = [ZERO] * self.size
        for w, a in self.items():
            probs[w] = Fraction(a, self.den)
        return tuple(probs)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, w):
        if isinstance(w, slice):
            return self.probs[w]
        w = index(w)
        if not -self.size <= w < self.size:
            raise IndexError("distribution index out of range")
        w %= self.size
        k = bisect_left(self._support, w)
        if k < len(self._support) and self._support[k] == w:
            return Fraction(self._nums[k], self.den)
        return ZERO

    def __iter__(self):
        return iter(self.probs)

    def items(self):
        """``(state, numerator)`` for each support state in increasing
        order; the state's mass is ``numerator / den``."""
        return zip(self._support, self._nums)

    def mass(self, states: Iterable[int]):
        inside = set(states)
        outside = sorted(w for w in inside if not 0 <= w < self.size)
        if outside:
            raise DimensionError(f"states {outside} outside 0..{self.size - 1}")
        return Fraction(sum(a for w, a in self.items() if w in inside), self.den)

    def support(self) -> tuple[int, ...]:
        return self._support


def state_nums(dist: Distribution) -> list[int]:
    """``dist``'s numerators over ``dist.den``, one per state, 0 off its
    support: the row of a prior or sampled distribution, one per structure,
    for the checks that read it at every state of every cell."""
    nums = [0] * dist.size
    for w, a in dist.items():
        nums[w] = a
    return nums


def cell_expectations(
    structure: InformationStructure, player: int, form: tuple[int, tuple[int, ...]]
) -> list:
    """Per cell of ``player``, ``(cell, num, den)``: the expectation of the
    payoff row whose ``integer_form`` is ``form`` under the cell's type is
    ``num / den``, an integer sum over the type's support with ``den > 0``,
    so its sign is ``num``'s."""
    fden, g = form
    at = g.__getitem__
    return [
        (cell, sum(map(mul, t._nums, map(at, t._support))), t.den * fden)
        for cell, t in zip(structure.partitions[player], structure.cell_types[player])
    ]


def uniform(size: int) -> Distribution:
    if size <= 0:
        raise EmptySetError("cannot build a distribution over no states")
    w = Fraction(1, size)
    return Distribution((w,) * size)


class InformationStructure(Frozen):
    """States, players, per-player partitions, per-cell types.

    ``partitions[i]`` lists player ``i``'s cells as sorted index tuples, ordered
    by smallest contained state. ``cell_types[i][c]`` is the type shared by all
    states of cell ``c``. Construction validates every invariant; instances are
    immutable afterwards, apart from the ``derived`` memo of values computed
    from them. Beside the types, construction keeps one state-indexed row
    per player, ``own_nums``, so that "player i's type at w, at w" is one
    lookup and no type is read densely. Equality, the hash and ``repr`` are
    those of the four fields.
    """

    _fields = ("states", "players", "partitions", "cell_types")
    states: tuple[str, ...]
    players: tuple[str, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], ...]
    cell_types: tuple[tuple[Distribution, ...], ...]

    def __init__(self, states, players, partitions, cell_types) -> None:
        vars(self).update(states=states, players=players, partitions=partitions, cell_types=cell_types)
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

        cell_of, own = [], []
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
            row = [0] * m
            for c, t in enumerate(types):
                if len(t) != m:
                    raise DimensionError(
                        f"player {player!r}: type for cell {c} has {len(t)} entries, expected {m}"
                    )
                for w, a in t.items():
                    if seen[w] != c:
                        raise SupportError(
                            f"player {player!r}: type for cell {cells[c]} puts mass outside the cell"
                        )
                    row[w] = a
            cell_of.append(tuple(seen))
            own.append(tuple(row))
        vars(self).update(_cell_of=tuple(cell_of), _own_nums=tuple(own), _derived={})

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

    def own_nums(self, player: int) -> tuple[int, ...]:
        """Per state w, the numerator over ``type_at(player, w).den`` of the
        mass that the player's type at w puts on w itself. A type lives on
        its own cell, so this row holds every type entry of the player."""
        return self._own_nums[player]  # type: ignore[attr-defined]

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
    support (built by ``Distribution.from_support``), a dense row, or a
    function of no arguments that builds the ``Distribution``; types are
    built player by player, each player's before its duplicate-cell check,
    so a type given as a function fails where a map or row would."""
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
    support, a dense row, or a function of no arguments that builds it."""
    if isinstance(obj, Distribution):
        return obj
    if isinstance(obj, dict):
        return Distribution.from_support(size, obj)
    if callable(obj):
        return obj()
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
    for s in (min(inside), max(inside)):
        check_index("state", s, structure.num_states)
    for i in range(structure.num_players):
        for cell, t in zip(structure.partitions[i], structure.cell_types[i]):
            if not inside.isdisjoint(cell) and not inside.issuperset(t.support()):
                return False
    return True


def induced_substructure(
    structure: InformationStructure, states: Iterable[int]
) -> InformationStructure:
    """Restriction to a common certainty component.

    Types are restricted without renormalization; on a component they keep
    full mass, so the result is again a valid structure, and each keeps its
    ``den`` and numerators, reindexed (``from_integer_form``). Raises
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
            support = tuple(reindex[w] for w in t.support())
            types_out.append(Distribution.from_integer_form(len(subset), support, t.den, t._nums))
        order = sorted(range(len(cells_out)), key=lambda k: cells_out[k][0])
        partitions.append(tuple(cells_out[k] for k in order))
        types.append(tuple(types_out[k] for k in order))
    return InformationStructure(states_out, structure.players, tuple(partitions), tuple(types))


def check_index(what: str, index: int, size: int) -> None:
    """DimensionError naming ``index`` unless ``0 <= index < size``."""
    if not 0 <= index < size:
        raise DimensionError(f"{what} index {index} out of range")


def single_player_view(structure: InformationStructure, player: int) -> InformationStructure:
    """The one-player structure (same states, this player's partition/types)."""
    check_index("player", player, structure.num_players)
    return InformationStructure(
        structure.states,
        (structure.players[player],),
        (structure.partitions[player],),
        (structure.cell_types[player],),
    )
