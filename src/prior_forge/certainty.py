"""Common certainty components and maximality of distributions.

The support graph has an edge from a state to every state some player's type
at it charges. A common certainty component is a non-empty forward-closed set
of states; the minimal ones are exactly the bottom strongly connected
components, and every component contains a minimal one, so "for every
component" checks reduce to the minimal list (the reduction itself is covered
by tests, not assumed).

Every question here reads one contracted graph. A type lives on its own
cell, and every state of the cell has an edge to every state of the type's
support, the support's own states included, so the states of one support
reach each other: they lie in one strongly connected component. Uniting
each support's states, in one pass over the nonzero type entries,
therefore merges only states of one component, and every edge of the
support graph runs from a state to a class. The contracted graph has one
node per class and one edge from the class of each state to the class of
each of its cells' supports, so at most one per state and player, against
one per state and support entry in the support graph. A state reaches what
its class reaches, and the graph's strongly connected components, unions of
classes, are exactly those of the support graph: its bottom ones are the
minimal components, and the components are the successor-closed unions of
them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import DimensionError, EmptySetError, SizeCapError
from .model import Distribution, InformationStructure, check_index

COMPONENT_CAP = 20  # component_family refuses structures beyond this many states


class _Graph(NamedTuple):
    """The contracted support graph. Classes are numbered by least state;
    ``members`` and ``successors`` are sorted tuples, and ``sccs`` lists the
    strongly connected components as sorted tuples of classes in Tarjan's
    order, children first (sinks early)."""

    class_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    successors: tuple[tuple[int, ...], ...]
    sccs: tuple[tuple[int, ...], ...]


def _graph(structure: InformationStructure) -> _Graph:
    """Memoized on the structure: every reader below shares one graph."""
    return structure.derived("contracted_graph", _contract)


def _contract(structure: InformationStructure) -> _Graph:
    """Each support's states are united with path halving, each cell adds one
    edge per state to its support's class, and Tarjan runs on the classes."""
    parent = list(range(structure.num_states))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    for types in structure.cell_types:
        for t in types:
            support = t.support()
            root = find(support[0])
            for w in support[1:]:
                other = find(w)
                if other != root:
                    parent[other] = root
    roots = [find(s) for s in range(structure.num_states)]
    node = {r: k for k, r in enumerate(dict.fromkeys(roots))}
    class_of = tuple(node[r] for r in roots)
    members: list[list[int]] = [[] for _ in node]
    for s, k in enumerate(class_of):
        members[k].append(s)
    succ: list[set[int]] = [set() for _ in node]
    for cells, types in zip(structure.partitions, structure.cell_types):
        for cell, t in zip(cells, types):
            target = class_of[t.support()[0]]
            for s in cell:
                succ[class_of[s]].add(target)
    adj = tuple(tuple(sorted(x)) for x in succ)
    return _Graph(class_of, tuple(map(tuple, members)), adj, _strongly_connected_components(adj))


def closure(structure: InformationStructure, state: int) -> tuple[int, ...]:
    """The smallest component containing ``state``: itself plus everything
    reachable from it, walked afresh on each call over the classes of the
    structure's memoized graph."""
    check_index("state", state, structure.num_states)
    graph = _graph(structure)
    start = graph.class_of[state]
    seen = {start}
    stack = [start]
    while stack:
        for nxt in graph.successors[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return tuple(sorted(s for k in seen for s in graph.members[k]))


def is_commonly_certain(structure: InformationStructure, event: Iterable[int], state: int) -> bool:
    """True when some component around ``state`` sits inside ``event``."""
    ev = frozenset(event)
    if not ev:
        raise EmptySetError("the empty event is never commonly certain")
    for w in (min(ev), max(ev)):
        check_index("state", w, structure.num_states)
    return ev.issuperset(closure(structure, state))


def _strongly_connected_components(adj: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Iterative Tarjan; components come out children-first (sinks early)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work.pop()
            if ptr == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(ptr, len(adj[node])):
                nxt = adj[node][k]
                if index[nxt] == -1:
                    work.append((node, k + 1))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp.append(member)
                    if member == node:
                        break
                out.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return tuple(out)


def minimal_components(structure: InformationStructure) -> tuple[tuple[int, ...], ...]:
    """Bottom strongly connected components of the support graph, ordered by
    smallest contained state index. Memoized on the structure."""
    return structure.derived("minimal_components", _minimal_components)


def _minimal_components(structure: InformationStructure) -> tuple[tuple[int, ...], ...]:
    """The sink components of the contracted graph, expanded to their states."""
    graph = _graph(structure)
    bottoms = []
    for comp in graph.sccs:
        inside = set(comp)
        if all(inside.issuperset(graph.successors[k]) for k in comp):
            bottoms.append(tuple(sorted(s for k in comp for s in graph.members[k])))
    return tuple(sorted(bottoms, key=lambda c: c[0]))


def component_family(structure: InformationStructure) -> tuple[tuple[int, ...], ...]:
    """Every component once: the successor-closed unions of strongly
    connected components, possibly exponentially many. Ordered by the bit
    mask of the components they join (Tarjan's order on the contracted
    graph, sinks early).

    Tarjan emits each component after every component it reaches, so the
    closed unions of components 0..a are those of 0..a-1, followed by those
    of them that contain all of a's successors with a added: each is built
    once, as a mask over classes, in increasing order, with no scan of the
    2^k subsets."""
    if structure.num_states > COMPONENT_CAP:
        raise SizeCapError(
            f"{structure.num_states} states exceeds the component enumeration cap {COMPONENT_CAP}"
        )
    graph = _graph(structure)
    closed = [0]  # masks over classes
    for comp in graph.sccs:
        bits = sum(1 << k for k in comp)
        need = sum({1 << j for k in comp for j in graph.successors[k]})
        closed += [m | bits for m in closed if not need & ~(m | bits)]
    return tuple(
        tuple(sorted(s for k, states in enumerate(graph.members) if mask >> k & 1 for s in states))
        for mask in closed[1:]
    )


def is_maximal(structure: InformationStructure, p: Distribution) -> bool:
    """Positive mass on every component (equivalently, on every minimal one)."""
    check_dimension(structure, p)
    charged = _charged(p)
    return all(not charged.isdisjoint(comp) for comp in minimal_components(structure))


def is_strongly_maximal(structure: InformationStructure, p: Distribution) -> bool:
    """Positive mass on every cell of every player."""
    check_dimension(structure, p)
    charged = _charged(p)
    return all(not charged.isdisjoint(cell) for cells in structure.partitions for cell in cells)


def _charged(p) -> frozenset[int]:
    """The states p charges: a ``Distribution``'s support, or the nonzero
    entries of a plain sequence (rationals, or 0/1 marks of a support)."""
    if isinstance(p, Distribution):
        return frozenset(p.support())
    return frozenset(w for w, v in enumerate(p) if v)


def check_dimension(structure: InformationStructure, p: Distribution) -> None:
    """The one length check of a distribution against a structure's states."""
    if len(p) != structure.num_states:
        raise DimensionError(
            f"distribution has {len(p)} entries, structure has {structure.num_states} states"
        )
