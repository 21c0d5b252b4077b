"""Common certainty components and maximality of distributions.

The support graph has an edge from a state to every state some player's type
at it charges. A common certainty component is a non-empty forward-closed set
of states; the minimal ones are exactly the bottom strongly connected
components, and every component contains a minimal one, so "for every
component" checks reduce to the minimal list (the reduction itself is covered
by tests, not assumed).
"""

from __future__ import annotations

from typing import Iterable

from .errors import DimensionError, EmptySetError, SizeCapError
from .model import Distribution, InformationStructure


def support_graph(structure: InformationStructure) -> tuple[tuple[int, ...], ...]:
    """Per-state successor lists (sorted, deduplicated). Memoized on the
    structure: ``closure`` and the condensation read the same graph."""
    return structure.derived("support_graph", _support_graph)


def _support_graph(structure: InformationStructure) -> tuple[tuple[int, ...], ...]:
    adj = []
    for s in range(structure.num_states):
        succ: set[int] = set()
        for i in range(structure.num_players):
            succ.update(structure.type_at(i, s).support())
        adj.append(tuple(sorted(succ)))
    return tuple(adj)


def closure(structure: InformationStructure, state: int) -> tuple[int, ...]:
    """The smallest component containing ``state``: itself plus everything
    reachable from it in the support graph. Each state's closure is walked
    once per structure and kept in a table on it, filled on demand: the
    commonly-certain checks ask for the same few closures many times."""
    if not 0 <= state < structure.num_states:
        raise DimensionError(f"state index {state} out of range")
    table = structure.derived("closures", lambda s: [None] * s.num_states)
    if table[state] is None:
        adj = support_graph(structure)
        seen = {state}
        stack = [state]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        table[state] = tuple(sorted(seen))
    return table[state]


def is_commonly_certain(structure: InformationStructure, event: Iterable[int], state: int) -> bool:
    """True when some component around ``state`` sits inside ``event``."""
    ev = frozenset(event)
    if not ev:
        raise EmptySetError("the empty event is never commonly certain")
    return ev.issuperset(closure(structure, state))


def _strongly_connected_components(adj: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Iterative Tarjan; components come out children-first (sinks early)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
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
                out.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return out


def _condensation(
    structure: InformationStructure,
) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """Strongly connected components of the support graph and, for each, the
    other components its edges reach in one step."""
    adj = support_graph(structure)
    sccs = _strongly_connected_components(adj)
    comp_of = [0] * len(adj)
    for k, comp in enumerate(sccs):
        for s in comp:
            comp_of[s] = k
    successors = []
    for k, comp in enumerate(sccs):
        succ = {comp_of[nxt] for s in comp for nxt in adj[s]} - {k}
        successors.append(tuple(sorted(succ)))
    return sccs, successors


def minimal_components(structure: InformationStructure) -> tuple[tuple[int, ...], ...]:
    """Bottom strongly connected components of the support graph, ordered by
    smallest contained state index. Memoized on the structure."""
    return structure.derived("minimal_components", _minimal_components)


def _minimal_components(structure: InformationStructure) -> tuple[tuple[int, ...], ...]:
    sccs, successors = _condensation(structure)
    bottoms = (tuple(comp) for comp, succ in zip(sccs, successors) if not succ)
    return tuple(sorted(bottoms, key=lambda c: c[0]))


def component_family(
    structure: InformationStructure, max_states: int = 20
) -> tuple[tuple[int, ...], ...]:
    """Every component once: the successor-closed unions of strongly
    connected components, possibly exponentially many. Ordered by the bit
    mask of the SCCs they join (Tarjan's order, sinks early)."""
    if structure.num_states > max_states:
        raise SizeCapError(
            f"{structure.num_states} states exceeds the component enumeration cap {max_states}"
        )
    sccs, successors = _condensation(structure)
    k = len(sccs)
    succ_masks = [0] * k
    for a, succs in enumerate(successors):
        for b in succs:
            succ_masks[a] |= 1 << b
    family = []
    for mask in range(1, 1 << k):
        if all(not succ_masks[a] & ~mask for a in range(k) if mask >> a & 1):
            members: list[int] = []
            for a in range(k):
                if mask >> a & 1:
                    members.extend(sccs[a])
            family.append(tuple(sorted(members)))
    return tuple(family)


def is_maximal(structure: InformationStructure, p: Distribution) -> bool:
    """Positive mass on every component (equivalently, on every minimal one)."""
    _check_dist(structure, p)
    return all(any(p[w] for w in comp) for comp in minimal_components(structure))


def is_strongly_maximal(structure: InformationStructure, p: Distribution) -> bool:
    """Positive mass on every cell of every player."""
    _check_dist(structure, p)
    return all(
        any(p[w] for w in cell)
        for i in range(structure.num_players)
        for cell in structure.partitions[i]
    )


def _check_dist(structure: InformationStructure, p: Distribution) -> None:
    if len(p) != structure.num_states:
        raise DimensionError(f"distribution has {len(p)} entries, expected {structure.num_states}")
