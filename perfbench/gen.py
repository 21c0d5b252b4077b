"""Deterministic input generators for the benchmark.

Inputs leave this module as ``prior-forge/1`` JSON documents, so they enter
the program through ``jsonio`` the way users' files do. Nothing here imports
``prior_forge``: the program under test sees only the generated documents.

Two modes:

* ``random_doc``: the duality battery's generator rules at a fixed size.
  Each player's partition is uniform over all set partitions of the states;
  each cell's type thins its support at rate 1/4 and draws a uniform
  composition with denominator at most ``max(6, support size)``.
* ``planted_doc``: a structure with a planted full-support common prior.
  Choose p, split the states into closed blocks, let each player's
  partition refine that split, and set each type to p conditioned on its
  cell. p is then a common prior charging every cell (a strong one), and
  each block is closed under every type.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

SCHEMA = "prior-forge/1"
DENOMINATOR_BOUND = 6
ZERO_MASS_RATE = Fraction(1, 4)


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    """One independent stream per (workload, seed, input index)."""
    return random.Random(f"{workload}:{seed}:{index}")


def _json_value(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@lru_cache(maxsize=None)
def _bell(n: int) -> int:
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k) * _bell(k) for k in range(n))


def set_partition(items: list[int], rng: random.Random) -> list[list[int]]:
    """Uniform over all set partitions of ``items`` (Bell recurrence)."""
    blocks = []
    rest = list(items)
    while rest:
        n = len(rest)
        pick = rng.randrange(_bell(n))
        acc = 0
        for size in range(1, n + 1):
            acc += math.comb(n - 1, size - 1) * _bell(n - size)
            if pick < acc:
                break
        mates = set(rng.sample(rest[1:], size - 1))
        blocks.append(sorted([rest[0], *mates]))
        rest = [x for x in rest[1:] if x not in mates]
    return blocks


def _composition(total: int, parts: int, rng: random.Random) -> list[int]:
    if parts == 1:
        return [total]
    edges = [0, *sorted(rng.sample(range(1, total), parts - 1)), total]
    return [edges[k + 1] - edges[k] for k in range(parts)]


def _random_type(cell: list[int], m: int, rng: random.Random) -> list[Fraction]:
    support = [
        s for s in cell
        if rng.randrange(ZERO_MASS_RATE.denominator) >= ZERO_MASS_RATE.numerator
    ]
    if not support:
        support = [cell[rng.randrange(len(cell))]]
    k = len(support)
    d = rng.randint(k, max(DENOMINATOR_BOUND, k))
    row = [Fraction(0)] * m
    for s, part in zip(support, _composition(d, k, rng)):
        row[s] = Fraction(part, d)
    return row


def _structure_doc(m: int, partitions, types) -> dict:
    states = [f"w{k + 1}" for k in range(m)]
    return {
        "schema": SCHEMA,
        "states": states,
        "players": [f"P{i + 1}" for i in range(len(partitions))],
        "partitions": [
            [[states[w] for w in cell] for cell in cells] for cells in partitions
        ],
        "types": [[[_json_value(v) for v in row] for row in rows] for rows in types],
    }


def dist_doc(masses: list[Fraction]) -> dict:
    return {"schema": SCHEMA, "dist": [_json_value(v) for v in masses]}


def uniform_masses(m: int) -> list[Fraction]:
    return [Fraction(1, m)] * m


def random_doc(m: int, n: int, rng: random.Random) -> dict:
    """A structure drawn by the battery's rules with exactly m states and n
    players."""
    partitions, types = [], []
    for _ in range(n):
        cells = set_partition(list(range(m)), rng)
        partitions.append(cells)
        types.append([_random_type(cell, m, rng) for cell in cells])
    return _structure_doc(m, partitions, types)


def full_support_masses(m: int, rng: random.Random) -> list[Fraction]:
    """Positive weights 1..DENOMINATOR_BOUND, normalised."""
    weights = [rng.randint(1, DENOMINATOR_BOUND) for _ in range(m)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def block_split(m: int, blocks: int, rng: random.Random) -> list[list[int]]:
    """States shuffled and cut into ``blocks`` non-empty runs."""
    order = list(range(m))
    rng.shuffle(order)
    cuts = [0, *sorted(rng.sample(range(1, m), blocks - 1)), m]
    return [sorted(order[cuts[k]:cuts[k + 1]]) for k in range(blocks)]


def planted_doc(
    m: int, n: int, blocks: int, rng: random.Random
) -> tuple[dict, list[Fraction]]:
    """A structure whose common prior is the returned full-support p."""
    prior = full_support_masses(m, rng)
    split = block_split(m, blocks, rng)
    partitions, types = [], []
    for _ in range(n):
        cells = sorted(
            (cell for block in split for cell in set_partition(block, rng)),
            key=lambda cell: cell[0],
        )
        rows = []
        for cell in cells:
            mass = sum(prior[w] for w in cell)
            row = [Fraction(0)] * m
            for w in cell:
                row[w] = prior[w] / mass
            rows.append(row)
        partitions.append(cells)
        types.append(rows)
    return _structure_doc(m, partitions, types), prior
