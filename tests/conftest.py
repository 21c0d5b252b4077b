import itertools
import json
import pathlib
import random

import pytest

from prior_forge.harness import planted_structure
from prior_forge.jsonio import parse_structure
from prior_forge.model import make_structure

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str):
    with open(FIXTURES / f"{name}.json", "r", encoding="utf-8") as fh:
        return parse_structure(json.load(fh))


@pytest.fixture(scope="session")
def fixture_path():
    return lambda name: FIXTURES / f"{name}.json"


@pytest.fixture(scope="session")
def intro():
    return load_fixture("intro")


@pytest.fixture(scope="session")
def pl():
    return load_fixture("pl")


@pytest.fixture(scope="session")
def ex_pl1():
    return load_fixture("ex_pl1")


@pytest.fixture(scope="session")
def ex_pl2():
    return load_fixture("ex_pl2")


@pytest.fixture(scope="session")
def pl4():
    return load_fixture("pl4")


@pytest.fixture(scope="session")
def ex_plbet4():
    return load_fixture("ex_plbet4")


def linked_without(structure, cell):
    """Labels of the state sets that the cells other than P1's ``cell``
    link, as a list indexed by state."""
    label = list(range(structure.num_states))
    for i, cells in enumerate(structure.partitions):
        for other in cells:
            if (i, other) != (0, cell):
                old = {label[w] for w in other}
                label = [label[other[0]] if x in old else x for x in label]
    return label


def broken(structure, kind, rng):
    """``structure`` with P1's type changed on two states a, b of one cell
    that the other cells also link: b zeroed, its mass moved to a (a mixed
    charge at b), or half of b's mass moved to a (a ratio cycle through the
    cell and the link)."""
    pairs = []
    for c, cell in enumerate(structure.partitions[0]):
        label = linked_without(structure, cell)
        pairs += [(c, a, b) for a, b in itertools.combinations(cell, 2) if label[a] == label[b]]
    c, a, b = rng.choice(pairs)
    types = [list(row) for row in structure.cell_types]
    t = types[0][c] = list(types[0][c])
    moved = t[b] if kind == "mixed" else t[b] / 2
    t[a], t[b] = t[a] + moved, t[b] - moved
    return make_structure(structure.states, structure.players, structure.partitions, types)


@pytest.fixture(scope="session")
def broken_planted():
    """A planted structure at (m, n, blocks = planted), broken by ``kind``
    ("mixed" or "cycle"), from one stream seeded by the four values."""

    def build(m, n, kind, planted):
        rng = random.Random(f"{m}:{n}:{kind}:{planted}")
        return broken(planted_structure(m, n, planted, rng)[0], kind, rng)

    return build
