"""The trade oracles on N - 1 players against the full programs.

``harness``'s agreeable and acceptable programs hold payoffs for the first
N - 1 players only; the last player's is the budget's remainder,
f_N = -sum_{i<N} f_i, so the budget rows and N's boxed columns are gone.
The full programs, with a budget row per state and a boxed payoff per
player and state, live in ``oracles``. The two forms must decide alike, and
a positive reduced optimum, completed and divided by max(1, N - 1), must be
a trade of the grade the program decides.
"""

from fractions import Fraction
from itertools import product

import pytest

import oracles
from prior_forge import ZERO, classify_trade
from prior_forge import harness
from prior_forge.harness import GeneratorConfig, component_substructures, random_structure
from prior_forge.lp import solve
from prior_forge.model import integer_form, lowest_terms

FIXTURES = ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4")
KINDS = ("agreeable", "acceptable")
BROKEN = tuple(product((24, 48), (2, 3), ("mixed", "cycle"), (1, 2)))  # (M, N, kind, planted)


def _sources(request):
    """Per source: the structures, each followed by its minimal-component
    substructures other than itself."""
    yield "fixtures", [request.getfixturevalue(name) for name in FIXTURES]
    yield "seeds 0..999", [random_structure(GeneratorConfig(seed=k)) for k in range(1000)]
    wide = [GeneratorConfig(max_states=16, max_players=4, seed=k) for k in range(200)]
    yield "wide seeds 0..199", [random_structure(cfg) for cfg in wide]
    build = request.getfixturevalue("broken_planted")
    yield "broken planted", [build(*args) for args in BROKEN]


@pytest.fixture(scope="module")
def solved(request):
    """Per source, per (sub)structure and kind: the structure, the reduced
    program's outcome and the full program's."""
    found = {}
    for source, structures in _sources(request):
        rows = []
        for structure in structures:
            subs = [sub for _, sub in component_substructures(structure) if sub is not structure]
            for sub in (structure, *subs):
                for kind in KINDS:
                    reduced = solve(getattr(harness, f"{kind}_trade_program")(sub))
                    full = solve(getattr(oracles, f"{kind}_trade_program")(sub))
                    rows.append((sub, kind, reduced, full))
        found[source] = rows
    return found


@pytest.mark.parametrize("source", ("fixtures", "seeds 0..999", "wide seeds 0..199", "broken planted"))
def test_reduced_and_full_programs_decide_alike(solved, source):
    rows = solved[source]
    for structure, kind, reduced, full in rows:
        assert (reduced.status, full.status) == ("optimal", "optimal")
        decided = (reduced.objective_value > ZERO, full.objective_value > ZERO)
        assert decided[0] == decided[1], (kind, structure.states, decided)
        if structure.num_players == 1:
            assert decided == (False, False)
    # Every source holds both decisions of the agreeable program, and the
    # generated ones hold one-player structures too.
    assert {(k, r.objective_value > ZERO) for _, k, r, _ in rows} >= {("agreeable", False), ("agreeable", True)}
    if source.startswith(("seeds", "wide")):
        assert any(s.num_players == 1 for s, *_ in rows)


def completed(structure, outcome) -> tuple:
    """The reduced program's payoffs, with f_N = -sum_{i<N} f_i appended
    and the family divided by max(1, N - 1), as integer forms."""
    m, n = structure.num_states, structure.num_players
    rows = [list(outcome.primal[i * m : (i + 1) * m]) for i in range(n - 1)]
    rows.append([-sum(column, ZERO) for column in zip(*rows)])
    scale = max(1, n - 1)
    return tuple(lowest_terms(integer_form([v / scale for v in row])) for row in rows)


@pytest.mark.parametrize("source", ("fixtures", "seeds 0..999", "wide seeds 0..199", "broken planted"))
def test_a_positive_reduced_optimum_completes_to_a_graded_trade(solved, source):
    """The constructive half of the reduction: the completed family is
    boxed, spends its whole budget at every state, and is graded agreeable
    (or acceptable) exactly where its program says so."""
    graded = 0
    for structure, kind, reduced, _ in solved[source]:
        if not reduced.objective_value > ZERO:
            continue
        forms = completed(structure, reduced)
        assert all(abs(a) <= den for den, nums in forms for a in nums)
        for w in range(structure.num_states):
            assert sum(Fraction(nums[w], den) for den, nums in forms) == 0
        cls = classify_trade(structure, forms)
        assert cls.is_trade and getattr(cls, kind), (kind, structure.states, forms)
        graded += 1
    assert graded > 0
