"""Known answers past the LP's reach: closed-form families at any M.

The chain ``harness.chain_structure(M, K)`` has one common prior,
p(w_{j+1}) = K^j / sum_i K^i, strong because it has full support. Closing
the chain at even M with one cell {w_1, w_M} whose type puts r on w_1 over
w_M gives a ring, which has a common prior iff r * K^(M-1) = 1, the cycle
condition (Rodrigues-Neto 2009): the closing type's mass 1/(K^(M-1) + 1)
on w_1 gives that prior, 1/(K^(M-1) + 2) gives none, and then an agreeable
trade. The expected priors are computed here on ints, with no code shared
with ``priors``.
"""

from fractions import Fraction

import pytest

from prior_forge import (
    Distribution,
    PriorWitness,
    VerificationError,
    classify_trade,
    find_agreeable_trade,
    find_common_prior,
    find_strong_common_prior,
    make_structure,
)
from prior_forge.harness import chain_structure

BIG = 2**64 - 1


def chain_prior(m, k):
    """K^j / sum_i K^i at state w_{j+1}, as a den and one numerator per state."""
    nums = [k**j for j in range(m)]
    return sum(nums), nums


def closed_form(m, den, nums):
    return Distribution.from_integer_form(m, tuple(range(m)), den, tuple(nums))


def ring(m, k, extra):
    """The chain on w_1..w_m (m even) closed by P2's cell {w_1, w_m}, whose
    type puts 1/(k^(m-1) + extra) on w_1."""
    pairs = [(w, w + 1) for w in range(0, m, 2)]
    links = [(w, w + 1) for w in range(1, m - 1, 2)]
    low, high = Fraction(1, k + 1), Fraction(k, k + 1)
    close = Fraction(1, k ** (m - 1) + extra)
    p1 = [{a: low, b: high} for a, b in pairs]
    p2 = [{0: close, m - 1: 1 - close}] + [{a: low, b: high} for a, b in links]
    partitions = [pairs, [(0, m - 1)] + links]
    return make_structure([f"w{j + 1}" for j in range(m)], ["P1", "P2"], partitions, [p1, p2])


@pytest.mark.parametrize("m, k", [(7, 3), (8, 999), (512, BIG)])
def test_the_chain_prior_is_its_closed_form(m, k):
    s = chain_structure(m, k)
    expected = closed_form(m, *chain_prior(m, k))
    assert find_common_prior(s).prior == expected
    assert find_strong_common_prior(s).prior == expected


@pytest.mark.parametrize("m, k", [(4, 3), (8, 999), (64, BIG)])
def test_the_ring_has_a_prior_iff_the_cycle_closes(m, k):
    closed = ring(m, k, 1)
    expected = closed_form(m, *chain_prior(m, k))
    assert find_common_prior(closed).prior == expected
    assert find_strong_common_prior(closed).prior == expected
    assert find_agreeable_trade(closed) is None

    broken = ring(m, k, 2)
    assert find_common_prior(broken) is None
    trade = find_agreeable_trade(broken)
    assert trade is not None and classify_trade(broken, trade.forms).agreeable


@pytest.mark.parametrize("m, k", [(8, 999), (512, BIG)])
def test_a_chain_prior_moved_by_one_unit_fails_verify(m, k):
    # One unit of the numerators moved from w_2 to w_3: P1's cell {w_1, w_2}
    # loses mass, so its type no longer gives p at w_1.
    den, nums = chain_prior(m, k)
    nums[1] -= 1
    nums[2] += 1
    with pytest.raises(
        VerificationError, match="^player 0 weights fail to reconstruct the prior at state 0$"
    ):
        PriorWitness(closed_form(m, den, nums)).verify(chain_structure(m, k))
