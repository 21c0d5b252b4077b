"""Exact rational arithmetic backend.

Everything in this package computes with exact rationals; floats are rejected
at every parse boundary because rounding destroys the strict-vs-weak
inequality distinctions the certificates rest on.

The one backend is ``fractions.Fraction``, and the hot paths build as few
of them as they can. Each ``lp.Constraint`` fixes its integer form at
construction; the simplex standardizes, pivots and checks its own points and
Farkas certificates on those ints and builds rationals only where it reads
results off (see ``lp``). Each ``model.Distribution`` is built from its
nonzero entries alone (``Distribution.from_support``): the parser skips the
literals ``0`` and ``"0"`` before ``rational``, the generators draw only the
support, and the dense rows hold the shared ``ZERO`` and ``0`` off it. It
carries integer numerators over its least common denominator, the lcm over
its support, fixed at construction: hull checks and witness verification
compare cross-multiplied ints, and masses, expectations, pump pieces and
deficits sum ints and build one rational per result. The block walk of ``priors`` runs on the types'
integer forms: every cell mass, state value and transfer is a reduced pair
of ints, compared by cross-multiplication, and rationals are built only for
its results (the prior, its hull weights, the margin and the boxed trade).
A money pump's semi-trade condition is one integer sign per player and
cell, and its deficit one integer sum, from one integer form per payoff row,
both in the search and, independently, in the witness's ``verify``.
The exponential single-player oracles (``priors.is_conglomerable`` and
``priors.disintegrable_by_definition``) walk the events in Gray-code order
with running integer sums.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction
ZERO = Rational(0)
ONE = Rational(1)


def rational(value) -> "Rational":
    """Coerce ``value`` to an exact rational: an int, a Fraction, or an
    ``"a/b"`` / ``"a"`` string. Floats are rejected, even integral ones."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Rational(value)
    if isinstance(value, str):
        return _parse_str(value)
    raise TypeError(f"not a rational: {value!r} (floats are rejected; use 'a/b' strings)")


def _parse_str(text: str) -> "Rational":
    """``a`` or ``a/b``: ASCII digits, an optional leading minus on the
    numerator only, and a nonzero denominator. Spaces, underscores, a plus
    sign and other digit scripts, all of which ``int`` would take, are
    rejected."""
    num, sep, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isdigit() and digits.isascii():
        if not sep:
            return Rational(int(num))
        if den.isdigit() and den.isascii() and den.strip("0"):
            return Rational(int(num), int(den))
    raise ValueError(f"malformed rational literal: {text!r}")


def format_rational(q) -> str:
    """Render as ``a/b``, or ``a`` when the denominator is 1."""
    return str(q)


def to_json_value(q):
    """JSON form: plain int when integral, ``"a/b"`` string otherwise."""
    if q.denominator == 1:
        return q.numerator
    return str(q)
