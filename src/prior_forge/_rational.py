"""Exact rational arithmetic backend.

Everything in this package computes with exact rationals; floats are rejected
at every parse boundary because rounding destroys the strict-vs-weak
inequality distinctions the certificates rest on.

The one backend is ``fractions.Fraction``. ``rational`` coerces ints,
Fractions and the strict literal grammar ``a`` / ``a/b`` (ASCII digits, a
minus sign on the numerator only, a nonzero denominator), and rejects floats
and booleans. ``format_rational`` renders a rational as text and
``to_json_value`` as a JSON value.
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
