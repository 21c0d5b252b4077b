"""Exact rational arithmetic backend.

Everything in this package computes with exact rationals; floats are rejected
at every parse boundary because rounding destroys the strict-vs-weak
inequality distinctions the certificates rest on.

The one backend is ``fractions.Fraction``. ``rational`` coerces ints,
Fractions and the strict literal grammar ``a`` / ``a/b`` (ASCII digits, a
minus sign on the numerator only, a nonzero denominator), and rejects floats
and booleans. ``parse_literal`` is that grammar, the one place it lives: it
reads a literal straight to a reduced ``(num, den)`` pair of ints.
``rational_text`` renders a rational as text (``a/b``, or ``a`` when the
denominator is 1) and ``to_json_value`` as a JSON value.

Ints of any length convert to and from decimal text: ``int_text`` and
``text_int`` use ``str`` and ``int``, and only past the interpreter's digit
limit (``sys.get_int_max_str_digits()``) split the number in halves at a
power of ten, recursively, until each piece is within it. ``int_text``
decides from the bit length, and in a narrow band by one comparison with
``10**limit``, whether an int is past the limit, so it never makes a
``str`` attempt it must throw away. The limit itself is never changed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)

# The interpreter's int-to-text digit limit; interpreters older than the
# limit (before 3.10.7) have none.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# No limit the interpreter accepts is below ``str_digits_check_threshold``
# (640) digits, and an int of b bits has fewer than b * 0.30103 + 1 digits,
# so ``str`` writes any int of fewer bits than this whatever the limit.
ANY_LIMIT_BITS = getattr(sys.int_info, "str_digits_check_threshold", 0) * 100000 // 30103


def int_text(n: int) -> str:
    """The decimal text of ``n``, at any length: past the digit limit, the
    texts of ``divmod(|n|, 10**k)`` for k about half its digits, the low
    half zero-padded to k digits.

    Just past the limit a failing ``str(n)`` converts the whole number
    before it compares the digit count, so ``str`` is only called on an int
    within the limit: one of fewer than ``ANY_LIMIT_BITS`` bits, or one
    that ``_within_limit`` admits."""
    if n.bit_length() < ANY_LIMIT_BITS or _within_limit(n):
        return str(n)
    k = n.bit_length() * 3 // 20  # log10(2) < 0.302: half the digits, or a little less
    hi, lo = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + int_text(hi) + int_text(lo).zfill(k)


def _within_limit(n: int) -> bool:
    """Whether |n| has at most as many digits as the interpreter's limit
    allows ``str`` to write (no limit: always). With b bits, |n| < 2**b has
    at most floor(b * log10(2)) + 1 digits and |n| >= 2**(b - 1) more than
    (b - 1) * log10(2); 0.30102 < log10(2) < 0.30103 keeps both bounds
    safe. Only in the few bit lengths where they disagree is |n| compared
    with 10**limit, the least int with one digit too many."""
    limit = _digit_limit()
    if not limit:
        return True
    b = n.bit_length()
    if b * 30103 < limit * 100000:
        return True
    if (b - 1) * 30102 >= limit * 100000:
        return False
    return abs(n) < 10**limit


def text_int(digits: str) -> int:
    """The int of decimal text, at any length: the inverse of ``int_text``.
    Past the digit limit it reads the text's two halves, the high one with
    the sign, and joins them as ``hi * 10**k +/- lo``. A piece such as
    ``-5`` inside the text would be taken as a number, so ``digits`` must
    already have passed a grammar check."""
    try:
        return int(digits)
    except ValueError:  # past the digit limit
        k = len(digits) // 2
        hi, lo = text_int(digits[:-k]), text_int(digits[-k:])
        return hi * 10**k + (-lo if digits[0] == "-" else lo)


def rational(value) -> Fraction:
    """Coerce ``value`` to an exact rational: an int, a Fraction, or an
    ``"a/b"`` / ``"a"`` string. Floats are rejected, even integral ones."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*parse_literal(value))
    raise TypeError(f"not a rational: {value!r} (floats are rejected; use 'a/b' strings)")


def parse_literal(text: str) -> tuple[int, int]:
    """``a`` or ``a/b`` as ``(num, den)`` in lowest terms with ``den > 0``:
    ASCII digits, an optional leading minus on the numerator only, and a
    nonzero denominator, of any length. Spaces, underscores, a plus sign and
    other digit scripts, all of which ``int`` would take, are rejected."""
    num, sep, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isdigit() and digits.isascii():
        if not sep:
            return text_int(num), 1
        if den.isdigit() and den.isascii() and den.strip("0"):
            a, b = text_int(num), text_int(den)
            g = gcd(a, b)
            return a // g, b // g
    raise ValueError(f"malformed rational literal: {text!r}")


def rational_text(q) -> str:
    """``a/b`` in lowest terms, or ``a`` when the denominator is 1, at any
    length: ``str(q)``, or past the digit limit its ``int_text`` parts."""
    try:
        return str(q)
    except ValueError:  # past the digit limit
        num, den = q.numerator, q.denominator
        return int_text(num) if den == 1 else int_text(num) + "/" + int_text(den)


def to_json_value(q):
    """JSON form: plain int when integral, ``"a/b"`` string otherwise."""
    if q.denominator == 1:
        return q.numerator
    return rational_text(q)
