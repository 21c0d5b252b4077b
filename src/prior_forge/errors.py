"""Error taxonomy.

Every rejection carries a precise reason. ``InputError`` subclasses map to CLI
exit code 2; ``VerificationError`` maps to exit code 4 and always indicates a
bug (a synthesized witness failed its own exact re-check).
"""

from __future__ import annotations


class PriorForgeError(Exception):
    """Base class for all package errors."""


class InputError(PriorForgeError):
    """A supplied structure, distribution, or document is malformed."""


class SchemaError(InputError):
    """JSON document violates the schema (bad shape, floats, wrong tag)."""


class PartitionError(InputError):
    """Cells empty, overlapping, or not covering the state space."""


class SupportError(InputError):
    """A type puts mass outside its own cell."""


class StochasticityError(InputError):
    """A type row is not a probability distribution."""


class InconsistencyError(InputError):
    """Payoffs offered as a trade sum to more than 0 at some state."""


class DimensionError(InputError):
    """Vector length does not match the state space or player count."""


class PlayerCountError(InputError):
    """Single-player operation applied to a multi-player structure."""


class EmptySetError(InputError):
    """An operation was handed the empty set where it is undefined."""


class NotAComponentError(InputError):
    """Substructure requested on a set that is not a common certainty component."""


class SizeCapError(InputError):
    """Instance exceeds an enumeration cap: events, the component family, or
    the LP oracle's variables, rows or bases."""


class VerificationError(PriorForgeError):
    """A witness or certificate failed exact re-verification. Always a bug."""
