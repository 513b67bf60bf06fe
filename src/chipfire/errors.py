"""Exception types shared across the package, and its one rule for counts.

Every integer input (a count, a cap, a size, a seed, a key) goes through
_as_int, operator.index, so a bool or an __index__ type is taken and a
float, even an integral one, a string, None or nan is a ValueError naming
the input; a count or cap then goes through _as_count's range check.
"""

from operator import index


class ChipfireError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ChipfireError):
    """Edge-list text is malformed at the token level."""


class InvalidGraph(ChipfireError):
    """Structurally invalid graph: self-loop, duplicate edge, id out of range."""


class EmptyGraph(ChipfireError):
    """Input describes a graph with no vertices."""


class Unsatisfiable(ChipfireError):
    """A random generator could not meet its constraints within its retry budget."""


class Disconnected(ChipfireError):
    """Operation requires a connected graph."""


class SizeMismatch(ChipfireError):
    """Configuration length does not match the graph's vertex count."""


class ResourceExhausted(ChipfireError):
    """A configured cap (orbit store, enumeration count, step budget) was exceeded."""


def _as_int(value, name: str) -> int:
    """value through operator.index; anything else is a ValueError naming it."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _as_count(value, name: str, least: int = 0) -> int:
    """A count or cap as an int, taken through _as_int as a candy count is
    (a bool is 0 or 1), and at least least: a smaller int is a ValueError
    naming it too."""
    value = _as_int(value, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value
