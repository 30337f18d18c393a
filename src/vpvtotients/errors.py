"""Exception types shared across the package, and its one integer check.

The CLI maps these onto exit codes: usage, domain and resource errors exit 2,
IO failures exit 3.
"""

from numbers import Integral
from operator import index

# int first: a Python int passes without the much slower numbers.Integral
# check, which vpv.FiniteSequence makes on this tuple once per support key
INTEGERS = (int, Integral)


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UsageError(ValueError):
    """Malformed request: empty input, unknown identifier, bad flag combination."""


class ResourceError(RuntimeError):
    """A computation would exceed its size cap."""


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent computation routes disagreed."""


def integers(*values) -> tuple[int, ...]:
    """The values as Python ints, numpy ints converted by operator.index and the
    argument tuple itself if all are Python ints; DomainError for a non-integer,
    which the closed forms would read as a float, fail on, or overflow in int64."""
    for v in values:  # a loop, not all(): every selector passes here
        if type(v) is not int:
            if not all(isinstance(x, INTEGERS) for x in values):
                raise DomainError(f"arguments must be integers, got {values!r}")
            return tuple(map(index, values))
    return values


def integer_tuple(n) -> tuple[int, ...]:
    """n as a tuple of Python ints; DomainError if it is empty or holds a non-integer."""
    if not n or not all(isinstance(x, INTEGERS) for x in n):
        raise DomainError(f"n must be a non-empty tuple of integers, got {n!r}")
    return tuple(map(index, n))
