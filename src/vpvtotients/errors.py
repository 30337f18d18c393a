"""Exception types shared across the package.

The CLI maps these onto exit codes: usage, domain and resource errors exit 2,
IO failures exit 3.
"""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UsageError(ValueError):
    """Malformed request: empty input, unknown identifier, bad flag combination."""


class ResourceError(RuntimeError):
    """A computation would exceed its size cap."""


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent computation routes disagreed."""
