"""Exception hierarchy shared across the package."""


class RematchError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RematchError, ValueError):
    """Malformed instance, trace, or subproblem data."""


class UnknownEdgeError(ValidationError):
    """A selection referenced an edge id that the instance does not declare."""


class LimitExceededError(RematchError):
    """A resource limit (enumeration, DP state space, exact search) was exceeded.

    CLI maps this to exit code 3.
    """


class DomainError(RematchError, ValueError):
    """A closed-form formula was evaluated outside its domain."""


class SolverError(RematchError):
    """An LP optimum could not be certified; never silently swallowed.

    CLI maps this to exit code 2.
    """
