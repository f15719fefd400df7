"""The package's exceptions, one per way a caller handles a failure.

DomainError, a ValueError, is bad input: an argument out of range, a rate
window not strictly inside one regime, a malformed config file.  The CLI
reports it and exits 2.  ConvergenceError, a RuntimeError, is valid input
with no answer within budget: no attracting cycle, an empty peak, no clean
window; the CLI exits 1, as on any other failure.  RootCountError is the
one failure the package retries on its own, with a smaller epsilon.
"""


class DomainError(ValueError):
    """The input lies outside what an operation is defined on."""


class ConvergenceError(RuntimeError):
    """No answer within the computation's budget."""


class RootCountError(RuntimeError):
    """The comparison function H lacks four real zeros in [-0.5, 1.2]."""
