"""Exception hierarchy shared across the package.

Validation-type errors (bad arguments, windows in the wrong parameter
regime, malformed config files) derive from ``ValueError`` so callers can
treat them uniformly; computation-type failures (no detectable period,
an empty peak, an H without four real zeros) derive from ``RuntimeError``.
The CLI maps the first family to exit code 2 and the second to exit 1.
"""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class RegimeError(ValueError):
    """A growth-rate window straddles a bifurcation boundary or lies in
    the wrong regime for the requested computation."""


class ConfigError(ValueError):
    """A config file is malformed or contains an unknown key."""


class ConvergenceError(RuntimeError):
    """An orbit did not settle onto a detectable cycle within budget."""


class RootCountError(RuntimeError):
    """The comparison function H does not have four real zeros in
    [-0.5, 1.2]."""


class EmptyPeakError(RuntimeError):
    """A peak split produced an empty side; the ensemble has not
    converged or the window is in the wrong regime."""


class WindowNotFoundError(RuntimeError):
    """No clean parameter window with the requested cycle length could
    be located."""
