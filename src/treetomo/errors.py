"""Exception hierarchy shared by all treetomo modules.

Every error raised by the library derives from :class:`TreetomoError` so
callers (and the CLI) can map failures to stable exit codes.
"""


class TreetomoError(Exception):
    """Base class for all treetomo errors."""


class NotATree(TreetomoError):
    """Edge list contains a cycle, a disconnection, or a duplicate edge."""


class UnknownVertex(TreetomoError):
    """A vertex id is not part of the tree."""


class InvalidParameter(TreetomoError):
    """An argument is outside its documented domain."""


class MissingRow(TreetomoError):
    """A required transition row is absent from the kernel."""


class InvalidKernel(TreetomoError):
    """Kernel fails validation (support, positivity, or row sums)."""


class InvalidQuery(TreetomoError):
    """A law is asked for a time past its horizon, an unknown layer, or ``t_max < 0``."""


class NotInLambda(TreetomoError):
    """Vertex is not part of the embedded base tree."""


class NotAChild(TreetomoError):
    """Second vertex is not a child of the first."""


class ZeroDenominator(TreetomoError):
    """Recovery denominator vanished (possible only with empirical input)."""


class OutOfRange(TreetomoError):
    """Recovered probability fell outside [0, 1]."""


class RowSumViolation(TreetomoError):
    """Recovered row complement fell outside (0, 1)."""


class InsufficientData(TreetomoError):
    """An empirical cell required by the estimator is empty."""


class FormatError(TreetomoError):
    """A text artifact is malformed or covers an insufficient time range."""
