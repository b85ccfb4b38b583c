"""Exception and warning types shared across the library.

Numerical failures are split into caller mistakes (DomainError and
subclasses: bad arguments, poles) and
internal breakdowns (NonConvergence, AccuracyError, NotPSD,
EmbeddingFailure: the inputs were legal but a numerical contract could
not be met).  Warnings never abort a computation; they flag results that
carry a documented caveat.
"""


class TplabError(Exception):
    """Base class for all library errors."""


class DomainError(TplabError, ValueError):
    """Argument outside the supported domain."""


class PoleError(DomainError):
    """Function evaluated exactly at a pole."""


class AccuracyError(TplabError, ArithmeticError):
    """Internal error estimate exceeded the promised tolerance."""


class NonConvergence(TplabError, RuntimeError):
    """Quadrature did not reach the requested tolerance.

    The partially-converged result is attached as ``partial`` (a QuadResult)
    so callers can decide whether the achieved accuracy is still usable.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class SlowDecay(NonConvergence):
    """Integrand tail decays too slowly for the tail bound to meet tol."""


class NotPSD(TplabError, RuntimeError):
    """Covariance matrix stayed indefinite past the jitter cap.

    With accurate kernel entries this means the Gram is numerically
    singular on its grid: too many points, or too close, for float64.
    """


class EmbeddingFailure(TplabError, RuntimeError):
    """Circulant embedding of an increment covariance was indefinite."""


class InsufficientData(TplabError, ValueError):
    """Estimator called with fewer paths or lags than its minimum."""


class DivergenceWarning(UserWarning):
    """Asymptotic series terms stopped decreasing; truncated at smallest."""


class RegimeWarning(UserWarning):
    """Estimator used outside the parameter regime its law assumes."""


class EmbeddingWarning(UserWarning):
    """Circulant embedding needed eigenvalue clamping or a fallback."""
