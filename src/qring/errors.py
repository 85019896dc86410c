"""Exception and warning types shared across the package."""


class QringError(Exception):
    """Base class for package-specific errors."""


class NonUnitary(QringError):
    """A matrix expected to be unitary failed its tolerance check."""


class NotUnitary(QringError):
    """An induced boundary-matrix transformation left the unitary group."""


class InternalInvariant(QringError):
    """A solver invariant was violated; indicates a bug or pathological input."""


class RankMismatch(QringError):
    """Numerical null-space dimension disagreed with the assigned multiplicity."""


class NotSusyCase(QringError):
    """Supersymmetry checks apply only to the two fully degenerate singularities."""


class Ambiguous(QringError):
    """Spectral data sits on, or straddles, the boundary between inversion cases."""


class Inconsistent(QringError):
    """Spectral data violates a structural constraint of its inversion case."""


class DegenerateTail(QringError):
    """No usable root with nonvanishing sin(k l) in the given spectrum."""


class NoisyTail(QringError):
    """Asymptotic coefficient extraction exceeded its residual tolerance."""


class NoConvergence(QringError):
    """Least-squares inversion failed to reach the target residual."""


class NonConvergent(QringError):
    """Real-time image sums require an explicit truncation order."""


class SingularCoefficients(QringError):
    """Closed-form image coefficients are singular for this boundary matrix."""


class Unsupported(QringError):
    """No closed-form propagator is available for this boundary matrix."""


class WeightOverflow(QringError):
    """A spectral weight e^{-i E t} lies beyond float range."""


class NotSpecialUnitary(QringError):
    """Conjugations must be by special unitary matrices."""


class TruncationWarning(UserWarning):
    """A spectral sum was truncated before reaching the requested tolerance."""
