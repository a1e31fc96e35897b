"""Exception types shared across the package."""


class LuxglueError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(LuxglueError):
    """A NaN or infinity reached a numerical kernel that forbids it."""


class NegativeArgument(LuxglueError):
    """Young-function argument below zero."""


class DegenerateParams(LuxglueError):
    """Parameter combination excludes the requested claim (e.g. a linear weight)."""


class NegativeDensity(LuxglueError):
    """Entropy requested for a density with negative values."""


class ZeroMass(LuxglueError):
    """Measure has zero total mass where positive mass is required."""


class GammaOutOfRange(LuxglueError):
    """Iteration exponent outside its admissible interval."""


class BetaNotGreaterThanAlpha(LuxglueError):
    """Decay exponent must exceed the growth exponent for vanishing."""


class HypothesisFails(LuxglueError):
    """Level-set function violates the iteration hypothesis."""


class GridTooShort(LuxglueError):
    """Level-set grid does not reach the predicted vanishing point."""


class NonPositiveEps(LuxglueError):
    """Regularization radius must be positive."""


class IncompatiblePieces(LuxglueError):
    """Slope chain of the two pieces fails the strict compatibility inequalities."""


class NotStrictlyConvexPiece(LuxglueError):
    """A piece misses the curvature/positivity floor its gluing mode requires."""


class DeltaSearchFailed(LuxglueError):
    """No dyadic margin satisfies the gluing side conditions at grid resolution."""


class OutOfDomain(LuxglueError):
    """Evaluation point outside the function's domain."""


class VerificationFailed(LuxglueError):
    """A checked identity or certified bound failed at runtime."""


class InvalidInput(LuxglueError, ValueError):
    """Argument outside the domain a function documents (a ValueError too)."""


class BadConfig(LuxglueError):
    """CLI configuration is malformed or inconsistent."""


class FileFormat(LuxglueError):
    """Input data file does not match the expected format."""
