"""Exception hierarchy for the solver suite."""


class GaudinError(Exception):
    """Base class for all package errors."""


class CollisionError(GaudinError):
    """A rapidity collides with a level coordinate or another rapidity."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class DomainError(GaudinError):
    """A parameter lies outside its admissible range."""


class InsufficientModesError(GaudinError):
    """The secular equation supplies fewer real roots than requested."""


class SelectionError(GaudinError):
    """An occupation pattern is inconsistent with the available roots."""


class ConvergenceError(GaudinError):
    """Newton iteration failed to reach tolerance; carries the best iterate
    and, from newton_solve, the iterations it made."""

    def __init__(self, message, best=None, max_abs=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.max_abs = max_abs
        self.iterations = iterations


class SingularJacobianError(GaudinError):
    """Jacobian condition estimate exceeds the trust threshold; carries the
    Newton iterations made, the one that refused its Jacobian included."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class RepresentationError(GaudinError):
    """A matrix representation was requested at an off-grid deformation."""


class CutoffError(GaudinError):
    """The boson cutoff is too small for the requested state."""


class BasisMismatchError(GaudinError):
    """An operator expression references factors absent from the basis."""


class SpecFormatError(GaudinError):
    """A model-spec file failed to parse; carries the offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ValidationError(GaudinError):
    """A parsed spec violates a model invariant."""


class DegenerateLevelError(ValidationError):
    """Level coordinates coincide, or a spin or degeneracy is no su(2) label."""


class VerificationError(GaudinError):
    """A results file failed re-verification."""
