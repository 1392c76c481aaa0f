"""Exception types shared across the package."""


class InvalidPointError(ValueError):
    """A coordinate fails the constraints of its geometry (non-unit sphere vector, point outside the open disk, planar coordinate past 1e100, non-finite component)."""


class DegenerateDirectionError(ValueError):
    """No direction can be defined because two points coincide (within tolerance)."""


class NoPairsError(ValueError):
    """A pairwise quantity was requested for a configuration with fewer than
    two distinct points: fewer than two points, or a minimal distance within
    dedup_tol where it serves as a unit (two points coincide)."""


class AmbiguousClassError(Exception):
    """Distance clustering produced classes too close together to separate reliably."""


class InsufficientPatchError(Exception):
    """A hyperbolic patch or a finite window is too small to verify any point at
    the requested radius."""


class ParameterDomainError(ValueError):
    """Parameters fall outside their domain: a generator's size, count, kind or
    flags, hyperbolic tiling parameters outside the hyperbolic regime, or a
    tolerance or verification cutoff that is not finite and positive."""


class SceneError(RuntimeError):
    """A constructed inequality scene failed to satisfy its defining constraints."""


class ValidationError(ValueError):
    """A configuration document failed schema or constraint validation.

    field names the offending document location (for example ``points[2]``).
    """

    def __init__(self, message, field="document"):
        self.field = field
        super().__init__(message)


class RenderError(ValueError):
    """Rendering was requested for an empty or degenerate window."""
