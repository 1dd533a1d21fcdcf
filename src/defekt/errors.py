"""Exception types shared across the package.

Every domain failure raises a subclass of DefektError carrying a short
machine-readable code (used by the CLI to build error objects) and a
human-readable message.
"""
from __future__ import annotations


class DefektError(Exception):
    """Base class for all domain errors."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class FieldMismatch(DefektError):
    """Two objects over different ground fields were combined."""

    code = "field_mismatch"


class NotSquare(DefektError):
    """A square matrix was required."""

    code = "not_square"


class SingularMatrix(DefektError):
    """A matrix that had to be invertible was singular."""

    code = "singular_matrix"


class BothZero(DefektError):
    """lcm(0, 0) was requested."""

    code = "both_zero"


class PoleAtZero(DefektError):
    """A one-variable rational function has a pole at T = 0, so it has no
    power-series expansion."""

    code = "pole_at_zero"


class AlphabetMismatch(DefektError):
    """A word used a letter the theory's alphabet does not contain."""

    code = "alphabet_mismatch"


class BoundaryMismatch(DefektError):
    """Diagram composition was attempted along non-matching boundaries."""

    code = "boundary_mismatch"


class OrientationClash(DefektError):
    """A diagram component's orientation is incompatible with the boundary
    signs it is attached to."""

    code = "orientation_clash"


class NotClosed(DefektError):
    """A closed diagram was required but the diagram touches its boundary."""

    code = "not_closed"


class SizeBound(DefektError):
    """A requested computation exceeds the configured size bound."""

    code = "size_bound"


class DegenerateTrace(DefektError):
    """The bilinear form tr(ab) of a would-be Frobenius algebra is singular."""

    code = "degenerate_trace"


class ClosedComponent(DefektError):
    """A surface component without boundary was passed to an evaluator that
    needs at least one boundary circle."""

    code = "closed_component"


class Unsupported(DefektError):
    """The input is valid but outside the implemented fragment."""

    code = "unsupported"


class InvalidArgument(DefektError):
    """A numeric argument is outside the range the operation accepts."""

    code = "invalid_argument"


class SchemaError(DefektError):
    """A JSON document does not match its schema.  ``path`` names the
    offending location, e.g. ``interval.letters.a[0][1]``."""

    code = "schema"

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
