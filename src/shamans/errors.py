"""Exception hierarchy shared across the package.

Each class carries the exit code the command line returns for it: 2 I/O or
file format, 3 numerical/fit failure, 4 incompatible inputs (the default).
"""

EXIT_IO, EXIT_NUMERICAL, EXIT_INCOMPATIBLE = 2, 3, 4


class ShamansError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_INCOMPATIBLE


class FormatError(ShamansError):
    """Malformed or unsupported file content (bad magic, version, encoding)."""

    exit_code = EXIT_IO


class TruncationError(FormatError):
    """File ends before the payload declared by its header."""


class GeometryError(ShamansError):
    """Inconsistent array/grid geometry (e.g. a source on top of a microphone)."""


class NormalizationError(ShamansError):
    """A vector that must be normalized is identically zero."""


class ShapeError(ShamansError):
    """Mismatched shapes, grids or frequency axes between operands."""


class ParameterError(ShamansError):
    """Parameter outside its documented range."""


class EstimationError(ShamansError):
    """Statistical estimation impossible on the given data."""

    exit_code = EXIT_NUMERICAL


class SingularSystemError(ShamansError):
    """Unregularized linear system is singular or too ill-conditioned to solve."""

    exit_code = EXIT_NUMERICAL


class SceneSpecError(ShamansError):
    """Invalid synthetic scene description."""


class UndefinedMetricError(ShamansError):
    """Metric undefined for the given inputs (e.g. AUC with one class)."""
