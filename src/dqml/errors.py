"""Exception types shared across the package."""


class DqmlError(Exception):
    """Base class for all package errors."""


class InvalidInputError(DqmlError):
    """Malformed or out-of-contract input (shape, range, parse)."""


class DegenerateFeatureError(InvalidInputError):
    """A feature vector, the whole training feature set or every class matrix is zero."""


class InfeasibleProblemError(DqmlError):
    """The constraint system cannot be satisfied (e.g. a zero-norm sample)."""


class UnboundedProblemError(DqmlError):
    """The objective decreases without bound on the given instance."""


class NumericalFailureError(DqmlError):
    """An iteration produced NaN or a linear-algebra routine failed."""


class ModelIOError(DqmlError):
    """Base class for model-file errors."""


class ModelFormatError(ModelIOError):
    """Bad magic bytes or otherwise unparseable model file."""


class ModelVersionError(ModelIOError):
    """Model file written by an incompatible format version."""


class ModelTruncatedError(ModelIOError):
    """Model file ends before all declared payload bytes."""


class ModelChecksumError(ModelIOError):
    """Model file payload does not match its trailing checksum."""
