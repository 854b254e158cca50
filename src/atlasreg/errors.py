"""Exception hierarchy shared by all atlasreg modules, and argument type tests."""

import numbers


def is_integer(n) -> bool:
    """True if `n` is an integer, not a bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def is_natural(n) -> bool:
    """True if `n` is an integer >= 0, not a bool."""
    return is_integer(n) and n >= 0


def is_count(n) -> bool:
    """True if `n` is an integer >= 1, not a bool."""
    return is_natural(n) and n >= 1


def is_number(x) -> bool:
    """True if `x` is a real number, not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def require_type(kind, **values):
    """InvalidInputError naming the first of `values` that is not a `kind`,
    a type or a tuple of types (`type(None)` to allow None)."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for name, value in values.items():
        if not isinstance(value, kinds):
            expected = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
            raise InvalidInputError(f"{name} must be a {expected}, got {type(value).__name__}")


class AtlasRegError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(AtlasRegError):
    """An argument violates a precondition (empty list, bad shape, bad value)."""


class GeometryMismatchError(AtlasRegError):
    """Two volumes that must share dims/spacing/origin/direction do not."""


class DegenerateInputError(AtlasRegError):
    """Input has no usable intensity content (constant image, empty histogram)."""


class InvalidTransformError(AtlasRegError):
    """A transform is unusable (singular affine, incompatible lattice)."""


class NumericalFailureError(AtlasRegError):
    """Optimization produced a non-finite objective value or gradient.

    The message names the level and iteration that are given; `reason`
    keeps the message without them."""

    def __init__(self, message, level=None, iteration=None):
        self.reason, self.level, self.iteration = message, level, iteration
        if level is not None:
            message = f"{message} (level {level}, iteration {iteration})"
        elif iteration is not None:
            message = f"{message} at iteration {iteration}"
        super().__init__(message)


class UndefinedMetricError(AtlasRegError):
    """A metric is undefined for the given inputs (e.g. empty surface)."""


class NiftiFormatError(AtlasRegError):
    """File is not a single-file NIfTI-1 volume this package can read."""


class UnsupportedDatatypeError(NiftiFormatError):
    """NIfTI datatype code outside the supported set {2, 4, 16}."""


class UnsupportedDimensionalityError(NiftiFormatError):
    """NIfTI dim[0] is not 3."""


class TruncatedFileError(NiftiFormatError):
    """File ends before the declared voxel payload is complete."""
