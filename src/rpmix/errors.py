"""Exception hierarchy shared across the library."""

from enum import Enum


class RpmixError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(RpmixError):
    pass


class NonFiniteError(RpmixError, ValueError):
    """Input data contains NaN or infinity."""


class InvalidParameterError(RpmixError, ValueError):
    """A parameter lies outside its valid range."""


class _ParameterEnum(Enum):
    """An Enum parameter: `Cls(value)` takes a member or its string value, and
    an unknown value raises InvalidParameterError listing the valid ones."""

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(repr(member.value) for member in cls)
        raise InvalidParameterError(
            f"{value!r} is not a valid {cls.__name__}; choose from {valid}"
        )


class NotPositiveDefiniteError(RpmixError):
    pass


class IllConditionedError(RpmixError):
    pass


class TooFewComponentsError(RpmixError):
    pass


class BadDimsError(RpmixError):
    pass


class NotEnoughDataError(RpmixError):
    pass


class TooManyComponentsError(RpmixError):
    pass


class BadSeparationError(RpmixError):
    pass


class PackingError(RpmixError):
    """Center packing failed to satisfy every pairwise constraint."""


class DuplicatePointsError(RpmixError):
    pass


class EmptyComponentError(RpmixError):
    """A mixture component received (numerically) zero responsibility mass."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(f"empty component(s): {self.indices}")

    def __reduce__(self):
        # Pickle rebuilds from `args`, the message; rebuild from the indices.
        return type(self), (self.indices,)


class ShapeMismatchError(RpmixError):
    pass


class ParseError(RpmixError):
    pass


class InconsistentWidthError(ParseError):
    pass


class ClassTooSmallError(RpmixError):
    pass


class MissingDataError(RpmixError):
    pass


class ConfigError(RpmixError):
    pass
