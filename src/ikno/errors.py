"""Exception and warning types shared across the library."""


class IknoError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(IknoError):
    pass


class DimMismatchError(IknoError):
    pass


class NonSymmetricError(IknoError):
    pass


class NoConvergenceError(IknoError):
    pass


class SingularError(IknoError):
    pass


class IllConditionedError(IknoError):
    pass


class EmptyInputError(IknoError):
    pass


class SingularDiagonalError(IknoError):
    pass


class SingularAxisError(IknoError):
    def __init__(self, axis, msg=None):
        super().__init__(msg or f"axis {axis}: (I - alpha*K) is singular")
        self.axis = axis


class CapExceededError(IknoError):
    pass


class BadRangeError(IknoError):
    pass


class ChannelMismatchError(IknoError):
    pass


class EmptyDatasetError(IknoError):
    pass


class NonpositiveTauError(IknoError):
    pass


class NonFiniteLossError(IknoError):
    pass


class NonFiniteGradientError(IknoError):
    pass


class TooManyRequestedError(IknoError):
    pass


class DuplicatePointsWarning(UserWarning):
    """Gram positive definiteness degrades to PSD when points repeat."""
