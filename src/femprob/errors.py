"""Exception hierarchy shared by all femprob modules."""


class FemProbError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(FemProbError, ValueError):
    """An input violates a documented precondition (domain, type, range)."""


class InsufficientDataError(FemProbError):
    """Not enough data to produce a meaningful estimate or fit."""


class UnsupportedProblemError(FemProbError, KeyError):
    """Unknown problem name, or a closed-form quantity is not registered."""

    # KeyError's str() is the repr of its key; this error carries a message
    __str__ = Exception.__str__
