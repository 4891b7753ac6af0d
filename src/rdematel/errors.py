"""Exception hierarchy shared across the package."""


class RDematelError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(RDematelError, ValueError):
    pass


class ShapeError(RDematelError, ValueError):
    pass


class IntervalOrderError(RDematelError):
    """An operation produced (or was given) an interval with lower > upper."""


class DegenerateInputError(RDematelError, ValueError):
    pass


class SingularMatrixError(RDematelError):
    """The closure of D is undefined or untrustworthy: its series did not converge, or cond(I - D) is too large."""


class InsufficientExpertsError(RDematelError, ValueError):
    """Fewer than two experts: the rough aggregation of a cell needs at least two judgments."""


class ParseError(RDematelError, ValueError):
    """Malformed input file; message names the offending row/column."""


class BundleValidationError(RDematelError, ValueError):
    """Study bundle failed validation; ``errors`` lists every violation found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
