"""Exception hierarchy shared by all delayedbp modules."""


class DelayedBPError(Exception):
    """Base class for all library errors."""


class SchemaError(DelayedBPError, ValueError):
    """A config value breaks a rule of the model (or of ``generate``'s input),
    or a command-line option breaks a rule that depends on the model.

    ``field`` carries the dotted config path to the offending entry, or the
    option's name.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class DuplicateDelayError(SchemaError):
    def __init__(self, delays):
        super().__init__("delays", f"duplicate entries in {list(delays)}")


class NegativeEntryError(SchemaError):
    def __init__(self, field, value):
        super().__init__(field, f"negative value {value!r}")


class NonIrreducibleError(DelayedBPError):
    """A mean matrix is reducible; all downstream spectral theory assumes
    irreducibility."""

    def __init__(self, delay):
        self.delay = delay
        super().__init__(f"mean matrix at delay {delay} is reducible")


class NoConvergenceError(DelayedBPError):
    """An iteration stopped short of its tolerance: by default the
    shift-and-invert P-F iteration, whose residual missed its bound."""

    def __init__(self, iterations, what="shift-and-invert P-F iteration"):
        self.iterations = iterations
        super().__init__(f"{what} missed its tolerance after {iterations} iterations")


class NotStochasticError(DelayedBPError):
    def __init__(self, row, row_sum):
        self.row = row
        super().__init__(f"row {row} sums to {row_sum!r}, not 1")


class PeriodicFamilyError(DelayedBPError):
    """The family's cycle lengths have a common divisor above one: the
    weighted means oscillate over residues of that period and have no limit."""

    def __init__(self, period):
        self.period = period
        super().__init__(f"the family has period {period}; the weighted means have no limit")


class TailDivergesError(DelayedBPError):
    """The geometrically weighted lifetime series diverges
    (tail ratio times exp(-theta) is >= 1)."""


class HorizonTooLargeError(DelayedBPError):
    """A value left its computable range at index ``s``: a time, age or lag."""

    def __init__(self, s, message=None):
        self.s = s
        super().__init__(message or f"mean trajectory exceeded 1e300 at time {s}")


class OutOfMemoryError(DelayedBPError):
    """The machine refused memory that a request needs, such as the arrays of
    a very long horizon."""


class CapExceededError(DelayedBPError):
    """An enumeration would exceed its configured size cap."""


class DegenerateDenominatorError(DelayedBPError):
    """Every delay has zero survival probability: the age distribution of the
    reproducing population is undefined."""


class AllTruncatedError(DelayedBPError):
    def __init__(self, replicas):
        super().__init__(f"all {replicas} replicas hit the population cap")
