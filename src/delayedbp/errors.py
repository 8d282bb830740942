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
    """The P-F residual missed its tolerance when the shift-and-invert
    iteration stopped."""

    def __init__(self, iterations):
        self.iterations = iterations
        super().__init__(
            f"shift-and-invert P-F iteration missed its tolerance after "
            f"{iterations} iterations")


class NotStochasticError(DelayedBPError):
    def __init__(self, row, row_sum):
        self.row = row
        super().__init__(f"row {row} sums to {row_sum!r}, not 1")


class BracketFailureError(DelayedBPError):
    """No sign change for the growth-rate equation inside [1e-9, 1e9]."""


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
    def __init__(self, s):
        self.s = s
        super().__init__(f"mean trajectory exceeded 1e300 at time {s}")


class CapExceededError(DelayedBPError):
    """An enumeration would exceed its configured size cap."""


class BetaNotNormalizedError(DelayedBPError):
    def __init__(self, total):
        self.total = total
        super().__init__(
            f"step distribution sums to {total!r}; the Bernoulli-path estimator "
            "requires a family sharing P-F eigenvectors"
        )


class DegenerateDenominatorError(DelayedBPError):
    """Every delay has zero survival probability: the age distribution of the
    reproducing population is undefined."""


class AllTruncatedError(DelayedBPError):
    def __init__(self, replicas):
        super().__init__(f"all {replicas} replicas hit the population cap")
