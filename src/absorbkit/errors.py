"""Exception hierarchy shared by all absorb-kit modules.

Exit-code mapping used by the CLI: ParameterError -> 3,
CapacityError/BudgetError/ReliabilityError -> 2, verified-negative
results -> 1.
"""


class AbsorbKitError(Exception):
    """Base class for all package errors."""


class ParameterError(AbsorbKitError):
    """Invalid argument: bad vertex id, q <= r, root mismatch, ..."""


class ParseError(AbsorbKitError):
    """Malformed input file; message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CapacityError(AbsorbKitError):
    """Instance exceeds a hard size cap of an exhaustive procedure."""


class BudgetError(AbsorbKitError):
    """Search budget exhausted; distinct from a certified negative."""


class PreconditionError(AbsorbKitError):
    """Caller violated a documented precondition (e.g. non-divisible L)."""


class DivisibilityError(AbsorbKitError):
    """A divisibility requirement fails where it is mandatory."""


class ConstructionError(AbsorbKitError):
    """A verified construction failed its own check; indicates a bug."""


class ReliabilityError(AbsorbKitError):
    """A statistical procedure failed too often to report a result."""
