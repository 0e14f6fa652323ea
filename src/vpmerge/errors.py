"""Exception hierarchy shared by all vpmerge modules.

The CLI maps these onto exit codes: DomainError -> 2 (usage),
DataError and subclasses -> 3 (data); numpy's LinAlgError, and the
FloatingPointError it raises on overflow, invalid operations and
division by zero (never a warning or a NaN), -> 4 (numeric).
"""


class VpmergeError(Exception):
    """Base class for all vpmerge errors."""


class DomainError(VpmergeError):
    """An argument violates an operation's precondition."""


class DataError(VpmergeError):
    """Input data is malformed, non-finite, or otherwise unusable."""


class DegenerateError(DataError):
    """An event or tensor is too degenerate for the requested statistic."""
