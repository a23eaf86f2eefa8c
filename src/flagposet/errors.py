"""Exception types shared across the package."""


class FlagPosetError(Exception):
    """Base class for all package-specific errors."""


class CycleDetected(FlagPosetError):
    """The cover digraph contains a directed cycle."""


class RedundantCover(FlagPosetError):
    """A stated cover is implied by a longer directed path."""


class UnknownElement(FlagPosetError):
    """A cover or query references an element not in the poset."""


class EmptySelection(FlagPosetError):
    """A rank selection was given an empty set of ranks."""


class InvalidParameter(FlagPosetError):
    """A parameter is outside its documented domain."""


class BudgetExceeded(FlagPosetError):
    """An enumeration exceeded its configured budget.

    Raised instead of returning a truncated (and therefore possibly
    wrong) answer.
    """


class UnknownVariable(FlagPosetError):
    """A variable is not part of the ideal's polynomial ring."""


class NotEquigenerated(FlagPosetError):
    """An operation requires all generators to share one degree."""


class NotAVPoset(FlagPosetError):
    """Co-letterplace construction needs a poset with a unique minimal
    element and exactly two maximal chains."""


class VariableClash(FlagPosetError):
    """Combination of ideals whose variable sets overlap."""


class NotGraded(FlagPosetError):
    """An operation requiring a rank function got an ungraded poset."""


class InvalidCertificate(FlagPosetError):
    """A certificate does not validate against its poset."""


class ParseError(FlagPosetError):
    """Malformed poset text input."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
