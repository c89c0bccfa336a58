"""Shared exception types."""


class ParseError(ValueError):
    """Malformed concrete syntax; carries the offending position."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class GrammarError(ValueError):
    """Ill-formed grammar, axiom set, or construction input."""


class UndeclaredSymbolError(GrammarError):
    """A queried string mentions a symbol the grammar does not declare."""


class CalculusError(ValueError):
    """A sequent uses connectives outside the selected calculus."""


class BudgetError(RuntimeError):
    """Search or enumeration ran out of its node budget.

    Deliberately distinct from a negative answer: callers must never
    treat an exhausted search as "not derivable".
    """

