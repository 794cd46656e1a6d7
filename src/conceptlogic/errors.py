"""Exception types shared across the package."""


class ConceptLogicError(Exception):
    """Base class for all errors raised by this package."""


class SortMismatchError(ConceptLogicError):
    """An argument has the wrong sort for the requested operation."""

    def __init__(self, expected: str, actual: str, where: str = ""):
        self.expected = expected
        self.actual = actual
        suffix = f" in {where}" if where else ""
        super().__init__(f"expected sort {expected!r}, got {actual!r}{suffix}")


class DimensionError(ConceptLogicError):
    """A bitset or matrix does not match the carrier it is used with."""


class FormulaSyntaxError(ConceptLogicError):
    """Lexical, syntactic, or sort error in concrete formula syntax."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at column {position + 1})"
        super().__init__(message)


class SignatureError(ConceptLogicError):
    """A formula mentions a modality outside the expected signature."""


class ValuationError(ConceptLogicError):
    """A formula variable has no assignment in the model's valuation."""


class FrameError(ConceptLogicError):
    """Invalid relational frame: bad carriers or relations."""


class BudgetExceededError(ConceptLogicError):
    """An exhaustive check would exceed its assignment budget.

    Carries the exact number of valuations the check would require; the
    caller must either raise the budget or refuse, never approximate.
    """

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"exhaustive check needs {required} valuations, budget is {budget}"
        )


class LatticeError(ConceptLogicError):
    """A concept set does not carry the expected lattice structure."""


class _LineError(ConceptLogicError):
    """An error in an input document, prefixed with its line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ProofScriptError(_LineError):
    """Malformed proof script file."""


class CxtFormatError(_LineError):
    """Malformed context document (CXT or CSV)."""


class InternalConsistencyError(ConceptLogicError):
    """Two computations that must agree by construction disagreed."""
