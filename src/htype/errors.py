"""Shared exception types."""

__all__ = [
    "HTypeError",
    "AlgebraMismatch",
    "StructureError",
    "CenterDimensionError",
    "BudgetExceeded",
    "ConvergenceError",
    "DatasetError",
    "DomainError",
    "CrossValidationError",
]


class HTypeError(Exception):
    """Base class for errors raised by this package."""


class AlgebraMismatch(HTypeError, ValueError):
    """Operands live in different division algebras."""


class StructureError(HTypeError, ValueError):
    """A structure tensor or serialized algebra fails validation."""


class CenterDimensionError(HTypeError, ValueError):
    """An operation requires a specific center dimension."""


class BudgetExceeded(HTypeError, RuntimeError):
    """A linear system or structure tensor is larger than the entry budget."""

    def __init__(self, requested, budget, context=""):
        self.requested = requested
        self.budget = budget
        self.context = context
        msg = f"system size {requested} entries exceeds budget {budget}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ConvergenceError(HTypeError, RuntimeError):
    """A solver or a closed form missed its residual target."""

    def __init__(self, residual, target, iterations):
        self.residual = residual
        self.target = target
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"residual {residual:.3e} > target {target:.3e}"
        )


class DatasetError(HTypeError, ValueError):
    """The bundled catalog dataset is missing or corrupted."""


class DomainError(HTypeError, ValueError):
    """A point lies outside the domain of the requested map."""


class CrossValidationError(HTypeError, RuntimeError):
    """Two independent computations of the same quantity disagree."""

    def __init__(self, label, discrepancy, tolerance):
        self.label = label
        self.discrepancy = discrepancy
        self.tolerance = tolerance
        super().__init__(
            f"{label}: discrepancy {discrepancy:.3e} > tolerance {tolerance:.3e}"
        )
