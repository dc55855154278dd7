"""Exception types shared across the package."""


class VonStaudtPoleError(ValueError):
    """B_n is not p-integral because (p-1) divides n."""


class InfeasibleFamilyError(ValueError):
    """The requested index family is empty."""


class PoleCancellationError(ArithmeticError):
    """A pole at z = 0 survived a sum that must be pole-free.

    This indicates an implementation bug, never bad input.
    """


class DegenerateParametersError(ValueError):
    """Hypergeometric parameters make a denominator factor vanish."""


class AllSamplesSkippedError(RuntimeError):
    """Every sampled evaluation point was inadmissible."""
