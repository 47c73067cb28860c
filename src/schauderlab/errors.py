"""Exception hierarchy shared across the package."""


class SchauderLabError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(SchauderLabError):
    """Raised by the expression parser; carries the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(SchauderLabError):
    """Domain error during expression evaluation (division by zero, sqrt of
    a negative number, non-finite result); carries the offending subexpression."""

    def __init__(self, message, subexpr):
        super().__init__(f"{message} in subexpression '{subexpr}'")
        self.subexpr = subexpr


class SpecError(SchauderLabError):
    """Invalid operator specification, grid, cone, or problem setup."""


class NumericalError(SchauderLabError):
    """Numerical failure: singular accumulated diffusion, a singular step
    matrix or a step solve above its residual bound, characteristic
    blow-up."""


class ConfigError(SchauderLabError):
    """Invalid run configuration; carries a machine-readable reason."""

    def __init__(self, reason, detail=""):
        msg = reason if not detail else f"{reason}: {detail}"
        super().__init__(msg)
        self.reason = reason
