"""Exception types shared across the package, and the argument checks
that raise them.

Two failure families matter to callers: bad inputs (rejected before any
numerics run) and solvers that fail to converge or land in an inconsistent
state. The CLI maps them to exit codes 2 and 3 respectively.
"""

import math


class InputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver fails to converge or its result
    fails a required consistency check."""


def check_find_probability(q: float) -> None:
    """Reject a find probability outside (0, 1]."""
    if not (0.0 < q <= 1.0):
        raise InputError(f"q must lie in (0, 1], got {q}")


def check_positive(name: str, value: float) -> None:
    """Reject a prize or stake that is not positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise InputError(f"{name} must be positive and finite, got {value}")
