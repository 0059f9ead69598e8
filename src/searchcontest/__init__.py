"""Numerics for binary-action search contests.

A crowd of cost-heterogeneous agents decides whether to search for an
object; finders split rank-ordered prizes by uniform tie-break. The
package solves the symmetric equilibrium and its large-field limits, the
designer's optimal prize and prize structure, expert and per-agent-ability
extensions, and validates everything against Monte Carlo simulation.
"""

from ._errors import ConvergenceError, InputError
from .distributions import (
    CostDistribution,
    PiecewiseLinear,
    PowerLaw,
    Uniform,
    distribution_from_spec,
)
from .equilibrium import (
    ContestConfig,
    EquilibriumResult,
    InteriorityCheck,
    check_interiority,
    solve_threshold,
    success_probability,
    sweep_n,
    win_probability,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "InputError",
    "CostDistribution",
    "PiecewiseLinear",
    "PowerLaw",
    "Uniform",
    "distribution_from_spec",
    "ContestConfig",
    "EquilibriumResult",
    "InteriorityCheck",
    "check_interiority",
    "solve_threshold",
    "success_probability",
    "sweep_n",
    "win_probability",
    "__version__",
]
