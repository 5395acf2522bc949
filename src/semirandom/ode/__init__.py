"""Numerical solution of the process drift systems."""

from .integrator import (
    DomainGuard,
    IntegrationResult,
    IntegratorConfig,
    OdeFailure,
    integrate,
)
from .systems import (
    HAM_S_BUDGET,
    HAM_X_STOP_DEFAULT,
    PM_EPS_DEFAULT,
    PM_UPPER_MARGIN,
    PhaseSolution,
    TableRecord,
    closed_form_degree1_constant,
    emit_tables,
    rhs_ham,
    rhs_min_degree,
    rhs_pm,
    solve_ham,
    solve_min_degree,
    solve_pm,
)

__all__ = [
    "DomainGuard",
    "IntegrationResult",
    "IntegratorConfig",
    "OdeFailure",
    "integrate",
    "HAM_S_BUDGET",
    "HAM_X_STOP_DEFAULT",
    "PM_EPS_DEFAULT",
    "PM_UPPER_MARGIN",
    "PhaseSolution",
    "TableRecord",
    "closed_form_degree1_constant",
    "emit_tables",
    "rhs_ham",
    "rhs_min_degree",
    "rhs_pm",
    "solve_ham",
    "solve_min_degree",
    "solve_pm",
]
