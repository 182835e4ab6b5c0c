"""Executable trace checks shared by the CLI and the test suite.

Each predicate returns a list of human-readable violation strings, empty
when the logged run satisfies the corresponding worst-case guarantee.
"""

from __future__ import annotations

from .bounds import ComplexityBudget, shrink_budget, success_count_bound
from .driver import RunReport
from .params import Schedule


def counting_violations(report: RunReport) -> list[str]:
    """Iteration-count inequality and the two-evaluations-per-iteration cap."""
    out = []
    bound = success_count_bound(report.n_successful, report.sigma_max_observed, report.params)
    if report.n_complete > bound:
        out.append(
            f"complete iterations {report.n_complete} exceed the success-count bound {bound:.3f}"
        )
    for rec in report.trace:
        if rec.fun_evals > 2:
            out.append(f"iteration {rec.k}: {rec.fun_evals} function evaluations (cap 2)")
    return out


def shrink_violations(report: RunReport, omega_min: float) -> list[str]:
    """Ladder-shrink budgets: per-iteration under FLEXIBLE, run-total under
    MONOTONIC.  ``omega_min`` must be a valid lower bound on omega_k."""
    nu = shrink_budget(omega_min, report.params.eps, report.params)
    out = []
    if report.params.schedule is Schedule.MONOTONIC:
        if report.total_shrinks > nu:
            out.append(f"total shrinks {report.total_shrinks} exceed the budget {nu}")
    else:
        for rec in report.trace:
            if rec.shrinks > nu:
                out.append(f"iteration {rec.k}: {rec.shrinks} shrinks exceed the budget {nu}")
    return out


def budget_violations(report: RunReport, budget: ComplexityBudget) -> list[str]:
    """Worst-case successful-iteration and sigma ceilings, and the evaluation
    budgets: function evaluations against ``max_fun_evals`` and each
    order's derivative evaluations against ``max_deriv_evals``, which
    bounds every order alone (an iteration evaluates each order at most
    once per ladder rung it visits)."""
    out = []
    if report.n_successful > budget.max_successful:
        out.append(
            f"successful iterations {report.n_successful} exceed the bound {budget.max_successful}"
        )
    sig = report.sigma_max_observed
    if sig > budget.sigma_max:
        out.append(f"observed sigma {sig:.6g} exceeds the ceiling {budget.sigma_max:.6g}")
    counters = report.counters
    if counters.fun_evals > budget.max_fun_evals:
        out.append(f"function evaluations {counters.fun_evals} exceed the budget {budget.max_fun_evals}")
    for j, count in sorted(counters.deriv_evals.items()):
        if count > budget.max_deriv_evals:
            out.append(f"order-{j} derivative evaluations {count} exceed the budget {budget.max_deriv_evals}")
    return out


def all_violations(report: RunReport, budget: ComplexityBudget | None = None) -> list[str]:
    out = counting_violations(report)
    if budget is not None:
        out += budget_violations(report, budget)
        out += shrink_violations(report, budget.omega_min)
    return out
