"""Executable trace checks shared by the CLI and the test suite.

Each predicate returns a list of human-readable violation strings, empty
when the logged run satisfies the corresponding worst-case guarantee.
``exit_violations`` is the exit audit: it rechecks, from the problem's
exact derivatives, the bound the run's termination kind certifies.
"""

from __future__ import annotations

import numpy as np

from .bounds import ComplexityBudget, shrink_budget, success_count_bound
from .driver import RunReport, TerminationKind
from .params import Schedule
from .problems import Problem
from .subsolvers import OPTIMALITY_RADIUS, SubsolverError, optimality_measure
from .taylor import DerivativeBundle, chi


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


def _exact_measure(problem: Problem, x, order: int, r: float) -> float:
    """phi_{f,order}(r) at x from the problem's exact derivatives, for any
    radius r > 0; NaN when it cannot be computed (non-finite derivatives or
    a failed subsolve)."""
    try:
        bundle = DerivativeBundle(origin=x, grad=problem.grad(x), hess=problem.hess(x) if order == 2 else None)
        return optimality_measure(bundle, r, order).phi
    except (SubsolverError, ValueError):
        return np.nan


def exit_violations(report: RunReport, problem: Problem) -> list[str]:
    """The exit audit: the bound the run's exit certifies (derived in
    ``TerminationKind``), rechecked at ``x_final`` from the problem's exact
    derivatives, with no slack.

    - ``optimal_measure`` and ``negligible_increment``:
      phi_{f,q}(1) <= eps chi_q(1);
    - ``strong_model_optimality``: phi_{f,p}(r) <= (1 + omega) eps chi_p(r) / 2,
      with r = ``delta_at_exit`` and omega the last record's;
    - ``budget`` certifies nothing, so nothing is checked.

    A NaN or infinite ratio is a violation.
    """
    status, eps = report.status, report.params.eps
    if status.kind in (TerminationKind.OPTIMAL_MEASURE, TerminationKind.NEGLIGIBLE_INCREMENT):
        order, r, scale = report.orders.q, OPTIMALITY_RADIUS, 1.0
    elif status.kind is TerminationKind.STRONG_MODEL_OPTIMALITY:
        order, r, scale = report.orders.p, status.delta_at_exit, 0.5 * (1.0 + report.trace[-1].omega)
    else:
        return []
    ratio = _exact_measure(problem, report.x_final, order, r) / (scale * eps * chi(order, r))
    if not ratio <= 1.0:
        return [f"{status.kind.value}: exact order-{order} measure at radius {r:g} is {ratio:.6g} times its bound"]
    return []
