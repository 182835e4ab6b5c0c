"""Computable worst-case constants and evaluation budgets.

Given the Hölder constant of the order-p derivative, the initial gap
f(x0) - f_low and the algorithm constants, these helpers evaluate the
regularization-parameter ceiling, the step-norm and per-success decrease
constants, the resulting iteration budgets, and the ladder-shrink budget.
All of them are executable upper bounds that logged runs can be checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import AlgoParams, Schedule
from .taylor import Orders, holder_factorial


@dataclass(frozen=True)
class ComplexityBudget:
    eps: float
    sigma_max: float
    omega_min: float
    kappa_s: float
    kappa_p: float
    max_successful: int
    max_total: int
    nu_max: int
    max_fun_evals: int
    max_deriv_evals: int


def sigma_ceiling(L: float, params: AlgoParams) -> float:
    """Upper bound max(sigma0, gamma3 (L+3)/(1-eta2)) on the regularization
    parameter along any run."""
    return max(params.sigma0, params.gamma3 * (L + 3.0) / (1.0 - params.eta2))


def shrink_budget(omega_min: float, eps: float, params: AlgoParams) -> int:
    """Ladder shrinks before every certification threshold is met.

    Counts the reductions needed to bring kappa_eps below
    vartheta (1-kappa_omega) / (6 (1+kappa_omega)^2) * omega_min * eps,
    the tightest threshold any certification call uses.
    """
    floor_val = params.tightest_threshold(omega_min, eps)
    if floor_val == 0.0:
        raise OverflowError("the shrink budget is beyond the float range")
    raw = (math.log(floor_val) - math.log(params.kappa_eps)) / math.log(params.gamma_eps)
    return max(0, math.floor(raw))


def success_count_bound(n_successful: int, sigma_max: float, params: AlgoParams) -> float:
    """Total-iteration bound given a count of successful ones and a ceiling
    on sigma: |S| (1 + |ln gamma1|/ln gamma2) + ln(sigma_max/sigma0)/ln gamma2."""
    lg2 = math.log(params.gamma2)
    ratio = 1.0 + abs(math.log(params.gamma1)) / lg2
    return n_successful * ratio + math.log(max(sigma_max, params.sigma0) / params.sigma0) / lg2


def complexity_budget(L: float, f0: float, f_low: float, params: AlgoParams, orders: Orders) -> ComplexityBudget:
    """Evaluate every worst-case constant for one configuration.

    Requires honest problem metadata (L for the order-p derivative and a
    lower bound f_low on the objective); only test problems provide these.
    Raises ``OverflowError``, or ``ZeroDivisionError`` for an underflowed
    denominator, when a budget is beyond the float range.
    """
    if L < 0.0:
        raise ValueError("L must be nonnegative")
    if f0 < f_low:
        raise ValueError("f0 must be at least f_low")
    eps = params.eps
    p, q, beta = orders.p, orders.q, orders.beta
    kw = params.kappa_omega

    sigma_max = sigma_ceiling(L, params)
    omega_min = min(kw, 1.0 / sigma_max)

    gap_fact = holder_factorial(p - q, beta)
    core = (1.0 + kw) * (L + sigma_max + params.theta * (1.0 + kw)) / ((1.0 - kw) * (1.0 - params.vartheta) * gap_fact)
    kappa_s = min(params.mu, core ** (-1.0 / orders.gap))
    kappa_p = (
        holder_factorial(p, beta)
        / (params.eta1 * (1.0 - params.alpha) * params.sigma_min)
        * max(params.mu ** (-(p + beta)), core ** ((p + beta) / orders.gap))
    )

    succ_raw = kappa_p * (f0 - f_low) * eps ** (-orders.eps_power)
    if not math.isfinite(succ_raw):
        raise OverflowError("the iteration budget is beyond the float range")
    max_successful = math.floor(succ_raw) + 1
    max_total = math.floor(success_count_bound(max_successful, sigma_max, params))
    nu_max = shrink_budget(omega_min, eps, params)

    if params.schedule is Schedule.MONOTONIC:
        max_deriv = nu_max + max_total
    else:
        max_deriv = (1 + nu_max) * max_total
    return ComplexityBudget(
        eps=eps,
        sigma_max=sigma_max,
        omega_min=omega_min,
        kappa_s=kappa_s,
        kappa_p=kappa_p,
        max_successful=max_successful,
        max_total=max_total,
        nu_max=nu_max,
        max_fun_evals=2 * max_total,
        max_deriv_evals=max_deriv,
    )
