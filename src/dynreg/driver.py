"""The adaptive regularization loop with dynamically controlled accuracy.

One outer iteration measures approximate optimality at the previous radius,
computes a trial step by globally minimizing the regularized Taylor model,
certifies the involved increments against the accuracies the oracle
promised for the derivatives it returned, accepts or rejects the trial
point from inexact function values, and updates the regularization weight
and the relative-accuracy target.  The accuracy ladder only sets what is
requested: when certification fails, the ladder shrinks and the
derivatives are requested again.  A promise is never looser than its
request, and exact and full-batch results promise zero, so on such data
every positive increment certifies at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .certify import CertifyFlag, certify_increment
from .oracles import AccuracyLadder, EvalCounters, Oracle
from .params import AlgoParams
from .subsolvers import model_descent_step, optimality_measure
from .taylor import Orders, chi


class TerminationKind(str, Enum):
    OPTIMAL_MEASURE = "optimal_measure"
    NEGLIGIBLE_INCREMENT = "negligible_increment"
    STRONG_MODEL_OPTIMALITY = "strong_model_optimality"
    ZERO_STEP = "zero_step"
    BUDGET = "budget"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    delta_at_exit: float
    k_final: int
    phi: float | None = None


@dataclass(slots=True)
class IterRecord:
    """One outer iteration of the trace.

    ``rho is None`` marks the terminal partial iteration (the run stopped
    while measuring optimality or computing the step, before any trial
    point was evaluated).  ``shrinks`` is the number of ``NOT_CERTIFIED``
    entries in ``flags``: every such flag shrank the ladder once.
    """

    k: int
    sigma: float
    omega: float
    rho: float | None
    step_norm: float | None
    success: bool
    delta_k: float | None
    eps_ladder: tuple
    shrinks: int
    flags: tuple
    fun_evals: int
    deriv_evals: tuple
    component_evals: int
    extras: dict
    x_inf: float


@dataclass
class RunReport:
    status: Termination
    trace: list[IterRecord]
    counters: EvalCounters
    x_final: np.ndarray
    params: AlgoParams
    orders: Orders

    @property
    def n_complete(self) -> int:
        return sum(1 for r in self.trace if r.rho is not None)

    @property
    def n_successful(self) -> int:
        return sum(1 for r in self.trace if r.success)

    @property
    def sigma_max_observed(self) -> float:
        return max(r.sigma for r in self.trace) if self.trace else self.params.sigma0

    @property
    def total_shrinks(self) -> int:
        return sum(r.shrinks for r in self.trace)


class RunAborted(RuntimeError):
    """A subsolver, the ladder, the oracle or a certification guard failed
    mid-run (a ``RuntimeError`` or ``ValueError`` inside the loop, such as a
    non-finite oracle result or an overflowed increment); carries the
    partial trace."""

    def __init__(self, message, trace, counters):
        super().__init__(message)
        self.trace = trace
        self.counters = counters


def sigma_omega_update(rho: float, sigma: float, params: AlgoParams) -> tuple[float, float]:
    """Deterministic endpoints of the update intervals.

    Very successful steps shrink sigma by gamma1 (floored at sigma_min),
    merely successful ones keep it, rejections grow it by gamma2; omega is
    re-tied to min(kappa_omega, 1/sigma).
    """
    if rho >= params.eta2:
        sigma_next = max(params.sigma_min, params.gamma1 * sigma)
    elif rho >= params.eta1:
        sigma_next = sigma
    else:
        sigma_next = params.gamma2 * sigma
    return sigma_next, min(params.kappa_omega, 1.0 / sigma_next)


def _counts(counters: EvalCounters) -> tuple[int, int, int, int]:
    """Function, order-1, order-2 and component evaluations so far."""
    d = counters.deriv_evals
    return counters.fun_evals, d.get(1, 0), d.get(2, 0), counters.component_evals


def _certify(stage, flags, ladder, delta, increment, acc, order, omega, xi) -> CertifyFlag:
    """Certify ``increment`` against the promised accuracies ``acc[1..order]``
    and log the flag under ``stage``; on ``NOT_CERTIFIED`` the ladder
    shrinks and the caller computes again."""
    zetas = [acc[j] for j in range(1, order + 1)]
    flag = certify_increment(delta, increment, zetas, omega, xi)
    flags.append((stage, int(flag)))
    if flag is CertifyFlag.NOT_CERTIFIED:
        ladder.shrink()
    return flag


def run(oracle: Oracle, x0, params: AlgoParams, orders: Orders) -> RunReport:
    """Iterate until an optimality certificate or the iteration budget.

    The oracle owns the objective; the driver trusts only the accuracies
    the oracle promised and the certification flags.  Identical (oracle
    seed, x0, params, orders) replays produce bit-identical reports.
    """
    x = np.ascontiguousarray(np.asarray(x0, dtype=float))
    eps = params.eps
    sigma = params.sigma0
    omega = params.omega0
    delta_prev = params.delta_init
    ladder = AccuracyLadder.initial(orders.p, params.gamma_eps, params.kappa_eps, params.schedule)
    long_step = params.mu * eps ** (1.0 / orders.gap)
    kw = params.kappa_omega
    xi_d_scale = params.vartheta * (1.0 - kw) / (1.0 + kw) ** 2 * 0.5

    trace: list[IterRecord] = []
    counters = oracle.counters
    status = None

    try:
        for k in range(params.max_iter):
            oracle.begin_iteration()
            ladder.reset()
            base = _counts(counters)
            flags = []
            xi_abs = 0.5 * omega * eps

            # -- optimality measure at the previous radius --
            while True:
                bundle = oracle.request_derivatives(x, ladder.eps, orders.q)
                measure = optimality_measure(bundle, delta_prev, orders.q)
                flag = _certify(
                    "measure", flags, ladder, delta_prev, measure.phi, bundle.achieved_acc, orders.q, omega, xi_abs
                )
                if flag is not CertifyFlag.NOT_CERTIFIED:
                    break
            if flag is not CertifyFlag.RELATIVE_OK:
                status = Termination(TerminationKind.NEGLIGIBLE_INCREMENT, delta_prev, k, measure.phi)
            elif measure.phi <= eps / (1.0 + omega) * chi(orders.q, delta_prev):
                status = Termination(TerminationKind.OPTIMAL_MEASURE, delta_prev, k, measure.phi)

            # -- step computation on the regularized model --
            while status is None:
                bundle = oracle.request_derivatives(x, ladder.eps, orders.p)
                step = model_descent_step(bundle, sigma, orders, eps, params.mu, params.theta)
                if step.zero_step:
                    status = Termination(TerminationKind.ZERO_STEP, delta_prev, k)
                    break
                if orders.p == 1:
                    # closed-form global minimizer: the relative bound follows
                    # from the measure-phase exit condition
                    flags.append(("step", int(CertifyFlag.RELATIVE_OK)))
                else:
                    flag = _certify(
                        "step", flags, ladder, step.step_norm, step.increment,
                        bundle.achieved_acc, orders.p, omega, xi_abs,
                    )
                    if flag is CertifyFlag.NOT_CERTIFIED:
                        continue
                    if flag is not CertifyFlag.RELATIVE_OK:
                        # the step already is the global model minimizer, so
                        # recertifying after an explicit global solve returns
                        # the same flag: a strong optimality certificate
                        status = Termination(
                            TerminationKind.STRONG_MODEL_OPTIMALITY, step.step_norm, k, step.increment
                        )
                        break
                if step.step_norm >= long_step:
                    break
                flag = _certify(
                    "model", flags, ladder, step.delta, max(0.0, step.measure_increment),
                    step.model_acc, orders.q, omega, xi_d_scale * omega * eps,
                )
                if flag is not CertifyFlag.NOT_CERTIFIED:
                    break

            # -- acceptance of the trial point --
            rho = step_norm = delta_k = None
            success = False
            if status is None:
                acc_req = omega * step.increment
                x_trial = np.ascontiguousarray(x + step.s)
                f_trial = oracle.request_function(x_trial, acc_req)
                f_curr = oracle.request_function(x, acc_req)
                rho = (f_curr - f_trial) / step.increment
                success = rho >= params.eta1
                step_norm, delta_k = step.step_norm, step.delta
            extras = oracle.end_iteration()
            fun_evals, d1, d2, component_evals = (now - then for now, then in zip(_counts(counters), base))
            trace.append(
                IterRecord(
                    k=k,
                    sigma=sigma,
                    omega=omega,
                    rho=rho,
                    step_norm=step_norm,
                    success=success,
                    delta_k=delta_k,
                    eps_ladder=ladder.snapshot(),
                    shrinks=sum(f == CertifyFlag.NOT_CERTIFIED for _, f in flags),
                    flags=tuple(flags),
                    fun_evals=fun_evals,
                    deriv_evals=((1, d1), (2, d2)),
                    component_evals=component_evals,
                    extras=extras,
                    x_inf=float(np.max(np.abs(x))) if x.size else 0.0,
                )
            )
            if status is not None:
                break
            if success:
                x = x_trial
            sigma, omega = sigma_omega_update(rho, sigma, params)
            delta_prev = step.delta
        else:
            status = Termination(TerminationKind.BUDGET, delta_prev, params.max_iter)
    except (RuntimeError, ValueError) as exc:
        raise RunAborted(f"run aborted at iteration {len(trace)}: {exc}", trace, counters) from exc

    return RunReport(
        status=status,
        trace=trace,
        counters=counters,
        x_final=x,
        params=params,
        orders=orders,
    )
