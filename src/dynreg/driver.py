"""The adaptive regularization loop with dynamically controlled accuracy.

One outer iteration measures approximate optimality at the fixed radius,
computes a trial step by globally minimizing the regularized Taylor model,
certifies the involved increments against the accuracies the oracle
promised for the derivatives it returned, accepts or rejects the trial
point from inexact function values, and updates the regularization weight
and the relative-accuracy target.  The accuracy ladder only sets what is
requested: when certification fails, the ladder shrinks and the
derivatives are requested again.  A promise is never looser than its
request, and exact and full-batch results promise zero, so on such data
every positive increment certifies at once.

The ladder is one accuracy, requested for every derivative order, and
only the driver resets it.  Under FLEXIBLE each iteration resets it to the
loosest rung the previous iteration's certificates allow: every site
(measure, step, model) that certified at a rung above 0 records the
loosest rung at which the same increment would still certify against the
request, and the next iteration starts at the tightest of those records,
or at kappa_eps when there are none.  MONOTONIC never resets the ladder.

When every promise of the measure bundle is 0, the cascade certifies any
positive q = 2 measure with flag 2, so its value decides only the
termination test phi <= eps chi_q(1)/(1 + omega) and, under FLEXIBLE at
a rung above 0, the start rung.  At rung 0 or under MONOTONIC the driver
therefore first takes ``subsolvers.cauchy_decrease``, the decrease at the
Cauchy point, which bounds phi from below for one product with H; when it
is finite and at least twice the termination threshold, it stands in for
the trust-region solve.  The cascade then gives flag 2 for the bound as
for the solved phi, the termination test fails for both, and no start
rung is recorded, so every flag, exit and trace record is the one the
solve would give.  The factor 2 is the rounding margin: the bound holds
in exact arithmetic, and the computed bound and the solved phi each err
by rounding and the secular tolerance (1e-12 relative), far less than
half, so a bound at twice the threshold leaves the solved phi above it.
A NaN or infinite bound, and any other case, falls back to the solve.
With p == q the step phase reuses the measure's bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .certify import CertifyFlag, certify_increment, loosest_certifying
from .oracles import EvalCounters, Oracle
from .params import LADDER_TINY, AlgoParams, Schedule
from .subsolvers import OPTIMALITY_RADIUS, cauchy_decrease, model_descent_step, optimality_measure
from .taylor import Orders, chi, model_accuracy


class TerminationKind(str, Enum):
    """Why a run stopped.  ``optimal_measure`` and ``negligible_increment``
    bound the exact optimality measure at radius 1 by eps * chi_q(1).
    ``strong_model_optimality`` certifies the regularized model, not f: the
    Taylor increment at its global minimizer certifies only absolutely
    (flag 1 or 3), so no model step is known to decrease f.  It does not
    bound ||grad f|| by eps: noisy Rosenbrock runs exit there at up to 7.4 eps.

    What it does bound is the exact order-p measure at the step's radius.
    Let s be the global minimizer of the model built from tensors with
    promised errors zeta_j, r = ||s|| (``delta_at_exit``), T the exact and
    T~ the inexact degree-p Taylor polynomial, and DeltaT_p(s) = T~(0) -
    T~(s).  Since s minimizes T~ plus a regularization that grows with
    ||d||, T~(0) - T~(d) <= DeltaT_p(s) for every ||d|| <= r, and T and T~
    differ there by at most sum_j zeta_j ||d||^j / j!, so

        phi_{f,p}(r) <= DeltaT_p(s) + sum_j zeta_j r^j / j!.

    Flag 1 means DeltaT_p(s) = 0 and every zeta_j <= xi; flag 3 means
    DeltaT_p(s) < sum_j zeta_j r^j / j! / omega and that sum is at most
    xi chi_p(r).  With the step site's xi = omega eps / 2, either gives

        phi_{f,p}(r) <= (1 + omega) eps chi_p(r) / 2.

    For q < p this bounds the order-q measure only up to the higher-order
    terms of T at radius r.

    ``zero_step`` and ``budget`` certify nothing.  ``checks.exit_violations``
    rechecks each kind's bound from exact derivatives.
    """

    OPTIMAL_MEASURE = "optimal_measure"
    NEGLIGIBLE_INCREMENT = "negligible_increment"
    STRONG_MODEL_OPTIMALITY = "strong_model_optimality"
    ZERO_STEP = "zero_step"
    BUDGET = "budget"


@dataclass(frozen=True)
class Termination:
    """``delta_at_exit`` is ``OPTIMALITY_RADIUS``, or the step norm for strong model optimality."""

    kind: TerminationKind
    delta_at_exit: float
    k_final: int
    phi: float | None = None


@dataclass(slots=True)
class IterRecord:
    """One outer iteration of the trace.

    A record is complete exactly when ``rho`` is not None; ``rho is None``
    marks the terminal partial iteration (the run stopped while measuring
    optimality or computing the step, before any trial point was
    evaluated).  ``eps`` is the ladder's accuracy at the end of the
    iteration.  ``shrinks`` is the number of ``NOT_CERTIFIED`` entries in
    ``flags``: every such flag shrank the ladder once.
    """

    k: int
    sigma: float
    omega: float
    rho: float | None
    step_norm: float | None
    success: bool
    eps: float
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
        """The largest sigma of the run: every record's, and the sigma the
        last update gave when the last record is complete (a budget exit)."""
        sigma = max((r.sigma for r in self.trace), default=self.params.sigma0)
        if self.trace and self.trace[-1].rho is not None:
            last = self.trace[-1]
            sigma = max(sigma, sigma_omega_update(last.rho, last.sigma, self.params)[0])
        return sigma

    @property
    def total_shrinks(self) -> int:
        return sum(r.shrinks for r in self.trace)


class LadderUnderflowError(RuntimeError):
    """The accuracy ladder shrank below machine tiny; should be unreachable."""


@dataclass
class AccuracyLadder:
    """The absolute accuracy eps requested for every derivative order.

    ``rungs[i]`` is kappa_eps after i shrinks by gamma_eps, built once on
    first use; ``eps`` is ``rungs[i_eps]``.  The ladder has no schedule:
    the driver resets it for each FLEXIBLE iteration and never under
    MONOTONIC.
    """

    gamma_eps: float
    kappa_eps: float
    rungs: list[float] = field(init=False)
    eps: float = field(init=False)
    i_eps: int = field(init=False)

    def __post_init__(self):
        self.rungs = [self.kappa_eps]
        self.reset()

    def reset(self, rung: int = 0) -> None:
        while len(self.rungs) <= rung:
            eps = self.rungs[-1] * self.gamma_eps
            if eps < LADDER_TINY:
                raise LadderUnderflowError(f"accuracy threshold below {LADDER_TINY:g} after {len(self.rungs)} shrinks")
            self.rungs.append(eps)
        self.eps = self.rungs[rung]
        self.i_eps = rung

    def shrink(self) -> None:
        self.reset(self.i_eps + 1)


class RunAborted(RuntimeError):
    """A subsolver, the ladder, the oracle, a certification guard or float
    arithmetic failed mid-run (a ``RuntimeError``, ``ValueError`` or
    ``ArithmeticError`` inside the loop, such as a non-finite oracle result,
    an overflowed increment or a first-order step length that overflows);
    carries the partial trace.  The message of an ``ArithmeticError`` names
    its type."""

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


def _inf_norm(x: np.ndarray) -> float:
    """Largest absolute entry of x (0 for an empty x): a record's ``x_inf``."""
    return max(map(abs, x.tolist()), default=0.0)


def _certify(stage, flags, starts, ladder, delta, increment, acc, order, omega, xi) -> CertifyFlag:
    """Certify ``increment`` against the promised accuracies ``acc[1..order]``
    and log the flag under ``stage``; on ``NOT_CERTIFIED`` the ladder
    shrinks and the caller computes again.

    Under FLEXIBLE ``starts`` is a dict (under MONOTONIC it is None), and
    a certificate at rung i > 0 records in ``starts[stage]`` the first
    rung r < i at which the cascade certifies the same increment with
    rung r's request as the tag of every order, or i if there is none.
    The request, not the promise, sets that rung: a full-batch promise of
    0 says nothing about the subsample a looser request would draw.  The
    model site takes the request as is, not through ``model_accuracy``:
    near convergence its increment is about 0 and its threshold fixed, so
    the tripled tags would pin the start after every short step at one
    rung, and the iteration that then needs only the measure could not
    loosen.  The rung only sets what is requested; certificates always
    rest on the promise.
    """
    zetas = [acc[j] for j in range(1, order + 1)]
    flag = certify_increment(delta, increment, zetas, omega, xi)
    flags.append((stage, int(flag)))
    if flag is CertifyFlag.NOT_CERTIFIED:
        ladder.shrink()
    elif starts is not None and ladder.i_eps:
        starts[stage] = loosest_certifying(delta, increment, ladder.rungs[: ladder.i_eps], order, omega, xi)
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
    ladder = AccuracyLadder(params.gamma_eps, params.kappa_eps)
    kw = params.kappa_omega
    xi_d_scale = params.vartheta * (1.0 - kw) / (1.0 + kw) ** 2 * 0.5
    chi_q = chi(orders.q, OPTIMALITY_RADIUS)
    not_certified = int(CertifyFlag.NOT_CERTIFIED)

    trace: list[IterRecord] = []
    counters = oracle.counters
    status = None
    # per site, the loosest rung its last certificate allows; MONOTONIC keeps none
    starts = {} if params.schedule is Schedule.FLEXIBLE else None

    x_inf = _inf_norm(x)
    deriv_evals = counters.deriv_evals

    try:
        for k in range(params.max_iter):
            # a reset to rung 0 from rung 0 changes nothing
            if starts is not None and (starts or ladder.i_eps):
                ladder.reset(max(starts.values(), default=0))
                starts.clear()
            fun0, comp0 = counters.fun_evals, counters.component_evals
            d1, d2 = deriv_evals.get(1, 0), deriv_evals.get(2, 0)
            flags = []
            xi_abs = 0.5 * omega * eps
            phi_exit = eps / (1.0 + omega) * chi_q

            # -- optimality measure --
            while True:
                bundle = oracle.request_derivatives(x, ladder.eps, orders.q)
                # the Cauchy bound settles a q = 2 measure that no promise
                # and no start rung depends on (module docstring)
                phi = math.nan
                if orders.q == 2 and (starts is None or not ladder.i_eps) and not any(bundle.achieved_acc.values()):
                    phi = cauchy_decrease(bundle, OPTIMALITY_RADIUS)
                if not 2.0 * phi_exit <= phi < math.inf:
                    phi = optimality_measure(bundle, OPTIMALITY_RADIUS, orders.q).phi
                flag = _certify(
                    "measure", flags, starts, ladder, OPTIMALITY_RADIUS, phi,
                    bundle.achieved_acc, orders.q, omega, xi_abs,
                )
                if flag is not CertifyFlag.NOT_CERTIFIED:
                    break
            if flag is not CertifyFlag.RELATIVE_OK:
                status = Termination(TerminationKind.NEGLIGIBLE_INCREMENT, OPTIMALITY_RADIUS, k, phi)
            elif phi <= phi_exit:
                status = Termination(TerminationKind.OPTIMAL_MEASURE, OPTIMALITY_RADIUS, k, phi)

            # -- step computation on the regularized model --
            # with p == q the first request would be served the measure's
            # bundle: same point, same rung, and no request in between
            reuse = orders.p == orders.q
            while status is None:
                if not reuse:
                    bundle = oracle.request_derivatives(x, ladder.eps, orders.p)
                reuse = False
                step = model_descent_step(bundle, sigma, orders, eps, params.mu, params.theta)
                if step is None:
                    status = Termination(TerminationKind.ZERO_STEP, OPTIMALITY_RADIUS, k)
                    break
                if orders.p == 1:
                    # closed-form global minimizer: the relative bound follows
                    # from the measure-phase exit condition
                    flags.append(("step", int(CertifyFlag.RELATIVE_OK)))
                else:
                    flag = _certify(
                        "step", flags, starts, ladder, step.step_norm, step.increment,
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
                if step.measure_increment is None:  # a long step needs no model certificate
                    break
                flag = _certify(
                    "model", flags, starts, ladder, OPTIMALITY_RADIUS, max(0.0, step.measure_increment),
                    model_accuracy(bundle.achieved_acc, step.step_norm), orders.q, omega, xi_d_scale * omega * eps,
                )
                if flag is not CertifyFlag.NOT_CERTIFIED:
                    break

            # -- acceptance of the trial point --
            rho = step_norm = None
            success = False
            if status is None:
                acc_req = omega * step.increment
                x_trial = np.ascontiguousarray(x + step.s)
                f_trial = oracle.request_function(x_trial, acc_req)
                f_curr = oracle.request_function(x, acc_req)
                rho = (f_curr - f_trial) / step.increment
                success = rho >= params.eta1
                step_norm = step.step_norm
            extras = oracle.end_iteration()
            trace.append(
                IterRecord(
                    k=k,
                    sigma=sigma,
                    omega=omega,
                    rho=rho,
                    step_norm=step_norm,
                    success=success,
                    eps=ladder.eps,
                    shrinks=[f for _, f in flags].count(not_certified),
                    flags=tuple(flags),
                    fun_evals=counters.fun_evals - fun0,
                    deriv_evals=((1, deriv_evals.get(1, 0) - d1), (2, deriv_evals.get(2, 0) - d2)),
                    component_evals=counters.component_evals - comp0,
                    extras=extras,
                    x_inf=x_inf,
                )
            )
            if status is not None:
                break
            if success:
                x = x_trial
                x_inf = _inf_norm(x)
            sigma, omega = sigma_omega_update(rho, sigma, params)
        else:
            status = Termination(TerminationKind.BUDGET, OPTIMALITY_RADIUS, params.max_iter)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}" if isinstance(exc, ArithmeticError) else exc
        raise RunAborted(f"run aborted at iteration {len(trace)}: {reason}", trace, counters) from exc

    return RunReport(
        status=status,
        trace=trace,
        counters=counters,
        x_final=x,
        params=params,
        orders=orders,
    )
