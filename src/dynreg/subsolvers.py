"""Certified global subproblem solvers.

Trust-region and cubic-regularized quadratic minimizers in the dense
eigenbasis (Moré-Sorensen style secular equations, hard case included),
the ball-constrained optimality measure built on them, and the model
descent step used by the driver.

All solvers return global minimizers together with the multiplier, so KKT
and positive-semidefiniteness certificates can be checked directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .taylor import DerivativeBundle, Orders, chi, holder_factorial, model_taylor_derivs, taylor_increment

SECULAR_RTOL = 1e-12
SECULAR_MAX_ITER = 200
# ||d|| within [delta*(1 - BOUNDARY_RTOL), delta] counts as a boundary solution
BOUNDARY_RTOL = 1e-8
DELTA_GRID = tuple(0.5**i for i in range(21))


class SubsolverError(RuntimeError):
    """Secular iteration failed to converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class TrustRegionSolution:
    d: np.ndarray
    value: float
    lam: float
    hard_case: bool
    kkt_residual: float
    iterations: int


@dataclass
class CubicSolution:
    s: np.ndarray
    lam: float
    value: float
    hard_case: bool
    kkt_residual: float
    iterations: int


@dataclass
class MeasureResult:
    """Largest degree-q Taylor decrease within a ball of radius delta."""

    phi: float
    d: np.ndarray
    delta: float


@dataclass
class StepResult:
    """Trial step for the regularized model, with the data the driver certifies."""

    s: np.ndarray | None
    step_norm: float
    increment: float
    delta: float
    measure_increment: float | None
    zero_step: bool = False

    @classmethod
    def zero(cls, n: int) -> "StepResult":
        return cls(
            s=np.zeros(n),
            step_norm=0.0,
            increment=0.0,
            delta=1.0,
            measure_increment=None,
            zero_step=True,
        )


def _eig_setup(g, H):
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    H = 0.5 * (H + H.T)
    w, Q = np.linalg.eigh(H)
    gh = Q.T @ g
    return g, H, w, Q, gh


def _secular_norm(w, gh, lam):
    denom = w + lam
    return math.sqrt(float(np.sum((gh / denom) ** 2)))


def _tr_secular(w, gh, delta, lam_low):
    """Solve ||d(lam)|| = delta for lam > lam_low via safeguarded Newton.

    Uses the reciprocal formulation 1/||d(lam)|| - 1/delta, which is close
    to linear in lam.  The caller guarantees that the norm exceeds delta as
    lam approaches lam_low from above, so the root is bracketed by
    [lam_low, lam_low + ||gh||/delta].
    """
    gn = math.sqrt(float(gh @ gh))
    lo = lam_low
    hi = lam_low + gn / delta + 1e-12
    lam = 0.5 * (lo + hi)
    for it in range(SECULAR_MAX_ITER):
        denom = w + lam
        dh = gh / denom
        n2 = float(dh @ dh)
        n = math.sqrt(n2)
        if abs(n - delta) <= SECULAR_RTOL * delta or (hi - lo) <= 1e-15 * max(1.0, lam):
            return lam, -dh, it + 1
        if n > delta:
            lo = lam
        else:
            hi = lam
        # phi(lam) = 1/n - 1/delta, phi' = sum gh^2/(w+lam)^3 / n^3
        dphi = float(np.sum(dh * dh / denom)) / (n2 * n)
        step = (1.0 / n - 1.0 / delta) / dphi
        cand = lam - step
        lam = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise SubsolverError(
        "trust-region secular iteration exceeded its cap",
        {"delta": delta, "lam_low": lam_low, "bracket": (lo, hi)},
    )


def trust_region_min(g, H, delta: float) -> TrustRegionSolution:
    """Global minimizer of g.d + d.H.d/2 over ||d|| <= delta.

    Returns the minimizer with multiplier lam >= 0 satisfying
    (H + lam I) d = -g, lam (delta - ||d||) = 0 and H + lam I >= 0,
    including the hard case where the solution needs an explicit leftmost
    eigenvector component.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    g, H, w, Q, gh = _eig_setup(g, H)
    lam_low = max(0.0, -w[0])
    span = max(1.0, abs(float(w[0])), abs(float(w[-1])))
    crit_tol = 1e-12 * span
    gn = math.sqrt(float(gh @ gh))
    hard_gtol = 1e-12 * max(1.0, gn)

    denom = w + lam_low
    critical = denom <= crit_tol
    hard_case = False
    iters = 0
    if np.any(critical) and float(np.max(np.abs(gh[critical]))) > hard_gtol:
        lam, dh, iters = _tr_secular(w, gh, delta, lam_low)
    else:
        dh = np.zeros_like(gh)
        safe = ~critical
        dh[safe] = -gh[safe] / denom[safe]
        nd = math.sqrt(float(dh @ dh))
        if lam_low == 0.0 and nd <= delta:
            lam = 0.0
        elif nd <= delta:
            # boundary completion along the leftmost eigenvector
            tau = math.sqrt(max(delta * delta - nd * nd, 0.0))
            dh[int(np.argmax(critical))] += tau
            lam = lam_low
            hard_case = True
        else:
            lam, dh, iters = _tr_secular(w, gh, delta, lam_low)

    d = Q @ dh
    value = float(gh @ dh) + 0.5 * float(np.sum(w * dh * dh))
    kkt = math.sqrt(float(np.sum(((w + lam) * dh + gh) ** 2)))
    return TrustRegionSolution(d=d, value=value, lam=lam, hard_case=hard_case, kkt_residual=kkt, iterations=iters)


def _cubic_secular(w, gh, sigma, lam_low):
    """Solve ||s(lam)|| = 2 lam / sigma for lam >= lam_low.

    theta(lam) = ||s(lam)|| - 2 lam / sigma is strictly decreasing; the
    caller guarantees theta > 0 as lam -> lam_low+, so doubling finds an
    upper bracket.
    """
    gn = math.sqrt(float(gh @ gh))
    lo = lam_low
    hi = lam_low + max(1.0, math.sqrt(0.5 * sigma * gn)) if gn > 0 else lam_low + 1.0
    for _ in range(200):
        if _secular_norm(w, gh, hi) - 2.0 * hi / sigma < 0.0:
            break
        hi = lam_low + 2.0 * (hi - lam_low)
    lam = 0.5 * (lo + hi)
    for it in range(SECULAR_MAX_ITER):
        denom = w + lam
        dh = gh / denom
        n2 = float(dh @ dh)
        n = math.sqrt(n2)
        target = 2.0 * lam / sigma
        theta = n - target
        if abs(theta) <= SECULAR_RTOL * max(1.0, target) or (hi - lo) <= 1e-15 * max(1.0, lam):
            return lam, -dh, it + 1
        if theta > 0.0:
            lo = lam
        else:
            hi = lam
        dn = -float(np.sum(dh * dh / denom)) / n if n > 0 else 0.0
        dtheta = dn - 2.0 / sigma
        cand = lam - theta / dtheta
        lam = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise SubsolverError(
        "cubic secular iteration exceeded its cap",
        {"sigma": sigma, "lam_low": lam_low, "bracket": (lo, hi)},
    )


def cubic_min(g, H, sigma: float) -> CubicSolution:
    """Global minimizer of g.s + s.H.s/2 + sigma/6 ||s||^3.

    The minimizer satisfies (H + lam I) s = -g with lam = (sigma/2) ||s||
    and H + lam I positive semidefinite; in the hard case the solution has
    an explicit leftmost eigenvector component of the right length.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g, H, w, Q, gh = _eig_setup(g, H)
    lam_low = max(0.0, -w[0])
    span = max(1.0, abs(float(w[0])), abs(float(w[-1])))
    crit_tol = 1e-12 * span
    gn = math.sqrt(float(gh @ gh))
    hard_gtol = 1e-12 * max(1.0, gn)

    denom = w + lam_low
    critical = denom <= crit_tol
    hard_case = False
    iters = 0
    if np.any(critical) and float(np.max(np.abs(gh[critical]))) > hard_gtol:
        lam, sh, iters = _cubic_secular(w, gh, sigma, lam_low)
    else:
        sh = np.zeros_like(gh)
        safe = ~critical
        sh[safe] = -gh[safe] / denom[safe]
        ns = math.sqrt(float(sh @ sh))
        target = 2.0 * lam_low / sigma
        if lam_low == 0.0 and ns == 0.0:
            lam = 0.0  # positive semidefinite with no gradient: s = 0
        elif ns < target:
            tau = math.sqrt(target * target - ns * ns)
            sh[int(np.argmax(critical))] += tau
            lam = lam_low
            hard_case = True
        else:
            lam, sh, iters = _cubic_secular(w, gh, sigma, lam_low)

    s = Q @ sh
    ns = math.sqrt(float(sh @ sh))
    value = float(gh @ sh) + 0.5 * float(np.sum(w * sh * sh)) + sigma / 6.0 * ns**3
    kkt = math.sqrt(float(np.sum(((w + lam) * sh + gh) ** 2)))
    return CubicSolution(s=s, lam=lam, value=value, hard_case=hard_case, kkt_residual=kkt, iterations=iters)


def optimality_measure(bundle: DerivativeBundle, delta: float, q: int) -> MeasureResult:
    """Largest decrease of the degree-q Taylor expansion over a delta-ball.

    For q = 1 the maximizer is -delta g/||g|| in closed form; for q = 2 it
    is a trust-region solve.  The result is nonnegative by construction
    (d = 0 is feasible); tiny negative values from the subsolver tolerance
    are clamped to zero.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if bundle.grad is None:
        raise ValueError("bundle has no gradient")
    if q == 1:
        g = bundle.grad
        gn = math.sqrt(float(g @ g))
        if gn == 0.0:
            return MeasureResult(phi=0.0, d=np.zeros_like(g), delta=delta)
        return MeasureResult(phi=gn * delta, d=(-delta / gn) * g, delta=delta)
    if q == 2:
        if bundle.hess is None:
            raise ValueError("bundle has no Hessian")
        tr = trust_region_min(bundle.grad, bundle.hess, delta)
        return MeasureResult(phi=max(0.0, -tr.value), d=tr.d, delta=delta)
    raise ValueError("q must be 1 or 2")


def model_descent_step(
    bundle: DerivativeBundle,
    sigma: float,
    orders: Orders,
    eps: float,
    mu: float,
    theta: float,
) -> StepResult:
    """Globally minimize the regularized model and package the trial step.

    Degree one has the closed-form global minimizer along -g; degree two
    uses the certified cubic solver.  When the step norm already reaches
    mu * eps^(1/(p-q+beta)) the optimality radius is arbitrary and set to
    one; otherwise the smallest-index radius from a fixed dyadic grid that
    satisfies the model-measure termination test is returned together with
    the measure data, which the driver still needs to certify.

    A zero global minimizer (or a Taylor increment that rounds to zero)
    yields a zero-step marker, which the driver treats as termination.
    """
    p, q, beta = orders.p, orders.q, orders.beta
    long_step = mu * eps ** (1.0 / orders.gap)

    if p == 1:
        g = bundle.grad
        gn = math.sqrt(float(g @ g))
        if gn == 0.0:
            return StepResult.zero(g.size)
        t = (gn / sigma) ** (1.0 / beta)
        s = (-t / gn) * g
        increment = t * gn
        if t >= long_step:
            return StepResult(s, t, increment, 1.0, None)
        # model gradient at the minimizer; zero in exact arithmetic
        mg = g * (1.0 - sigma * t**beta / gn)
        mgn = math.sqrt(float(mg @ mg))
        bound = theta * t**orders.gap / holder_factorial(p - q, beta)
        for delta in DELTA_GRID:
            if mgn * delta <= bound * chi(q, delta):
                return StepResult(s, t, increment, delta, mgn * delta)
        raise SubsolverError(
            "no grid radius satisfied the model-measure test at the global minimizer",
            {"p": p, "q": q, "step_norm": t, "measure": mgn},
        )

    sol = cubic_min(bundle.grad, bundle.hess, sigma)
    sn = math.sqrt(float(sol.s @ sol.s))
    if sn == 0.0:
        return StepResult.zero(bundle.grad.size)
    increment = taylor_increment(bundle, sol.s, p)
    if increment <= 0.0:
        # descent lost to rounding; by the model-decrease lower bound this
        # only happens for negligible steps
        return StepResult.zero(bundle.grad.size)
    if sn >= long_step:
        return StepResult(sol.s, sn, increment, 1.0, None)
    model = model_taylor_derivs(bundle, sol.s, sigma)
    bound = theta * sn**orders.gap / holder_factorial(p - q, beta)
    for delta in DELTA_GRID:
        measure = optimality_measure(model, delta, q)
        if measure.phi <= bound * chi(q, delta):
            return StepResult(sol.s, sn, increment, delta, measure.phi)
    raise SubsolverError(
        "no grid radius satisfied the model-measure test at the global minimizer",
        {"p": p, "q": q, "step_norm": sn, "measure": measure.phi},
    )
