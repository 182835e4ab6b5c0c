"""Certified global subproblem solvers.

The trust-region problem behind the q = 2 optimality measure and the cubic
model behind the p = 2 step share one solver core.  In the eigenbasis of
H, with d(lam) = -(H + lam I)^-1 g, both ask for a multiplier
lam >= max(0, -lambda_min(H)) with ||d(lam)|| = a + b lam: (a, b) is
(delta, 0) for the trust region and (0, 2/sigma) for the cubic model
(Moré-Sorensen secular equation, hard case included).  The spectral setup
of (g, H) is kept for the next call, so the measure, the step and a
rejected step's resolve on the same derivatives share one
eigendecomposition.  On that core sit the ball-constrained optimality
measure and the model descent step used by the driver; beside it,
``cauchy_decrease`` bounds the q = 2 measure from below without a solve.

Optimality is measured at one radius, ``OPTIMALITY_RADIUS`` = 1: at the
exact global model minimizer with q <= 2, phi(delta)/chi_q(delta) never
grows with delta (for q = 1 the radius cancels; for q = 2 the model Hessian
is positive semidefinite, so phi is concave), so a test that fails at 1
fails at every radius in (0, 1].

All solvers return global minimizers together with the multiplier, so KKT
and positive-semidefiniteness certificates can be checked directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .taylor import (
    DerivativeBundle,
    Orders,
    chi,
    holder_factorial,
    model_taylor_derivs,
    taylor_increment,
)

SECULAR_RTOL = 1e-12
SECULAR_MAX_ITER = 200
OPTIMALITY_RADIUS = 1.0


class SubsolverError(RuntimeError):
    """Non-finite subproblem data or a secular iteration that did not converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(slots=True)
class ModelSolution:
    """Global minimizer d of a trust-region or cubic model, with its multiplier.

    ``value`` and ``kkt_residual`` are computed when read, from the
    eigenbasis data of the solve (eigenvalues ``w``, Q^T g ``gh``, Q^T d
    ``dh`` and w + lam ``denom``); ``sigma`` is the cubic weight, None for
    the trust region.
    """

    d: np.ndarray
    lam: float
    hard_case: bool
    iterations: int
    w: np.ndarray = field(repr=False)
    gh: np.ndarray = field(repr=False)
    dh: np.ndarray = field(repr=False)
    denom: np.ndarray = field(repr=False)
    sigma: float | None = None

    @property
    def value(self) -> float:
        """Model value at d: the quadratic part, plus sigma/6 ||d||^3 for the cubic model."""
        dh = self.dh
        value = float(self.gh.dot(dh)) + 0.5 * float(np.add.reduce(self.w * dh * dh))
        if self.sigma is not None:
            value += self.sigma / 6.0 * math.sqrt(float(self.d.dot(self.d))) ** 3
        return value

    @property
    def kkt_residual(self) -> float:
        """Euclidean norm of (H + lam I) d + g, evaluated in the eigenbasis."""
        return math.sqrt(float(np.add.reduce((self.denom * self.dh + self.gh) ** 2)))


@dataclass
class MeasureResult:
    """Largest degree-q Taylor decrease within a ball of radius delta."""

    phi: float
    d: np.ndarray


@dataclass
class StepResult:
    """Trial step for the regularized model, with the data the driver certifies.

    ``measure_increment`` is the model's optimality measure at the step,
    None for a long step; the driver bounds the errors behind it with
    ``taylor.model_accuracy`` of the step bundle's tags.
    """

    s: np.ndarray
    step_norm: float
    increment: float
    measure_increment: float | None


@dataclass(slots=True)
class _Spectrum:
    """The part of the secular solve that depends on (g, H) alone.

    ``g_key`` and ``H_key`` are the bytes of the inputs (the memo key); the
    arrays are read-only and no field is ever rebound, since warm calls
    share the setup.  ``neg_gh_list`` and ``shifted_list`` hold the entries
    of ``neg_gh`` and ``shifted`` as floats for the secular iteration.
    """

    g_key: bytes
    H_key: bytes
    w: np.ndarray
    Q: np.ndarray
    gh: np.ndarray
    neg_gh: np.ndarray
    neg_gh_list: list[float]
    gn: float
    lam_low: float
    shifted: np.ndarray
    shifted_list: list[float]
    leftmost_free: bool
    dh: np.ndarray
    nd: float


# the last spectral setup: the driver solves the measure and the step on the
# same (g, H), and again after a rejection, so one entry catches the repeats
_last_spectrum: _Spectrum | None = None


def _spectrum(g, H) -> _Spectrum:
    """Eigenpairs of H, Q^T g and the step at the shift, reused while (g, H) repeat.

    The memo is keyed on the exact contents of g and H: the oracle hands out
    fresh arrays for equal derivatives, so identity never repeats, and an
    array mutated in place no longer matches.  A non-finite spectrum raises
    and is not kept.
    """
    global _last_spectrum
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    g_key, H_key = g.tobytes(), H.tobytes()
    last = _last_spectrum
    if last is not None and last.g_key == g_key and last.H_key == H_key:
        return last
    w, Q = np.linalg.eigh(0.5 * (H + H.T))
    # one list serves the check and the scalar reads below, so the check adds
    # no numpy scalar conversions
    w_list = w.tolist()
    if not all(map(math.isfinite, w_list)):
        raise SubsolverError("Hessian spectrum is not finite", {"eigenvalues": w_list})
    gh = Q.T @ g
    gn = math.sqrt(float(gh.dot(gh)))
    if gn == 0.0 and gh.any():  # the squares underflowed; hypot scales first
        gn = math.hypot(*gh.tolist())
    if not math.isfinite(gn):
        raise SubsolverError("gradient norm is not finite", {"gradient_norm": gn})
    lam_low = max(0.0, -w_list[0])
    shifted = w + lam_low
    shifted_list = shifted.tolist()
    # every tolerance is relative (to ||H||, ||Q^T g|| or tau), so solving
    # (c g, c H) gives the d of (g, H) at any scale c
    tol = 1e-12 * max(abs(w_list[0]), abs(w_list[-1]))
    neg_gh = -gh
    # w ascends, so an eigenvalue is critical only if the leftmost one is;
    # with none critical the leftmost eigenspace is free of gradient
    if not shifted_list[0] <= tol:
        dh = neg_gh / shifted
        leftmost_free = True
    else:
        critical = shifted <= tol
        dh = np.divide(neg_gh, shifted, out=np.zeros_like(gh), where=~critical)
        leftmost_free = float(np.abs(gh[critical]).max()) <= 1e-12 * gn
    for arr in (w, Q, gh, neg_gh, shifted, dh):
        arr.setflags(write=False)
    sp = _Spectrum(
        g_key=g_key,
        H_key=H_key,
        w=w,
        Q=Q,
        gh=gh,
        neg_gh=neg_gh,
        neg_gh_list=neg_gh.tolist(),
        gn=gn,
        lam_low=lam_low,
        shifted=shifted,
        shifted_list=shifted_list,
        leftmost_free=leftmost_free,
        dh=dh,
        nd=math.sqrt(float(dh.dot(dh))),
    )
    _last_spectrum = sp
    return sp


def _eig_min(g, H, a: float, b: float) -> ModelSolution:
    """Global minimizer of g.d + d.H.d/2 whose multiplier lam solves ||d|| = a + b lam.

    With w, Q the eigenpairs of H, d(lam) = -Q (w + lam)^-1 Q^T g and
    lam = lam_low + tau, lam_low = max(0, -w[0]), tau >= 0.  The solve runs
    in tau on the shifted spectrum w + lam_low, whose leftmost entry is
    exactly zero for an indefinite H, so a root close to lam_low keeps its
    relative accuracy.  lam = 0 is an interior solution when ||d(0)|| <= a.
    Otherwise safeguarded Newton on psi = (a + b lam)/||d|| - 1, close to
    linear in tau, runs inside [0, h], where b h^2 + (a + b lam_low) h =
    ||Q^T g|| makes ||d|| <= a + b lam.  In the hard case (no gradient in
    the leftmost eigenspace and ||d(lam_low)|| short of the target) the step
    is completed along the leftmost eigenvector.  ``value`` is the
    quadratic part only.  The spectral setup comes from ``_spectrum``.

    The Newton iteration runs on Python floats over the setup's lists, one
    pass per step for ||d||^2 and psi': at the n <= 20 of most solves a
    numpy call costs more than its arithmetic, and a step would take six.
    The arrays ``denom`` and ``dh`` are built once, at the final tau.
    """
    sp = _spectrum(g, H)
    gh, shifted, dh, nd = sp.gh, sp.shifted, sp.dh, sp.nd
    a0 = a + b * sp.lam_low  # target norm at tau = 0
    tau = 0.0
    denom = shifted  # shifted + tau at tau = 0: shifted has no -0.0 entry
    hard_case = False
    iters = 0
    if sp.leftmost_free and nd <= a0:
        if sp.lam_low > 0.0:
            # boundary completion along the leftmost eigenvector
            dh = dh.copy()
            dh[0] += math.sqrt(a0 * a0 - nd * nd)
            hard_case = True
    else:
        neg_ghs, shifts, gn = sp.neg_gh_list, sp.shifted_list, sp.gn
        lo = 0.0
        hi = 2.0 * gn / (a0 + math.sqrt(a0 * a0 + 4.0 * b * gn))
        tau = 0.5 * hi
        try:
            for iters in range(1, SECULAR_MAX_ITER + 1):
                # ||d||^2 and sum(gh^2/(w + lam)^3) in one pass
                n2 = s3 = 0.0
                for c, s in zip(neg_ghs, shifts):
                    e = s + tau
                    t = c / e
                    t *= t
                    n2 += t
                    s3 += t / e
                n = math.sqrt(n2)
                target = a0 + b * tau
                if abs(n - target) <= SECULAR_RTOL * target or (hi - lo) <= 1e-15 * tau:
                    break
                if n > target:
                    lo = tau
                else:
                    hi = tau
                # psi' = b/n + (a + b lam) sum(gh^2/(w + lam)^3) / n^3
                dpsi = b / n + target * s3 / (n2 * n)
                cand = tau - (target / n - 1.0) / dpsi
                tau = cand if lo < cand < hi else 0.5 * (lo + hi)
            else:
                raise SubsolverError(
                    "secular iteration exceeded its cap",
                    {"a": a, "b": b, "lam_low": sp.lam_low, "bracket": (lo, hi)},
                )
        except ZeroDivisionError:
            # tau or ||d|| underflowed to zero: no finite step to return
            raise SubsolverError(
                "secular iteration reached a zero shift or step", {"a": a, "b": b, "lam_low": sp.lam_low}
            ) from None
        denom = shifted + tau
        dh = sp.neg_gh / denom

    return ModelSolution(
        d=sp.Q @ dh, lam=sp.lam_low + tau, hard_case=hard_case, iterations=iters, w=sp.w, gh=gh, dh=dh, denom=denom
    )


def trust_region_min(g, H, delta: float) -> ModelSolution:
    """Global minimizer of g.d + d.H.d/2 over ||d|| <= delta.

    Returns the minimizer with multiplier lam >= 0 satisfying
    (H + lam I) d = -g, lam (delta - ||d||) = 0 and H + lam I >= 0,
    including the hard case where the solution needs an explicit leftmost
    eigenvector component.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    return _eig_min(g, H, delta, 0.0)


def cubic_min(g, H, sigma: float) -> ModelSolution:
    """Global minimizer of g.d + d.H.d/2 + sigma/6 ||d||^3.

    The minimizer satisfies (H + lam I) d = -g with lam = (sigma/2) ||d||
    and H + lam I positive semidefinite; in the hard case the solution has
    an explicit leftmost eigenvector component of the right length.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    sol = _eig_min(g, H, 0.0, 2.0 / sigma)
    sol.sigma = sigma
    return sol


def optimality_measure(bundle: DerivativeBundle, delta: float, q: int) -> MeasureResult:
    """Largest decrease of the degree-q Taylor expansion over a delta-ball,
    for any finite delta > 0.

    For q = 1 the maximizer is -delta g/||g|| in closed form; for q = 2 it
    is a trust-region solve.  The result is nonnegative by construction
    (d = 0 is feasible); tiny negative values from the subsolver tolerance
    are clamped to zero.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if bundle.grad is None:
        raise ValueError("bundle has no gradient")
    if q == 1:
        g = bundle.grad
        gn = math.sqrt(float(g.dot(g)))
        if gn == 0.0:
            return MeasureResult(phi=0.0, d=np.zeros_like(g))
        return MeasureResult(phi=gn * delta, d=(-delta / gn) * g)
    if q == 2:
        if bundle.hess is None:
            raise ValueError("bundle has no Hessian")
        tr = trust_region_min(bundle.grad, bundle.hess, delta)
        return MeasureResult(phi=max(0.0, -tr.value), d=tr.d)
    raise ValueError("q must be 1 or 2")


def cauchy_decrease(bundle: DerivativeBundle, delta: float) -> float:
    """Decrease of the degree-2 Taylor expansion at its Cauchy point in a delta-ball.

    Along d = -t g/||g|| the expansion decreases by t ||g|| - t^2 kappa/2,
    kappa = g.H.g/||g||^2; the result is that decrease at the best
    t in [0, delta], and 0 when g = 0 (Conn, Gould & Toint, Trust-Region
    Methods, SIAM 2000, section 6.3).  The point lies in the ball, so the
    result bounds ``optimality_measure(bundle, delta, 2).phi`` from below,
    for one product with H and no eigendecomposition.  The subtracted term
    is at most half of t ||g||, so rounding costs the bound a few units in
    the last place relative to itself.  A non-finite g.H.g gives a NaN or
    infinite result.
    """
    g = bundle.grad
    gg = float(g.dot(g))
    if gg == 0.0:
        return 0.0
    gn = math.sqrt(gg)
    kappa = float(g.dot(bundle.hess @ g)) / gg
    t = delta if kappa <= 0.0 else min(delta, gn / kappa)
    return t * gn - 0.5 * t * t * kappa


def model_descent_step(
    bundle: DerivativeBundle,
    sigma: float,
    orders: Orders,
    eps: float,
    mu: float,
    theta: float,
) -> StepResult | None:
    """Globally minimize the regularized model and package the trial step.

    Degree one has the closed-form global minimizer along -g; degree two
    uses the certified cubic solver.  When the step norm already reaches
    mu * eps^(1/(p-q+beta)) the step is returned alone.  A shorter step
    must pass the model-measure termination test at ``OPTIMALITY_RADIUS``
    and is returned with the measure, which the driver still needs to
    certify; a failed test raises ``SubsolverError``, since no smaller
    radius can pass (see the module docstring).

    A zero global minimizer (or a Taylor increment that rounds to zero)
    gives None, which the driver treats as termination.
    """
    p, q, beta = orders.p, orders.q, orders.beta
    long_step = mu * eps ** (1.0 / orders.gap)

    if p == 1:
        g = bundle.grad
        gn = math.sqrt(float(g.dot(g)))
        if gn == 0.0:
            return None
        step_norm = (gn / sigma) ** (1.0 / beta)
        s = (-step_norm / gn) * g
        increment = step_norm * gn
        if step_norm >= long_step:
            return StepResult(s, step_norm, increment, None)
        # model gradient at the minimizer; zero in exact arithmetic
        mg = g * (1.0 - sigma * step_norm**beta / gn)
        measure = math.sqrt(float(mg.dot(mg))) * OPTIMALITY_RADIUS
    else:
        s = cubic_min(bundle.grad, bundle.hess, sigma).d
        step_norm = math.sqrt(float(s.dot(s)))
        increment = taylor_increment(bundle, s, p) if step_norm else 0.0
        if increment <= 0.0:
            # a zero minimizer, or descent lost to rounding; by the
            # model-decrease lower bound the latter only happens for
            # negligible steps
            return None
        if step_norm >= long_step:
            return StepResult(s, step_norm, increment, None)
        measure = optimality_measure(model_taylor_derivs(bundle, s, sigma), OPTIMALITY_RADIUS, q).phi
    bound = theta * step_norm**orders.gap / holder_factorial(p - q, beta)
    if measure > bound * chi(q, OPTIMALITY_RADIUS):
        raise SubsolverError(
            "the model-measure test failed at the global minimizer",
            {"p": p, "q": q, "step_norm": step_norm, "measure": measure},
        )
    return StepResult(s, step_norm, increment, measure)
