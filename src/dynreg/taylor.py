"""Taylor machinery for regularized models of degree at most two.

Scalar combinatorics (the Hölder factorial and the ball-scaling polynomial
chi), Taylor increments of inexact derivative bundles, and the derivatives
of the regularized model at a trial step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def holder_factorial(i: int, beta: float) -> float:
    """Product of (l + beta) for l = 1..i; equals 1 for i = 0.

    For beta = 1 this is (i + 1)!/1!, the factorial shifted by one; general
    beta in (0, 1] interpolates between integer factorials.
    """
    if i < 0:
        raise ValueError("order must be nonnegative")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    out = 1.0
    for ell in range(1, i + 1):
        out *= ell + beta
    return out


def chi(q: int, delta: float) -> float:
    """Ball-scaling polynomial: sum of delta^l / l! for l = 1..q."""
    if q < 1:
        raise ValueError("q must be at least 1")
    out = 0.0
    term = 1.0
    for ell in range(1, q + 1):
        term *= delta / ell
        out += term
    return out


@dataclass(frozen=True)
class Orders:
    """Model degree p, optimality order q and Hölder exponent beta.

    Only p, q in {1, 2} with q <= p are supported; the degree-two subsolver
    additionally requires beta = 1 (Lipschitz Hessian).  beta is at least
    0.1: the first-order step raises the gradient to the power 1/beta, and
    a larger power leaves the float range.
    """

    p: int
    q: int
    beta: float = 1.0

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        if self.q > self.p:
            raise ValueError("q must not exceed p")
        if not 0.1 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0.1, 1]")
        if self.p == 2 and self.beta != 1.0:
            raise ValueError("p = 2 requires beta = 1")

    @property
    def gap(self) -> float:
        """Exponent denominator p - q + beta, always positive."""
        return self.p - self.q + self.beta

    @property
    def eps_power(self) -> float:
        """Complexity exponent (p + beta) / (p - q + beta)."""
        return (self.p + self.beta) / self.gap


@dataclass
class DerivativeBundle:
    """Inexact gradient and Hessian at a point, with accuracy tags.

    ``achieved_acc[j]`` is the absolute accuracy the producing oracle
    promised for order j (1 = gradient, 2 = Hessian).  The
    Hessian is stored symmetrized.  An oracle hands the same bundle, with
    read-only arrays, to every request its cache serves unchanged.
    """

    origin: np.ndarray
    grad: np.ndarray | None = None
    hess: np.ndarray | None = None
    achieved_acc: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        if self.grad is not None:
            self.grad = np.asarray(self.grad, dtype=float)
            if self.grad.shape != self.origin.shape:
                raise ValueError("gradient dimension must match the origin")
        if self.hess is not None:
            h = np.asarray(self.hess, dtype=float)
            if h.shape != (self.origin.size, self.origin.size):
                raise ValueError("Hessian shape must be n x n")
            self.hess = 0.5 * (h + h.T)
        for j, acc in self.achieved_acc.items():
            if not 0.0 <= acc < math.inf:
                raise ValueError(f"accuracy tag for order {j} must be finite and nonnegative")


def taylor_increment(bundle: DerivativeBundle, s: np.ndarray, order: int) -> float:
    """Model-predicted decrease T(0) - T(s) of the degree-``order`` expansion.

    Equals -(g.s) for order 1 and -(g.s + s.H.s/2) for order 2; the value
    term cancels, so the bundle carries no value.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if bundle.grad is None:
        raise ValueError("bundle has no gradient")
    s = np.asarray(s, dtype=float)
    if s.shape != bundle.origin.shape:
        raise ValueError("step dimension mismatch")
    inc = -float(bundle.grad.dot(s))
    if order == 2:
        if bundle.hess is None:
            raise ValueError("bundle has no Hessian")
        inc -= 0.5 * float(s.dot(bundle.hess @ s))
    return inc


def model_accuracy(achieved_acc: dict[int, float], step_norm: float) -> dict[int, float]:
    """Bounds on the errors of the regularized model's derivatives at a step.

    With gradient and Hessian errors at most z1 and z2, the model gradient
    g + H s errs by at most z1 + z2 ||s|| and the model Hessian by z2; the
    regularizer terms are exact.  Every tag is three times the largest
    input tag, which covers both for ||s|| <= 2 however the per-order tags
    differ, and the gradient tag follows z1 + z2 ||s|| beyond that.  Only
    orders tagged in the input are tagged in the result.
    """
    z1 = achieved_acc.get(1, 0.0)
    z2 = achieved_acc.get(2, 0.0)
    tag = 3.0 * max(z1, z2)
    bounds = {1: max(tag, z1 + z2 * step_norm), 2: tag}
    return {j: bounds[j] for j in achieved_acc if j in bounds}


def model_taylor_derivs(bundle: DerivativeBundle, s: np.ndarray, sigma: float) -> DerivativeBundle:
    """Gradient and Hessian of the degree-2 regularized model at step ``s``.

    For the cubic regularizer sigma/6 * ||s||^3 the derivatives are
    g + H s + (sigma/2)||s|| s and H + (sigma/2)(||s|| I + s s^T/||s||); at
    s = 0 both regularizer terms vanish (their continuous limit).  The
    result carries no accuracy tags: ``model_accuracy`` bounds its errors.
    """
    if bundle.grad is None or bundle.hess is None:
        raise ValueError("bundle must carry gradient and Hessian")
    s = np.asarray(s, dtype=float)
    ns = math.sqrt(float(s @ s))
    g = bundle.grad + bundle.hess @ s
    h = bundle.hess.copy()
    if ns > 0.0:
        g = g + (0.5 * sigma * ns) * s
        h = h + (0.5 * sigma) * (ns * np.eye(s.size) + np.outer(s, s) / ns)
    return DerivativeBundle(origin=s.copy(), grad=g, hess=h)
