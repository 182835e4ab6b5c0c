"""Algorithm constants and the accuracy schedule selector."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum


# a ladder threshold below this has underflowed
LADDER_TINY = 1e-300
# unit roundoff of double precision
UNIT_ROUNDOFF = 2.0**-53
# shrinks the first iteration may need before its tightest threshold
MAX_FIRST_SHRINKS = 100_000


class Schedule(str, Enum):
    """How the driver moves the accuracy ladder across outer iterations.

    FLEXIBLE resets the ladder at every iteration, to the loosest rung
    the previous iteration's certificates allow (kappa_eps when they were
    all made there), so it may loosen from one iteration to the next;
    MONOTONIC never resets it, so it only ever tightens.
    """

    FLEXIBLE = "flexible"
    MONOTONIC = "monotonic"


@dataclass(frozen=True)
class AlgoParams:
    """Every constant of the solver, validated at construction.

    Defaults are round numbers satisfying all initialization constraints:
    0 < eta1 <= eta2 < 1, 0 < gamma1 < 1 < gamma2 < gamma3,
    sigma_min in (0, sigma0], alpha in (0, 1),
    kappa_omega in (0, alpha*eta1/2], theta > 0, mu in (0, 1],
    vartheta in (0, 1), eps in (0, 1), gamma_eps in (0, 1), kappa_eps > 0,
    and every float finite.
    The first iteration's arithmetic must also stay within double
    precision:
    - kappa_eps <= 1e100: noisy errors scale with it, and their squares
      must stay finite;
    - sigma0 >= 1e-10: the first step is about the gradient over sigma0
      raised to 1/beta <= 10 (for p = 2, the square root), and must stay
      in float range;
    - sigma0 * u <= 1e-4 theta, u the unit roundoff: the model-measure test
      compares theta times the size of a short first step with quantities
      that round at u;
    - the tightest first-iteration threshold,
      ``tightest_threshold(omega0, eps)``, lies at most
      ``MAX_FIRST_SHRINKS`` ladder rungs below kappa_eps, with one more
      rung still above ``LADDER_TINY``.
    The optimality radius is no parameter: it is fixed at one.
    """

    eta1: float = 0.25
    eta2: float = 0.9
    gamma1: float = 0.5
    gamma2: float = 2.0
    gamma3: float = 4.0
    sigma0: float = 1.0
    sigma_min: float = 1e-8
    alpha: float = 0.5
    kappa_omega: float = 0.0625
    theta: float = 0.5
    mu: float = 1.0
    vartheta: float = 0.5
    eps: float = 1e-3
    gamma_eps: float = 0.1
    kappa_eps: float = 1.0
    max_iter: int = 100_000
    schedule: Schedule = Schedule.FLEXIBLE

    def __post_init__(self):
        object.__setattr__(self, "schedule", Schedule(self.schedule))
        for f in fields(self):
            if f.type == "float" and not finite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        checks = [
            (0.0 < self.eta1 <= self.eta2 < 1.0, "need 0 < eta1 <= eta2 < 1"),
            (0.0 < self.gamma1 < 1.0 < self.gamma2 < self.gamma3, "need 0 < gamma1 < 1 < gamma2 < gamma3"),
            (self.sigma0 > 0.0, "sigma0 must be positive"),
            (0.0 < self.sigma_min <= self.sigma0, "need 0 < sigma_min <= sigma0"),
            (0.0 < self.alpha < 1.0, "alpha must lie in (0, 1)"),
            (
                0.0 < self.kappa_omega <= 0.5 * self.alpha * self.eta1,
                "kappa_omega must lie in (0, alpha*eta1/2]",
            ),
            (self.theta > 0.0, "theta must be positive"),
            (0.0 < self.mu <= 1.0, "mu must lie in (0, 1]"),
            (0.0 < self.vartheta < 1.0, "vartheta must lie in (0, 1)"),
            (0.0 < self.eps < 1.0, "eps must lie in (0, 1)"),
            (0.0 < self.gamma_eps < 1.0, "gamma_eps must lie in (0, 1)"),
            (self.kappa_eps > 0.0, "kappa_eps must be positive"),
            (self.max_iter >= 1, "max_iter must be at least 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
        if self.kappa_eps > 1e100:
            raise ValueError("kappa_eps must be at most 1e100")
        if self.sigma0 < 1e-10:
            raise ValueError("sigma0 must be at least 1e-10: a smaller one sends the first step out of float range")
        if self.sigma0 * UNIT_ROUNDOFF > 1e-4 * self.theta:
            raise ValueError("sigma0 must be at most 1e-4 theta / u: a larger one rounds a short first step away")
        floor0 = self.tightest_threshold(self.omega0, self.eps)
        if floor0 * self.gamma_eps < LADDER_TINY:
            raise ValueError("the first iteration's tightest threshold underflows the accuracy ladder")
        if math.log(floor0 / self.kappa_eps) / math.log(self.gamma_eps) > MAX_FIRST_SHRINKS:
            raise ValueError(f"the first iteration may need more than {MAX_FIRST_SHRINKS} ladder shrinks")

    @property
    def omega0(self) -> float:
        return min(self.kappa_omega, 1.0 / self.sigma0)

    def tightest_threshold(self, omega: float, eps: float) -> float:
        """vartheta (1-kappa_omega) / (6 (1+kappa_omega)^2) * omega * eps, the
        tightest threshold any certification call uses at omega."""
        kw = self.kappa_omega
        return self.vartheta * (1.0 - kw) / (6.0 * (1.0 + kw) ** 2) * omega * eps


def finite(value) -> bool:
    """Whether a number converts to a finite float (an int beyond the
    float range does not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
