"""Algorithm constants and the accuracy schedule selector."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Schedule(str, Enum):
    """How the absolute-accuracy ladder evolves across outer iterations.

    FLEXIBLE resets the ladder to kappa_eps at the start of every
    iteration; MONOTONIC initializes it once and only ever tightens it.
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
    vartheta in (0, 1), delta_init in (0, 1], eps in (0, 1),
    gamma_eps in (0, 1), kappa_eps > 0.
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
    delta_init: float = 1.0
    eps: float = 1e-3
    gamma_eps: float = 0.1
    kappa_eps: float = 1.0
    max_iter: int = 100_000
    schedule: Schedule = Schedule.FLEXIBLE

    def __post_init__(self):
        object.__setattr__(self, "schedule", Schedule(self.schedule))
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
            (0.0 < self.delta_init <= 1.0, "delta_init must lie in (0, 1]"),
            (0.0 < self.eps < 1.0, "eps must lie in (0, 1)"),
            (0.0 < self.gamma_eps < 1.0, "gamma_eps must lie in (0, 1)"),
            (self.kappa_eps > 0.0, "kappa_eps must be positive"),
            (self.max_iter >= 1, "max_iter must be at least 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    @property
    def omega0(self) -> float:
        return min(self.kappa_omega, 1.0 / self.sigma0)
