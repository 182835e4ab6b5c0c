"""Accuracy certification of inexact Taylor increments.

Given an increment computed from derivative tensors whose absolute errors
are bounded by zeta_j, the cascade classifies it as exactly zero with
negligible tensor errors (flag 1), relatively accurate to within omega
(flag 2), or small with a certified absolute error (flag 3).  Flag 0 means
none of the certificates hold and the caller should tighten the accuracies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence


class CertifyFlag(IntEnum):
    NOT_CERTIFIED = 0
    ZERO_INCREMENT = 1
    RELATIVE_OK = 2
    SMALL_INCREMENT = 3


@dataclass(frozen=True)
class CertifyInput:
    """Arguments of one certification call.

    ``delta`` bounds the norm of the probe direction, ``increment`` is the
    (nonnegative) inexact Taylor increment of degree r = len(zetas),
    ``zetas`` are the per-order absolute accuracy bounds, ``omega`` the
    relative and ``xi`` the absolute accuracy targets.
    """

    delta: float
    increment: float
    zetas: tuple[float, ...]
    omega: float
    xi: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0.0 <= self.increment < math.inf:
            raise ValueError("increment must be nonnegative and finite")
        if len(self.zetas) == 0 or any(z < 0.0 for z in self.zetas):
            raise ValueError("zetas must be a nonempty list of nonnegative reals")
        if not 0.0 < self.omega < 1.0:
            raise ValueError("omega must lie in (0, 1)")
        if self.xi <= 0.0:
            raise ValueError("xi must be positive")


def _cascade(delta, increment, zetas, omega, xi) -> CertifyFlag:
    total = 0.0
    chi_r = 0.0
    fact = 1.0
    power = 1.0
    for j, zeta in enumerate(zetas, start=1):
        fact *= j
        power *= delta
        total += zeta * power / fact
        chi_r += power / fact
    if increment == 0.0:
        if max(zetas) <= xi:
            return CertifyFlag.ZERO_INCREMENT
        return CertifyFlag.NOT_CERTIFIED
    if total <= omega * increment:
        return CertifyFlag.RELATIVE_OK
    if total <= xi * chi_r:
        return CertifyFlag.SMALL_INCREMENT
    return CertifyFlag.NOT_CERTIFIED


def certify(inp: CertifyInput) -> CertifyFlag:
    """Run the certification cascade in fixed priority order 1, 2, 3."""
    return _cascade(inp.delta, inp.increment, inp.zetas, inp.omega, inp.xi)


def certify_increment(
    delta: float,
    increment: float,
    zetas: Sequence[float],
    omega: float,
    xi: float,
) -> CertifyFlag:
    """Cascade on bare arguments; the hot path used by the driver.

    A NaN or infinite ``delta`` or ``increment`` is rejected, so no
    certificate rests on non-finite data.
    """
    if not (0.0 < delta < math.inf and 0.0 <= increment < math.inf and xi > 0.0 and 0.0 < omega < 1.0):
        raise ValueError("invalid certification arguments")
    if len(zetas) == 0 or any(z < 0.0 for z in zetas):
        raise ValueError("zetas must be a nonempty list of nonnegative reals")
    return _cascade(delta, increment, zetas, omega, xi)


def weighted_error_bound(zetas: Sequence[float], delta: float) -> float:
    """Worst-case increment error sum zeta_j delta^j / j! over a delta-ball."""
    total = 0.0
    fact = 1.0
    power = 1.0
    for j, zeta in enumerate(zetas, start=1):
        fact *= j
        power *= delta
        total += zeta * power / fact
    return total
