"""Accuracy certification of inexact Taylor increments.

Given an increment computed from derivative tensors whose absolute errors
are bounded by zeta_j, the cascade classifies it as exactly zero with
negligible tensor errors (flag 1), relatively accurate to within omega
(flag 2), or small with a certified absolute error (flag 3).  Flag 0 means
none of the certificates hold and the caller should tighten the accuracies.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Sequence


class CertifyFlag(IntEnum):
    NOT_CERTIFIED = 0
    ZERO_INCREMENT = 1
    RELATIVE_OK = 2
    SMALL_INCREMENT = 3


def certify_increment(
    delta: float,
    increment: float,
    zetas: Sequence[float],
    omega: float,
    xi: float,
) -> CertifyFlag:
    """Run the certification cascade in fixed priority order 1, 2, 3.

    ``delta`` bounds the norm of the probe direction, ``increment`` is the
    (nonnegative) inexact Taylor increment of degree r = len(zetas),
    ``zetas`` are the per-order absolute accuracy bounds, ``omega`` the
    relative and ``xi`` the absolute accuracy targets.  A NaN or infinite
    ``delta`` or ``increment`` is rejected, so no certificate rests on
    non-finite data.
    """
    if not (0.0 < delta < math.inf and 0.0 <= increment < math.inf and xi > 0.0 and 0.0 < omega < 1.0):
        raise ValueError("invalid certification arguments")
    if len(zetas) == 0 or any(z < 0.0 for z in zetas):
        raise ValueError("zetas must be a nonempty list of nonnegative reals")
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

