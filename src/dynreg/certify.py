"""Accuracy certification of inexact Taylor increments.

Given an increment computed from derivative tensors whose absolute errors
are bounded by zeta_j, the cascade classifies it as exactly zero with
negligible tensor errors (flag 1), relatively accurate to within omega
(flag 2), or small with a certified absolute error (flag 3).  Flag 0 means
none of the certificates hold and the caller should tighten the accuracies.
``loosest_certifying`` asks the same cascade how loose one common tag
could be and still certify.
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
    ``zetas`` are upper bounds on the per-order absolute tensor errors,
    ``omega`` the relative and ``xi`` the absolute accuracy targets.  The
    driver passes the accuracies the oracle promised for the tensors
    (``DerivativeBundle.achieved_acc``), not the ones it requested: any
    upper bound serves, and a promise is never looser than its request.
    A NaN or infinite ``delta``, ``increment`` or tag is rejected, so no
    certificate rests on non-finite data.
    """
    if not (0.0 < delta < math.inf and 0.0 <= increment < math.inf and xi > 0.0 and 0.0 < omega < 1.0):
        args = {"delta": delta, "increment": increment, "xi": xi, "omega": omega}
        in_range = (0.0 < delta < math.inf, 0.0 <= increment < math.inf, xi > 0.0, 0.0 < omega < 1.0)
        name = next(name for name, ok in zip(args, in_range) if not ok)
        raise ValueError(f"invalid certification argument {name} = {args[name]}")
    if len(zetas) == 0:
        raise ValueError("zetas must be a nonempty list of finite nonnegative reals")
    total = 0.0
    chi_r = 0.0
    fact = 1.0
    power = 1.0
    for j, zeta in enumerate(zetas, start=1):
        if not 0.0 <= zeta < math.inf:
            raise ValueError("zetas must be a nonempty list of finite nonnegative reals")
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


def loosest_certifying(
    delta: float, increment: float, requests: Sequence[float], order: int, omega: float, xi: float
) -> int:
    """The first index r at which ``certify_increment`` certifies
    ``increment`` with ``requests[r]`` as the tag of every order
    1..``order``, or ``len(requests)`` if it certifies at none.

    ``requests`` must not increase.  The cascade's sums do not decrease
    with the tag, rounding included, so a tag certifies whenever a larger
    one does, the certifying indices run from r to the end, and a
    bisection finds r in about log2(len(requests)) cascade calls.
    """
    lo, hi = 0, len(requests)
    while lo < hi:
        mid = (lo + hi) // 2
        if certify_increment(delta, increment, [requests[mid]] * order, omega, xi) is CertifyFlag.NOT_CERTIFIED:
            lo = mid + 1
        else:
            hi = mid
    return lo
