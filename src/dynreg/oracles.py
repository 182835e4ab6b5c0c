"""Inexact evaluation providers with explicit accuracy contracts.

An oracle serves function values and derivative tensors of orders 1..upto
at one requested absolute accuracy, a finite positive number; any other
request raises ``ValueError`` before the cache is read.  Every result carries
the accuracy its oracle promises for it, and caching defines what counts as
an evaluation: the value (order 0) and each derivative order are kept in
one store of recent points and recomputed (and counted) only when the
request is strictly tighter than the promise of the result cached at the
same point.  An exact result promises zero and so serves every later
request.  Results that are not finite, and promises that are negative or
not finite, are rejected before they are cached.  Three oracles are
provided: exact, bounded-noise (noise injected at the accuracy boundary, a
pure function of a digest of seed, point, accuracy and order) and
subsampled finite-sum with operator-Bernstein sample sizes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .params import LADDER_TINY
from .problems import Dataset, Problem
from .taylor import DerivativeBundle, Orders
from . import _kernels

__all__ = [
    "AccuracyLadder",
    "EvalCounters",
    "ExactOracle",
    "InvalidPromiseError",
    "LadderUnderflowError",
    "NoisyOracle",
    "NonFiniteEvaluationError",
    "Oracle",
    "StochasticConfig",
    "SubsampledOracle",
    "failure_probability",
    "sample_size",
    "sampling_failures",
    "subsampled_eval",
]

_CACHE_POINTS = 4


class LadderUnderflowError(RuntimeError):
    """The accuracy ladder shrank below machine tiny; should be unreachable."""


class NonFiniteEvaluationError(RuntimeError):
    """An oracle computed a value or tensor with a NaN or infinite entry."""


class InvalidPromiseError(RuntimeError):
    """An oracle promised an accuracy that is negative, NaN or infinite."""


@dataclass
class AccuracyLadder:
    """The absolute accuracy eps requested for every derivative order.

    Rung i holds kappa_eps * gamma_eps^i, built by i shrinks from kappa_eps
    (a reset to rung i carries the bits of i shrinks).  The ladder has no
    schedule: the driver resets it for each FLEXIBLE iteration and never
    under MONOTONIC.
    """

    gamma_eps: float
    kappa_eps: float
    eps: float = field(init=False)
    i_eps: int = field(init=False)

    def __post_init__(self):
        self.reset()

    def reset(self, rung: int = 0) -> None:
        self.eps = self.kappa_eps
        self.i_eps = 0
        while self.i_eps < rung:
            self.shrink()

    def loosest_rung(self, room: float) -> int:
        """The loosest rung at which a certificate made at the current rung
        with ``room`` (see ``certify.certificate_room``) still holds.

        Each rung looser multiplies the thresholds by 1/gamma_eps, so this
        is i_eps - floor(log_{1/gamma_eps}(room)), clamped to [0, i_eps]:
        never tighter than the current rung, never looser than kappa_eps.
        """
        widen = 1.0 / self.gamma_eps
        rung = self.i_eps
        while rung > 0 and room >= widen:
            room /= widen
            rung -= 1
        return rung

    def shrink(self) -> None:
        self.eps *= self.gamma_eps
        if self.eps < LADDER_TINY:
            raise LadderUnderflowError(f"accuracy threshold below {LADDER_TINY:g} after {self.i_eps + 1} shrinks")
        self.i_eps += 1


@dataclass
class EvalCounters:
    """Evaluation bookkeeping: function values, per-order derivative
    recomputations, and component evaluations of the subsampled oracle."""

    fun_evals: int = 0
    deriv_evals: dict[int, int] = field(default_factory=dict)
    component_evals: int = 0

    def bump_deriv(self, j: int) -> None:
        self.deriv_evals[j] = self.deriv_evals.get(j, 0) + 1


@dataclass(frozen=True)
class StochasticConfig:
    """Failure-probability budget of the subsampled oracle.

    ``t`` is the per-inequality failure probability; if absent it is
    derived from ``t_bar`` and the target accuracy via
    ``failure_probability``.
    """

    t_bar: float = 0.1
    t: float | None = None

    def __post_init__(self):
        if not 0.0 < self.t_bar < 1.0:
            raise ValueError("t_bar must lie in (0, 1)")
        if self.t is not None and not 0.0 < self.t <= self.t_bar:
            raise ValueError("t must lie in (0, t_bar]")

    def resolve_t(self, eps: float, orders: Orders) -> float:
        if self.t is not None:
            return self.t
        return failure_probability(eps, orders, self.t_bar)


def failure_probability(eps: float, orders: Orders, t_bar: float) -> float:
    """Per-inequality failure probability scaled to the iteration budget.

    t_bar * eps^((p+beta)/(p-q+beta)) / (p+q+2), capped at 0.1; the hidden
    constant is taken as one.
    """
    return min(0.1, t_bar * eps**orders.eps_power / (orders.p + orders.q + 2))


def sample_size(kappa: float, eps_j: float, t: float, d: int, N: int) -> int:
    """Operator-Bernstein sample size for accuracy eps_j w.p. at least 1-t.

    min(N, max(1, ceil((4 kappa/eps)(2 kappa/eps + 1/3) log(d/t)))); a zero
    variance bound gives the floor of one sample.
    """
    if eps_j <= 0.0:
        raise ValueError("eps_j must be positive")
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if kappa == 0.0:
        return 1
    ratio = kappa / eps_j
    bound = 4.0 * ratio * (2.0 * ratio + 1.0 / 3.0) * math.log(d / t)
    if not bound < N:  # an overflowed bound also takes every component
        return N
    return max(1, math.ceil(bound))


def _dimension_factor(j: int, n: int) -> int:
    """Dimension of the Bernstein bound for an order-j estimate in R^n."""
    return {0: 2, 1: n + 1, 2: 2 * n}[j]


def _error_norm(j: int, err) -> float:
    """Size of an order-j error: absolute, Euclidean or spectral."""
    if j == 0:
        return abs(err)
    if j == 1:
        return float(np.linalg.norm(err))
    return float(np.max(np.abs(np.linalg.eigvalsh(err))))


def sampling_failures(dataset: Dataset, x: np.ndarray, j: int, eps_j: float, t: float, trials: int, rng):
    """Monte-Carlo check of the order-j sample size at x.

    Draws ``trials`` estimates of the oracle's sample size for accuracy
    eps_j and failure probability t from ``rng`` and counts those whose
    error from the full sum exceeds eps_j.  Returns (sample size,
    failures); the failure rate should not exceed t beyond sampling noise.
    """
    m = sample_size(dataset.kappa_bounds[j], eps_j, t, _dimension_factor(j, dataset.dim), dataset.size)
    exact = subsampled_eval(dataset, x, j, dataset.size, rng)  # the full sum draws nothing
    failures = sum(_error_norm(j, subsampled_eval(dataset, x, j, m, rng) - exact) > eps_j for _ in range(trials))
    return m, failures


def subsampled_eval(dataset: Dataset, x: np.ndarray, j: int, m: int, rng, counters: EvalCounters | None = None):
    """Mean of order-j component derivatives over m uniform draws.

    Sampling is with replacement; m = N switches to the exact full sum with
    no randomness consumed, over the shared ``_kernels.full_index(N)``, so
    the kernels read the feature columns in place and share one sigmoid
    pass among the orders requested at one x.  The BLAS reduction order is
    fixed for a given machine and BLAS, so replays there are bit-identical.
    """
    N = dataset.size
    if not 1 <= m <= N:
        raise ValueError("m must lie in [1, N]")
    if m == N:
        idx = _kernels.full_index(N)
    else:
        idx = rng.integers(0, N, size=m, dtype=np.int64)
    if counters is not None:
        counters.component_evals += m
    x = np.ascontiguousarray(x, dtype=float)
    if j == 0:
        return _kernels.value_sum(dataset.features, dataset.labels, x, idx) / m
    if j == 1:
        return _kernels.grad_sum(dataset.features, dataset.labels, x, idx) / m
    if j == 2:
        return _kernels.hess_sum(dataset.features, dataset.labels, x, idx) / m
    raise ValueError("j must be 0, 1 or 2")


class Oracle:
    """Base class: caching, evaluation counting and the request protocol.

    Subclasses implement ``_compute(x, j, eps)``, returning the order-j
    result at x (the value for j = 0, the gradient or Hessian for j = 1, 2)
    and the accuracy it promises.

    Values and derivative tensors share one store and one cache rule: a
    cached result is reused whenever its promise is at least as tight as
    the request, and is recomputed, and counted, only when the request is
    strictly tighter.  A request that is not a finite positive number
    raises ``ValueError``.  A fresh result that is not finite raises
    ``NonFiniteEvaluationError``, one whose promise is negative or not
    finite ``InvalidPromiseError``, and neither is cached.  Only the
    ``_CACHE_POINTS`` most recently requested points are retained, whichever
    orders were requested there.  Each point also keeps one derivative
    bundle per ``upto``, with read-only arrays and the Hessian symmetrized
    once, and builds a new one only after one of its orders is recomputed.
    """

    def __init__(self):
        self.counters = EvalCounters()
        # per point: the (result, promise) of each order and the bundle of each upto
        self._cache: OrderedDict[bytes, tuple[dict[int, tuple], dict[int, DerivativeBundle]]] = OrderedDict()

    def _compute(self, x: np.ndarray, j: int, eps: float) -> tuple:
        raise NotImplementedError

    def end_iteration(self) -> dict:
        """Trace extras of the iteration that ends."""
        return {}

    def request_function(self, x: np.ndarray, eps0: float) -> float:
        entries, _ = self._serve(x, eps0, (0,))
        return entries[0][0]

    def request_derivatives(self, x: np.ndarray, eps: float, upto: int) -> DerivativeBundle:
        """The bundle of orders 1..upto at x, each requested at accuracy eps.

        Order j is recomputed only when its own promise is looser than eps,
        and the bundle is built only when an order is recomputed.  Every
        request served from the same cache state gets the same bundle, so
        its arrays are read-only and callers must not modify it.
        """
        if upto not in (1, 2):
            raise ValueError("upto must be 1 or 2")
        entries, bundles = self._serve(x, eps, (1,) if upto == 1 else (1, 2))
        bundle = bundles.get(upto)
        if bundle is None:
            bundle = bundles[upto] = DerivativeBundle(
                origin=_read_only(np.array(x, dtype=float)),
                grad=entries[1][0],
                hess=entries[2][0] if upto == 2 else None,
                achieved_acc={j: entries[j][1] for j in range(1, upto + 1)},
            )
            if bundle.hess is not None:
                _read_only(bundle.hess)  # the symmetrized copy
        return bundle

    def _serve(self, x: np.ndarray, eps: float, orders: tuple[int, ...]) -> tuple[dict, dict]:
        """The (entries, bundles) of point x, now the most recent point, with
        each of ``orders`` served under the one cache rule."""
        if not 0.0 < eps < math.inf:
            raise ValueError(f"requested accuracy {eps} is not a finite positive number")
        x = np.ascontiguousarray(x, dtype=float)
        key = x.tobytes()
        point = self._cache.get(key)
        if point is None:
            point = self._cache[key] = ({}, {})
            if len(self._cache) > _CACHE_POINTS:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(key)
        entries, bundles = point
        for j in orders:
            entry = entries.get(j)
            if entry is not None and entry[1] <= eps:
                continue
            result, promise = self._compute(x, j, eps)
            if j == 0:
                self.counters.fun_evals += 1
                result = float(result)
                if not math.isfinite(result):
                    raise NonFiniteEvaluationError(f"function value {result} is not finite")
            else:
                self.counters.bump_deriv(j)
                if not np.isfinite(result).all():
                    raise NonFiniteEvaluationError(f"order-{j} derivative has a non-finite entry")
                result = _read_only(np.asarray(result, dtype=float).view())
                # the bundles that carry order j now hold a stale tensor
                for stale in range(j, 3):
                    bundles.pop(stale, None)
            entries[j] = (result, _checked_promise(promise, j))
        return point


def _checked_promise(promise: float, j: int) -> float:
    if not 0.0 <= promise < math.inf:
        raise InvalidPromiseError(f"order-{j} promise {promise} is not a finite nonnegative accuracy")
    return promise


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ExactOracle(Oracle):
    """Serves exact values and derivatives; the promise is always zero."""

    def __init__(self, problem: Problem):
        super().__init__()
        self.problem = problem

    def _compute(self, x, j, eps):
        return (self.problem.value, self.problem.grad, self.problem.hess)[j](x), 0.0


class NoisyOracle(Oracle):
    """Injects deterministic noise at a fraction of the accuracy boundary.

    The error is noise_fraction * eps times a pseudo-random unit-norm
    tensor (a sign for values, a unit vector for gradients, a symmetric
    matrix of unit spectral norm for Hessians), a pure function of the
    digest of (seed, eps, order, point): a value takes one bit of it as its
    sign, a derivative draws from the oracle's one generator set to it.
    Replays are bit-identical; a last-bit change in the point redraws.
    """

    def __init__(self, problem: Problem, noise_fraction: float = 0.9, seed: int = 0):
        super().__init__()
        if not 0.0 <= noise_fraction <= 1.0:
            raise ValueError("noise_fraction must lie in [0, 1]")
        self.problem = problem
        self.noise_fraction = noise_fraction
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        self._key = b"%d:" % self.seed  # the colon ends the seed, so no key is a prefix of another
        self._bits = np.random.PCG64()
        self._gen = np.random.Generator(self._bits)

    def _digest(self, x: np.ndarray, j: int, eps: float) -> bytes:
        """blake2b-256 of the seed key, eps and j at fixed width, then x."""
        return hashlib.blake2b(self._key + struct.pack("<dq", eps, j) + x.tobytes(), digest_size=32).digest()

    def _compute(self, x, j, eps):
        d = self._digest(x, j, eps)
        if j == 0:
            sign = 1.0 if d[0] & 1 else -1.0
            return float(self.problem.value(x)) + self.noise_fraction * eps * sign, eps
        state = {"state": int.from_bytes(d[:16], "little"), "inc": int.from_bytes(d[16:], "little") | 1}
        self._bits.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        if j == 1:
            u = self._gen.standard_normal(x.size)
            u /= math.sqrt(float(u.dot(u)))
            return np.asarray(self.problem.grad(x), dtype=float) + self.noise_fraction * eps * u, eps
        m = self._gen.standard_normal((x.size, x.size))
        s = 0.5 * (m + m.T)
        s /= float(np.abs(np.linalg.eigvalsh(s)).max())
        return np.asarray(self.problem.hess(x), dtype=float) + self.noise_fraction * eps * s, eps


class SubsampledOracle(Oracle):
    """Finite-sum oracle averaging uniformly sampled components.

    Sample sizes follow the operator-Bernstein rule, so every request is
    honored with probability at least 1 - t and promises the requested
    accuracy.  Requests whose required size reaches N fall back to the
    exact full sum, which draws no random numbers and promises zero, so the
    cache serves it to every later request at the same point.  One seeded
    generator drives all draws, making whole runs replayable.  Each
    iteration's trace extras hold ``sample_sizes``: per order, the size of
    its last draw in the iteration (N for a full sum).
    """

    def __init__(self, dataset: Dataset, t: float, seed: int):
        super().__init__()
        if not 0.0 < t < 1.0:
            raise ValueError("t must lie in (0, 1)")
        self.dataset = dataset
        self.t = float(t)
        self.rng = np.random.default_rng(seed)
        self._iter_sizes: dict[int, int] = {}

    def _compute(self, x, j, eps):
        ds = self.dataset
        m = sample_size(ds.kappa_bounds[j], eps, self.t, _dimension_factor(j, ds.dim), ds.size)
        self._iter_sizes[j] = m
        promise = eps if m < ds.size else 0.0
        return subsampled_eval(ds, x, j, m, self.rng, self.counters), promise

    def end_iteration(self) -> dict:
        sizes, self._iter_sizes = self._iter_sizes, {}
        return {"sample_sizes": dict(sorted(sizes.items()))}
