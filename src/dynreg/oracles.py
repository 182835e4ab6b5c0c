"""Inexact evaluation providers with explicit accuracy contracts.

An oracle serves function values at a requested absolute accuracy and
derivative tensors at per-order absolute accuracies.  Every result carries
the accuracy its oracle promises for it, and caching defines what counts as
an evaluation: a value or tensor is recomputed (and counted) only when the
request is strictly tighter than the promise of the result cached at the
same point.  An exact result promises zero and so serves every later
request.  Results that are not finite are rejected before they are cached.
Three oracles are provided: exact, bounded-noise (deterministic noise
injected at the accuracy boundary) and subsampled finite-sum with
operator-Bernstein sample sizes.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .params import Schedule
from .problems import Dataset, Problem
from .taylor import DerivativeBundle, Orders
from . import _kernels

__all__ = [
    "AccuracyLadder",
    "EvalCounters",
    "ExactOracle",
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
_LADDER_TINY = 1e-300


class LadderUnderflowError(RuntimeError):
    """The accuracy ladder shrank below machine tiny; should be unreachable."""


class NonFiniteEvaluationError(RuntimeError):
    """An oracle computed a value or tensor with a NaN or infinite entry."""


@dataclass
class AccuracyLadder:
    """Current absolute accuracy thresholds eps_j for orders 1..p.

    Every shrink multiplies all thresholds by gamma_eps.  Under the
    FLEXIBLE schedule ``reset`` restores kappa_eps at each outer iteration;
    under MONOTONIC it is a no-op, so thresholds never increase over a run.
    """

    eps: dict[int, float]
    gamma_eps: float
    kappa_eps: float
    mode: Schedule
    i_eps: int = 0

    @classmethod
    def initial(cls, p: int, gamma_eps: float, kappa_eps: float, mode: Schedule) -> "AccuracyLadder":
        return cls(
            eps={j: kappa_eps for j in range(1, p + 1)},
            gamma_eps=gamma_eps,
            kappa_eps=kappa_eps,
            mode=Schedule(mode),
        )

    def reset(self) -> None:
        if self.mode is Schedule.FLEXIBLE:
            for j in self.eps:
                self.eps[j] = self.kappa_eps
            self.i_eps = 0

    def shrink(self) -> None:
        for j in self.eps:
            self.eps[j] *= self.gamma_eps
            if self.eps[j] < _LADDER_TINY:
                raise LadderUnderflowError(
                    f"accuracy threshold for order {j} underflowed below {_LADDER_TINY:g} "
                    f"after {self.i_eps + 1} shrinks"
                )
        self.i_eps += 1

    def snapshot(self) -> tuple[float, ...]:
        return tuple(self.eps[j] for j in sorted(self.eps))


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
    seed: int = 0

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
    raw = math.ceil(4.0 * ratio * (2.0 * ratio + 1.0 / 3.0) * math.log(d / t))
    return min(N, max(1, raw))


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
    no randomness consumed.  The BLAS reduction order is fixed for a given
    machine and BLAS, so replays there are bit-identical.
    """
    N = dataset.size
    if not 1 <= m <= N:
        raise ValueError("m must lie in [1, N]")
    if m == N:
        idx = np.arange(N, dtype=np.int64)
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

    Subclasses implement ``_compute_function`` and ``_compute_derivative``,
    each returning ``(value_or_tensor, promised_accuracy)``.

    Values and derivative tensors follow one cache rule: a cached result is
    reused whenever its promise is at least as tight as the request, and
    is recomputed, and counted, only when the request is strictly tighter.
    A fresh result that is not finite raises ``NonFiniteEvaluationError``
    and is not cached.  Only the few most recent points are retained.
    """

    def __init__(self):
        self.counters = EvalCounters()
        self._fun_cache: OrderedDict[bytes, tuple[float, float]] = OrderedDict()
        self._deriv_cache: OrderedDict[bytes, dict[int, tuple]] = OrderedDict()

    # -- subclass hooks ----------------------------------------------------
    def _compute_function(self, x: np.ndarray, eps0: float) -> tuple[float, float]:
        raise NotImplementedError

    def _compute_derivative(self, x: np.ndarray, j: int, eps_j: float):
        raise NotImplementedError

    # -- iteration hooks (trace extras) -------------------------------------
    def begin_iteration(self) -> None:
        pass

    def end_iteration(self) -> dict:
        return {}

    # -- request protocol ---------------------------------------------------
    def request_function(self, x: np.ndarray, eps0: float) -> float:
        if eps0 <= 0.0:
            raise ValueError("eps0 must be positive")
        x = np.ascontiguousarray(x, dtype=float)
        key = x.tobytes()
        hit = self._fun_cache.get(key)
        if hit is not None and hit[1] <= eps0:
            self._fun_cache.move_to_end(key)
            return hit[0]
        value, promise = self._compute_function(x, eps0)
        self.counters.fun_evals += 1
        if not math.isfinite(value):
            raise NonFiniteEvaluationError(f"function value {value} is not finite")
        self._fun_cache[key] = (value, promise)
        self._fun_cache.move_to_end(key)
        while len(self._fun_cache) > _CACHE_POINTS:
            self._fun_cache.popitem(last=False)
        return value

    def request_derivatives(self, x: np.ndarray, eps: dict[int, float], upto: int) -> DerivativeBundle:
        if upto not in (1, 2):
            raise ValueError("upto must be 1 or 2")
        x = np.ascontiguousarray(x, dtype=float)
        key = x.tobytes()
        per_point = self._deriv_cache.get(key)
        if per_point is None:
            per_point = {}
            self._deriv_cache[key] = per_point
        self._deriv_cache.move_to_end(key)
        while len(self._deriv_cache) > _CACHE_POINTS:
            self._deriv_cache.popitem(last=False)

        tensors = {}
        acc = {}
        for j in range(1, upto + 1):
            entry = per_point.get(j)
            if entry is None or entry[1] > eps[j]:
                tensor, promise = self._compute_derivative(x, j, eps[j])
                self.counters.bump_deriv(j)
                if not np.isfinite(tensor).all():
                    raise NonFiniteEvaluationError(f"order-{j} derivative has a non-finite entry")
                entry = per_point[j] = (tensor, promise)
            tensors[j], acc[j] = entry
        return DerivativeBundle(
            origin=x,
            value=None,
            grad=tensors.get(1),
            hess=tensors.get(2),
            achieved_acc=acc,
        )


class ExactOracle(Oracle):
    """Serves exact values and derivatives; the promise is always zero."""

    def __init__(self, problem: Problem):
        super().__init__()
        self.problem = problem

    def _compute_function(self, x, eps0):
        return float(self.problem.value(x)), 0.0

    def _compute_derivative(self, x, j, eps_j):
        if j == 1:
            return np.asarray(self.problem.grad(x), dtype=float), 0.0
        return np.asarray(self.problem.hess(x), dtype=float), 0.0


class NoisyOracle(Oracle):
    """Injects deterministic noise at a fraction of the accuracy boundary.

    The error is noise_fraction * eps times a pseudo-random unit-norm
    tensor (a sign for values, a unit vector for gradients, a symmetric
    matrix of unit spectral norm for Hessians), derived deterministically
    from (seed, point, eps, order).  Replays are bit-identical.
    """

    def __init__(self, problem: Problem, noise_fraction: float = 0.9, seed: int = 0):
        super().__init__()
        if not 0.0 <= noise_fraction <= 1.0:
            raise ValueError("noise_fraction must lie in [0, 1]")
        self.problem = problem
        self.noise_fraction = noise_fraction
        self.seed = int(seed)

    def _rng(self, x: np.ndarray, j: int, eps: float):
        digest = hashlib.blake2b(x.tobytes(), digest_size=8).digest()
        eps_bits = int(np.float64(eps).view(np.uint64))
        return np.random.default_rng([self.seed, int.from_bytes(digest, "little"), eps_bits, j])

    def _compute_function(self, x, eps0):
        rng = self._rng(x, 0, eps0)
        sign = 1.0 if rng.integers(0, 2) else -1.0
        return float(self.problem.value(x)) + self.noise_fraction * eps0 * sign, eps0

    def _compute_derivative(self, x, j, eps_j):
        rng = self._rng(x, j, eps_j)
        if j == 1:
            u = rng.standard_normal(x.size)
            u /= math.sqrt(float(u @ u))
            return np.asarray(self.problem.grad(x), dtype=float) + self.noise_fraction * eps_j * u, eps_j
        m = rng.standard_normal((x.size, x.size))
        s = 0.5 * (m + m.T)
        s /= float(np.max(np.abs(np.linalg.eigvalsh(s))))
        return np.asarray(self.problem.hess(x), dtype=float) + self.noise_fraction * eps_j * s, eps_j


class SubsampledOracle(Oracle):
    """Finite-sum oracle averaging uniformly sampled components.

    Sample sizes follow the operator-Bernstein rule, so every request is
    honored with probability at least 1 - t and promises the requested
    accuracy.  Requests whose required size reaches N fall back to the
    exact full sum, which draws no random numbers and promises zero, so the
    cache serves it to every later request at the same point.  One seeded
    generator drives all draws, making whole runs replayable.
    """

    def __init__(self, dataset: Dataset, config: StochasticConfig, t: float):
        super().__init__()
        if not 0.0 < t < 1.0:
            raise ValueError("t must lie in (0, 1)")
        self.dataset = dataset
        self.config = config
        self.t = float(t)
        self.rng = np.random.default_rng(config.seed)
        self._iter_sizes: dict[int, int] = {}
        self._iter_all_full = True
        self._iter_requests = 0
        self._full_streak = 0

    @classmethod
    def for_eps(cls, dataset: Dataset, config: StochasticConfig, eps: float, orders: Orders):
        return cls(dataset, config, config.resolve_t(eps, orders))

    def _sampled(self, x, j, eps):
        ds = self.dataset
        m = sample_size(ds.kappa_bounds[j], eps, self.t, _dimension_factor(j, ds.dim), ds.size)
        self._iter_sizes[j] = m
        self._iter_requests += 1
        if m < self.dataset.size:
            self._iter_all_full = False
            promise = eps
        else:
            promise = 0.0
        return subsampled_eval(self.dataset, x, j, m, self.rng, self.counters), promise

    def _compute_function(self, x, eps0):
        value, promise = self._sampled(x, 0, eps0)
        return float(value), promise

    def _compute_derivative(self, x, j, eps_j):
        return self._sampled(x, j, eps_j)

    def begin_iteration(self) -> None:
        self._iter_sizes = {}
        self._iter_all_full = True
        self._iter_requests = 0

    def end_iteration(self) -> dict:
        # iterations served entirely from cache leave the streak untouched
        if self._iter_requests > 0:
            self._full_streak = self._full_streak + 1 if self._iter_all_full else 0
        return {
            "sample_sizes": dict(sorted(self._iter_sizes.items())),
            "full_batch_regime": self._full_streak >= 2,
        }
