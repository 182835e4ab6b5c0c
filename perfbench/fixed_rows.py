"""Fixed-input layer rows: kernels and subsolvers timed on set inputs.

These rows do not depend on the workload seed, so a change to one layer
shows in them without the solver's control flow in the way:

- each ``_kernels`` sum at m = 10^3 sampled rows and at m = N = 10^4 rows,
  n = 20, with computed flops (reported as GFLOP/s);
- ``subsolvers.cubic_min`` and ``trust_region_min`` at n = 20 and n = 200
  on a random indefinite matrix, and at n = 200 on a hard-case spectrum
  (repeated leftmost eigenvalue, gradient orthogonal to its eigenspace).
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from dynreg import _kernels, subsolvers
from dynreg.problems import make_synthetic_dataset

from tracing import kernel_cost

_MIN_SECONDS = 0.2
_MIN_REPS = 5


def _median_ms(fn, *args):
    """Median wall time of ``fn(*args)`` over at least 5 calls and 0.2 s."""
    fn(*args)
    times = []
    start = perf_counter()
    while len(times) < _MIN_REPS or perf_counter() - start < _MIN_SECONDS:
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return 1e3 * median(times)


def kernel_rows() -> dict:
    N, n = 10_000, 20
    ds = make_synthetic_dataset(N, n, seed=0)
    x = np.full(n, 0.1)
    index_sets = {
        1000: np.random.default_rng(1).integers(0, N, size=1000, dtype=np.int64),
        N: np.arange(N, dtype=np.int64),
    }
    out = {}
    for m, idx in index_sets.items():
        for kernel in ("value_sum", "grad_sum", "hess_sum"):
            ms = _median_ms(getattr(_kernels, kernel), ds.features, ds.labels, x, idx)
            flops, _ = kernel_cost(kernel, m, n)
            out[f"kernels.fixed.{kernel}.m{m}.ms"] = ms
            out[f"kernels.fixed.{kernel}.m{m}.gflop_s"] = flops / (1e6 * ms)
    return out


def _indefinite(n, rng):
    m = rng.standard_normal((n, n))
    return rng.standard_normal(n), 0.5 * (m + m.T) / np.sqrt(n)


def _hard_case(n, rng):
    """Leftmost eigenvalue -1 twice, gradient with no component along it."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.concatenate(([-1.0, -1.0], np.linspace(0.5, 2.0, n - 2)))
    gh = np.concatenate(([0.0, 0.0], 0.01 * rng.standard_normal(n - 2)))
    return q @ gh, (q * w) @ q.T


def subsolver_rows() -> tuple[dict, bool]:
    """Row timings, and whether both hard-case inputs took the hard-case path."""
    rng = np.random.default_rng(2)
    inputs = {"n20": _indefinite(20, rng), "n200": _indefinite(200, rng), "hard200": _hard_case(200, rng)}
    out = {}
    for label, (g, H) in inputs.items():
        out[f"subsolvers.fixed.cubic_min.{label}.ms"] = _median_ms(subsolvers.cubic_min, g, H, 0.1)
        out[f"subsolvers.fixed.trust_region_min.{label}.ms"] = _median_ms(subsolvers.trust_region_min, g, H, 10.0)
    g, H = inputs["hard200"]
    hard_ok = subsolvers.cubic_min(g, H, 0.1).hard_case and subsolvers.trust_region_min(g, H, 10.0).hard_case
    return out, hard_ok
