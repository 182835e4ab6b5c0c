"""The benchmark's workloads: each is a list of CLI config dicts generated
from one integer seed.

The solver sees only these dicts (through ``cli.RunConfig.from_dict``), so
the same seed always gives the same solves.  ``BENCHMARK.json`` declares
``finite-sum-hess`` and ``many-small``; the other two are run by hand (see
README.md for why).  Why each workload exists:

- ``finite-sum-hess``: subsampled sigmoid least squares with second-order
  models; the Hessian component sum dominates.  Exercises ``_kernels``.
- ``finite-sum-grad``: a ten times larger dataset with first-order models;
  only value and gradient sums run.  A kernel change that speeds Hessians
  at the cost of gradient-only solves shows here.  Largest set-up and
  memory.
- ``dense-hessian``: n = 200 quartic through the noisy oracle; dense
  ``eigh`` in the subsolvers and the oracle's ``eigvalsh`` dominate and the
  kernels never run.
- ``many-small``: 120 solves on n <= 20 mixing both schedules, p = 1 and
  p = 2, the exact and noisy oracles and both certificate kinds.  Python
  overhead in the driver, the oracle cache and the certification cascade
  dominates.
"""

from __future__ import annotations

import numpy as np


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


def finite_sum_hess(seed: int) -> list[dict]:
    out = []
    for s in _seeds(seed, 1, 3):
        for q in (1, 2):
            out.append(
                {
                    "problem": {"name": "sigmoid-synthetic", "N": 10_000, "n": 20, "data_seed": s},
                    "orders": {"p": 2, "q": q, "beta": 1.0},
                    "oracle": {"kind": "subsampled", "t_bar": 0.1},
                    "algo": {"eps": 1e-3},
                    "seed": s,
                }
            )
    return out


def finite_sum_grad(seed: int) -> list[dict]:
    return [
        {
            "problem": {"name": "sigmoid-synthetic", "N": 100_000, "n": 20, "data_seed": s},
            "orders": {"p": 1, "q": 1, "beta": 1.0},
            "oracle": {"kind": "subsampled", "t_bar": 0.1},
            "algo": {"eps": 1e-2},
            "seed": s,
        }
        for s in _seeds(seed, 2, 5)
    ]


def dense_hessian(seed: int) -> list[dict]:
    out = []
    rng = np.random.default_rng([seed, 3])
    # six solves: each takes 8 to 10 iterations, so fewer would let the
    # seed move the workload's total count by a tenth
    for s in _seeds(seed, 4, 6):
        x0 = rng.uniform(-0.9, 0.9, size=200)
        out.append(
            {
                "problem": {"name": "quartic", "n": 200, "x0": [float(v) for v in x0]},
                "orders": {"p": 2, "q": 2, "beta": 1.0},
                "oracle": {"kind": "noisy"},
                "algo": {"eps": 1e-4},
                "seed": s,
            }
        )
    return out


def many_small(seed: int) -> list[dict]:
    out = []
    rng = np.random.default_rng([seed, 5])
    for i, s in enumerate(_seeds(seed, 6, 30)):
        ros_x0 = [float(v) for v in np.array([-1.2, 1.0]) + rng.uniform(-0.5, 0.5, size=2)]
        # entries in [1, 100]; the spread of their log10 is stratified over
        # the 30 starts, because the p = 1 iteration count grows with the
        # condition number and unstratified draws make the workload's total
        # count vary by about a fifth from seed to seed
        spread = 2.0 * (i + rng.uniform()) / 30
        low = rng.uniform(0.0, 2.0 - spread)
        diag = [float(v) for v in 10.0 ** np.array([low, low + spread * rng.uniform(), low + spread])]
        quad_x0 = [float(v) for v in rng.uniform(-1.0, 1.0, size=3)]
        quart_x0 = [float(v) for v in rng.uniform(-0.9, 0.9, size=20)]
        out += [
            {
                "problem": {"name": "rosenbrock", "x0": ros_x0},
                "orders": {"p": 2, "q": 2, "beta": 1.0},
                "oracle": {"kind": "exact"},
                "algo": {"eps": 1e-6},
                "seed": s,
            },
            {
                "problem": {"name": "rosenbrock", "x0": ros_x0},
                "orders": {"p": 2, "q": 1, "beta": 1.0},
                "oracle": {"kind": "noisy"},
                "algo": {"eps": 1e-5, "schedule": "monotonic"},
                "seed": s,
            },
            {
                "problem": {"name": "quadratic", "diag": diag, "x0": quad_x0},
                "orders": {"p": 1, "q": 1, "beta": 1.0},
                "oracle": {"kind": "exact"},
                "algo": {"eps": 1e-4},
                "seed": s,
            },
            {
                "problem": {"name": "quartic", "n": 20, "x0": quart_x0},
                "orders": {"p": 2, "q": 2, "beta": 1.0},
                "oracle": {"kind": "exact"},
                "algo": {"eps": 1e-4},
                "seed": s,
            },
        ]
    return out


WORKLOADS = {
    "finite-sum-hess": finite_sum_hess,
    "finite-sum-grad": finite_sum_grad,
    "dense-hessian": dense_hessian,
    "many-small": many_small,
}
