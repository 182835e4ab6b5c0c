"""Exit certificates against an oracle whose errors sit at their promise and
point the harmful way.

``AlignedOracle`` shrinks the gradient by min(eps_1, ||g||) along itself and
adds eps_2 I to the Hessian, so the inexact optimality measure reads
smaller than the exact one by as much as the promise allows, and promises
exactly the request.  The paper's guarantee holds for any error within the
promise, so every run that stops with ``optimal_measure`` or
``negligible_increment`` must leave the exact measure phi(1) at most
eps * chi_q(1).  The adversary comes within a fraction of a percent of that
bound, so a rule that let a certificate rest on too loose a bound would
show here.

A run that stops with ``strong_model_optimality`` certifies the order-p
measure at the step's radius r = ||s|| instead (see ``TerminationKind``):
the exact phi_{f,p}(r) must stay at most (1 + omega) eps chi_p(r) / 2.
The p = 2, q = 1 Rosenbrock runs from (-1.2, 1) reach that exit under the
noisy oracle and both adversaries; their worst exact ratio is about a third
of the bound, and a cascade that let flag 3 rest on 100 times its
threshold breaks it by a factor of about 30.

``ValueAdversary`` adds the same attack on function values: exact minus
the promise at every point but the current derivative origin, where the
value is exact plus the promise, so every fresh trial value flatters the
step by twice the promise.  Its runs must also pass every trace check in
``checks.all_violations``.
"""

import numpy as np
import pytest

from dynreg import (
    AlgoParams,
    DerivativeBundle,
    NoisyOracle,
    Oracle,
    Orders,
    Schedule,
    TerminationKind,
    checks,
    chi,
    complexity_budget,
    make_quadratic,
    make_rosenbrock,
    optimality_measure,
    run,
    trust_region_min,
)
from dynreg.subsolvers import OPTIMALITY_RADIUS

MEASURE_EXITS = (TerminationKind.OPTIMAL_MEASURE, TerminationKind.NEGLIGIBLE_INCREMENT)


class AlignedOracle(Oracle):
    """Exact values; gradient and Hessian errors of exactly the request,
    aligned to shrink the measure."""

    def __init__(self, problem):
        super().__init__()
        self.problem = problem

    def _compute_function(self, x, eps0):
        return float(self.problem.value(x)), eps0

    def _compute_derivative(self, x, j, eps_j):
        if j == 1:
            g = np.asarray(self.problem.grad(x), dtype=float)
            gn = float(np.linalg.norm(g))
            return (g if gn == 0.0 else g - (min(eps_j, gn) / gn) * g), eps_j
        return np.asarray(self.problem.hess(x), dtype=float) + eps_j * np.eye(x.size), eps_j


class ValueAdversary(AlignedOracle):
    """Aligned derivative errors, and values off by exactly the promise:
    high at the current derivative origin, low everywhere else."""

    def __init__(self, problem):
        super().__init__(problem)
        self.origin = None

    def request_derivatives(self, x, eps, upto):
        bundle = super().request_derivatives(x, eps, upto)
        self.origin = bundle.origin.tobytes()
        return bundle

    def _compute_function(self, x, eps0):
        f = float(self.problem.value(x))
        return (f + eps0 if x.tobytes() == self.origin else f - eps0), eps0


def _exact_ratio(problem, x, q, eps):
    """phi(1) / (eps chi_q(1)) from the exact derivatives at x."""
    bundle = DerivativeBundle(origin=x, grad=problem.grad(x), hess=problem.hess(x) if q == 2 else None)
    return optimality_measure(bundle, OPTIMALITY_RADIUS, q).phi / (eps * chi(q, OPTIMALITY_RADIUS))


def _check_measure_exit(problem, report, q, eps) -> bool:
    """Assert the exact bound at a measure exit; whether the run had one."""
    if report.status.kind not in MEASURE_EXITS:
        return False
    ratio = _exact_ratio(problem, report.x_final, q, eps)
    assert ratio <= 1.0, f"eps={eps:g}: exact measure {ratio:.6f} of its bound at {report.status.kind.value}"
    return True


def _check_model_exit(problem, report, eps) -> bool:
    """Assert the exact order-p bound at a strong model optimality exit;
    whether the run had one.  Only p = 2 reaches that exit."""
    if report.status.kind is not TerminationKind.STRONG_MODEL_OPTIMALITY:
        return False
    x, r = report.x_final, report.status.delta_at_exit
    phi = max(0.0, -trust_region_min(problem.grad(x), problem.hess(x), r).value)
    ratio = phi / (0.5 * (1.0 + report.trace[-1].omega) * eps * chi(2, r))
    assert ratio <= 1.0, f"eps={eps:g}: exact order-2 measure {ratio:.6f} of its bound at radius {r:g}"
    return True


# steepest descent (p = 1) crawls Rosenbrock's valley for thousands of
# iterations from the usual start, so the first-order runs start on the
# valley floor to keep the battery short
CASES = [
    ("rosenbrock", make_rosenbrock(), {1: np.array([1.05, 1.1]), 2: np.array([-1.2, 1.0])}),
    ("quadratic", make_quadratic(np.array([1.0, 7.0, 50.0])), {1: np.ones(3), 2: np.ones(3)}),
]


@pytest.mark.parametrize("schedule", list(Schedule))
@pytest.mark.parametrize("orders", [Orders(1, 1), Orders(2, 1), Orders(2, 2)], ids=["p1q1", "p2q1", "p2q2"])
@pytest.mark.parametrize("name, problem, starts", CASES, ids=[c[0] for c in CASES])
def test_measure_exits_hold_against_aligned_errors(name, problem, starts, orders, schedule):
    checked = 0
    for eps in (1e-2, 1e-4):
        report = run(AlignedOracle(problem), starts[orders.p], AlgoParams(eps=eps, schedule=schedule), orders)
        assert report.status.kind is not TerminationKind.BUDGET
        checked += _check_measure_exit(problem, report, orders.q, eps)
        _check_model_exit(problem, report, eps)
    assert checked > 0


@pytest.mark.parametrize("schedule", list(Schedule))
@pytest.mark.parametrize("orders", [Orders(1, 1), Orders(2, 1), Orders(2, 2)], ids=["p1q1", "p2q1", "p2q2"])
@pytest.mark.parametrize("name, problem, starts", CASES, ids=[c[0] for c in CASES])
def test_runs_hold_against_adversarial_values(name, problem, starts, orders, schedule):
    checked = 0
    x0 = starts[orders.p]
    for eps in (1e-2, 1e-4):
        params = AlgoParams(eps=eps, schedule=schedule)
        report = run(ValueAdversary(problem), x0, params, orders)
        assert report.status.kind is not TerminationKind.BUDGET
        budget = None
        if orders.p in problem.lipschitz:  # Rosenbrock has no global constant
            L = problem.lipschitz[orders.p]
            budget = complexity_budget(L, float(problem.value(x0)), problem.f_low, params, orders)
        assert checks.all_violations(report, budget) == [], f"eps={eps:g}"
        checked += _check_measure_exit(problem, report, orders.q, eps)
        _check_model_exit(problem, report, eps)
    assert checked > 0


@pytest.mark.parametrize(
    "oracles",
    [
        [lambda problem, seed=seed: NoisyOracle(problem, seed=seed) for seed in range(6)],
        [AlignedOracle],
        [ValueAdversary],
    ],
    ids=["noisy", "aligned", "value-adversary"],
)
def test_strong_model_exits_bound_the_order_p_measure(oracles):
    problem = make_rosenbrock()
    checked = 0
    for make_oracle in oracles:
        for eps in (1e-2, 1e-3):
            report = run(make_oracle(problem), np.array([-1.2, 1.0]), AlgoParams(eps=eps), Orders(2, 1))
            checked += _check_model_exit(problem, report, eps)
    assert checked > 0
