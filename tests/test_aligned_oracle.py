"""Exit certificates against an oracle whose errors sit at their promise and
point the harmful way.

``AlignedOracle`` shrinks the gradient by min(eps_1, ||g||) along itself and
adds eps_2 I to the Hessian, so the inexact optimality measure reads
smaller than the exact one by as much as the promise allows, and promises
exactly the request.  The paper's guarantee holds for any error within the
promise, so every exit must pass the exit audit ``checks.exit_violations``:
a run that stops with ``optimal_measure`` or ``negligible_increment`` must
leave the exact measure phi(1) at most eps * chi_q(1).  The adversary
comes within a fraction of a percent of that bound, so a rule that let a
certificate rest on too loose a bound would show here.

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
    NoisyOracle,
    Oracle,
    Orders,
    Schedule,
    TerminationKind,
    checks,
    complexity_budget,
    make_quadratic,
    make_rosenbrock,
    run,
)


class AlignedOracle(Oracle):
    """Exact values; gradient and Hessian errors of exactly the request,
    aligned to shrink the measure."""

    def __init__(self, problem):
        super().__init__()
        self.problem = problem

    def _compute(self, x, j, eps):
        if j == 0:
            return self.problem.value(x), eps
        if j == 1:
            g = np.asarray(self.problem.grad(x), dtype=float)
            gn = float(np.linalg.norm(g))
            return (g if gn == 0.0 else g - (min(eps, gn) / gn) * g), eps
        return np.asarray(self.problem.hess(x), dtype=float) + eps * np.eye(x.size), eps


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

    def _compute(self, x, j, eps):
        if j:
            return super()._compute(x, j, eps)
        f = float(self.problem.value(x))
        return (f + eps if x.tobytes() == self.origin else f - eps), eps


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
        assert checks.exit_violations(report, problem) == [], f"eps={eps:g}"
        checked += report.status.kind in (TerminationKind.OPTIMAL_MEASURE, TerminationKind.NEGLIGIBLE_INCREMENT)
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
        assert checks.all_violations(report, budget) + checks.exit_violations(report, problem) == [], f"eps={eps:g}"
        checked += report.status.kind in (TerminationKind.OPTIMAL_MEASURE, TerminationKind.NEGLIGIBLE_INCREMENT)
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
            assert checks.exit_violations(report, problem) == [], f"eps={eps:g}"
            checked += report.status.kind is TerminationKind.STRONG_MODEL_OPTIMALITY
    assert checked > 0
