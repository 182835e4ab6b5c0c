import math
from dataclasses import replace

import numpy as np
import pytest

from dynreg import AlgoParams, NoisyOracle, Orders, Schedule, complexity_budget, make_quadratic, run
from dynreg.bounds import shrink_budget, sigma_ceiling, success_count_bound
from dynreg.checks import budget_violations


class TestSigmaCeiling:
    def test_initial_sigma_dominates(self):
        params = AlgoParams(sigma0=500.0, sigma_min=1.0)
        assert sigma_ceiling(0.0, params) == 500.0

    def test_formula(self):
        params = AlgoParams()  # eta2 = 0.9, gamma3 = 4
        assert sigma_ceiling(1.0, params) == pytest.approx(160.0, rel=1e-12)


class TestBudget:
    def test_omega_min(self):
        params = AlgoParams()
        b = complexity_budget(1.0, 10.0, 0.0, params, Orders(p=1, q=1))
        assert b.sigma_max == pytest.approx(160.0)
        assert b.omega_min == pytest.approx(1.0 / 160.0)

    def test_kappa_s_capped_by_mu(self):
        params = AlgoParams()
        b = complexity_budget(2.0, 5.0, 0.0, params, Orders(p=2, q=1))
        assert 0.0 < b.kappa_s <= params.mu

    def test_success_bound_scales_with_eps(self):
        params = AlgoParams()
        orders = Orders(p=1, q=1)
        b1 = complexity_budget(2.0, 5.0, 0.0, replace(params, eps=1e-2), orders)
        b2 = complexity_budget(2.0, 5.0, 0.0, replace(params, eps=1e-3), orders)
        # exponent (p+beta)/(p-q+beta) = 2: one decade in eps is two decades
        # in the bound
        assert b2.max_successful / b1.max_successful == pytest.approx(100.0, rel=1e-3)

    def test_total_bound_exceeds_success_bound(self):
        params = AlgoParams()
        b = complexity_budget(2.0, 5.0, 0.0, replace(params, eps=1e-3), Orders(p=2, q=1))
        assert b.max_total >= b.max_successful
        assert b.max_fun_evals == 2 * b.max_total

    def test_schedule_changes_derivative_budget(self):
        flexible = AlgoParams()
        monotonic = AlgoParams(schedule=Schedule.MONOTONIC)
        orders = Orders(p=1, q=1)
        bf = complexity_budget(1.0, 5.0, 0.0, replace(flexible, eps=1e-3), orders)
        bm = complexity_budget(1.0, 5.0, 0.0, replace(monotonic, eps=1e-3), orders)
        assert bf.max_deriv_evals == (1 + bf.nu_max) * bf.max_total
        assert bm.max_deriv_evals == bm.nu_max + bm.max_total
        assert bm.max_deriv_evals < bf.max_deriv_evals

    def test_validation(self):
        params = AlgoParams()
        with pytest.raises(ValueError):
            complexity_budget(-1.0, 1.0, 0.0, params, Orders(p=1, q=1))
        with pytest.raises(ValueError):
            complexity_budget(1.0, 0.0, 1.0, params, Orders(p=1, q=1))


class TestShrinkBudget:
    def test_positive_and_grows_with_accuracy(self):
        params = AlgoParams()
        loose = shrink_budget(0.0625, 1e-2, params)
        tight = shrink_budget(0.0625, 1e-5, params)
        assert 0 < loose < tight

    def test_zero_when_ladder_starts_below_threshold(self):
        params = AlgoParams(kappa_eps=1e-12)
        assert shrink_budget(0.0625, 0.5, params) == 0


class TestSuccessCountBound:
    def test_matches_direct_formula(self):
        params = AlgoParams()
        got = success_count_bound(10, 8.0, params)
        expected = 10 * (1 + abs(math.log(0.5)) / math.log(2.0)) + math.log(8.0) / math.log(2.0)
        assert got == pytest.approx(expected, rel=1e-12)


class TestEvaluationBudgets:
    """``budget_violations`` checks function evaluations against
    ``max_fun_evals`` and each order's derivative evaluations against
    ``max_deriv_evals``."""

    @pytest.fixture(scope="class")
    def solved(self):
        prob = make_quadratic(np.array([1.0, 2.0]))
        x0 = np.ones(2)
        params, orders = AlgoParams(eps=1e-3), Orders(p=2, q=1)
        report = run(NoisyOracle(prob, 0.9, seed=3), x0, params, orders)
        budget = complexity_budget(prob.lipschitz[2], float(prob.value(x0)), prob.f_low, params, orders)
        return report, budget

    def test_within_budget(self, solved):
        report, budget = solved
        assert budget_violations(report, budget) == []

    def test_function_evaluations_over_budget(self, solved):
        report, budget = solved
        fun = report.counters.fun_evals
        assert budget_violations(report, replace(budget, max_fun_evals=fun)) == []
        assert budget_violations(report, replace(budget, max_fun_evals=fun - 1)) == [
            f"function evaluations {fun} exceed the budget {fun - 1}"
        ]

    def test_each_order_checked_alone(self, solved):
        report, budget = solved
        d = report.counters.deriv_evals
        assert d[1] > d[2] > 0
        # the order-1 count alone sets the limit, not the sum over orders
        assert budget_violations(report, replace(budget, max_deriv_evals=d[1])) == []
        assert budget_violations(report, replace(budget, max_deriv_evals=d[2])) == [
            f"order-1 derivative evaluations {d[1]} exceed the budget {d[2]}"
        ]
        assert budget_violations(report, replace(budget, max_deriv_evals=d[2] - 1)) == [
            f"order-1 derivative evaluations {d[1]} exceed the budget {d[2] - 1}",
            f"order-2 derivative evaluations {d[2]} exceed the budget {d[2] - 1}",
        ]
