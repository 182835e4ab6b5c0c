import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynreg import (
    AlgoParams,
    ExactOracle,
    IterRecord,
    NoisyOracle,
    Orders,
    Problem,
    RunAborted,
    Schedule,
    SubsampledOracle,
    TerminationKind,
    make_quadratic,
    make_quartic,
    make_rosenbrock,
    make_synthetic_dataset,
    run,
    sigma_omega_update,
)
from dynreg import AccuracyLadder, CertifyFlag, driver, subsolvers
from dynreg.certify import certify_increment
from dynreg.checks import counting_violations, exit_violations, shrink_violations


class TestAlgoParams:
    def test_defaults_satisfy_constraints(self):
        params = AlgoParams()
        assert params.omega0 == 0.0625

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta1": 0.0},
            {"eta1": 0.95, "eta2": 0.9},
            {"gamma1": 1.0},
            {"gamma2": 5.0, "gamma3": 4.0},
            {"sigma_min": 2.0, "sigma0": 1.0},
            {"kappa_omega": 0.07},  # exceeds alpha*eta1/2 = 0.0625
            {"eps": 1.0},
            {"mu": 0.0},
            {"vartheta": 1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AlgoParams(**kwargs)


class TestSigmaOmegaUpdate:
    def test_very_successful(self):
        params = AlgoParams()
        assert sigma_omega_update(0.95, 2.0, params) == (1.0, 0.0625)

    def test_successful_keeps_sigma(self):
        params = AlgoParams()
        assert sigma_omega_update(0.5, 3.0, params) == (3.0, 0.0625)

    def test_rejection_grows_sigma(self):
        params = AlgoParams()
        assert sigma_omega_update(-1.0, 1.0, params) == (2.0, 0.0625)

    def test_sigma_floor(self):
        params = AlgoParams(sigma_min=0.75)
        sigma, _ = sigma_omega_update(0.99, 1.0, params)
        assert sigma == 0.75


class TestHandTrace:
    """f(x) = x^2/2 from x0 = 1 with eps = 1e-3, on an oracle that returns
    exact values but promises only the requested accuracy, so certification
    walks down the ladder."""

    def setup_method(self):
        self.prob = make_quadratic(np.array([1.0]))
        self.report = run(
            NoisyOracle(self.prob, noise_fraction=0.0),
            np.array([1.0]),
            AlgoParams(eps=1e-3),
            Orders(p=1, q=1),
        )

    def test_single_successful_iteration(self):
        assert self.report.n_successful == 1
        assert self.report.n_complete == 1
        assert self.report.trace[0].rho == pytest.approx(0.5, abs=0)
        assert self.report.trace[0].step_norm == pytest.approx(1.0, abs=0)

    def test_terminates_at_origin(self):
        assert self.report.status.kind is TerminationKind.NEGLIGIBLE_INCREMENT
        np.testing.assert_array_equal(self.report.x_final, np.zeros(1))

    def test_two_shrinks_before_the_first_step(self):
        # kappa_eps = 1, gamma_eps = 0.1, omega = 0.0625, ||g|| = 1:
        # the first threshold at or below 0.0625 is 0.01, two shrinks in
        assert self.report.trace[0].shrinks == 2

    def test_function_evaluations(self):
        assert self.report.trace[0].fun_evals == 2
        assert all(r.fun_evals <= 2 for r in self.report.trace)

    def test_derivative_recomputations_bounded_by_shrinks(self):
        for rec in self.report.trace:
            per_order = dict(rec.deriv_evals)
            assert per_order[1] <= 1 + rec.shrinks


class TestExactHandTrace:
    """The same run on the exact oracle: its promise is 0, so the cascade's
    error bound is 0 and every positive increment certifies at once."""

    def setup_method(self):
        self.report = run(
            ExactOracle(make_quadratic(np.array([1.0]))),
            np.array([1.0]),
            AlgoParams(eps=1e-3),
            Orders(p=1, q=1),
        )

    def test_no_shrinks(self):
        assert [r.shrinks for r in self.report.trace] == [0, 0]
        assert all(r.eps == 1.0 for r in self.report.trace)

    def test_step_flags_relative_ok_then_zero_increment(self):
        # one step of length 1 to the origin, measure and step both flag 2
        first, last = self.report.trace
        assert first.flags == (("measure", 2), ("step", 2))
        assert first.rho == 0.5 and first.step_norm == 1.0 and first.success
        # phi = 0 at the origin with zero promised error: a zero increment
        assert last.flags == (("measure", 1),)
        assert self.report.status.kind is TerminationKind.NEGLIGIBLE_INCREMENT
        np.testing.assert_array_equal(self.report.x_final, np.zeros(1))

    def test_one_evaluation_per_point(self):
        assert [dict(r.deriv_evals)[1] for r in self.report.trace] == [1, 1]
        assert [r.fun_evals for r in self.report.trace] == [2, 0]


class TestImmediateTermination:
    def test_already_optimal_start(self):
        prob = make_quadratic(np.array([1.0]))
        report = run(
            ExactOracle(prob), np.array([8e-4]), AlgoParams(eps=1e-3), Orders(p=1, q=1)
        )
        assert report.status.kind is TerminationKind.OPTIMAL_MEASURE
        assert report.n_complete == 0
        assert report.status.k_final == 0

    def test_exactly_stationary_start(self):
        prob = make_quadratic(np.array([1.0, 3.0]))
        report = run(ExactOracle(prob), np.zeros(2), AlgoParams(eps=1e-3), Orders(p=1, q=1))
        assert report.status.kind is TerminationKind.NEGLIGIBLE_INCREMENT
        assert report.n_complete == 0


class TestRosenbrock:
    def test_degree_two_reaches_first_order_point(self):
        prob = make_rosenbrock()
        report = run(
            ExactOracle(prob), np.array([-1.2, 1.0]), AlgoParams(eps=1e-4), Orders(p=2, q=1)
        )
        assert report.status.kind is not TerminationKind.BUDGET
        assert np.linalg.norm(prob.grad(report.x_final)) <= 1e-4

    def test_second_order_measure_certified_at_exit(self):
        prob = make_rosenbrock()
        params = AlgoParams(eps=1e-4)
        report = run(ExactOracle(prob), np.array([-1.2, 1.0]), params, Orders(p=2, q=2))
        assert report.status.kind in (
            TerminationKind.OPTIMAL_MEASURE,
            TerminationKind.NEGLIGIBLE_INCREMENT,
        )
        # with the exact oracle every measure-phase exit certifies the true
        # second-order measure at the exit radius
        assert exit_violations(report, prob) == []

    def test_one_decomposition_per_hessian(self, eigh_calls):
        # the measure, the step and every rejected-step resolve on one
        # (g, H) share its eigendecomposition
        report = run(ExactOracle(make_rosenbrock()), np.array([-1.2, 1.0]), AlgoParams(eps=1e-6), Orders(p=2, q=2))
        assert report.status.kind is not TerminationKind.BUDGET
        assert len(eigh_calls) == report.counters.deriv_evals[2]

    def test_budget_status(self):
        prob = make_rosenbrock()
        report = run(ExactOracle(prob), np.array([-1.2, 1.0]), AlgoParams(eps=1e-8, max_iter=3), Orders(p=1, q=1))
        assert report.status.kind is TerminationKind.BUDGET
        assert report.n_complete == 3

    def test_budget_exit_counts_the_last_sigma_update(self):
        # sigma 1, 0.5, 1 with one success; the last rejection grows sigma to
        # 2, which no record holds but the success-count bound needs
        params = AlgoParams(max_iter=3)
        report = run(ExactOracle(make_rosenbrock()), np.array([-1.2, 1.0]), params, Orders(p=2, q=1))
        assert report.status.kind is TerminationKind.BUDGET
        assert [r.sigma for r in report.trace] == [1.0, 0.5, 1.0]
        assert report.n_successful == 1
        assert report.sigma_max_observed == 2.0
        assert counting_violations(report) == []


class TestSaddleEscape:
    def test_hard_case_drives_off_a_saddle(self):
        # f = (x^2 - y^2)/2 + y^4/4: strict saddle at the origin, second
        # order minimizers at (0, +-1)
        def value(z):
            return 0.5 * (z[0] ** 2 - z[1] ** 2) + 0.25 * z[1] ** 4

        def grad(z):
            return np.array([z[0], -z[1] + z[1] ** 3])

        def hess(z):
            return np.diag([1.0, -1.0 + 3.0 * z[1] ** 2])

        prob = Problem(name="saddle", n=2, value=value, grad=grad, hess=hess, f_low=-0.25)
        report = run(ExactOracle(prob), np.zeros(2), AlgoParams(eps=1e-6), Orders(p=2, q=2))
        assert report.status.kind is not TerminationKind.BUDGET
        assert abs(abs(report.x_final[1]) - 1.0) <= 1e-3
        assert np.linalg.norm(grad(report.x_final)) <= 1e-5
        assert np.linalg.eigvalsh(hess(report.x_final))[0] >= -1e-6


class TestHolderExponent:
    def test_degree_one_sub_lipschitz_beta(self):
        # beta < 1 only changes the step length law; exact-oracle exits
        # still certify the true gradient
        prob = make_quadratic(np.array([1.0, 2.0]))
        report = run(
            ExactOracle(prob),
            np.ones(2),
            AlgoParams(eps=1e-4),
            Orders(p=1, q=1, beta=0.7),
        )
        assert report.status.kind is not TerminationKind.BUDGET
        assert np.linalg.norm(prob.grad(report.x_final)) <= 1e-4


class TestNoisyRuns:
    @pytest.mark.parametrize("orders", [Orders(p=1, q=1), Orders(p=2, q=1)], ids=["p1", "p2"])
    def test_noisy_quadratic_reaches_true_accuracy(self, orders):
        prob = make_quadratic(np.array([1.0, 2.0]))
        report = run(
            NoisyOracle(prob, 0.9, seed=1),
            np.ones(2),
            AlgoParams(eps=1e-4),
            orders,
        )
        assert report.status.kind in (
            TerminationKind.OPTIMAL_MEASURE,
            TerminationKind.NEGLIGIBLE_INCREMENT,
        )
        assert np.linalg.norm(prob.grad(report.x_final)) <= 1e-4

    def test_second_function_evaluation_happens(self):
        # the cached estimate goes stale whenever omega * increment tightens
        prob = make_quadratic(np.array([1.0, 2.0]))
        report = run(NoisyOracle(prob, 0.9, seed=1), np.ones(2), AlgoParams(eps=1e-5), Orders(p=1, q=1))
        assert any(r.fun_evals == 2 for r in report.trace[1:] if r.rho is not None)


class TestAbort:
    def test_oracle_failure_carries_partial_trace(self):
        from dynreg import RunAborted

        prob = make_quadratic(np.array([1.0]))

        class FlakyOracle(NoisyOracle):
            calls = 0

            def _compute(self, x, j, eps):
                if j > 0:  # only derivative computations fail
                    FlakyOracle.calls += 1
                    if FlakyOracle.calls > 4:
                        raise RuntimeError("oracle backend went away")
                return super()._compute(x, j, eps)

        with pytest.raises(RunAborted) as err:
            run(FlakyOracle(prob), np.array([1.0]), AlgoParams(eps=1e-6), Orders(p=1, q=1))
        assert isinstance(err.value.trace, list)
        assert err.value.counters.deriv_evals[1] == 4

    def test_nan_start_aborts_without_certificate(self):
        # NaN data must stop the run before it reaches the certification cascade
        from dynreg import NonFiniteEvaluationError, RunAborted

        with pytest.raises(RunAborted) as err:
            run(ExactOracle(make_rosenbrock()), np.array([np.nan, 1.0]), AlgoParams(eps=1e-5), Orders(2, 1))
        assert isinstance(err.value.__cause__, NonFiniteEvaluationError)
        assert err.value.trace == []
        assert err.value.counters.deriv_evals == {1: 1}

    def test_nan_promise_aborts_at_iteration_0(self):
        # a NaN promise never certifies; it must stop the run where it is
        # made, not drive the ladder into underflow
        from dynreg import InvalidPromiseError, RunAborted

        class NanPromise(ExactOracle):
            def _compute(self, x, j, eps):
                return super()._compute(x, j, eps)[0], float("nan")

        with pytest.raises(RunAborted, match="iteration 0: order-1 promise nan") as err:
            run(NanPromise(make_rosenbrock()), np.array([-1.2, 1.0]), AlgoParams(eps=1e-5), Orders(2, 1))
        assert isinstance(err.value.__cause__, InvalidPromiseError)
        assert sum(r.shrinks for r in err.value.trace) == 0
        assert err.value.counters.deriv_evals == {1: 1}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_increment_aborts(self):
        # finite data whose step increment overflows: the certification guard
        # rejects it, and the run stops with its partial trace
        from dynreg import RunAborted

        with pytest.raises(RunAborted) as err:
            run(ExactOracle(make_quadratic(np.array([1e200]))), np.array([1e100]), AlgoParams(eps=1e-5), Orders(2, 1))
        assert isinstance(err.value.__cause__, ValueError)
        assert err.value.trace == []

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_gradient_norm_aborts(self):
        # finite data whose gradient norm overflows in the trust-region
        # measure: no optimality certificate may rest on it
        from dynreg import RunAborted, SubsolverError

        with pytest.raises(RunAborted) as err:
            run(ExactOracle(make_quadratic(np.array([1e300]))), np.array([1e5]), AlgoParams(eps=1e-5), Orders(2, 2))
        assert isinstance(err.value.__cause__, SubsolverError)
        assert err.value.trace == []

    def test_overflowed_step_length_aborts(self):
        # the p = 1 step length (||g|| / sigma)^(1/beta) leaves the float
        # range: a Python float overflow, which aborts like any other failure
        with pytest.raises(RunAborted, match="iteration 0: OverflowError") as err:
            run(ExactOracle(make_quadratic(np.array([1.0]))), np.array([1e31]), AlgoParams(), Orders(1, 1, 0.1))
        assert isinstance(err.value.__cause__, OverflowError)
        assert err.value.trace == []


class TestExtremeStarts:
    """Whatever the scale of a valid start, ``run`` returns or raises
    ``RunAborted``: no other exception leaves it."""

    PROBLEMS = {
        "quadratic": make_quadratic(np.array([1.0, 7.0])),
        "quartic": make_quartic(2),
        "rosenbrock": make_rosenbrock(),
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        name=st.sampled_from(sorted(PROBLEMS)),
        pq=st.sampled_from([(1, 1), (2, 1), (2, 2)]),
        beta=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
        noisy=st.booleans(),
        start=st.lists(st.tuples(st.booleans(), st.floats(-300.0, 300.0)), min_size=2, max_size=2),
    )
    def test_returns_or_aborts(self, name, pq, beta, noisy, start):
        problem = self.PROBLEMS[name]
        orders = Orders(*pq, beta if pq[0] == 1 else 1.0)
        oracle = NoisyOracle(problem, 0.9, seed=0) if noisy else ExactOracle(problem)
        x0 = np.array([(-1.0 if neg else 1.0) * 10.0**e for neg, e in start])
        try:
            run(oracle, x0, AlgoParams(eps=1e-4, max_iter=200), orders)
        except RunAborted:
            pass


def tag_request(base):
    """The same oracle and cache, with every bundle tagged with the request
    instead of the promise, so the driver certifies against the ladder."""

    class TagRequest(base):
        def request_derivatives(self, x, eps, upto):
            bundle = super().request_derivatives(x, eps, upto)
            bundle.achieved_acc = {j: eps for j in bundle.achieved_acc}
            return bundle

    return TagRequest


class TestPromiseKeyedCache:
    """Serving a request from a result whose promise already meets it
    changes the counts only: with both runs certifying against the request,
    every iterate, step and certificate stays."""

    COUNT_FIELDS = {"fun_evals", "deriv_evals", "component_evals"}

    @staticmethod
    def _promise_request(base):
        # the same oracle, with every result promising only what was requested
        class PromiseRequest(base):
            def _compute(self, x, j, eps):
                return super()._compute(x, j, eps)[0], eps

        return PromiseRequest

    def _compare(self, make_oracle, base, x0, params, orders):
        new = run(make_oracle(tag_request(base)), x0, params, orders)
        old = run(make_oracle(tag_request(self._promise_request(base))), x0, params, orders)
        assert new.status == old.status
        np.testing.assert_array_equal(new.x_final, old.x_final)
        assert len(new.trace) == len(old.trace)
        for a, b in zip(new.trace, old.trace):
            for name in IterRecord.__slots__:
                if name not in self.COUNT_FIELDS:
                    assert getattr(a, name) == getattr(b, name), name
            assert a.fun_evals <= b.fun_evals
            assert a.component_evals <= b.component_evals
            assert all(ca <= cb for (_, ca), (_, cb) in zip(a.deriv_evals, b.deriv_evals))
        return new.counters, old.counters

    def test_exact_rosenbrock(self):
        new, old = self._compare(
            lambda cls: cls(make_rosenbrock()),
            ExactOracle,
            np.array([-1.2, 1.0]),
            AlgoParams(eps=1e-5),
            Orders(p=2, q=2),
        )
        assert sum(new.deriv_evals.values()) < sum(old.deriv_evals.values())

    def test_subsampled_sigmoid(self):
        ds = make_synthetic_dataset(400, 4, seed=8)
        new, old = self._compare(
            lambda cls: cls(ds, t=1e-3, seed=3),
            SubsampledOracle,
            np.zeros(4),
            AlgoParams(eps=1e-2),
            Orders(p=2, q=2),
        )
        assert new.component_evals < old.component_evals


class TestPromiseKeyedCertification:
    """Certifying against the promise instead of the request: on exact and
    full-batch data the iterates and counts stay, and the shrinks go."""

    STEP_FIELDS = ("k", "sigma", "omega", "rho", "step_norm", "success")
    COUNT_FIELDS = ("fun_evals", "deriv_evals", "component_evals")

    def _compare(self, make_oracle, base, x0, params, orders):
        new = run(make_oracle(base), x0, params, orders)
        old = run(make_oracle(tag_request(base)), x0, params, orders)
        np.testing.assert_array_equal(new.x_final, old.x_final)
        assert len(new.trace) == len(old.trace)
        for a, b in zip(new.trace, old.trace):
            for name in self.STEP_FIELDS + self.COUNT_FIELDS:
                assert getattr(a, name) == getattr(b, name), name
            assert a.shrinks <= b.shrinks
        assert new.total_shrinks < old.total_shrinks
        return new

    def test_exact_rosenbrock(self):
        new = self._compare(
            lambda cls: cls(make_rosenbrock()),
            ExactOracle,
            np.array([-1.2, 1.0]),
            AlgoParams(eps=1e-5),
            Orders(p=2, q=2),
        )
        # a zero error bound certifies every positive increment at once
        assert new.total_shrinks == 0
        assert all(flag in (1, 2) for rec in new.trace for _, flag in rec.flags)
        assert new.status.kind is TerminationKind.OPTIMAL_MEASURE

    def test_subsampled_sigmoid(self):
        self._compare(
            lambda cls: cls(make_synthetic_dataset(400, 4, seed=8), t=1e-3, seed=3),
            SubsampledOracle,
            np.zeros(4),
            AlgoParams(eps=1e-2),
            Orders(p=2, q=2),
        )


class TestCauchyShortcut:
    """On data that promises 0 the Cauchy bound stands in for the q = 2
    trust-region solve only where the solved value could change no flag,
    exit or start rung: forcing the solve gives the same run."""

    CASES = {
        "rosenbrock": (lambda: ExactOracle(make_rosenbrock()), np.array([-1.2, 1.0]), AlgoParams(eps=1e-6)),
        "quartic-n20": (
            lambda: ExactOracle(make_quartic(20)),
            np.linspace(-0.9, 0.9, 20),
            AlgoParams(eps=1e-4),
        ),
        "monotonic": (
            lambda: ExactOracle(make_rosenbrock()),
            np.array([-1.0, 1.3]),
            AlgoParams(eps=1e-6, schedule=Schedule.MONOTONIC),
        ),
        "full-batch-sigmoid": (
            lambda: SubsampledOracle(make_synthetic_dataset(40, 4, seed=8), t=1e-3, seed=3),
            np.zeros(4),
            AlgoParams(eps=1e-4),
        ),
    }

    @staticmethod
    def solves(monkeypatch):
        calls = []
        solve = subsolvers.trust_region_min

        def spy(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(subsolvers, "trust_region_min", spy)
        return calls

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_run_as_the_solve(self, monkeypatch, case):
        make_oracle, x0, params = self.CASES[case]
        calls = self.solves(monkeypatch)
        lazy = run(make_oracle(), x0, params, Orders(2, 2))
        lazy_solves = len(calls)
        monkeypatch.setattr(driver, "cauchy_decrease", lambda bundle, delta: 0.0)
        forced = run(make_oracle(), x0, params, Orders(2, 2))
        assert lazy_solves < len(calls) - lazy_solves
        assert lazy.status == forced.status
        np.testing.assert_array_equal(lazy.x_final, forced.x_final)
        assert len(lazy.trace) == len(forced.trace)
        for a, b in zip(lazy.trace, forced.trace):
            for name in IterRecord.__slots__:
                assert getattr(a, name) == getattr(b, name), name

    @staticmethod
    def bound_calls(monkeypatch):
        taken = []

        def spy(bundle, delta):
            taken.append(bundle)
            return subsolvers.cauchy_decrease(bundle, delta)

        monkeypatch.setattr(driver, "cauchy_decrease", spy)
        return taken

    def test_a_nonzero_promise_never_takes_the_bound(self, monkeypatch):
        class HessianPromise(ExactOracle):
            # an exact gradient promising 0 beside a Hessian promising the request
            def _compute(self, x, j, eps):
                result, promise = super()._compute(x, j, eps)
                return result, eps if j == 2 else promise

        taken = self.bound_calls(monkeypatch)
        for oracle in (NoisyOracle(make_rosenbrock(), noise_fraction=0.0), HessianPromise(make_rosenbrock())):
            report = run(oracle, np.array([-1.2, 1.0]), AlgoParams(eps=1e-4), Orders(2, 2))
            assert report.n_complete > 0
        assert taken == []

    def test_a_start_rung_keeps_the_solve(self, monkeypatch):
        # after a shrink at iteration 0 these requests are all full sums,
        # promising 0, but FLEXIBLE records their start rungs from phi
        oracle = SubsampledOracle(make_synthetic_dataset(400, 4, seed=8), t=1e-3, seed=3)
        zero_promise = []
        request = oracle.request_derivatives

        def spy_request(x, eps, upto):
            bundle = request(x, eps, upto)
            zero_promise.append(not any(bundle.achieved_acc.values()))
            return bundle

        oracle.request_derivatives = spy_request
        taken = self.bound_calls(monkeypatch)
        params = AlgoParams(eps=1e-4)
        report = run(oracle, np.zeros(4), params, Orders(2, 2))
        assert sum(zero_promise) > 10
        assert all(rec.eps < params.kappa_eps for rec in report.trace)
        assert taken == []


class TestModelSiteBound:
    """With an exact gradient and an inexact Hessian the model gradient
    g + H s is still inexact, so the model-measure certificate must not
    rest on a zero error bound."""

    def test_exact_gradient_inexact_hessian(self, monkeypatch):
        class ExactGradient(ExactOracle):
            def request_derivatives(self, x, eps, upto):
                bundle = super().request_derivatives(x, eps, upto)
                bundle.achieved_acc = {j: 0.0 if j == 1 else eps for j in bundle.achieved_acc}
                return bundle

        calls = []

        def spy(delta, increment, zetas, omega, xi):
            calls.append(list(zetas))
            return certify_increment(delta, increment, zetas, omega, xi)

        monkeypatch.setattr(driver, "certify_increment", spy)
        report = run(
            ExactGradient(make_rosenbrock()), np.array([-1.2, 1.0]), AlgoParams(eps=1e-3), Orders(p=2, q=1)
        )
        sites = [site for rec in report.trace for site, _ in rec.flags]
        # with p = 2 every flag comes from one cascade, in call order
        assert len(sites) == len(calls)
        checked = 0
        for i, site in enumerate(sites):
            if site == "model":
                # the step cascade on the same bundle precedes it: (0, zeta_2)
                assert sites[i - 1] == "step"
                z1, z2 = calls[i - 1]
                assert z1 == 0.0 and z2 > 0.0
                assert calls[i] == [3.0 * z2]
                checked += 1
        assert checked > 0


class TestSchedules:
    def test_monotonic_ladder_never_increases(self):
        # exact values promising only the request, so the ladder shrinks;
        # FLEXIBLE widens on this run (see test_flexible_ladder_resets)
        report = run(
            NoisyOracle(make_rosenbrock(), noise_fraction=0.0),
            np.array([-1.2, 1.0]),
            AlgoParams(eps=1e-3, schedule=Schedule.MONOTONIC),
            Orders(p=2, q=1),
        )
        assert report.total_shrinks > 0
        ends = [rec.eps for rec in report.trace]
        assert all(b <= a for a, b in zip(ends, ends[1:]))

    def test_monotonic_subsampled_solve(self):
        ds = make_synthetic_dataset(800, 6, seed=21)
        from dynreg import make_sigmoid_problem

        prob = make_sigmoid_problem(ds)
        oracle = SubsampledOracle(ds, t=1e-3, seed=5)
        report = run(
            oracle,
            np.zeros(6),
            AlgoParams(eps=2e-2, schedule=Schedule.MONOTONIC),
            Orders(p=2, q=1),
        )
        assert report.status.kind is not TerminationKind.BUDGET
        assert np.linalg.norm(prob.grad(report.x_final)) <= 2e-2
        assert report.counters.component_evals > 0

    def test_flexible_ladder_resets(self):
        # exact values promising only the request, so the ladder shrinks
        prob = make_rosenbrock()
        report = run(
            NoisyOracle(prob, noise_fraction=0.0),
            np.array([-1.2, 1.0]),
            AlgoParams(eps=1e-3),
            Orders(p=2, q=1),
        )
        # some later iteration must observe a looser ladder than its
        # predecessor finished with
        widened = any(
            report.trace[i].eps > report.trace[i - 1].eps
            for i in range(1, len(report.trace))
        )
        assert widened


class TestFlexibleStart:
    """Each FLEXIBLE iteration starts at the loosest rung the previous
    iteration's certificates allow against the ladder's request."""

    @staticmethod
    def ladder_at(rung):
        ladder = AccuracyLadder(0.1, 1.0)
        ladder.reset(rung)
        return ladder

    def test_rung_zero_certificate_records_nothing(self):
        starts = {}
        flag = driver._certify("measure", [], starts, self.ladder_at(0), 1.0, 1.0, {1: 0.1}, 1, 0.5, 0.1)
        assert flag is CertifyFlag.RELATIVE_OK
        assert starts == {}

    def test_start_comes_from_the_request_not_the_promise(self):
        # a full-batch promise of 0 certifies at every rung; as the tag,
        # rung 2's request 1e-2 <= 0.0625 certifies, rung 1's 1e-1 does not
        starts = {}
        ladder = self.ladder_at(3)
        driver._certify("measure", [], starts, ladder, 1.0, 1.0, {1: 0.0}, 1, 0.0625, 1e-4)
        assert starts == {"measure": 2}
        assert ladder.i_eps == 3

    def test_zero_increment_uses_xi_over_the_largest_request(self):
        # flag 1 at rung 4; rung 2's request 1e-2 is at most xi = 0.05,
        # rung 1's 1e-1 is not
        starts = {}
        ladder = self.ladder_at(4)
        flag = driver._certify("step", [], starts, ladder, 0.5, 0.0, {1: 0.0, 2: 0.0}, 2, 0.0625, 0.05)
        assert flag is CertifyFlag.ZERO_INCREMENT
        assert starts == {"step": 2}

    def test_model_site_takes_the_request_as_is(self):
        # model tags are three times the promise; the record uses the ladder's
        # request itself: rung 2's 1e-2 is at most xi = 0.013, where the
        # tripled 3e-2 would certify at no looser rung
        starts = {}
        ladder = self.ladder_at(3)
        flag = driver._certify("model", [], starts, ladder, 1.0, 0.0, {1: 3e-3}, 1, 0.0625, 0.013)
        assert flag is CertifyFlag.ZERO_INCREMENT
        assert starts == {"model": 2}

    def test_a_later_certificate_overwrites_its_site(self):
        starts = {}
        ladder = self.ladder_at(2)
        driver._certify("measure", [], starts, ladder, 1.0, 10.0, {1: 0.0}, 1, 0.0625, 1e-4)
        assert starts == {"measure": 1}
        ladder.shrink()
        driver._certify("measure", [], starts, ladder, 1.0, 1e-3, {1: 0.0}, 1, 0.0625, 1e-4)
        assert starts == {"measure": 3}

    def test_a_request_equal_to_xi_certifies_at_its_rung(self):
        # a zero increment certified at rung 2 (request 0.010000000000000002)
        # with xi = 1.0: rung 0's request 1.0 <= xi certifies it
        starts = {}
        flag = driver._certify("step", [], starts, self.ladder_at(2), 1.0, 0.0, {1: 0.0, 2: 0.0}, 2, 0.0625, 1.0)
        assert flag is CertifyFlag.ZERO_INCREMENT
        assert starts == {"step": 0}

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        gamma_eps=st.floats(1e-3, 0.999),
        kappa_eps=st.floats(1e-6, 1e3),
        rung=st.integers(1, 6),
        order=st.integers(1, 2),
        delta=st.floats(1e-3, 2.0),
        omega=st.floats(1e-3, 0.999),
        xi=st.floats(1e-9, 1e3),
        increment=st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
        boundary=st.one_of(st.none(), st.integers(0, 5)),
    )
    def test_records_the_first_rung_the_cascade_certifies(
        self, gamma_eps, kappa_eps, rung, order, delta, omega, xi, increment, boundary
    ):
        requests = [kappa_eps]
        for _ in range(rung):
            requests.append(requests[-1] * gamma_eps)
        if boundary is not None:
            # put the certificate exactly on rung b's threshold
            b = boundary % rung
            if increment == 0.0:
                xi = requests[b]
            else:
                # omega * increment equals the cascade's sum of the tags
                fact = power = 1.0
                total = 0.0
                for j in range(1, order + 1):
                    fact *= j
                    power *= delta
                    total += requests[b] * power / fact
                increment = total / omega
                increment = next(
                    (v for v in (increment, np.nextafter(increment, 0.0), np.nextafter(increment, np.inf))
                     if omega * v == total),
                    increment,
                )
        ladder = AccuracyLadder(gamma_eps, kappa_eps)
        ladder.reset(rung)
        starts = {}
        promise = dict.fromkeys(range(1, order + 1), 0.0)
        flag = driver._certify("measure", [], starts, ladder, delta, increment, promise, order, omega, xi)
        assert flag is not CertifyFlag.NOT_CERTIFIED
        expected = next(
            (
                r for r in range(rung)
                if certify_increment(delta, increment, [requests[r]] * order, omega, xi) is not CertifyFlag.NOT_CERTIFIED
            ),
            rung,
        )
        assert starts == {"measure": expected}

    @pytest.mark.parametrize(
        "x0, orders, eps",
        [
            ((-1.2, 1.0), Orders(p=2, q=1), 1e-3),
            ((-1.2, 1.0), Orders(p=2, q=1), 1e-2),
            ((-0.5, 1.5), Orders(p=2, q=2), 1e-2),
        ],
    )
    def test_starts_follow_the_previous_certificates(self, monkeypatch, x0, orders, eps):
        # exact values promising only the request: every certificate's tags
        # are the request (tripled at the model site)
        calls = []
        certify = driver._certify

        def spy(stage, flags, starts, ladder, delta, increment, acc, order, omega, xi):
            rung = ladder.i_eps
            flag = certify(stage, flags, starts, ladder, delta, increment, acc, order, omega, xi)
            calls.append((stage, rung, delta, increment, order, omega, xi, flag))
            return flag

        monkeypatch.setattr(driver, "_certify", spy)
        params = AlgoParams(eps=eps)
        report = run(NoisyOracle(make_rosenbrock(), noise_fraction=0.0), np.array(x0), params, orders)
        # with p = 2 every flag comes from one certification, in call order
        per_iter, i = [], 0
        for rec in report.trace:
            per_iter.append(calls[i : i + len(rec.flags)])
            i += len(rec.flags)
        assert i == len(calls)

        def request(rung, order):
            return [self.ladder_at(rung).eps] * order

        def loosest(call):
            # the loosest rung at which the request certifies the same increment
            _, rung, delta, increment, order, omega, xi, _ = call
            return next(
                r for r in range(rung + 1)
                if certify_increment(delta, increment, request(r, order), omega, xi) is not CertifyFlag.NOT_CERTIFIED
            )

        for prev, cur, prev_rec in zip(per_iter, per_iter[1:], report.trace):
            last = {}
            for call in prev:
                if call[-1] is not CertifyFlag.NOT_CERTIFIED:
                    last[call[0]] = call
            expected = max((loosest(c) for c in last.values() if c[1] > 0), default=0)
            start = cur[0][1]
            assert start == expected
            # never tighter than where the previous iteration ended
            assert request(start, 1)[0] >= prev_rec.eps

        omega_min = min(params.kappa_omega, 1.0 / report.sigma_max_observed)
        assert shrink_violations(report, omega_min) == []

    def test_widens_before_the_terminal_iteration(self):
        report = run(
            NoisyOracle(make_rosenbrock(), noise_fraction=0.0),
            np.array([-1.2, 1.0]),
            AlgoParams(eps=1e-2),
            Orders(p=2, q=1),
        )
        ends = [rec.eps for rec in report.trace]
        assert any(ends[i] > ends[i - 1] for i in range(1, len(ends) - 1))


class TestInvariants:
    def make_reports(self):
        quad = make_quadratic(np.array([1.0, 2.0]))
        ros = make_rosenbrock()
        return [
            run(ExactOracle(quad), np.ones(2), AlgoParams(eps=1e-4), Orders(p=1, q=1)),
            run(ExactOracle(ros), np.array([-1.2, 1.0]), AlgoParams(eps=1e-3), Orders(p=2, q=1)),
            run(NoisyOracle(quad, 0.9, seed=2), np.ones(2), AlgoParams(eps=1e-3), Orders(p=2, q=1)),
        ]

    def test_omega_tied_to_sigma(self):
        for report in self.make_reports():
            p = report.params
            for rec in report.trace:
                assert 0.0 < rec.omega <= p.kappa_omega
                assert rec.omega == pytest.approx(min(p.kappa_omega, 1.0 / rec.sigma), rel=1e-15)
                assert rec.sigma >= p.sigma_min

    def test_accepted_steps_have_rho_above_eta1(self):
        for report in self.make_reports():
            for rec in report.trace:
                if rec.rho is not None:
                    assert rec.success == (rec.rho >= report.params.eta1)

    def test_counting_inequality(self):
        for report in self.make_reports():
            assert counting_violations(report) == []

    def test_optimal_measure_exit_certifies_phi(self):
        from dynreg import chi

        for report in self.make_reports():
            if report.status.kind is TerminationKind.OPTIMAL_MEASURE:
                omega_exit = report.trace[-1].omega
                bound = report.params.eps / (1.0 + omega_exit) * chi(
                    report.orders.q, report.status.delta_at_exit
                )
                assert report.status.phi <= bound

    def test_replay_bit_identical(self):
        runs = []
        for _ in range(2):
            oracle = SubsampledOracle(make_synthetic_dataset(300, 5, seed=7), t=0.02, seed=13)
            runs.append(run(oracle, np.zeros(5), AlgoParams(eps=5e-2), Orders(p=2, q=1)))
        a, b = runs
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra == rb
        np.testing.assert_array_equal(a.x_final, b.x_final)
