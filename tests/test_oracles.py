from dataclasses import replace

import numpy as np
import pytest

from dynreg import (
    AccuracyLadder,
    ExactOracle,
    LadderUnderflowError,
    NoisyOracle,
    NonFiniteEvaluationError,
    Orders,
    Schedule,
    StochasticConfig,
    SubsampledOracle,
    failure_probability,
    make_quadratic,
    make_rosenbrock,
    make_synthetic_dataset,
    psi_bounds,
    sample_size,
    subsampled_eval,
)
from dynreg.problems import sigmoid_ls_derivs, _make_dataset


class TestAccuracyLadder:
    def test_flexible_resets(self):
        ladder = AccuracyLadder.initial(2, 0.1, 1.0, Schedule.FLEXIBLE)
        ladder.shrink()
        ladder.shrink()
        assert ladder.snapshot() == (0.010000000000000002, 0.010000000000000002)
        assert ladder.i_eps == 2
        ladder.reset()
        assert ladder.snapshot() == (1.0, 1.0)
        assert ladder.i_eps == 0

    def test_monotonic_never_resets(self):
        ladder = AccuracyLadder.initial(1, 0.5, 1.0, Schedule.MONOTONIC)
        ladder.shrink()
        ladder.reset()
        assert ladder.snapshot() == (0.5,)
        assert ladder.i_eps == 1

    def test_thresholds_never_exceed_cap(self):
        ladder = AccuracyLadder.initial(2, 0.3, 0.7, Schedule.FLEXIBLE)
        for _ in range(5):
            assert all(v <= 0.7 for v in ladder.snapshot())
            ladder.shrink()
        ladder.reset()
        assert all(v <= 0.7 for v in ladder.snapshot())

    def test_underflow_raises(self):
        ladder = AccuracyLadder.initial(1, 1e-160, 1.0, Schedule.FLEXIBLE)
        ladder.shrink()
        with pytest.raises(LadderUnderflowError):
            ladder.shrink()


class TestSampleSize:
    def test_known_value(self):
        # 8 * (4 + 1/3) * ln 20 = 103.85..., ceiled
        assert sample_size(1.0, 0.5, 0.1, 2, 10**6) == 104

    def test_clamped_to_population(self):
        assert sample_size(1.0, 1.0, 0.5, 2, 10) == 10

    def test_zero_variance_floor(self):
        assert sample_size(0.0, 0.5, 0.1, 2, 100) == 1

    def test_monotonicity(self):
        base = sample_size(1.0, 0.1, 0.1, 10, 10**9)
        assert sample_size(1.0, 0.05, 0.1, 10, 10**9) >= base  # tighter eps
        assert sample_size(2.0, 0.1, 0.1, 10, 10**9) >= base  # larger kappa
        assert sample_size(1.0, 0.1, 0.01, 10, 10**9) >= base  # smaller t


class TestExactOracle:
    def setup_method(self):
        self.prob = make_quadratic(np.array([1.0, 2.0]))
        self.oracle = ExactOracle(self.prob)
        self.x = np.array([1.0, 1.0])

    def test_function_is_exact_and_cached(self):
        v = self.oracle.request_function(self.x, 0.5)
        assert v == self.prob.value(self.x)
        assert self.oracle.counters.fun_evals == 1
        # exact values promise zero error, so any later request is a hit
        self.oracle.request_function(self.x, 1e-12)
        assert self.oracle.counters.fun_evals == 1

    def test_derivatives_counted_per_order(self):
        b = self.oracle.request_derivatives(self.x, {1: 1.0, 2: 1.0}, upto=2)
        np.testing.assert_array_equal(b.grad, self.prob.grad(self.x))
        np.testing.assert_array_equal(b.hess, self.prob.hess(self.x))
        assert self.oracle.counters.deriv_evals == {1: 1, 2: 1}
        assert b.achieved_acc == {1: 0.0, 2: 0.0}

    def test_looser_request_is_cache_hit(self):
        self.oracle.request_derivatives(self.x, {1: 1.0}, upto=1)
        self.oracle.request_derivatives(self.x, {1: 2.0}, upto=1)
        assert self.oracle.counters.deriv_evals == {1: 1}

    def test_tighter_request_is_cache_hit(self):
        # an exact tensor promises zero error, so it serves every tighter
        # request at the same point
        self.oracle.request_derivatives(self.x, {1: 1.0}, upto=1)
        self.oracle.request_derivatives(self.x, {1: 0.1}, upto=1)
        b = self.oracle.request_derivatives(self.x, {1: 1e-12}, upto=1)
        assert self.oracle.counters.deriv_evals == {1: 1}
        assert b.achieved_acc == {1: 0.0}


class TestNoisyOracle:
    def setup_method(self):
        self.prob = make_quadratic(np.array([1.0, 2.0]))
        self.x = np.array([0.3, -0.7])

    def test_value_error_at_boundary(self):
        oracle = NoisyOracle(self.prob, noise_fraction=1.0, seed=5)
        v = oracle.request_function(self.x, 0.1)
        assert abs(v - self.prob.value(self.x)) == pytest.approx(0.1, abs=1e-15)

    def test_gradient_error_norm_is_exact(self):
        oracle = NoisyOracle(self.prob, noise_fraction=0.9, seed=5)
        b = oracle.request_derivatives(self.x, {1: 0.2}, upto=1)
        err = np.linalg.norm(b.grad - self.prob.grad(self.x))
        assert err == pytest.approx(0.2 * 0.9, rel=1e-12)

    def test_hessian_error_spectral_norm_is_exact(self):
        oracle = NoisyOracle(self.prob, noise_fraction=0.5, seed=5)
        b = oracle.request_derivatives(self.x, {1: 0.2, 2: 0.4}, upto=2)
        err = np.max(np.abs(np.linalg.eigvalsh(b.hess - self.prob.hess(self.x))))
        assert err == pytest.approx(0.4 * 0.5, rel=1e-12)

    def test_replay_is_bit_identical(self):
        a = NoisyOracle(self.prob, 0.9, seed=17)
        b = NoisyOracle(self.prob, 0.9, seed=17)
        for eps in (0.5, 0.05):
            ba = a.request_derivatives(self.x, {1: eps, 2: eps}, upto=2)
            bb = b.request_derivatives(self.x, {1: eps, 2: eps}, upto=2)
            np.testing.assert_array_equal(ba.grad, bb.grad)
            np.testing.assert_array_equal(ba.hess, bb.hess)
        assert a.request_function(self.x, 0.1) == b.request_function(self.x, 0.1)

    def test_stale_cache_forces_one_recomputation(self):
        oracle = NoisyOracle(self.prob, 0.9, seed=3)
        oracle.request_function(self.x, 0.5)
        oracle.request_function(self.x, 0.5)
        assert oracle.counters.fun_evals == 1
        oracle.request_function(self.x, 0.1)  # stale accuracy, recompute once
        assert oracle.counters.fun_evals == 2

    def test_tighter_derivative_request_recomputes(self):
        # a noisy tensor promises exactly the requested accuracy
        oracle = NoisyOracle(self.prob, 0.9, seed=3)
        loose = oracle.request_derivatives(self.x, {1: 0.5, 2: 0.5}, upto=2)
        oracle.request_derivatives(self.x, {1: 0.5, 2: 0.5}, upto=2)
        assert oracle.counters.deriv_evals == {1: 1, 2: 1}
        tight = oracle.request_derivatives(self.x, {1: 0.1, 2: 0.5}, upto=2)
        assert oracle.counters.deriv_evals == {1: 2, 2: 1}
        assert tight.achieved_acc == {1: 0.1, 2: 0.5}
        assert not np.array_equal(tight.grad, loose.grad)


class TestSubsampledOracle:
    def setup_method(self):
        self.dataset = make_synthetic_dataset(500, 6, seed=11)
        self.orders = Orders(p=2, q=1)
        self.config = StochasticConfig(t_bar=0.1, t=0.05, seed=9)

    def test_full_batch_matches_exact_sum(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        full = subsampled_eval(self.dataset, x, 1, self.dataset.size, rng)
        seq = np.zeros(6)
        for i in range(self.dataset.size):
            _, gi, _ = sigmoid_ls_derivs(self.dataset.features[i], self.dataset.labels[i], x)
            seq += gi
        np.testing.assert_allclose(full, seq / self.dataset.size, rtol=5e-13, atol=1e-15)

    def test_identical_components_give_exact_value_for_any_m(self):
        feats = np.tile(np.array([[1.0, 2.0]]), (50, 1))
        labels = np.ones(50)
        ds = _make_dataset(feats, labels)
        rng = np.random.default_rng(1)
        x = np.array([0.2, -0.1])
        exact = subsampled_eval(ds, x, 0, 50, rng)
        for m in (1, 7, 23):
            assert subsampled_eval(ds, x, 0, m, rng) == pytest.approx(exact, rel=1e-15)

    def test_component_evals_counted(self):
        oracle = SubsampledOracle(self.dataset, self.config, t=0.05)
        oracle.request_function(np.zeros(6), 0.5)
        assert oracle.counters.component_evals > 0
        assert oracle.counters.fun_evals == 1

    def test_replay_determinism(self):
        a = SubsampledOracle(self.dataset, self.config, t=0.05)
        b = SubsampledOracle(self.dataset, self.config, t=0.05)
        x = np.full(6, 0.1)
        for eps in (0.9, 0.2, 0.07):
            ga = a.request_derivatives(x, {1: eps}, upto=1)
            gb = b.request_derivatives(x, {1: eps}, upto=1)
            np.testing.assert_array_equal(ga.grad, gb.grad)
        assert a.counters.component_evals == b.counters.component_evals

    def test_tighter_request_below_population_recomputes(self):
        oracle = SubsampledOracle(self.dataset, self.config, t=0.05)
        x = np.full(6, 0.1)
        kappa = self.dataset.kappa_bounds[1]
        for eps in (kappa, 0.5 * kappa):
            assert sample_size(kappa, eps, 0.05, 7, self.dataset.size) < self.dataset.size
            b = oracle.request_derivatives(x, {1: eps}, upto=1)
            assert b.achieved_acc == {1: eps}
        assert oracle.counters.deriv_evals == {1: 2}
        oracle.request_function(x, 0.5)
        oracle.request_function(x, 0.4)
        assert oracle.counters.fun_evals == 2

    def test_full_population_serves_every_tighter_request(self):
        # at m = N the oracle returns the exact full mean and promises zero
        oracle = SubsampledOracle(self.dataset, self.config, t=0.05)
        x = np.full(6, 0.1)
        first = oracle.request_derivatives(x, {1: 1e-9, 2: 1e-9}, upto=2)
        components = oracle.counters.component_evals
        assert components == 2 * self.dataset.size
        again = oracle.request_derivatives(x, {1: 1e-12, 2: 1e-12}, upto=2)
        assert oracle.counters.deriv_evals == {1: 1, 2: 1}
        assert first.achieved_acc == again.achieved_acc == {1: 0.0, 2: 0.0}
        np.testing.assert_array_equal(again.grad, first.grad)
        np.testing.assert_array_equal(again.hess, first.hess)
        v = oracle.request_function(x, 1e-9)
        assert oracle.request_function(x, 1e-12) == v
        assert oracle.counters.fun_evals == 1
        assert oracle.counters.component_evals == components + self.dataset.size

    def test_full_batch_regime_flag(self):
        # huge accuracy demands clamp every request to the full population
        oracle = SubsampledOracle(self.dataset, self.config, t=0.05)
        for k in range(2):
            oracle.begin_iteration()
            oracle.request_derivatives(np.full(6, float(k)), {1: 1e-9}, upto=1)
            extras = oracle.end_iteration()
        assert extras["full_batch_regime"] is True
        assert extras["sample_sizes"][1] == self.dataset.size

    def test_empirical_accuracy_on_a_small_grid(self):
        # Monte-Carlo check of the Bernstein rule at one accuracy level
        kappa = self.dataset.kappa_bounds[1]
        eps1 = 0.25 * kappa
        m = sample_size(kappa, eps1, 0.05, self.dataset.dim + 1, self.dataset.size)
        rng = np.random.default_rng(2)
        x = np.zeros(6)
        exact = subsampled_eval(self.dataset, x, 1, self.dataset.size, rng)
        failures = 0
        trials = 400
        for _ in range(trials):
            approx = subsampled_eval(self.dataset, x, 1, m, rng)
            if np.linalg.norm(approx - exact) > eps1:
                failures += 1
        assert failures / trials <= 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / trials)


class TestNonFiniteResults:
    """A NaN result raises, is counted as computed, and is never cached."""

    X = np.array([np.nan, 1.0])

    @staticmethod
    def _oracles():
        rosen = make_rosenbrock()
        ds = make_synthetic_dataset(50, 2, seed=4)
        return {
            "exact": ExactOracle(rosen),
            "noisy": NoisyOracle(rosen, 0.9, seed=2),
            "subsampled": SubsampledOracle(ds, StochasticConfig(seed=1), t=0.05),
        }

    @pytest.mark.parametrize("kind", ["exact", "noisy", "subsampled"])
    def test_function_value_rejected_and_not_cached(self, kind):
        oracle = self._oracles()[kind]
        for count in (1, 2):
            with pytest.raises(NonFiniteEvaluationError):
                oracle.request_function(self.X, 1e-9)
            assert oracle.counters.fun_evals == count

    @pytest.mark.parametrize("kind", ["exact", "noisy", "subsampled"])
    def test_derivative_rejected_and_not_cached(self, kind):
        oracle = self._oracles()[kind]
        for count in (1, 2):
            with pytest.raises(NonFiniteEvaluationError):
                oracle.request_derivatives(self.X, {1: 1e-9, 2: 1e-9}, upto=2)
            assert oracle.counters.deriv_evals == {1: count}

    def test_infinite_hessian_rejected(self):
        prob = make_quadratic(np.array([1.0, 2.0]))
        oracle = ExactOracle(replace(prob, hess=lambda x: np.diag([np.inf, 1.0])))
        x = np.ones(2)
        with pytest.raises(NonFiniteEvaluationError):
            oracle.request_derivatives(x, {1: 1.0, 2: 1.0}, upto=2)
        # the finite gradient stays cached; the Hessian is recomputed
        with pytest.raises(NonFiniteEvaluationError):
            oracle.request_derivatives(x, {1: 1.0, 2: 1.0}, upto=2)
        assert oracle.counters.deriv_evals == {1: 1, 2: 2}


class TestPsiBounds:
    def test_uniform_norm_rows(self):
        feats = np.zeros((4, 2))
        feats[:, 0] = 5.0
        ds = _make_dataset(feats, np.zeros(4))
        assert psi_bounds(ds) == (1.0, 2.0, 5.0)

    def test_zero_feature_row(self):
        ds = _make_dataset(np.zeros((1, 3)), np.ones(1))
        assert psi_bounds(ds) == (1.0, 0.0, 0.0)

    def test_bounds_hold_at_random_points(self):
        ds = make_synthetic_dataset(60, 4, seed=3)
        k0, k1, k2 = ds.kappa_bounds
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.uniform(-3, 3, 4)
            i = int(rng.integers(0, ds.size))
            v, g, h = sigmoid_ls_derivs(ds.features[i], ds.labels[i], x)
            assert abs(v) <= k0 + 1e-12
            assert np.linalg.norm(g) <= k1 + 1e-12
            assert np.max(np.abs(np.linalg.eigvalsh(h))) <= k2 + 1e-12

    def test_coefficient_maxima_on_a_dense_grid(self):
        # with a = e_1 the gradient and Hessian of a component are their
        # coefficients; psi_bounds uses 2/5 and 1/5 as their maxima over v
        v = np.linspace(1e-6, 1.0 - 1e-6, 4001)
        a = np.array([1.0])
        for b in (0.0, 1.0):
            derivs = [sigmoid_ls_derivs(a, b, np.array([np.log(vi / (1.0 - vi))])) for vi in v]
            gmax = max(abs(g[0]) for _, g, _ in derivs)
            hmax = max(abs(h[0, 0]) for _, _, h in derivs)
            assert gmax == pytest.approx(8.0 / 27.0, abs=1e-6)
            assert hmax == pytest.approx(0.15406, abs=1e-5)
            assert gmax < 2.0 / 5.0 and hmax < 1.0 / 5.0


class TestStochasticConfig:
    def test_failure_probability_formula(self):
        orders = Orders(p=2, q=1)
        t = failure_probability(1e-2, orders, 0.1)
        assert t == pytest.approx(0.1 * 1e-3 / 5.0, rel=1e-12)

    def test_cap(self):
        assert failure_probability(0.99, Orders(p=1, q=1), 0.9) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            StochasticConfig(t_bar=0.0)
        with pytest.raises(ValueError):
            StochasticConfig(t_bar=0.1, t=0.2)
