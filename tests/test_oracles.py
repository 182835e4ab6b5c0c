import contextlib
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynreg import (
    AccuracyLadder,
    ExactOracle,
    LadderUnderflowError,
    NoisyOracle,
    NonFiniteEvaluationError,
    Orders,
    SubsampledOracle,
    failure_probability,
    make_quadratic,
    make_rosenbrock,
    make_synthetic_dataset,
    sample_size,
    subsampled_eval,
)
from dynreg import oracles
from dynreg.problems import sigmoid_ls_derivs, _make_dataset


class TestAccuracyLadder:
    def test_flexible_resets(self):
        ladder = AccuracyLadder(0.1, 1.0)
        assert (ladder.eps, ladder.i_eps) == (1.0, 0)
        ladder.shrink()
        ladder.shrink()
        assert ladder.eps == 0.010000000000000002
        assert ladder.i_eps == 2
        ladder.reset()
        assert ladder.eps == 1.0
        assert ladder.i_eps == 0

    def test_thresholds_never_exceed_cap(self):
        ladder = AccuracyLadder(0.3, 0.7)
        for _ in range(5):
            assert ladder.eps <= 0.7
            ladder.shrink()
        ladder.reset()
        assert ladder.eps <= 0.7

    def test_underflow_raises(self):
        ladder = AccuracyLadder(1e-160, 1.0)
        ladder.shrink()
        with pytest.raises(LadderUnderflowError):
            ladder.shrink()

    def test_flexible_reset_to_rung_matches_shrinks(self):
        # the threshold at rung i carries the bits of i shrinks from kappa_eps
        shrunk = AccuracyLadder(0.3, 0.7)
        for _ in range(4):
            shrunk.shrink()
        ladder = AccuracyLadder(0.3, 0.7)
        ladder.shrink()
        ladder.reset(4)
        assert ladder.eps == shrunk.eps
        assert ladder.i_eps == 4
        ladder.reset(0)
        assert ladder.eps == 0.7 and ladder.i_eps == 0


class TestSampleSize:
    def test_known_value(self):
        # 8 * (4 + 1/3) * ln 20 = 103.85..., ceiled
        assert sample_size(1.0, 0.5, 0.1, 2, 10**6) == 104

    def test_clamped_to_population(self):
        assert sample_size(1.0, 1.0, 0.5, 2, 10) == 10

    def test_overflowed_bound_takes_the_population(self):
        # (kappa/eps)^2 beyond the float range is an infinite bound, not an error
        assert sample_size(1.0, 1e-200, 0.1, 2, 500) == 500

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
        b = self.oracle.request_derivatives(self.x, 1.0, upto=2)
        np.testing.assert_array_equal(b.grad, self.prob.grad(self.x))
        np.testing.assert_array_equal(b.hess, self.prob.hess(self.x))
        assert self.oracle.counters.deriv_evals == {1: 1, 2: 1}
        assert b.achieved_acc == {1: 0.0, 2: 0.0}

    def test_looser_request_is_cache_hit(self):
        self.oracle.request_derivatives(self.x, 1.0, upto=1)
        self.oracle.request_derivatives(self.x, 2.0, upto=1)
        assert self.oracle.counters.deriv_evals == {1: 1}

    def test_tighter_request_is_cache_hit(self):
        # an exact tensor promises zero error, so it serves every tighter
        # request at the same point
        self.oracle.request_derivatives(self.x, 1.0, upto=1)
        self.oracle.request_derivatives(self.x, 0.1, upto=1)
        b = self.oracle.request_derivatives(self.x, 1e-12, upto=1)
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
        b = oracle.request_derivatives(self.x, 0.2, upto=1)
        err = np.linalg.norm(b.grad - self.prob.grad(self.x))
        assert err == pytest.approx(0.2 * 0.9, rel=1e-12)

    def test_hessian_error_spectral_norm_is_exact(self):
        oracle = NoisyOracle(self.prob, noise_fraction=0.5, seed=5)
        b = oracle.request_derivatives(self.x, 0.4, upto=2)
        err = np.max(np.abs(np.linalg.eigvalsh(b.hess - self.prob.hess(self.x))))
        assert err == pytest.approx(0.4 * 0.5, rel=1e-12)

    def test_replay_is_bit_identical(self):
        a = NoisyOracle(self.prob, 0.9, seed=17)
        b = NoisyOracle(self.prob, 0.9, seed=17)
        for eps in (0.5, 0.05):
            ba = a.request_derivatives(self.x, eps, upto=2)
            bb = b.request_derivatives(self.x, eps, upto=2)
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
        loose = oracle.request_derivatives(self.x, 0.5, upto=2)
        oracle.request_derivatives(self.x, 0.5, upto=2)
        assert oracle.counters.deriv_evals == {1: 1, 2: 1}
        # each order recomputes only when its own promise is looser
        oracle.request_derivatives(self.x, 0.1, upto=1)
        tight = oracle.request_derivatives(self.x, 0.5, upto=2)
        assert oracle.counters.deriv_evals == {1: 2, 2: 1}
        assert tight.achieved_acc == {1: 0.1, 2: 0.5}
        assert not np.array_equal(tight.grad, loose.grad)
        oracle.request_derivatives(self.x, 0.1, upto=2)
        assert oracle.counters.deriv_evals == {1: 2, 2: 2}


class TestNoiseKey:
    """The noise of an evaluation is a pure function of (seed, x, eps, j):
    one blake2b digest keys it, and the oracle's one generator is re-set
    from that digest for every derivative draw."""

    X = np.array([0.3, -0.7, 1.1])
    SEEDS = (0, 1, 10, 255, 256, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**128)

    @staticmethod
    def evaluate(oracle, x, j, eps):
        """A fresh order-j result at x: the value, gradient or Hessian."""
        if j == 0:
            return oracle.request_function(x, eps)
        bundle = oracle.request_derivatives(x, eps, upto=j)
        return bundle.grad if j == 1 else bundle.hess

    def noise(self, seed, x, j, eps):
        oracle = NoisyOracle(make_quadratic(np.ones(x.size)), 0.9, seed=seed)
        exact = (oracle.problem.value, oracle.problem.grad, oracle.problem.hess)[j](x)
        return self.evaluate(oracle, x, j, eps) - exact

    @pytest.mark.parametrize("seed", [3, 2**64 + 5])
    def test_replays_equal_across_instances(self, seed):
        prob = make_rosenbrock()
        a, b = NoisyOracle(prob, 0.9, seed=seed), NoisyOracle(prob, 0.9, seed=seed)
        for x in (np.array([-1.2, 1.0]), np.array([0.5, 0.25])):
            for j in (0, 1, 2):
                for eps in (0.3, 1e-4):
                    np.testing.assert_array_equal(self.evaluate(a, x, j, eps), self.evaluate(b, x, j, eps))

    def test_each_key_part_changes_the_draw(self):
        eps = 0.1
        last_bit = self.X.copy()
        last_bit[-1] = np.nextafter(last_bit[-1], np.inf)
        for j in (1, 2):
            base = self.noise(0, self.X, j, eps)
            for seed, x, e in ((1, self.X, eps), (0, last_bit, eps), (0, self.X, np.nextafter(eps, 1.0))):
                assert np.abs(self.noise(seed, x, j, e) - base).max() > 1e-3 * eps
        oracle = NoisyOracle(make_quadratic(np.ones(3)), 0.9, seed=0)
        assert len({oracle._digest(self.X, j, eps) for j in (0, 1, 2)}) == 3

    def test_draw_does_not_depend_on_earlier_evaluations(self):
        prob = make_rosenbrock()
        x = np.array([0.3, -0.7])
        fresh = NoisyOracle(prob, 0.9, seed=7)
        used = NoisyOracle(prob, 0.9, seed=7)
        for k in range(5):  # odd and even numbers of draws in between
            y = x + 0.1 * (k + 1)
            used.request_function(y, 0.2)
            used.request_derivatives(y, 0.2, upto=1 + k % 2)
        for j in (2, 1, 0):
            np.testing.assert_array_equal(self.evaluate(used, x, j, 0.05), self.evaluate(fresh, x, j, 0.05))

    def test_seeds_beyond_64_bits_are_distinct_and_negative_raises(self):
        # the key ends the seed with a colon, so 0 and 2**64 (or 1 and 10) do not collide
        prob = make_quadratic(np.ones(3))
        digests = {NoisyOracle(prob, 0.9, seed=seed)._digest(self.X, 1, 0.1) for seed in self.SEEDS}
        assert len(digests) == len(self.SEEDS)
        big = self.noise(2**128, self.X, 2, 0.1)
        assert np.max(np.abs(np.linalg.eigvalsh(big))) == pytest.approx(0.09, rel=1e-12)
        with pytest.raises(ValueError, match="seed"):
            NoisyOracle(prob, 0.9, seed=-1)

    def test_sign_frequency_and_magnitude(self):
        noise = np.array([self.noise(11, np.array([1e-3 * i]), 0, 0.1) for i in range(2000)])
        np.testing.assert_allclose(np.abs(noise), 0.09, rtol=1e-9)
        assert 0.45 <= np.mean(noise > 0.0) <= 0.55


class TestBundlePerCacheState:
    """One bundle per cached point and ``upto``: repeated requests served from
    the same cache state share it, a recompute replaces it."""

    def setup_method(self):
        self.oracle = NoisyOracle(make_rosenbrock(), 0.9, seed=4)
        self.x = np.array([0.3, -0.7])

    def request(self, eps, upto=1):
        return self.oracle.request_derivatives(self.x, eps, upto)

    def test_unchanged_state_returns_the_same_read_only_bundle(self):
        first = self.request(0.5, upto=2)
        assert self.request(0.5, upto=2) is first
        assert self.request(0.9, upto=2) is first  # looser: served from cache
        assert self.oracle.counters.deriv_evals == {1: 1, 2: 1}
        for arr in (first.origin, first.grad, first.hess):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the Hessian is symmetrized exactly once, and the origin is a copy
        np.testing.assert_array_equal(first.hess, first.hess.T)
        self.x[0] = 5.0
        np.testing.assert_array_equal(first.origin, [0.3, -0.7])

    def test_recompute_returns_a_new_bundle(self):
        order1 = self.request(0.1)
        both = self.request(0.5, upto=2)
        assert both is not order1
        assert both.grad is order1.grad  # one cached order-1 tensor
        # recomputing the Hessian leaves the order-1 bundle valid
        tighter_hess = self.request(0.1, upto=2)
        assert tighter_hess is not both
        assert self.request(0.1) is order1
        # recomputing the gradient replaces both bundles
        tighter_grad = self.request(0.05)
        assert tighter_grad is not order1
        assert tighter_grad.achieved_acc == {1: 0.05}
        again = self.request(0.1, upto=2)
        assert again is not tighter_hess
        assert again.grad is tighter_grad.grad
        np.testing.assert_array_equal(again.hess, tighter_hess.hess)
        assert self.oracle.counters.deriv_evals == {1: 2, 2: 2}

    def test_problem_arrays_stay_writable(self):
        # a problem that hands out its own buffer keeps it writable
        buf = np.array([1.0, 2.0])
        oracle = ExactOracle(replace(make_quadratic(np.ones(2)), grad=lambda x: buf))
        bundle = oracle.request_derivatives(np.ones(2), 1.0, upto=1)
        assert buf.flags.writeable
        assert not bundle.grad.flags.writeable


class TestSubsampledOracle:
    def setup_method(self):
        self.dataset = make_synthetic_dataset(500, 6, seed=11)
        self.orders = Orders(p=2, q=1)

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
        oracle = SubsampledOracle(self.dataset, t=0.05, seed=9)
        oracle.request_function(np.zeros(6), 0.5)
        assert oracle.counters.component_evals > 0
        assert oracle.counters.fun_evals == 1

    def test_replay_determinism(self):
        a = SubsampledOracle(self.dataset, t=0.05, seed=9)
        b = SubsampledOracle(self.dataset, t=0.05, seed=9)
        x = np.full(6, 0.1)
        for eps in (0.9, 0.2, 0.07):
            ga = a.request_derivatives(x, eps, upto=1)
            gb = b.request_derivatives(x, eps, upto=1)
            np.testing.assert_array_equal(ga.grad, gb.grad)
        assert a.counters.component_evals == b.counters.component_evals

    def test_tighter_request_below_population_recomputes(self):
        oracle = SubsampledOracle(self.dataset, t=0.05, seed=9)
        x = np.full(6, 0.1)
        kappa = self.dataset.kappa_bounds[1]
        for eps in (kappa, 0.5 * kappa):
            assert sample_size(kappa, eps, 0.05, 7, self.dataset.size) < self.dataset.size
            b = oracle.request_derivatives(x, eps, upto=1)
            assert b.achieved_acc == {1: eps}
        assert oracle.counters.deriv_evals == {1: 2}
        oracle.request_function(x, 0.5)
        oracle.request_function(x, 0.4)
        assert oracle.counters.fun_evals == 2

    def test_full_population_serves_every_tighter_request(self):
        # at m = N the oracle returns the exact full mean and promises zero
        oracle = SubsampledOracle(self.dataset, t=0.05, seed=9)
        x = np.full(6, 0.1)
        first = oracle.request_derivatives(x, 1e-9, upto=2)
        components = oracle.counters.component_evals
        assert components == 2 * self.dataset.size
        again = oracle.request_derivatives(x, 1e-12, upto=2)
        assert oracle.counters.deriv_evals == {1: 1, 2: 1}
        assert first.achieved_acc == again.achieved_acc == {1: 0.0, 2: 0.0}
        np.testing.assert_array_equal(again.grad, first.grad)
        np.testing.assert_array_equal(again.hess, first.hess)
        v = oracle.request_function(x, 1e-9)
        assert oracle.request_function(x, 1e-12) == v
        assert oracle.counters.fun_evals == 1
        assert oracle.counters.component_evals == components + self.dataset.size

    def test_iteration_extras_report_sample_sizes(self):
        # huge accuracy demands clamp every request to the full population
        oracle = SubsampledOracle(self.dataset, t=0.05, seed=9)
        for k in range(2):
            oracle.request_derivatives(np.full(6, float(k)), 1e-9, upto=1)
            extras = oracle.end_iteration()
        assert extras == {"sample_sizes": {1: self.dataset.size}}
        assert oracle.end_iteration() == {"sample_sizes": {}}  # each call starts a new iteration

    def test_iteration_extras_report_the_smallest_draw(self):
        # a sampled draw, then a full one at the same point: the iteration
        # reports the first, smaller size, not the last
        oracle = SubsampledOracle(self.dataset, t=0.05, seed=9)
        x = np.full(6, 0.1)
        kappa = self.dataset.kappa_bounds[1]
        m = sample_size(kappa, kappa, 0.05, 7, self.dataset.size)
        assert m < self.dataset.size
        oracle.request_derivatives(x, kappa, upto=1)
        oracle.request_derivatives(x, 1e-9, upto=1)
        assert oracle.counters.deriv_evals == {1: 2}
        assert oracle.end_iteration() == {"sample_sizes": {1: m}}

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
            "subsampled": SubsampledOracle(ds, t=0.05, seed=1),
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
                oracle.request_derivatives(self.X, 1e-9, upto=2)
            assert oracle.counters.deriv_evals == {1: count}

    def test_infinite_hessian_rejected(self):
        prob = make_quadratic(np.array([1.0, 2.0]))
        oracle = ExactOracle(replace(prob, hess=lambda x: np.diag([np.inf, 1.0])))
        x = np.ones(2)
        with pytest.raises(NonFiniteEvaluationError):
            oracle.request_derivatives(x, 1.0, upto=2)
        # the finite gradient stays cached; the Hessian is recomputed
        with pytest.raises(NonFiniteEvaluationError):
            oracle.request_derivatives(x, 1.0, upto=2)
        assert oracle.counters.deriv_evals == {1: 1, 2: 2}


class TestInvalidRequest:
    """A requested accuracy that is not a finite positive number raises
    ``ValueError`` before the cache is read: nothing is counted or cached,
    and a cached result at the same point does not serve it."""

    X = np.array([0.5, 0.5])

    @staticmethod
    def request(oracle, method, eps):
        if method == "function":
            return oracle.request_function(TestInvalidRequest.X, eps)
        return oracle.request_derivatives(TestInvalidRequest.X, eps, upto=2)

    @staticmethod
    def counts(oracle):
        c = oracle.counters
        return c.fun_evals, dict(c.deriv_evals), c.component_evals

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0, float("inf")])
    @pytest.mark.parametrize("method", ["function", "derivatives"])
    @pytest.mark.parametrize("kind", ["exact", "noisy", "subsampled"])
    def test_rejected_before_the_cache(self, kind, method, eps):
        oracle = TestNonFiniteResults._oracles()[kind]
        with pytest.raises(ValueError, match="not a finite positive number"):
            self.request(oracle, method, eps)
        assert self.counts(oracle) == (0, {}, 0)
        assert not oracle._cache
        self.request(oracle, method, 0.1)
        cached = self.counts(oracle)
        with pytest.raises(ValueError, match="not a finite positive number"):
            self.request(oracle, method, eps)
        assert self.counts(oracle) == cached


class TestInvalidPromise:
    """A promise that is negative, NaN or infinite raises where it is made,
    names its order, and is never cached."""

    @staticmethod
    def oracle(promise, bad_order):
        class BadPromise(ExactOracle):
            def _compute(self, x, j, eps):
                result, ok = super()._compute(x, j, eps)
                return result, promise if j == bad_order else ok

        return BadPromise(make_rosenbrock())

    @pytest.mark.parametrize("promise", [float("nan"), float("inf"), -1e-3])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_rejected_when_computed(self, promise, order):
        oracle = self.oracle(promise, order)
        x = np.array([0.5, 0.5])
        for count in (1, 2):
            with pytest.raises(oracles.InvalidPromiseError, match=f"order-{order} promise"):
                if order == 0:
                    oracle.request_function(x, 0.1)
                else:
                    oracle.request_derivatives(x, 0.1, upto=2)
            done = oracle.counters.fun_evals if order == 0 else oracle.counters.deriv_evals[order]
            assert done == count


class ReferenceCache:
    """The cache rule in its plainest form: one LRU of four points for values
    and derivatives alike, and order j at a point recomputed, and counted,
    iff its cached promise is looser than the request."""

    def __init__(self, compute):
        self.compute, self.points, self.counts = compute, OrderedDict(), [0, 0, 0]

    def serve(self, x, j, eps):
        entries = self.points.pop(x.tobytes(), {})
        self.points[x.tobytes()] = entries
        if len(self.points) > 4:
            self.points.popitem(last=False)
        if j not in entries or entries[j][1] > eps:
            self.counts[j] += 1
            entries[j] = self.compute(x, j, eps)  # a rejected result raises and is not stored
        return entries[j]


def poisonable(base):
    """``base`` whose computed results are rejected while ``poison`` is set:
    "nan" makes the result NaN, "promise" makes the promise negative."""

    class Poisonable(base):
        poison = None

        def _compute(self, x, j, eps):
            result, promise = super()._compute(x, j, eps)
            if self.poison == "nan":
                return result * np.nan, promise
            return result, -1.0 if self.poison == "promise" else promise

    return Poisonable


REQUESTS = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2]),  # 0: request_function, else request_derivatives with this upto
        st.integers(0, 5),  # the point
        st.sampled_from([1.0, 0.3, 0.1, 1e-9]),  # the requested accuracy
        st.sampled_from([None, None, None, None, None, None, "nan", "promise"]),
    ),
    min_size=1,
    max_size=40,
)


class TestOneCacheRule:
    """Interleaved value and derivative requests at up to six points, each
    answered exactly as ``ReferenceCache`` answers it.  The reference
    computes with a twin oracle's own hook, so a served result equal in
    bits to the reference's was computed at the same accuracy, with the
    same promise; for a value, that is how its promise shows."""

    DATASET = make_synthetic_dataset(60, 2, seed=8)
    REJECTED = {"nan": NonFiniteEvaluationError, "promise": oracles.InvalidPromiseError}

    @classmethod
    def make(cls, kind):
        if kind == "exact":
            return poisonable(ExactOracle)(make_rosenbrock())
        if kind == "noisy":
            return poisonable(NoisyOracle)(make_rosenbrock(), 0.9, seed=6)
        return poisonable(SubsampledOracle)(cls.DATASET, t=0.05, seed=6)

    @pytest.mark.parametrize("kind", ["exact", "noisy", "subsampled"])
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(n_points=st.integers(1, 6), requests=REQUESTS)
    # values at four other points evict the derivatives at point 0
    @example(n_points=5, requests=[(1, 0, 0.3, None), *((0, i, 0.3, None) for i in range(1, 5)), (1, 0, 0.3, None)])
    def test_matches_the_reference(self, kind, n_points, requests):
        oracle, twin = self.make(kind), self.make(kind)
        poison = None

        def compute(x, j, eps):
            result, promise = twin._compute(x, j, eps)
            if poison is not None:
                raise self.REJECTED[poison]
            return result, promise

        ref = ReferenceCache(compute)
        for upto, i, eps, poison in requests:
            x = np.array([0.4 * (i % n_points) - 1.0, 0.25 * (i % n_points)])
            rejected = None
            try:
                expected = [ref.serve(x, j, eps) for j in ((0,) if upto == 0 else range(1, upto + 1))]
            except tuple(self.REJECTED.values()) as exc:
                rejected = type(exc)
            oracle.poison = poison
            with pytest.raises(rejected) if rejected else contextlib.nullcontext():
                served = oracle.request_function(x, eps) if upto == 0 else oracle.request_derivatives(x, eps, upto)
            c = oracle.counters
            assert [c.fun_evals, c.deriv_evals.get(1, 0), c.deriv_evals.get(2, 0)] == ref.counts
            assert c.component_evals == twin.counters.component_evals
            if rejected:
                continue
            if upto == 0:
                assert served == expected[0][0]
            else:
                assert served.achieved_acc == {j: promise for j, (_, promise) in enumerate(expected, 1)}
                np.testing.assert_array_equal(served.grad, expected[0][0])
                if upto == 2:
                    np.testing.assert_array_equal(served.hess, 0.5 * (expected[1][0] + expected[1][0].T))


class TestPsiBounds:
    def test_uniform_norm_rows(self):
        feats = np.zeros((4, 2))
        feats[:, 0] = 5.0
        ds = _make_dataset(feats, np.zeros(4))
        assert ds.kappa_bounds == (1.0, 2.0, 5.0)

    def test_zero_feature_row(self):
        ds = _make_dataset(np.zeros((1, 3)), np.ones(1))
        assert ds.kappa_bounds == (1.0, 0.0, 0.0)

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
        # coefficients; kappa_bounds uses 2/5 and 1/5 as their maxima over v
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
