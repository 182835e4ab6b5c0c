import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynreg import (
    DerivativeBundle,
    Orders,
    chi,
    holder_factorial,
    make_quadratic,
    make_quartic,
    model_accuracy,
    model_taylor_derivs,
    taylor_increment,
)


def bundle(grad=None, hess=None, n=None):
    if n is None:
        n = len(grad)
    return DerivativeBundle(
        origin=np.zeros(n),
        grad=None if grad is None else np.asarray(grad, float),
        hess=None if hess is None else np.asarray(hess, float),
    )


@pytest.mark.parametrize("tag", [-1e-3, float("nan"), float("inf")])
def test_bundle_rejects_invalid_accuracy_tags(tag):
    with pytest.raises(ValueError, match="order 2"):
        DerivativeBundle(origin=np.zeros(1), grad=np.zeros(1), achieved_acc={1: 0.1, 2: tag})


class TestScalars:
    def test_holder_factorial(self):
        assert holder_factorial(0, 0.5) == 1.0
        assert holder_factorial(2, 1.0) == 6.0
        assert holder_factorial(2, 0.5) == 3.75

    def test_holder_factorial_rejects_bad_args(self):
        with pytest.raises(ValueError):
            holder_factorial(-1, 1.0)
        with pytest.raises(ValueError):
            holder_factorial(2, 0.0)

    def test_chi(self):
        assert chi(1, 0.7) == pytest.approx(0.7, abs=0)
        assert chi(2, 1.0) == pytest.approx(1.5, abs=0)
        assert chi(2, 0.5) == pytest.approx(0.625, abs=0)


class TestOrders:
    def test_valid(self):
        o = Orders(p=2, q=1)
        assert o.gap == 2.0
        assert o.eps_power == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 3, "q": 1},
            {"p": 1, "q": 2},
            {"p": 2, "q": 2, "beta": 0.5},
            {"p": 1, "q": 1, "beta": 0.0},
            {"p": 1, "q": 1, "beta": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Orders(**kwargs)


class TestTaylorIncrement:
    def test_null_step(self):
        assert taylor_increment(bundle(grad=[1.0, 0.0]), np.zeros(2), 1) == 0.0

    def test_order_two_example(self):
        b = bundle(grad=[1.0, 0.0], hess=np.eye(2))
        assert taylor_increment(b, np.array([-1.0, 0.0]), 2) == pytest.approx(0.5, abs=0)

    def test_matches_polynomial_evaluation(self):
        # independent oracle: evaluate T(s) as a polynomial and subtract
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 6)
            g = rng.standard_normal(n)
            h = rng.standard_normal((n, n))
            h = 0.5 * (h + h.T)
            s = rng.standard_normal(n)
            b = bundle(grad=g, hess=h)
            t_s = float(g @ s) + 0.5 * float(s @ (h @ s))
            inc = taylor_increment(b, s, 2)
            assert abs(inc - (0.0 - t_s)) <= 1e-12 * max(1.0, abs(t_s))

    def test_linear_in_tensors(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal(3)
        g1, g2 = rng.standard_normal(3), rng.standard_normal(3)
        h1, h2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        h1, h2 = 0.5 * (h1 + h1.T), 0.5 * (h2 + h2.T)
        a, c = 0.3, -1.7
        lhs = taylor_increment(bundle(grad=a * g1 + c * g2, hess=a * h1 + c * h2), s, 2)
        rhs = a * taylor_increment(bundle(grad=g1, hess=h1), s, 2) + c * taylor_increment(
            bundle(grad=g2, hess=h2), s, 2
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            taylor_increment(bundle(grad=[1.0, 0.0]), np.zeros(3), 1)


class TestModelTaylorDerivs:
    def test_null_step_is_identity(self):
        g = np.array([1.0, -2.0])
        h = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = bundle(grad=g, hess=h)
        out = model_taylor_derivs(b, np.zeros(2), sigma=6.0)
        np.testing.assert_array_equal(out.grad, g)
        np.testing.assert_array_equal(out.hess, h)

    def test_scalar_example(self):
        # d/ds (s^3) = 3 s^2 and d^2/ds^2 (s^3) = 6 s at s = 2, times sigma/6
        b = bundle(grad=[0.0], hess=[[0.0]])
        out = model_taylor_derivs(b, np.array([2.0]), sigma=6.0)
        assert out.grad[0] == pytest.approx(12.0, abs=0)
        assert out.hess[0, 0] == pytest.approx(12.0, abs=0)

    def test_accuracy_tags_tripled(self):
        # three times the largest tag: the model gradient g + H s carries the
        # Hessian's error too, up to 0.25 + 0.5 * sqrt(2) here; the model
        # bundle itself is untagged, and model_accuracy bounds its errors
        b = DerivativeBundle(
            origin=np.zeros(2),
            grad=np.zeros(2),
            hess=np.zeros((2, 2)),
            achieved_acc={1: 0.25, 2: 0.5},
        )
        s = np.ones(2)
        assert model_taylor_derivs(b, s, sigma=1.0).achieved_acc == {}
        assert model_accuracy(b.achieved_acc, math.sqrt(float(s.dot(s)))) == {1: 1.5, 2: 1.5}

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            g = rng.standard_normal(n)
            h = rng.standard_normal((n, n))
            h = 0.5 * (h + h.T)
            b = bundle(grad=g, hess=h)
            f0 = float(rng.standard_normal())
            s = rng.standard_normal(n)
            s *= rng.uniform(0.3, 2.0) / np.linalg.norm(s)
            sigma = float(rng.uniform(0.1, 10.0))
            out = model_taylor_derivs(b, s, sigma)

            def m(z):
                # the regularized model f0 + g.z + z.H.z/2 + sigma/6 ||z||^3
                return f0 - taylor_increment(b, z, 2) + sigma / 6.0 * math.sqrt(float(z @ z)) ** 3

            hcur = 1e-5
            grad_fd = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = hcur
                grad_fd[i] = (m(s + e) - m(s - e)) / (2 * hcur)
            np.testing.assert_allclose(out.grad, grad_fd, atol=1e-6)

            hcur = 1e-4
            hess_fd = np.zeros((n, n))
            for i in range(n):
                ei = np.zeros(n)
                ei[i] = hcur
                for j in range(n):
                    ej = np.zeros(n)
                    ej[j] = hcur
                    hess_fd[i, j] = (
                        m(s + ei + ej) - m(s + ei - ej) - m(s - ei + ej) + m(s - ei - ej)
                    ) / (4 * hcur * hcur)
            np.testing.assert_allclose(out.hess, hess_fd, atol=1e-6)


class TestModelAccuracy:
    def test_equal_tags_tripled(self):
        assert model_accuracy({1: 0.25, 2: 0.25}, 1.0) == {1: 0.75, 2: 0.75}
        assert model_accuracy({1: 0.25}, 1.0) == {1: 0.75}

    def test_exact_gradient_inexact_hessian(self):
        # a zero gradient promise must not give the model gradient a zero tag
        assert model_accuracy({1: 0.0, 2: 1e-3}, 0.5) == {1: 3e-3, 2: 3e-3}

    def test_long_step_gradient_tag(self):
        assert model_accuracy({1: 0.0, 2: 1.0}, 5.0) == {1: 5.0, 2: 3.0}

    def test_untagged_orders_stay_untagged(self):
        assert model_accuracy({}, 1.0) == {}
        assert model_accuracy({2: 0.5}, 1.0) == {2: 1.5}

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        z1=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]),
        z2=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]),
        step_norm=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        aligned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tags_bound_the_model_errors(self, z1, z2, step_norm, aligned, seed):
        # perturb g and H by errors of norm z1 and z2: the model derivatives
        # at s move by at most the tags; errors aligned with s reach
        # z1 + z2 ||s|| in the model gradient
        rng = np.random.default_rng(seed)
        n = 3
        g = rng.standard_normal(n)
        h = rng.standard_normal((n, n))
        s = rng.standard_normal(n)
        s *= step_norm / np.linalg.norm(s)
        u = rng.standard_normal(n)
        if aligned and step_norm > 0.0:
            u = s.copy()
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n)
        e = z1 * (u if aligned else v / np.linalg.norm(v))
        E = z2 * np.outer(u, u)
        exact = bundle(grad=g, hess=h)
        inexact = DerivativeBundle(
            origin=np.zeros(n), grad=g + e, hess=h + E, achieved_acc={1: z1, 2: z2}
        )
        a = model_taylor_derivs(exact, s, 1.0)
        b = model_taylor_derivs(inexact, s, 1.0)
        tags = model_accuracy(inexact.achieved_acc, math.sqrt(float(s.dot(s))))
        slack = 1e-12 * (1.0 + np.linalg.norm(a.grad) + np.linalg.norm(a.hess, 2))
        assert np.linalg.norm(b.grad - a.grad) <= tags[1] + slack
        assert np.linalg.norm(b.hess - a.hess, 2) <= tags[2] + slack


class TestTaylorBound:
    """|f(x+s) - T_p(x, s)| <= L/(p+beta)! ||s||^(p+beta) on problems with
    known constants."""

    def test_quadratic_degree_one(self):
        prob = make_quadratic(np.array([1.0, 2.0]))
        L = prob.lipschitz[1]
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            s = rng.uniform(-2, 2, 2)
            t1 = prob.value(x) + float(prob.grad(x) @ s)
            bound = L / holder_factorial(1, 1.0) * np.linalg.norm(s) ** 2
            assert abs(prob.value(x + s) - t1) <= bound + 1e-12

    def test_quadratic_degree_two_is_exact(self):
        prob = make_quadratic(np.array([1.0, 2.0]))
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            s = rng.uniform(-2, 2, 2)
            t2 = prob.value(x) + float(prob.grad(x) @ s) + 0.5 * float(s @ (prob.hess(x) @ s))
            assert abs(prob.value(x + s) - t2) <= 1e-12

    def test_quartic_degree_two_inside_box(self):
        prob = make_quartic(2, box_radius=3.0)
        L = prob.lipschitz[2]
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.uniform(-1.4, 1.4, 2)
            s = rng.uniform(-1.4, 1.4, 2)
            t2 = prob.value(x) + float(prob.grad(x) @ s) + 0.5 * float(s @ (prob.hess(x) @ s))
            bound = L / holder_factorial(2, 1.0) * np.linalg.norm(s) ** 3
            assert abs(prob.value(x + s) - t2) <= bound + 1e-12
