import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynreg import (
    AlgoParams,
    DerivativeBundle,
    ExactOracle,
    Orders,
    RunAborted,
    SubsolverError,
    cauchy_decrease,
    chi,
    cubic_min,
    make_quadratic,
    model_descent_step,
    model_taylor_derivs,
    optimality_measure,
    run,
    trust_region_min,
)
from dynreg import subsolvers


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def tr_grid_min(g, H, delta, points=400):
    """Brute-force oracle: quadratic over an inscribed grid of the disk."""
    lin = np.linspace(-delta, delta, points)
    X, Y = np.meshgrid(lin, lin, indexing="ij")
    P = np.stack([X.ravel(), Y.ravel()], axis=1)
    mask = np.sum(P * P, axis=1) <= delta * delta
    P = P[mask]
    vals = P @ g + 0.5 * np.einsum("ij,jk,ik->i", P, H, P)
    return float(np.min(vals))


def cubic_grid_min(g, H, sigma, radius, points=400):
    lin = np.linspace(-radius, radius, points)
    X, Y = np.meshgrid(lin, lin, indexing="ij")
    P = np.stack([X.ravel(), Y.ravel()], axis=1)
    norms = np.sqrt(np.sum(P * P, axis=1))
    vals = P @ g + 0.5 * np.einsum("ij,jk,ik->i", P, H, P) + sigma / 6.0 * norms**3
    return float(np.min(vals))


class TestTrustRegion:
    def test_interior_newton_point(self):
        sol = trust_region_min(np.array([1.0, 0.0]), np.eye(2), 2.0)
        np.testing.assert_allclose(sol.d, [-1.0, 0.0], atol=1e-12)
        assert sol.value == pytest.approx(-0.5, abs=1e-12)
        assert sol.lam == 0.0
        assert not sol.hard_case

    def test_boundary_solution(self):
        sol = trust_region_min(np.array([1.0, 0.0]), np.eye(2), 0.5)
        np.testing.assert_allclose(sol.d, [-0.5, 0.0], atol=1e-9)
        assert sol.value == pytest.approx(-0.375, abs=1e-9)
        assert sol.lam == pytest.approx(1.0, rel=1e-9)

    def test_hard_case(self):
        sol = trust_region_min(np.zeros(2), np.diag([-2.0, 1.0]), 1.0)
        assert sol.hard_case
        assert sol.value == pytest.approx(-1.0, abs=1e-10)
        assert abs(sol.d[0]) == pytest.approx(1.0, abs=1e-10)
        assert sol.lam == pytest.approx(2.0, abs=1e-10)

    def test_certificates_on_random_instances(self):
        rng = np.random.default_rng(100)
        for i in range(300):
            n = int(rng.integers(2, 11))
            H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            g = rng.standard_normal(n) * float(rng.uniform(0.0, 3.0))
            if i % 5 == 0:
                # engineered hard-case candidates: no gradient in the
                # leftmost eigenspace
                w, Q = np.linalg.eigh(H)
                g = g - Q[:, 0] * float(Q[:, 0] @ g)
            delta = float(rng.uniform(0.1, 2.0))
            sol = trust_region_min(g, H, delta)
            nd = np.linalg.norm(sol.d)
            assert nd <= delta + 1e-10
            assert sol.kkt_residual <= 1e-8
            assert sol.lam >= 0.0
            assert sol.lam * (delta - nd) <= 1e-8
            assert np.linalg.eigvalsh(H + sol.lam * np.eye(n))[0] >= -1e-10

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(200)
        for _ in range(25):
            H = random_symmetric(rng, 2, scale=2.0)
            g = rng.standard_normal(2)
            delta = float(rng.uniform(0.2, 1.5))
            sol = trust_region_min(g, H, delta)
            assert sol.value <= tr_grid_min(g, H, delta) + 1e-6

    def test_deterministic(self):
        g = np.array([0.3, -1.2, 0.5])
        H = np.diag([1.0, -0.5, 2.0])
        a = trust_region_min(g, H, 0.7)
        b = trust_region_min(g, H, 0.7)
        np.testing.assert_array_equal(a.d, b.d)
        assert a.lam == b.lam


class TestCubic:
    def test_psd_zero_gradient(self):
        sol = cubic_min(np.zeros(2), np.eye(2), 1.0)
        np.testing.assert_array_equal(sol.d, np.zeros(2))
        assert sol.lam == 0.0

    def test_secular_example(self):
        # ||s||(1 + ||s||) = 3 gives ||s|| = (sqrt(13) - 1)/2
        sol = cubic_min(np.array([-3.0, 0.0]), np.eye(2), 2.0)
        expected = (math.sqrt(13.0) - 1.0) / 2.0
        assert np.linalg.norm(sol.d) == pytest.approx(expected, rel=1e-10)
        np.testing.assert_allclose(sol.d, [expected, 0.0], atol=1e-9)

    def test_hard_case(self):
        sol = cubic_min(np.zeros(2), np.diag([-1.0, 1.0]), 2.0)
        assert sol.hard_case
        assert np.linalg.norm(sol.d) == pytest.approx(1.0, abs=1e-12)
        assert sol.value == pytest.approx(-1.0 / 6.0, rel=1e-12)

    def test_certificates_on_random_instances(self):
        rng = np.random.default_rng(300)
        for i in range(300):
            n = int(rng.integers(2, 11))
            H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            g = rng.standard_normal(n) * float(rng.uniform(0.0, 3.0))
            if i % 5 == 0:
                w, Q = np.linalg.eigh(H)
                g = g - Q[:, 0] * float(Q[:, 0] @ g)
            sigma = float(rng.uniform(0.1, 10.0))
            sol = cubic_min(g, H, sigma)
            ns = np.linalg.norm(sol.d)
            assert sol.kkt_residual <= 1e-8
            assert abs(sol.lam - 0.5 * sigma * ns) <= 1e-8 * max(1.0, sol.lam)
            assert np.linalg.eigvalsh(H + sol.lam * np.eye(n))[0] >= -1e-10

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(400)
        for _ in range(25):
            H = random_symmetric(rng, 2, scale=2.0)
            g = rng.standard_normal(2)
            sigma = float(rng.uniform(0.5, 5.0))
            sol = cubic_min(g, H, sigma)
            radius = max(1.0, 2.0 * np.linalg.norm(sol.d))
            assert sol.value <= cubic_grid_min(g, H, sigma, radius) + 1e-6


@st.composite
def adversarial_models(draw, max_n=8):
    """(g, H, scale) with a repeated or clustered leftmost eigenvalue.

    The gradient is generic, exactly orthogonal to the leftmost eigenspace
    (up to rounding) or orthogonal but for a 1e-10 relative component; the
    spectrum and the gradient share one scale between 1e-8 and 1e8; n runs
    from 2 to ``max_n``.
    """
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    scale = 10.0 ** draw(st.integers(-8, 8))
    cluster = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]))
    left = draw(st.floats(-1.0, 1.0))
    leftmost = draw(st.sampled_from([0.0, 1e-10, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.concatenate([left + cluster * rng.uniform(0.0, 1.0, k), left + rng.uniform(0.1, 2.0, n - k)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gh = rng.standard_normal(n)
    gh[:k] *= leftmost
    return scale * (Q @ gh), scale * ((Q * w) @ Q.T), scale


def assert_model_certificates(g, H, sol):
    """KKT residual and H + lam I >= 0, relative to the scale of the data."""
    n = g.size
    size = np.linalg.norm(H, 2) + sol.lam
    kkt_tol = 1e-8 * (size * np.linalg.norm(sol.d) + np.linalg.norm(g))
    assert np.linalg.norm(H @ sol.d + sol.lam * sol.d + g) <= kkt_tol
    assert sol.kkt_residual <= kkt_tol
    assert sol.lam >= 0.0
    assert np.linalg.eigvalsh(H + sol.lam * np.eye(n))[0] >= -1e-10 * size


PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)
LOG_UNIFORM = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


class TestAdversarialSpectra:
    @PROPERTY
    @given(model=adversarial_models(), delta=LOG_UNIFORM)
    def test_trust_region_certificates(self, model, delta):
        g, H, _ = model
        sol = trust_region_min(g, H, delta)
        assert_model_certificates(g, H, sol)
        nd = np.linalg.norm(sol.d)
        assert nd <= delta * (1.0 + 1e-10)
        assert sol.lam * abs(delta - nd) <= 1e-8 * sol.lam * delta

    @PROPERTY
    @given(model=adversarial_models(), sigma=LOG_UNIFORM)
    def test_cubic_certificates(self, model, sigma):
        g, H, scale = model
        # sigma carries the scale of H, so the step keeps the scale of g/H
        sigma *= scale
        sol = cubic_min(g, H, sigma)
        assert_model_certificates(g, H, sol)
        assert abs(sol.lam - 0.5 * sigma * np.linalg.norm(sol.d)) <= 1e-8 * sol.lam


class TestCauchyDecrease:
    """The decrease at the Cauchy point bounds the q = 2 measure from below;
    with no curvature along g it is the q = 1 measure."""

    @staticmethod
    def bundle(g, H):
        return DerivativeBundle(origin=np.zeros(g.size), grad=g, hess=H, achieved_acc={1: 0.0, 2: 0.0})

    @PROPERTY
    @given(model=adversarial_models(), delta=st.floats(1e-2, 1.0))
    def test_bounds_the_second_order_measure(self, model, delta):
        g, H, _ = model
        b = self.bundle(g, H)
        bound = cauchy_decrease(b, delta)
        assert bound >= 0.0
        # the solved value is the model's to 1e-9 of the data's size at the
        # radius (TestOnDemandDiagnostics), so it may read that much low
        size = float(np.linalg.norm(g)) * delta + float(np.linalg.norm(H, 2)) * delta**2
        assert bound <= optimality_measure(b, delta, 2).phi + 1e-9 * size

    @PROPERTY
    @given(model=adversarial_models(), delta=st.floats(1e-2, 1.0))
    def test_equals_the_first_order_measure_without_curvature(self, model, delta):
        g, _, _ = model
        b = self.bundle(g, np.zeros((g.size, g.size)))
        assert cauchy_decrease(b, delta) == optimality_measure(b, delta, 1).phi

    @pytest.mark.parametrize(
        "H, delta, expected",
        [
            (np.diag([4.0, 1.0]), 1.0, 0.125),  # interior: ||g||^2 / (2 kappa)
            (np.diag([0.5, 1.0]), 1.0, 0.75),  # boundary: delta ||g|| - delta^2 kappa / 2
            (np.diag([-1.0, 1.0]), 0.5, 0.625),  # negative curvature: the boundary
        ],
    )
    def test_hand_values(self, H, delta, expected):
        assert cauchy_decrease(self.bundle(np.array([1.0, 0.0]), H), delta) == expected

    def test_zero_gradient(self):
        assert cauchy_decrease(self.bundle(np.zeros(2), -np.eye(2)), 1.0) == 0.0


class TestOnDemandDiagnostics:
    """``value`` and ``kkt_residual`` are computed when read, from the
    eigenbasis data the solve keeps; the spectral setup takes a mask-free
    path when no eigenvalue is critical.  Each equals the formula it
    replaced, bit for bit."""

    @staticmethod
    def eager(sol, sigma):
        """The value and KKT residual as the solvers used to compute them."""
        value = float(sol.gh @ sol.dh) + 0.5 * float((sol.w * sol.dh * sol.dh).sum())
        if sigma is not None:
            value += sigma / 6.0 * math.sqrt(float(sol.d @ sol.d)) ** 3
        return value, math.sqrt(float(((sol.denom * sol.dh + sol.gh) ** 2).sum()))

    @PROPERTY
    @given(model=adversarial_models(), radius=LOG_UNIFORM)
    def test_value_and_kkt_equal_the_eager_formulas(self, model, radius):
        g, H, scale = model
        for sol, sigma in ((trust_region_min(g, H, radius), None), (cubic_min(g, H, radius * scale), radius * scale)):
            assert (sol.value, sol.kkt_residual) == self.eager(sol, sigma)
            # and the value is the model's, evaluated in the original basis
            nd = float(np.linalg.norm(sol.d))
            reg = 0.0 if sigma is None else sigma / 6.0 * nd**3
            direct = float(g @ sol.d + 0.5 * sol.d @ H @ sol.d) + reg
            size = float(np.linalg.norm(g)) * nd + float(np.linalg.norm(H, 2)) * nd**2 + reg
            assert abs(sol.value - direct) <= 1e-9 * size

    @PROPERTY
    @given(model=adversarial_models())
    def test_spectrum_equals_the_masked_setup(self, model):
        g, H, _ = model
        sp = subsolvers._spectrum(g, H)
        critical = sp.shifted <= 1e-12 * max(abs(float(sp.w[0])), abs(float(sp.w[-1])))
        dh = np.zeros_like(sp.gh)
        dh[~critical] = sp.neg_gh[~critical] / sp.shifted[~critical]
        assert sp.dh.tobytes() == dh.tobytes()
        assert sp.leftmost_free == bool(np.abs(sp.gh[critical]).max(initial=0.0) <= 1e-12 * sp.gn)


def array_secular(g, H, a, b):
    """(lam, hard_case) of the secular solve as it ran on numpy arrays,
    with one array per Newton step, on the spectral setup of (g, H)."""
    sp = subsolvers._spectrum(g, H)
    a0 = a + b * sp.lam_low
    if sp.leftmost_free and sp.nd <= a0:
        return sp.lam_low, sp.lam_low > 0.0
    lo, hi = 0.0, 2.0 * sp.gn / (a0 + math.sqrt(a0 * a0 + 4.0 * b * sp.gn))
    tau = 0.5 * hi
    for _ in range(subsolvers.SECULAR_MAX_ITER):
        denom = sp.shifted + tau
        dh = sp.neg_gh / denom
        n2 = float(dh.dot(dh))
        n = math.sqrt(n2)
        target = a0 + b * tau
        if abs(n - target) <= subsolvers.SECULAR_RTOL * target or (hi - lo) <= 1e-15 * tau:
            return sp.lam_low + tau, False
        if n > target:
            lo = tau
        else:
            hi = tau
        dpsi = b / n + target * float(np.add.reduce(dh * dh / denom)) / (n2 * n)
        cand = tau - (target / n - 1.0) / dpsi
        tau = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise AssertionError("the array iteration exceeded its cap")


class TestFloatSecularLoop:
    """The Newton iteration on floats sums in another order than numpy, and
    nothing else: its multiplier agrees with the array loop's to rounding."""

    @PROPERTY
    @given(model=adversarial_models(max_n=24), radius=LOG_UNIFORM)
    def test_multiplier_matches_the_array_loop(self, model, radius):
        g, H, scale = model
        size = float(np.linalg.norm(H, 2))
        sigma = radius * scale
        for sol, a, b in ((trust_region_min(g, H, radius), radius, 0.0), (cubic_min(g, H, sigma), 0.0, 2.0 / sigma)):
            lam, hard_case = array_secular(g, H, a, b)
            assert sol.hard_case == hard_case
            assert abs(sol.lam - lam) <= 1e-11 * max(lam, size)


@st.composite
def psd_models(draw):
    """(g, H) with H positive semidefinite: k zero eigenvalues, a gradient
    that is generic, orthogonal to their eigenspace or 1e-6 off it, and a
    gradient scale between 1e-3 and 1e3."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    leftmost = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.concatenate([np.zeros(k), rng.uniform(0.01, 2.0, n - k)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gh = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
    gh[:k] *= leftmost
    return Q @ gh, (Q * w) @ Q.T


RADII = [0.5**i for i in range(21)]


class TestOneRadius:
    """At the exact model minimizer no radius below one passes the model-measure test if one does not."""

    SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

    @SETTINGS
    @given(model=adversarial_models(), sigma=LOG_UNIFORM)
    def test_model_hessian_psd_at_cubic_step(self, model, sigma):
        g, H, scale = model
        sigma *= scale
        sol = cubic_min(g, H, sigma)
        bundle = DerivativeBundle(origin=np.zeros(g.size), grad=g, hess=H)
        MH = model_taylor_derivs(bundle, sol.d, sigma).hess
        assert np.linalg.eigvalsh(MH)[0] >= -1e-12 * np.linalg.norm(MH, 2)

    @SETTINGS
    @given(model=psd_models())
    def test_measure_over_chi_never_grows_with_radius(self, model):
        g, H = model
        bundle = DerivativeBundle(origin=np.zeros(g.size), grad=g, hess=H)
        ratios = [optimality_measure(bundle, delta, 2).phi / chi(2, delta) for delta in RADII]
        # RADII shrink, so the ratio may only grow along the list
        for bigger, smaller in zip(ratios, ratios[1:]):
            assert bigger <= smaller * (1.0 + 1e-9) + 1e-300
        first = [optimality_measure(bundle, delta, 1).phi / chi(1, delta) for delta in RADII]
        assert first == [first[0]] * len(RADII)


@st.composite
def unit_models(draw):
    """(g, H, k) at unit scale, H nonsingular, whose leftmost k eigenvalues
    are equal or 1e-6 apart; the gradient is generic, orthogonal to their
    eigenspace (hard-case candidates) or 1e-6 off it."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    cluster = draw(st.sampled_from([0.0, 1e-6]))
    # |left| >= 0.01: a singular H with an orthogonal gradient has a whole
    # segment of minimizers, and rounding may pick any of them
    left = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 1.0))
    leftmost = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.concatenate([left + cluster * rng.uniform(0.0, 1.0, k), left + rng.uniform(0.1, 2.0, n - k)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gh = rng.standard_normal(n)
    gh[:k] *= leftmost
    return Q @ gh, (Q * w) @ Q.T, k


# H = diag(-1, -1 + 1e-5, 1) with a 1e-6 gradient component on the second
# eigenvector: below unit scale, absolute tolerances lumped the two leftmost
# eigenvalues together and dropped that component
NEAR_CRITICAL = (np.array([0.0, 1e-6, 1.0]), np.diag([-1.0, -1.0 + 1e-5, 1.0]), 1)
SCALE_EXPONENT = st.floats(-8.0, 8.0)


class TestScaleInvariance:
    """Solving (c g, c H) returns the d of (g, H) for every scale c."""

    SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

    def assert_same_step(self, scaled, unit, c, H, k):
        assert scaled.hard_case == unit.hard_case
        assert scaled.lam == pytest.approx(c * unit.lam, rel=1e-6, abs=1e-12 * c)
        assert scaled.value == pytest.approx(c * unit.value, rel=1e-6, abs=1e-12 * c)
        tol = 1e-6 * np.linalg.norm(unit.d)
        if unit.hard_case:
            # the leftmost eigenspace component is fixed only in length
            _, Q = np.linalg.eigh(H)
            rest = Q[:, k:] @ Q[:, k:].T
            assert np.linalg.norm(rest @ (scaled.d - unit.d)) <= tol
            assert abs(np.linalg.norm(scaled.d) - np.linalg.norm(unit.d)) <= tol
        else:
            assert np.linalg.norm(scaled.d - unit.d) <= tol

    @SETTINGS
    @given(model=unit_models(), exponent=SCALE_EXPONENT, delta=LOG_UNIFORM)
    @example(model=NEAR_CRITICAL, exponent=-8.0, delta=10.0)
    def test_trust_region(self, model, exponent, delta):
        g, H, k = model
        c = 10.0**exponent
        unit = trust_region_min(g, H, delta)
        self.assert_same_step(trust_region_min(c * g, c * H, delta), unit, c, H, k)

    @SETTINGS
    @given(model=unit_models(), exponent=SCALE_EXPONENT, sigma=LOG_UNIFORM)
    @example(model=NEAR_CRITICAL, exponent=-8.0, sigma=1.0)
    def test_cubic(self, model, exponent, sigma):
        g, H, k = model
        c = 10.0**exponent
        unit = cubic_min(g, H, sigma)
        self.assert_same_step(cubic_min(c * g, c * H, c * sigma), unit, c, H, k)


class TestNonFiniteData:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("solver", [trust_region_min, cubic_min])
    def test_overflowed_gradient_norm_raises(self, solver):
        # ||g||^2 overflows; no value or multiplier may be built on it
        with pytest.raises(SubsolverError):
            solver(np.array([1e305]), np.array([[1e300]]), 1.0)

    @pytest.mark.parametrize("solver", [trust_region_min, cubic_min])
    def test_zero_shift_raises(self, solver):
        # ||g||^2 underflows to zero, so the bracket is [0, 0] and the step
        # at the zero shift divides by zero: no finite step exists to return
        with pytest.raises(SubsolverError):
            solver(np.array([5e-324, 0.0]), np.diag([-10.0, 1.0]), 1.0)

    @pytest.mark.parametrize("solver, radius, step", [(trust_region_min, 0.5, 0.5), (cubic_min, 0.5, 4.0)])
    def test_underflowing_gradient_squares_solve(self, solver, radius, step):
        # ||g||^2 underflows to zero while ||g|| does not; the norm is then
        # taken scaled, so the boundary step exists: ||d|| = delta for the
        # trust region and ||d|| = 2 lambda / sigma for the cubic model
        sol = solver(np.array([1e-170, 1e-170]), np.diag([-1.0, 1.0]), radius)
        assert sol.lam == 1.0
        assert np.linalg.norm(sol.d) == pytest.approx(step, rel=1e-12)
        assert sol.kkt_residual == 0.0

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("solver", [trust_region_min, cubic_min])
    def test_rejects_invalid_radius(self, solver, radius):
        # delta and sigma must be positive and finite; NaN passes "<= 0"
        with pytest.raises(ValueError):
            solver(np.array([1.0, 0.5]), np.diag([1.0, -2.0]), radius)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("solver", [trust_region_min, cubic_min])
    def test_non_finite_hessian_raises_at_once(self, solver, bad):
        # no secular iteration runs on a non-finite spectrum, and no setup is kept
        subsolvers._last_spectrum = None
        with pytest.raises(SubsolverError, match="Hessian spectrum is not finite"):
            solver(np.array([1.0, 0.5]), np.array([[bad, 0.0], [0.0, 1.0]]), 1.0)
        assert subsolvers._last_spectrum is None


# (solver, radius, second radius); both radii keep HARD_CASE in the hard case
MEMO_SOLVERS = [(trust_region_min, 1.0, 0.25), (cubic_min, 2.0, 7.0)]
HARD_CASE = (np.array([0.0, 0.1, 0.2]), np.diag([-2.0, 3.0, 5.0]))


class TestSpectralMemo:
    """Solves on a repeated (g, H) reuse one spectral setup and give the cold answer."""

    @staticmethod
    def cold(solver, g, H, radius):
        subsolvers._last_spectrum = None
        return solver(g.copy(), H.copy(), radius)

    @staticmethod
    def assert_same(warm, cold):
        np.testing.assert_array_equal(warm.d, cold.d)
        for field in ("lam", "value", "kkt_residual", "iterations", "hard_case"):
            assert getattr(warm, field) == getattr(cold, field), field

    @pytest.mark.parametrize("solver, radius, _", MEMO_SOLVERS)
    def test_warm_call_equals_cold(self, eigh_calls, solver, radius, _):
        rng = np.random.default_rng(800)
        g, H = rng.standard_normal(6), random_symmetric(rng, 6)
        cold = self.cold(solver, g, H, radius)
        warm = solver(g, H, radius)
        assert len(eigh_calls) == 1
        self.assert_same(warm, cold)
        # the caller owns the returned step
        warm.d[:] = 0.0
        self.assert_same(solver(g, H, radius), cold)
        assert len(eigh_calls) == 1

    @pytest.mark.parametrize("solver, radius, other", MEMO_SOLVERS)
    def test_hard_case_twice_then_another_radius(self, eigh_calls, solver, radius, other):
        g, H = HARD_CASE
        cold = self.cold(solver, g, H, radius)
        assert cold.hard_case
        self.assert_same(solver(g, H, radius), cold)
        other_cold = self.cold(solver, g, H, other)
        solver(g, H, radius)
        before = len(eigh_calls)
        # the completion of the first solve left the shared setup intact
        other_warm = solver(g, H, other)
        assert len(eigh_calls) == before
        assert other_warm.hard_case
        self.assert_same(other_warm, other_cold)
        self.assert_same(solver(g, H, radius), cold)

    @pytest.mark.parametrize("solver, radius, _", MEMO_SOLVERS)
    def test_in_place_mutation_is_never_stale(self, eigh_calls, solver, radius, _):
        rng = np.random.default_rng(801)
        g, H = rng.standard_normal(4), random_symmetric(rng, 4)
        solver(g, H, radius)
        g[-1] += 1.0
        self.assert_same(solver(g, H, radius), self.cold(solver, g, H, radius))
        H[-1, -2] += 0.5
        H[-2, -1] += 0.5
        self.assert_same(solver(g, H, radius), self.cold(solver, g, H, radius))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("solver, radius, _", MEMO_SOLVERS)
    def test_overflowed_gradient_raises_when_warm(self, eigh_calls, solver, radius, _):
        H = np.array([[1e300]])
        solver(np.array([1.0]), H, radius)
        for _ in range(2):
            with pytest.raises(SubsolverError):
                solver(np.array([1e305]), H, radius)


class TestOptimalityMeasure:
    def test_any_finite_positive_radius(self):
        # the exit audit measures a strong-model exit at the step norm, which may exceed 1
        b = DerivativeBundle(origin=np.zeros(2), grad=np.array([3.0, 4.0]), hess=np.eye(2))
        assert optimality_measure(b, 2.0, q=1).phi == 10.0
        # the Newton step -g has norm 5, inside radius 8: phi = g.g / 2
        assert optimality_measure(b, 8.0, q=2).phi == pytest.approx(12.5, rel=1e-12)
        for delta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                optimality_measure(b, delta, 1)

    def test_first_order(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.array([3.0, 4.0]))
        assert optimality_measure(b, 0.5, q=1).phi == pytest.approx(2.5, abs=0)

    def test_first_order_zero_gradient(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.zeros(2))
        assert optimality_measure(b, 1.0, q=1).phi == 0.0

    def test_second_order_psd(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.zeros(2), hess=np.eye(2))
        assert optimality_measure(b, 1.0, q=2).phi == 0.0

    def test_second_order_indefinite(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.zeros(2), hess=np.diag([-2.0, 1.0]))
        assert optimality_measure(b, 1.0, q=2).phi == pytest.approx(1.0, abs=1e-10)
        assert abs(trust_region_min(b.grad, b.hess, 1.0).d[0]) == pytest.approx(1.0, abs=1e-10)

    def test_second_order_against_grid(self):
        rng = np.random.default_rng(500)
        for _ in range(20):
            H = random_symmetric(rng, 2, scale=2.0)
            g = rng.standard_normal(2)
            b = DerivativeBundle(origin=np.zeros(2), grad=g, hess=H)
            res = optimality_measure(b, 1.0, q=2)
            grid = max(0.0, -tr_grid_min(g, H, 1.0))
            assert res.phi >= grid - 1e-6


class TestModelDescentStep:
    def test_degree_one_closed_form(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.array([2.0, 0.0]))
        step = model_descent_step(b, sigma=4.0, orders=Orders(p=1, q=1), eps=1e-3, mu=1.0, theta=0.5)
        np.testing.assert_allclose(step.s, [-0.5, 0.0], atol=1e-15)
        assert step.increment == pytest.approx(1.0, rel=1e-14)
        assert step.measure_increment is None  # 0.5 is a long step

    def test_degree_one_zero_gradient(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.zeros(2))
        with pytest.raises(SubsolverError, match="no descent step") as err:
            model_descent_step(b, 4.0, Orders(p=1, q=1), 1e-3, 1.0, 0.5)
        assert err.value.diagnostics == {"gradient_norm": 0.0, "step_norm": 0.0, "increment": 0.0}

    def test_degree_one_general_beta_is_global_min(self):
        # stationarity of the regularized model at the returned step
        rng = np.random.default_rng(600)
        for beta in (0.5, 0.8, 1.0):
            orders = Orders(p=1, q=1, beta=beta)
            g = rng.standard_normal(3)
            sigma = float(rng.uniform(0.5, 4.0))
            b = DerivativeBundle(origin=np.zeros(3), grad=g)
            step = model_descent_step(b, sigma, orders, eps=1e-6, mu=1.0, theta=0.5)
            t = np.linalg.norm(step.s)
            residual = g + sigma * t ** (beta - 1.0) * step.s
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(g)
            assert step.increment > sigma / (1.0 + beta) * t ** (1.0 + beta)

    def test_degree_two_long_step(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.array([-3.0, 0.0]), hess=np.eye(2))
        step = model_descent_step(b, 2.0, Orders(p=2, q=1), eps=1e-3, mu=1.0, theta=0.5)
        expected = (math.sqrt(13.0) - 1.0) / 2.0
        assert step.step_norm == pytest.approx(expected, rel=1e-10)
        assert step.measure_increment is None
        # the step carries no model tags: the driver derives them from the
        # step bundle, and only when there is a measure to certify
        assert [f.name for f in dataclasses.fields(step)] == ["s", "step_norm", "increment", "measure_increment"]

    def test_degree_two_short_step_satisfies_measure_test(self):
        # the exact model minimizer has a vanishing model gradient, so the
        # measure-based clause holds at the optimality radius
        b = DerivativeBundle(origin=np.zeros(2), grad=np.array([-3e-4, 0.0]), hess=np.eye(2))
        orders = Orders(p=2, q=1)
        step = model_descent_step(b, 2.0, orders, eps=1e-3, mu=1.0, theta=0.5)
        assert step.step_norm < 1.0 * math.sqrt(1e-3)
        assert step.measure_increment is not None
        assert step.measure_increment <= 1e-8
        bound = 0.5 * step.step_norm**2 / 2.0  # theta ||s||^2 / (1+beta)!
        assert step.measure_increment <= bound * subsolvers.OPTIMALITY_RADIUS + 1e-15  # chi_1(delta) = delta

    def test_failed_model_measure_raises(self, eigh_calls, monkeypatch):
        # the model measure passes at the optimality radius for an exact
        # model minimizer, so only a ball polynomial that fails it there
        # makes the step raise: after one measure solve, on two eigh calls
        measures = []
        measure = subsolvers.optimality_measure

        def spy(*args):
            measures.append(args[1])
            return measure(*args)

        real_chi = subsolvers.chi
        monkeypatch.setattr(subsolvers, "chi", lambda q, delta: -1.0 if delta == 1.0 else real_chi(q, delta))
        monkeypatch.setattr(subsolvers, "optimality_measure", spy)
        b = DerivativeBundle(origin=np.zeros(2), grad=np.array([-3e-4, 1e-4]), hess=np.diag([1.0, 2.0]))
        with pytest.raises(SubsolverError, match="model-measure test"):
            model_descent_step(b, 2.0, Orders(p=2, q=2), eps=1e-2, mu=1.0, theta=0.5)
        assert measures == [1.0]
        assert len(eigh_calls) == 2
        # the driver aborts on the same failure: ||g|| ~ 0.03 fails the
        # q = 1 measure at eps = 1e-2 and gives a step shorter than sqrt(eps)
        oracle = ExactOracle(make_quadratic(np.array([1.0, 2.0])))
        with pytest.raises(RunAborted, match="model-measure test"):
            run(oracle, np.array([-3e-2, 5e-3]), AlgoParams(eps=1e-2), Orders(p=2, q=1))

    def test_degree_two_no_descent_step_at_second_order_point(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.zeros(2), hess=np.eye(2))
        with pytest.raises(SubsolverError, match="no descent step") as err:
            model_descent_step(b, 1.0, Orders(p=2, q=2), 1e-3, 1.0, 0.5)
        assert err.value.diagnostics == {"gradient_norm": 0.0, "step_norm": 0.0, "increment": 0.0}

    def test_degree_two_hard_case_descends(self):
        b = DerivativeBundle(origin=np.zeros(2), grad=np.zeros(2), hess=np.diag([-1.0, 1.0]))
        step = model_descent_step(b, 2.0, Orders(p=2, q=2), 0.5, 1.0, 0.5)
        assert step.increment == pytest.approx(0.5, abs=1e-12)

    def test_decrease_exceeds_regularizer_on_random_instances(self):
        # every step descends, so the increment beats the regularizer term
        from dynreg import holder_factorial

        rng = np.random.default_rng(700)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal(n) * float(rng.uniform(0.1, 3.0))
            h = rng.standard_normal((n, n))
            h = 0.5 * (h + h.T)
            sigma = float(rng.uniform(0.2, 5.0))
            b = DerivativeBundle(origin=np.zeros(n), grad=g, hess=h)
            step = model_descent_step(b, sigma, Orders(p=2, q=1), 1e-4, 1.0, 0.5)
            reg = sigma / holder_factorial(2, 1.0) * step.step_norm**3
            assert step.increment > reg
