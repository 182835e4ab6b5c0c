import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynreg import CertifyFlag, certify_increment, chi, trust_region_min


class TestFlagExamples:
    def test_zero_increment(self):
        flag = certify_increment(1.0, 0.0, [0.1, 0.1], omega=0.1, xi=0.2)
        assert flag is CertifyFlag.ZERO_INCREMENT

    def test_relative_ok(self):
        # sum = 0.01 + 0.005 = 0.015 <= 0.1 * 1
        flag = certify_increment(1.0, 1.0, [0.01, 0.01], omega=0.1, xi=0.001)
        assert flag is CertifyFlag.RELATIVE_OK

    def test_small_increment(self):
        # sum = 0.075 > 1e-4 but 0.075 <= 0.1 * chi_2(1) = 0.15
        flag = certify_increment(1.0, 0.001, [0.05, 0.05], omega=0.1, xi=0.1)
        assert flag is CertifyFlag.SMALL_INCREMENT

    def test_not_certified(self):
        flag = certify_increment(1.0, 0.001, [0.05, 0.05], omega=0.1, xi=0.01)
        assert flag is CertifyFlag.NOT_CERTIFIED

    def test_zero_increment_with_large_zetas_not_certified(self):
        flag = certify_increment(1.0, 0.0, [0.5], omega=0.1, xi=0.2)
        assert flag is CertifyFlag.NOT_CERTIFIED


class TestProperties:
    def test_completeness(self):
        # max zeta <= xi always yields a nonzero flag
        rng = np.random.default_rng(0)
        for _ in range(500):
            r = int(rng.integers(1, 3))
            xi = float(10 ** rng.uniform(-6, 0))
            zetas = [float(xi * rng.uniform(0.0, 1.0)) for _ in range(r)]
            flag = certify_increment(
                delta=float(rng.uniform(0.05, 1.0)),
                increment=float(rng.choice([0.0, 10 ** rng.uniform(-8, 2)])),
                zetas=tuple(zetas),
                omega=float(rng.uniform(0.01, 0.99)),
                xi=xi,
            )
            assert flag is not CertifyFlag.NOT_CERTIFIED

    def test_shrinking_zetas_preserves_certification(self):
        rng = np.random.default_rng(1)
        kept = 0
        for _ in range(500):
            r = int(rng.integers(1, 3))
            inp = {
                "delta": float(rng.uniform(0.05, 1.0)),
                "increment": float(rng.choice([0.0, 10 ** rng.uniform(-6, 1)])),
                "zetas": tuple(float(10 ** rng.uniform(-6, 0)) for _ in range(r)),
                "omega": float(rng.uniform(0.01, 0.99)),
                "xi": float(10 ** rng.uniform(-6, 0)),
            }
            if certify_increment(**inp) is CertifyFlag.NOT_CERTIFIED:
                continue
            kept += 1
            for factor in (0.5, 0.1, 1e-3):
                smaller = {**inp, "zetas": tuple(z * factor for z in inp["zetas"])}
                assert certify_increment(**smaller) is not CertifyFlag.NOT_CERTIFIED
        assert kept > 100

    def test_priority_order(self):
        # an input passing both the relative and the absolute test reports
        # the relative flag
        flag = certify_increment(1.0, 10.0, [0.01], omega=0.5, xi=1.0)
        assert flag is CertifyFlag.RELATIVE_OK


@st.composite
def promised_models(draw):
    """Exact (g, H), promises zeta_j no looser than the requests, and the
    inexact (g + e, H + E) with ||e|| <= zeta_1 and ||E||_2 <= zeta_2."""
    r = draw(st.integers(1, 2))
    n = draw(st.integers(1, 5))
    requests = [10.0 ** draw(st.floats(-8.0, 0.0)) for _ in range(r)]
    zetas = [req * draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0])) for req in requests]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal(n) * 10.0 ** draw(st.floats(-4.0, 2.0))
    m = rng.standard_normal((n, n)) * 10.0 ** draw(st.floats(-4.0, 2.0))
    H = 0.5 * (m + m.T)
    u = rng.standard_normal(n)
    g_err = g + zetas[0] * rng.uniform(0.0, 1.0) * u / np.linalg.norm(u)
    e = rng.standard_normal((n, n))
    e = 0.5 * (e + e.T)
    e_norm = np.linalg.norm(e, 2)
    H_err = H + (zetas[1] * rng.uniform(0.0, 1.0) * e / e_norm if r == 2 and e_norm > 0.0 else 0.0)
    return r, g, H, g_err, H_err, zetas


def taylor_decrease(g, H, d, r):
    return -float(g @ d) - (0.5 * float(d @ H @ d) if r == 2 else 0.0)


class TestSoundness:
    """A certificate issued on promised accuracies holds for the exact
    derivatives whenever their errors stay within the promises."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        model=promised_models(),
        delta=st.floats(1e-3, 1.0),
        omega=st.floats(0.01, 0.99),
        xi=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
        probe=st.sampled_from(["measure", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certificates_hold_for_exact_increments(self, model, delta, omega, xi, probe, seed):
        r, g, H, g_err, H_err, zetas = model
        if probe == "measure":
            # the maximizer of the inexact decrease over the delta-ball
            if r == 1:
                gn = np.linalg.norm(g_err)
                d = -delta * g_err / gn if gn > 0.0 else np.zeros_like(g)
            else:
                d = trust_region_min(g_err, H_err, delta).d
        else:
            u = np.random.default_rng(seed).standard_normal(g.size)
            d = delta * np.random.default_rng(seed + 1).uniform(0.0, 1.0) * u / np.linalg.norm(u)
        increment = taylor_decrease(g_err, H_err, d, r)
        if increment < 0.0:
            d = -d
            increment = taylor_decrease(g_err, H_err, d, r)
        increment = max(0.0, increment)
        exact = taylor_decrease(g, H, d, r)
        nd = np.linalg.norm(d)
        rounding = 1e-12 * (np.linalg.norm(g_err) * nd + np.linalg.norm(H_err, 2) * nd * nd)
        flag = certify_increment(delta, increment, zetas, omega, xi)
        if flag is CertifyFlag.RELATIVE_OK:
            assert abs(exact - increment) <= omega * increment + rounding
        elif flag is CertifyFlag.SMALL_INCREMENT:
            assert abs(exact - increment) <= xi * chi(r, delta) + rounding
        elif flag is CertifyFlag.ZERO_INCREMENT:
            assert abs(exact) <= xi * chi(r, delta) + rounding


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0, "increment": 1.0, "zetas": (0.1,), "omega": 0.1, "xi": 0.1},
            {"delta": 1.0, "increment": -1.0, "zetas": (0.1,), "omega": 0.1, "xi": 0.1},
            {"delta": 1.0, "increment": 1.0, "zetas": (), "omega": 0.1, "xi": 0.1},
            {"delta": 1.0, "increment": 1.0, "zetas": (-0.1,), "omega": 0.1, "xi": 0.1},
            {"delta": 1.0, "increment": 1.0, "zetas": (0.1,), "omega": 1.0, "xi": 0.1},
            {"delta": 1.0, "increment": 1.0, "zetas": (0.1,), "omega": 0.1, "xi": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            certify_increment(**kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_tags(self, bad):
        with pytest.raises(ValueError, match="zetas"):
            certify_increment(1.0, 1.0, (0.1, bad), 0.1, 0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["delta", "increment"])
    def test_rejects_non_finite(self, field, bad):
        # NaN passes every ordered comparison, so it needs its own guard
        kwargs = {"delta": 1.0, "increment": 1.0, "zetas": (0.1,), "omega": 0.1, "xi": 0.1, field: bad}
        with pytest.raises(ValueError):
            certify_increment(**kwargs)
