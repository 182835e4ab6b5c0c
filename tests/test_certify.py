import numpy as np
import pytest

from dynreg import CertifyFlag, certify_increment


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
    @pytest.mark.parametrize("field", ["delta", "increment"])
    def test_rejects_non_finite(self, field, bad):
        # NaN passes every ordered comparison, so it needs its own guard
        kwargs = {"delta": 1.0, "increment": 1.0, "zetas": (0.1,), "omega": 0.1, "xi": 0.1, field: bad}
        with pytest.raises(ValueError):
            certify_increment(**kwargs)
