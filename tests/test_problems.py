import numpy as np
import pytest

from dynreg import (
    DatasetError,
    load_dataset,
    make_quadratic,
    make_quartic,
    make_rosenbrock,
    make_sigmoid_problem,
    make_synthetic_dataset,
    save_dataset,
    sigmoid_ls_derivs,
)


def fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * (1.0 + abs(x[i]))
        g[i] = (f(x + e) - f(x - e)) / (2 * e[i])
    return g


def fd_hessian(grad, x, h=1e-5):
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h * (1.0 + abs(x[i]))
        H[:, i] = (grad(x + e) - grad(x - e)) / (2 * e[i])
    return 0.5 * (H + H.T)


class TestSigmoidComponent:
    def test_constant_component(self):
        a = np.zeros(3)
        v, g, h = sigmoid_ls_derivs(a, 1.0, np.array([5.0, -2.0, 0.0]))
        assert v == pytest.approx(0.25, abs=0)
        np.testing.assert_array_equal(g, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros((3, 3)))

    def test_midpoint_coefficients(self):
        # a.x = 0 gives v = 1/2: value 1/4, gradient coefficient
        # -2 (1/2)(1/2)(1/2) = -1/4, Hessian coefficient
        # -2 (1/4)(3/4 - 2 + 1) = 1/8
        a = np.array([1.0, 0.0])
        x = np.zeros(2)
        v, g, h = sigmoid_ls_derivs(a, 1.0, x)
        assert v == pytest.approx(0.25, abs=0)
        assert g[0] == pytest.approx(-0.25, abs=0)
        assert h[0, 0] == pytest.approx(0.125, abs=0)

    def test_component_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-2, 2, n)
            b = float(rng.integers(0, 2))
            x = rng.uniform(-2, 2, n)
            _, g, h = sigmoid_ls_derivs(a, b, x)
            gf = fd_gradient(lambda z: sigmoid_ls_derivs(a, b, z)[0], x)
            np.testing.assert_allclose(g, gf, atol=1e-6)
            hf = fd_hessian(lambda z: sigmoid_ls_derivs(a, b, z)[1], x)
            np.testing.assert_allclose(h, hf, atol=1e-6)

    def test_saturation_is_finite(self):
        a = np.array([100.0])
        for b in (0.0, 1.0):
            for x in (np.array([50.0]), np.array([-50.0])):
                v, g, h = sigmoid_ls_derivs(a, b, x)
                assert np.isfinite(v) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))


class TestBuiltinProblems:
    @pytest.mark.parametrize(
        "prob",
        [
            make_quadratic(np.array([1.0, 2.0, 0.5])),
            make_rosenbrock(),
            make_quartic(3),
        ],
        ids=["quadratic", "rosenbrock", "quartic"],
    )
    def test_derivatives_match_finite_differences(self, prob):
        rng = np.random.default_rng(33)
        for _ in range(100):
            x = rng.uniform(-2, 2, prob.n)
            np.testing.assert_allclose(prob.grad(x), fd_gradient(prob.value, x), atol=1e-6)
            np.testing.assert_allclose(prob.hess(x), fd_hessian(prob.grad, x), atol=1e-6)

    def test_sigmoid_problem_finite_differences(self):
        ds = make_synthetic_dataset(200, 4, seed=8)
        prob = make_sigmoid_problem(ds)
        rng = np.random.default_rng(34)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, 4)
            np.testing.assert_allclose(prob.grad(x), fd_gradient(prob.value, x), atol=1e-6)
            np.testing.assert_allclose(prob.hess(x), fd_hessian(prob.grad, x), atol=1e-6)

    def test_quadratic_metadata(self):
        prob = make_quadratic(np.array([1.0, 2.0]))
        assert prob.lipschitz == {1: 2.0, 2: 0.0}
        assert prob.f_low == 0.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_quartic_rejects_empty_dimension(self, n):
        with pytest.raises(ValueError, match="must be at least 1"):
            make_quartic(n)

    @pytest.mark.parametrize("a", [np.zeros(0), np.zeros((0, 0))])
    def test_quadratic_rejects_empty_matrix(self, a):
        with pytest.raises(ValueError, match="must be at least 1" if a.ndim == 1 else "expected a diagonal vector"):
            make_quadratic(a)

    def test_full_batch_equals_sequential_component_mean(self):
        ds = make_synthetic_dataset(150, 3, seed=12)
        prob = make_sigmoid_problem(ds)
        x = np.array([0.4, -0.2, 1.1])
        acc = np.zeros(3)
        for i in range(ds.size):
            _, gi, _ = sigmoid_ls_derivs(ds.features[i], ds.labels[i], x)
            acc += gi
        expected = acc / ds.size
        got = prob.grad(x)
        np.testing.assert_allclose(got, expected, rtol=5e-13, atol=1e-16)


class TestDataset:
    def test_deterministic(self):
        a = make_synthetic_dataset(50, 3, seed=99)
        b = make_synthetic_dataset(50, 3, seed=99)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_binary(self):
        ds = make_synthetic_dataset(200, 5, seed=1)
        assert set(np.unique(ds.labels)) <= {0.0, 1.0}

    def test_kappa_bounds_recomputed_independently(self):
        ds = make_synthetic_dataset(80, 4, seed=2)
        max_norm = max(np.linalg.norm(row) for row in ds.features)
        assert ds.kappa_bounds[1] == pytest.approx(2.0 * max_norm / 5.0, rel=1e-15)
        assert ds.kappa_bounds[2] == pytest.approx(max_norm**2 / 5.0, rel=1e-15)

    def test_round_trip(self, tmp_path):
        ds = make_synthetic_dataset(40, 3, seed=5)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.kappa_bounds == ds.kappa_bounds

    def test_arrays_are_read_only(self, tmp_path):
        # the kernels' full-batch memo is keyed on the features object, so
        # rows written in place would be served stale sigmoid values
        ds = make_synthetic_dataset(40, 3, seed=5)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        for d in (ds, load_dataset(path)):
            with pytest.raises(ValueError):
                d.features[0, 0] = 1.0
            with pytest.raises(ValueError):
                d.labels[0] = 1.0 - d.labels[0]

    def test_load_small_literal(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,0.5,0.5\n0,-1,2\n")
        ds = load_dataset(path)
        assert ds.size == 2 and ds.dim == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,0.5,0.5\n0,-1\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("2,0.5\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_rejected(self, tmp_path, field):
        # float() parses these, and 1e999 overflows to inf
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1,0.5,0.5\n0,0.5,{field}\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_garbage_field_rejected(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text("1,0.5\n0,abc\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)
