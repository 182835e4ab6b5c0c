import numpy as np
import pytest

from dynreg import _kernels, make_synthetic_dataset, sigmoid_ls_derivs

SUMS = (_kernels.value_sum, _kernels.grad_sum, _kernels.hess_sum)


def sequential_sums(ds, x, idx):
    """Per-component loop: the reference every kernel sum is checked against."""
    value, grad, hess = 0.0, np.zeros(ds.dim), np.zeros((ds.dim, ds.dim))
    for i in idx:
        vi, gi, hi = sigmoid_ls_derivs(ds.features[i], ds.labels[i], x)
        value += vi
        grad += gi
        hess += hi
    return value, grad, hess


@pytest.fixture(scope="module")
def ds():
    return make_synthetic_dataset(400, 5, seed=21)


@pytest.fixture(scope="module")
def x():
    return np.array([0.6, -0.3, 1.2, 0.05, -0.8])


def test_full_batch_hessian_matches_sequential_sum(ds, x):
    full = np.arange(ds.size, dtype=np.int64)
    got = _kernels.hess_sum(ds.features, ds.labels, x, full)
    np.testing.assert_allclose(got, sequential_sums(ds, x, full)[2], rtol=5e-13, atol=1e-16)


def test_only_the_ordered_full_index_reads_rows_in_place(ds):
    full = np.arange(ds.size, dtype=np.int64)
    rows, labels = _kernels._rows(ds.features, ds.labels, full)
    assert rows is ds.features and labels is ds.labels
    repeated = full.copy()
    repeated[7] = 6
    for idx in (full[::-1].copy(), repeated, full[:-1]):
        rows, labels = _kernels._rows(ds.features, ds.labels, idx)
        np.testing.assert_array_equal(rows, ds.features[idx])
        np.testing.assert_array_equal(labels, ds.labels[idx])


def test_in_place_sums_match_gathered_sums(ds, x):
    full = np.arange(ds.size, dtype=np.int64)
    perm = np.random.default_rng(5).permutation(ds.size).astype(np.int64)
    for kernel in SUMS:
        in_place = kernel(ds.features, ds.labels, x, full)
        gathered = kernel(ds.features, ds.labels, x, perm)
        np.testing.assert_allclose(gathered, in_place, rtol=1e-12, atol=0.0)


def test_subsample_matches_sequential_sum(ds, x):
    idx = np.random.default_rng(9).integers(0, ds.size, size=150, dtype=np.int64)
    expected = sequential_sums(ds, x, idx)
    for kernel, want in zip(SUMS, expected):
        np.testing.assert_allclose(kernel(ds.features, ds.labels, x, idx), want, rtol=5e-13, atol=1e-16)


def test_backend_name():
    assert _kernels.backend() == "numpy"
