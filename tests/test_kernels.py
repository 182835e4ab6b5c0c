import numpy as np
import pytest

from dynreg import _kernels, load_dataset, make_synthetic_dataset, psi_bounds, save_dataset, sigmoid_ls_derivs
from dynreg.problems import _make_dataset

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
    for idx in (full, _kernels.full_index(ds.size)):
        cols, labels = _kernels._columns(ds.features, ds.labels, idx)
        assert np.shares_memory(cols, ds.features) and labels is ds.labels
        assert cols.flags.c_contiguous and cols.shape == (ds.dim, ds.size)
    repeated = full.copy()
    repeated[7] = 6
    for idx in (full[::-1].copy(), repeated, full[:-1], full[3:4]):
        cols, labels = _kernels._columns(ds.features, ds.labels, idx)
        assert not np.shares_memory(cols, ds.features) and not np.shares_memory(labels, ds.labels)
        assert cols.flags.c_contiguous
        order = np.sort(idx)
        np.testing.assert_array_equal(cols, ds.features[order].T)
        np.testing.assert_array_equal(labels, ds.labels[order])


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


@pytest.fixture
def cold():
    """Forget the full-batch sigmoid memo before and after a test."""
    _kernels._last_logits = None
    yield
    _kernels._last_logits = None


def _cold_call(kernel, ds, x, idx):
    _kernels._last_logits = None
    return kernel(ds.features, ds.labels, x, idx)


def test_warm_sums_equal_cold_sums_bit_for_bit(ds, x, cold):
    full = _kernels.full_index(ds.size)
    cold_results = [_cold_call(kernel, ds, x, full) for kernel in SUMS]
    _kernels.value_sum(ds.features, ds.labels, x, full)
    for kernel, want in zip(SUMS, cold_results):
        assert _kernels._last_logits is not None
        np.testing.assert_array_equal(kernel(ds.features, ds.labels, x, full), want)


def test_memo_values_are_read_only(ds, x, cold):
    _kernels.grad_sum(ds.features, ds.labels, x, _kernels.full_index(ds.size))
    with pytest.raises(ValueError):
        _kernels._last_logits[2][0] = 0.5


def test_x_mutated_in_place_gets_fresh_sums(ds, x, cold):
    full = _kernels.full_index(ds.size)
    y = x.copy()
    before = _kernels.grad_sum(ds.features, ds.labels, y, full)
    y[2] += 0.25
    for kernel in SUMS:
        got = kernel(ds.features, ds.labels, y, full)
        np.testing.assert_array_equal(got, _cold_call(kernel, ds, y, full))
    assert not np.array_equal(_kernels.grad_sum(ds.features, ds.labels, y, full), before)


def test_two_datasets_at_one_x_never_cross(x, cold):
    # same shape, so only the features object tells the two memo keys apart
    a = make_synthetic_dataset(300, 5, seed=1)
    b = make_synthetic_dataset(300, 5, seed=2)
    full = _kernels.full_index(300)
    want = {id(d): [_cold_call(kernel, d, x, full) for kernel in SUMS] for d in (a, b)}
    _kernels._last_logits = None
    for d in (a, b, a, b, b, a):
        for kernel, expected in zip(SUMS, want[id(d)]):
            np.testing.assert_array_equal(kernel(d.features, d.labels, x, full), expected)


def test_sampled_index_never_touches_the_memo(ds, x, cold):
    idx = np.random.default_rng(3).integers(0, ds.size, size=50, dtype=np.int64)
    for kernel in SUMS:
        kernel(ds.features, ds.labels, x, idx)
    assert _kernels._last_logits is None
    _kernels.value_sum(ds.features, ds.labels, x, _kernels.full_index(ds.size))
    memo = _kernels._last_logits
    for kernel in SUMS:
        kernel(ds.features, ds.labels, x, idx)
        kernel(ds.features, ds.labels, x + 1.0, idx)
    assert _kernels._last_logits is memo


def test_full_index_is_shared_and_read_only(ds, monkeypatch):
    from dynreg import make_sigmoid_problem, subsampled_eval

    full = _kernels.full_index(ds.size)
    assert _kernels.full_index(ds.size) is full
    np.testing.assert_array_equal(full, np.arange(ds.size))
    with pytest.raises(ValueError):
        full[0] = 1
    seen = []
    monkeypatch.setattr(_kernels, "value_sum", lambda feats, labels, x, idx: seen.append(idx) or 0.0)
    subsampled_eval(ds, np.zeros(ds.dim), 0, ds.size, np.random.default_rng(0))
    make_sigmoid_problem(ds).value(np.zeros(ds.dim))
    assert len(seen) == 2 and all(idx is full for idx in seen)


@pytest.fixture(scope="module")
def blocks_ds():
    # several Hessian blocks and a ragged last one
    return make_synthetic_dataset(2 * _kernels.HESS_BLOCK + 37, 5, seed=13)


def test_blocked_sums_match_sequential_sums(blocks_ds, x, cold):
    ds = blocks_ds
    rng = np.random.default_rng(17)
    for idx in (
        _kernels.full_index(ds.size),
        rng.permutation(ds.size).astype(np.int64),
        rng.integers(0, ds.size, size=ds.size - 1, dtype=np.int64),
        rng.integers(0, ds.size, size=_kernels.HESS_BLOCK + 1, dtype=np.int64),
    ):
        for kernel, want in zip(SUMS, sequential_sums(ds, x, idx)):
            got = _cold_call(kernel, ds, x, idx)
            np.testing.assert_allclose(got, want, rtol=5e-13, atol=1e-16)


def test_one_row_sample(ds, x):
    for i in (0, 123, ds.size - 1):
        idx = np.array([i], dtype=np.int64)
        for kernel, want in zip(SUMS, sequential_sums(ds, x, idx)):
            np.testing.assert_allclose(kernel(ds.features, ds.labels, x, idx), want, rtol=5e-13, atol=1e-16)


def _c_order_bounds(rows):
    max_norm = float(np.max(np.sqrt(np.sum(np.ascontiguousarray(rows) ** 2, axis=1))))
    return (1.0, 2.0 * max_norm / 5.0, max_norm**2 / 5.0)


def _assert_column_major_copy_of(d, rows):
    assert d.features.flags.f_contiguous and not d.features.flags.writeable
    assert d.features.shape == rows.shape
    np.testing.assert_array_equal(d.features, rows)
    assert d.kappa_bounds == _c_order_bounds(rows)
    assert psi_bounds(d) == d.kappa_bounds


def test_datasets_store_read_only_column_major_features(tmp_path):
    # at these seeds the largest row norm summed over F-order columns
    # differs in its last bit from the C-order sum
    rows = np.random.default_rng(12).standard_normal((57, 20))
    assert rows.flags.c_contiguous
    labels = (rows[:, 0] > 0).astype(float)
    _assert_column_major_copy_of(_make_dataset(rows, labels), rows)
    _assert_column_major_copy_of(_make_dataset(np.asfortranarray(rows), labels), rows)

    synth = make_synthetic_dataset(57, 20, seed=12)
    rng = np.random.default_rng(12)  # the generator's draws, replayed
    want = rng.standard_normal((57, 20))
    want *= 5.0 / float(np.max(np.sqrt(np.sum(want**2, axis=1))))
    _assert_column_major_copy_of(synth, want)

    path = tmp_path / "data.csv"
    save_dataset(synth, path)
    _assert_column_major_copy_of(load_dataset(path), want)
