"""Hot kernels for sigmoid least-squares component sums.

The subsampled oracle spends essentially all of its time summing
per-component values, gradients and Hessians over index sets with up to
N = 10^4 entries.  Each sum is one BLAS pass over the selected feature rows:
a matrix-vector product for the logits, then a dot product (value), a
transposed matrix-vector product (gradient) or a GEMM of the weighted rows
against the rows (Hessian).

When ``idx`` is the ordered full index 0..N-1 (the m = N case of the
operator-Bernstein sample size, and every call from the full-batch
``Problem``), the sums read ``feats`` and ``labels`` in place; any other
index set gathers its rows first.  ``full_index(N)`` is one shared,
read-only copy of that index, which ``_rows`` recognises by identity before
it falls back to checking the entries.  BLAS reductions are blocked rather
than sequential, so a sum agrees with the sequential per-component sum to
rounding, and repeated calls on the same machine and BLAS are bit-identical.

Full-batch calls share their sigmoid values: the last full-batch
v = sigmoid(feats @ x) is kept, read-only, keyed on the ``feats`` object
itself and on the bytes of x, so the value, gradient and Hessian sums at one
point pay for one logits pass.  The key holds a reference to ``feats``, so
identity cannot be reused by another array; datasets mark their arrays
read-only, so the rows under a key do not change.  Sampled index sets never
read or write the memo.

The Hessian weights the rows into a C-order (n, m) buffer and multiplies it
by the rows, one row-contiguous GEMM.  Above OpenBLAS's small-matrix range
(m n^2 > 10^6, as in the full-batch sums at N = 10^4, n = 20) it gives the
bits of ``(rows.T * c) @ rows``, which builds an F-order temporary, and is
faster; inside that range it is slower and rounds differently.

Sigmoid evaluation matches ``problems.sigmoid_ls_derivs``: the logit is
clipped to +-708 before exponentiation and the sigmoid value is clamped to
[1e-12, 1 - 1e-12] so every derivative formula stays finite.
"""

from functools import lru_cache

import numpy as np

V_CLAMP = 1e-12
Z_CLIP = 708.0

# (feats, x bytes, v) of the last full-batch sigmoid pass
_last_logits = None


@lru_cache(maxsize=8)
def full_index(N: int) -> np.ndarray:
    """The ordered full index 0..N-1, one shared read-only array per N."""
    idx = np.arange(N, dtype=np.int64)
    idx.flags.writeable = False
    return idx


def _rows(feats, labels, idx):
    """Feature rows and labels selected by ``idx``, without a copy when
    ``idx`` is the ordered full index."""
    N = feats.shape[0]
    if idx is full_index(N) or (idx.shape[0] == N and idx[0] == 0 and np.all(np.diff(idx) == 1)):
        return feats, labels
    return feats[idx], labels[idx]


def _sigmoid(rows, x):
    z = np.clip(rows @ x, -Z_CLIP, Z_CLIP)
    return np.clip(1.0 / (1.0 + np.exp(-z)), V_CLAMP, 1.0 - V_CLAMP)


def _select(feats, labels, x, idx):
    """Rows, labels and sigmoid values selected by ``idx``; a full-batch
    call reuses the last full-batch values at the same (feats, x)."""
    global _last_logits
    rows, b = _rows(feats, labels, idx)
    if rows is not feats:
        return rows, b, _sigmoid(rows, x)
    key = np.asarray(x, dtype=float).tobytes()
    last = _last_logits
    if last is not None and last[0] is feats and last[1] == key:
        return rows, b, last[2]
    v = _sigmoid(rows, x)
    v.flags.writeable = False
    _last_logits = (feats, key, v)
    return rows, b, v


def value_sum(feats, labels, x, idx):
    """Sum over ``idx`` of (b_i - sigmoid(a_i.x))^2."""
    _, b, v = _select(feats, labels, x, idx)
    r = b - v
    return float(np.dot(r, r))


def grad_sum(feats, labels, x, idx):
    """Sum over ``idx`` of the component gradients -2(b-v)(1-v)v a_i."""
    rows, b, v = _select(feats, labels, x, idx)
    c = -2.0 * (b - v) * (1.0 - v) * v
    return rows.T @ c


def hess_sum(feats, labels, x, idx):
    """Sum over ``idx`` of the component Hessians
    -2v(1-v)(3v^2 - 2v(1+b) + b) a_i a_i^T, as one GEMM."""
    rows, b, v = _select(feats, labels, x, idx)
    c = -2.0 * v * (1.0 - v) * (3.0 * v * v - 2.0 * v * (1.0 + b) + b)
    w = np.empty((rows.shape[1], rows.shape[0]))
    np.multiply(rows.T, c, out=w)
    return w @ rows


def backend():
    """Name of the kernel backend; always 'numpy' (numpy on BLAS)."""
    return "numpy"
