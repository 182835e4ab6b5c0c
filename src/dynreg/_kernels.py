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
index set gathers its rows first.  BLAS reductions are blocked rather than
sequential, so a sum agrees with the sequential per-component sum to
rounding, and repeated calls on the same machine and BLAS are bit-identical.

Sigmoid evaluation matches ``problems.sigmoid_ls_derivs``: the logit is
clipped to +-708 before exponentiation and the sigmoid value is clamped to
[1e-12, 1 - 1e-12] so every derivative formula stays finite.
"""

import numpy as np

V_CLAMP = 1e-12
Z_CLIP = 708.0


def _rows(feats, labels, idx):
    """Feature rows and labels selected by ``idx``, without a copy when
    ``idx`` is the ordered full index."""
    if idx.shape[0] == feats.shape[0] and idx[0] == 0 and np.all(np.diff(idx) == 1):
        return feats, labels
    return feats[idx], labels[idx]


def _sigmoid(rows, x):
    z = np.clip(rows @ x, -Z_CLIP, Z_CLIP)
    return np.clip(1.0 / (1.0 + np.exp(-z)), V_CLAMP, 1.0 - V_CLAMP)


def value_sum(feats, labels, x, idx):
    """Sum over ``idx`` of (b_i - sigmoid(a_i.x))^2."""
    rows, b = _rows(feats, labels, idx)
    r = b - _sigmoid(rows, x)
    return float(np.dot(r, r))


def grad_sum(feats, labels, x, idx):
    """Sum over ``idx`` of the component gradients -2(b-v)(1-v)v a_i."""
    rows, b = _rows(feats, labels, idx)
    v = _sigmoid(rows, x)
    c = -2.0 * (b - v) * (1.0 - v) * v
    return rows.T @ c


def hess_sum(feats, labels, x, idx):
    """Sum over ``idx`` of the component Hessians
    -2v(1-v)(3v^2 - 2v(1+b) + b) a_i a_i^T, as one GEMM."""
    rows, b = _rows(feats, labels, idx)
    v = _sigmoid(rows, x)
    c = -2.0 * v * (1.0 - v) * (3.0 * v * v - 2.0 * v * (1.0 + b) + b)
    return (rows.T * c) @ rows


def backend():
    """Name of the kernel backend; always 'numpy' (numpy on BLAS)."""
    return "numpy"
