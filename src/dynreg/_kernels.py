"""Hot kernels for sigmoid least-squares component sums.

The subsampled oracle spends essentially all of its time summing
per-component values, gradients and Hessians over index sets with up to
N = 10^4 entries.  Datasets store their features column-major, so
``feats.T`` is a C-order (n, N) array of feature columns, and every sum
works on columns: a matrix-vector product for the logits, then a dot
product (value), a column-contiguous matrix-vector product (gradient) or
the blocked Hessian sum below.

When ``idx`` is the ordered full index 0..N-1 (the m = N case of the
operator-Bernstein sample size, and every call from the full-batch
``Problem``), the sums read ``feats.T`` and ``labels`` in place; any other
index set gathers its columns, in ascending index order, into a C-order
(n, m) copy first.  ``full_index(N)`` is one shared, read-only copy of
that index, which ``_columns`` recognises by identity before it falls back
to checking the entries.

The Hessian sum walks the columns in blocks of ``HESS_BLOCK``: each block
is weighted into one reused (n, HESS_BLOCK) buffer with a contiguous
multiply, and ``w_blk @ cols_blk.T`` is added into the (n, n) result.  At
n = 20 a block and its weighted copy take about 320 KB each, so the GEMM's
operands stay in cache where one GEMM over all N columns would stream them
from memory.  Full-batch and sampled calls take the same path.

BLAS reductions are blocked rather than sequential, so a sum agrees with
the sequential per-component sum to rounding, and repeated calls on the
same machine and BLAS are bit-identical.

Full-batch calls share their sigmoid values: the last full-batch
v = sigmoid(feats @ x) is kept, read-only, keyed on the ``feats`` object
itself and on the bytes of x, so the value, gradient and Hessian sums at one
point pay for one logits pass.  The key holds a reference to ``feats``, so
identity cannot be reused by another array; datasets mark their arrays
read-only, so the columns under a key do not change.  Sampled index sets
never read or write the memo.

Sigmoid evaluation matches ``problems.sigmoid_ls_derivs``: the logit is
clipped to +-708 before exponentiation and the sigmoid value is clamped to
[1e-12, 1 - 1e-12] so every derivative formula stays finite.
"""

from functools import lru_cache

import numpy as np

V_CLAMP = 1e-12
Z_CLIP = 708.0
# columns per block of the Hessian sum: about 320 KB of features at n = 20
HESS_BLOCK = 2048

# (feats, x bytes, v) of the last full-batch sigmoid pass
_last_logits = None


@lru_cache(maxsize=8)
def full_index(N: int) -> np.ndarray:
    """The ordered full index 0..N-1, one shared read-only array per N."""
    idx = np.arange(N, dtype=np.int64)
    idx.flags.writeable = False
    return idx


def _columns(feats, labels, idx):
    """Feature columns (n, m) and labels selected by ``idx``: a view of
    ``feats.T`` when ``idx`` is the ordered full index, else a copy
    gathered in ascending index order."""
    N = feats.shape[0]
    if idx is full_index(N) or (idx.shape[0] == N and idx[0] == 0 and np.all(np.diff(idx) == 1)):
        return feats.T, labels
    # a sum does not depend on the order of its terms; sorted, the gather
    # reads each column front to back instead of at m random places
    idx = np.sort(idx)
    return feats.T.take(idx, axis=1), labels[idx]


def _sigmoid(cols, x):
    z = np.clip(x @ cols, -Z_CLIP, Z_CLIP)
    return np.clip(1.0 / (1.0 + np.exp(-z)), V_CLAMP, 1.0 - V_CLAMP)


def _select(feats, labels, x, idx):
    """Columns, labels and sigmoid values selected by ``idx``; a full-batch
    call reuses the last full-batch values at the same (feats, x)."""
    global _last_logits
    cols, b = _columns(feats, labels, idx)
    if b is not labels:  # a gathered index set copies its labels
        return cols, b, _sigmoid(cols, x)
    key = np.asarray(x, dtype=float).tobytes()
    last = _last_logits
    if last is not None and last[0] is feats and last[1] == key:
        return cols, b, last[2]
    v = _sigmoid(cols, x)
    v.flags.writeable = False
    _last_logits = (feats, key, v)
    return cols, b, v


def value_sum(feats, labels, x, idx):
    """Sum over ``idx`` of (b_i - sigmoid(a_i.x))^2."""
    _, b, v = _select(feats, labels, x, idx)
    r = b - v
    return float(np.dot(r, r))


def grad_sum(feats, labels, x, idx):
    """Sum over ``idx`` of the component gradients -2(b-v)(1-v)v a_i."""
    cols, b, v = _select(feats, labels, x, idx)
    c = -2.0 * (b - v) * (1.0 - v) * v
    return cols @ c


def hess_sum(feats, labels, x, idx):
    """Sum over ``idx`` of the component Hessians
    -2v(1-v)(3v^2 - 2v(1+b) + b) a_i a_i^T, one GEMM per block of
    ``HESS_BLOCK`` columns."""
    cols, b, v = _select(feats, labels, x, idx)
    c = -2.0 * v * (1.0 - v) * (3.0 * v * v - 2.0 * v * (1.0 + b) + b)
    n, m = cols.shape
    out = np.zeros((n, n))
    w = np.empty((n, min(m, HESS_BLOCK)))
    for s in range(0, m, HESS_BLOCK):
        blk = cols[:, s : s + HESS_BLOCK]
        w_blk = w[:, : blk.shape[1]]
        np.multiply(blk, c[s : s + HESS_BLOCK], out=w_blk)
        out += w_blk @ blk.T
    return out


def backend():
    """Name of the kernel backend; always 'numpy' (numpy on BLAS)."""
    return "numpy"
