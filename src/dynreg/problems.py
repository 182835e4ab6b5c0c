"""Test objectives with exact derivatives, and the sigmoid least-squares
finite sum with dataset generation, loading and saving.

The dataset file format is plain text, one record per line:
``label,feat_1,...,feat_n`` with label in {0, 1}, decimal floats, no header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class Problem:
    """An objective with exact value/gradient/Hessian callables.

    ``lipschitz`` maps a model degree p to the Hölder/Lipschitz constant of
    the order-p derivative (absent if unknown or nonexistent); constants may
    only be valid on a stated region, see the individual constructors.
    """

    name: str
    n: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    lipschitz: Mapping[int, float] = field(default_factory=dict)
    f_low: float | None = None


def make_quadratic(diag) -> Problem:
    """Convex quadratic x.diag(d).x/2 with a nonnegative diagonal d.
    L = max d for the gradient and exactly 0 for the (constant) Hessian."""
    d = np.asarray(diag, dtype=float)
    if d.ndim != 1:
        raise ValueError("expected a diagonal vector")
    if d.size == 0:
        raise ValueError("the dimension must be at least 1")
    if np.any(d < 0.0):
        raise ValueError("diagonal entries must be nonnegative")
    A = np.diag(d)
    return Problem(
        name="quadratic",
        n=d.size,
        value=lambda x: 0.5 * float(x @ (A @ x)),
        grad=lambda x: A @ x,
        hess=lambda x: A.copy(),
        lipschitz={1: float(d.max()), 2: 0.0},
        f_low=0.0,
    )


def make_rosenbrock() -> Problem:
    """Standard two-dimensional Rosenbrock; no global Hölder constants."""

    def value(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    def grad(x):
        return np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )

    def hess(x):
        return np.array(
            [
                [-400.0 * (x[1] - 3.0 * x[0] ** 2) + 2.0, -400.0 * x[0]],
                [-400.0 * x[0], 200.0],
            ]
        )

    return Problem(
        name="rosenbrock",
        n=2,
        value=value,
        grad=grad,
        hess=hess,
        f_low=0.0,
    )


def make_quartic(n: int, box_radius: float = 3.0) -> Problem:
    """Separable quartic sum(x_i^4)/4 with f_low = 0.

    The quartic has no global derivative Lipschitz constants; the recorded
    ones are valid on the box ||x||_inf <= box_radius (gradient: 3 R^2,
    Hessian: 6 R).  Callers checking worst-case bounds must keep the run
    inside that box.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if box_radius <= 0.0:
        raise ValueError("box_radius must be positive")
    r = float(box_radius)
    return Problem(
        name="quartic",
        n=n,
        value=lambda x: 0.25 * float(np.sum(x**4)),
        grad=lambda x: x**3,
        hess=lambda x: np.diag(3.0 * x**2),
        lipschitz={1: 3.0 * r * r, 2: 6.0 * r},
        f_low=0.0,
    )


# ---------------------------------------------------------------------------
# sigmoid least-squares finite sum
# ---------------------------------------------------------------------------

V_CLAMP = _kernels.V_CLAMP
Z_CLIP = _kernels.Z_CLIP


class DatasetError(ValueError):
    """Malformed dataset file; message carries the 1-based line number."""


@dataclass(frozen=True)
class Dataset:
    """Feature rows a_i, binary labels b_i, and uniform derivative bounds.

    ``features`` has shape (N, n) and is stored column-major (F-contiguous),
    so ``features.T`` is a C-order (n, N) array of feature columns.

    ``kappa_bounds[j]`` bounds |psi_i| (j = 0), ||grad psi_i|| (j = 1) and
    ||hess psi_i|| (j = 2) uniformly over i and x.
    """

    features: np.ndarray
    labels: np.ndarray
    kappa_bounds: tuple[float, float, float]

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _feature_bounds(features: np.ndarray) -> tuple[float, float, float]:
    # Uniform component bounds (1, 2 max ||a_i||/5, max ||a_i||^2/5):
    # |psi| <= 1; the gradient coefficient 2(b-v)(1-v)v peaks at 8/27 < 2/5
    # and the Hessian coefficient 2v(1-v)|3v^2-2v(1+b)+b| stays below 1/5.
    # Row norms are summed over C-order rows, so the bounds, and with them
    # every sample size, do not depend on the layout of ``features``.
    if features.shape[0] == 0:
        raise DatasetError("dataset is empty")
    rows = np.ascontiguousarray(features)
    max_norm = float(np.max(np.sqrt(np.sum(rows**2, axis=1))))
    return (1.0, 2.0 * max_norm / 5.0, max_norm**2 / 5.0)


def _make_dataset(features: np.ndarray, labels: np.ndarray) -> Dataset:
    # Column-major, so the kernels read features.T as C-order columns.  The
    # bounds come first, so their temporary is freed before the layout copy
    # is made.  Read-only, so the kernels' full-batch sigmoid memo, keyed on
    # the features object, cannot serve values of rows changed in place.
    features = np.asarray(features, dtype=float)
    labels = np.ascontiguousarray(labels, dtype=float)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DatasetError("labels must be 0 or 1")
    bounds = _feature_bounds(features)
    features = np.asfortranarray(features)
    features.flags.writeable = False
    labels.flags.writeable = False
    return Dataset(features=features, labels=labels, kappa_bounds=bounds)


def sigmoid_ls_derivs(a: np.ndarray, b: float, x: np.ndarray):
    """Value, gradient and Hessian of one component (b - sigmoid(a.x))^2.

    With v = sigmoid(a.x): the gradient is -2(b-v)(1-v)v a and the Hessian
    -2v(1-v)(3v^2 - 2v(1+b) + b) a a^T, the actual derivatives of the
    squared loss (both tested against central finite differences).  The
    sigmoid value is clamped into [1e-12, 1 - 1e-12] so the formulas stay
    finite under saturation.
    """
    a = np.asarray(a, dtype=float)
    z = min(max(float(a @ x), -Z_CLIP), Z_CLIP)
    v = 1.0 / (1.0 + math.exp(-z))
    v = min(max(v, V_CLAMP), 1.0 - V_CLAMP)
    value = (b - v) ** 2
    gcoef = -2.0 * (b - v) * (1.0 - v) * v
    hcoef = -2.0 * v * (1.0 - v) * (3.0 * v * v - 2.0 * v * (1.0 + b) + b)
    return value, gcoef * a, hcoef * np.outer(a, a)


def make_sigmoid_problem(dataset: Dataset) -> Problem:
    """Full-batch mean of the components as an exact Problem.

    The gradient is kappa_2-Lipschitz globally (the Hessian norm is bounded
    by kappa_2), giving an honest order-1 constant.
    """
    feats = dataset.features
    labels = dataset.labels
    n = dataset.dim
    full = _kernels.full_index(dataset.size)
    inv = 1.0 / dataset.size

    return Problem(
        name="sigmoid-ls",
        n=n,
        value=lambda x: _kernels.value_sum(feats, labels, np.asarray(x, float), full) * inv,
        grad=lambda x: _kernels.grad_sum(feats, labels, np.asarray(x, float), full) * inv,
        hess=lambda x: _kernels.hess_sum(feats, labels, np.asarray(x, float), full) * inv,
        lipschitz={1: dataset.kappa_bounds[2]},
        f_low=0.0,
    )


def make_synthetic_dataset(N: int, n: int, seed: int, max_feature_norm: float = 5.0) -> Dataset:
    """Reproducible dataset: Gaussian features rescaled so the largest row
    norm equals ``max_feature_norm``, labels from a planted linear separator
    with 10% label noise."""
    if N < 1 or n < 1:
        raise ValueError("N and n must be at least 1")
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((N, n))
    norms = np.sqrt(np.sum(feats**2, axis=1))
    top = float(np.max(norms))
    if top > 0.0:
        feats *= max_feature_norm / top
    planted = rng.standard_normal(n)
    labels = (feats @ planted > 0.0).astype(float)
    flip = rng.random(N) < 0.1
    labels[flip] = 1.0 - labels[flip]
    return _make_dataset(feats, labels)


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for i in range(dataset.size):
            label = int(dataset.labels[i])
            feats = ",".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{label},{feats}\n")


def load_dataset(path) -> Dataset:
    """Parse the CSV format; every malformed line reports its line number."""
    rows = []
    labels = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DatasetError(f"line {lineno}: need a label and at least one feature")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, values[1:])):
                raise DatasetError(f"line {lineno}: features must be finite numbers")
            if values[0] not in (0.0, 1.0):
                raise DatasetError(f"line {lineno}: label must be 0 or 1, got {parts[0]}")
            if width is None:
                width = len(values) - 1
            elif len(values) - 1 != width:
                raise DatasetError(
                    f"line {lineno}: expected {width} features, got {len(values) - 1}"
                )
            labels.append(values[0])
            rows.append(values[1:])
    if not rows:
        raise DatasetError("dataset is empty")
    return _make_dataset(np.array(rows, dtype=float), np.array(labels, dtype=float))
